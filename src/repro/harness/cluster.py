"""The simulation driver: a full urcgc group over the simulated LAN.

:class:`SimCluster` instantiates one :class:`~repro.core.member.Member`
per process, attaches each to the datagram network through its own
:class:`~repro.net.transport.MulticastTransport` entity (the Section 5
stack: urcgc entity over a t-SAP), drives rounds with the
:class:`~repro.sim.rounds.RoundScheduler`, runs each member's effects
through its :class:`~repro.core.driver.MemberDriver`, and collects
every metric the paper's evaluation reports — end-to-end delays,
control traffic, history and waiting-list occupancy.
"""

from __future__ import annotations

from ..analysis.delay import DeliveryLog
from ..core.batcher import expand_message
from ..core.config import UrcgcConfig
from ..core.driver import MemberDriver, settled
from ..core.effects import SuspicionChange
from ..core.member import Member
from ..core.service import UrcgcService
from ..errors import WireFormatError
from ..net.addressing import BROADCAST_GROUP
from ..net.faults import FaultPlan
from ..net.network import DatagramNetwork
from ..net.transport import MulticastTransport
from ..net.wire import decode_message
from ..obs import NULL_RECORDER, Recorder, write_jsonl
from ..sim.kernel import Kernel
from ..sim.rounds import RoundScheduler
from ..storage import GroupStorage
from ..types import ProcessId, Time
from ..workloads.generators import NullWorkload, Workload

__all__ = ["SimCluster"]


class SimCluster:
    """One simulated urcgc group.

    Parameters
    ----------
    config:
        Protocol parameters shared by every member.
    workload:
        Submission source queried at every round.
    faults:
        Fault plan (defaults to a reliable network).
    h:
        Transport-level required replies; the paper simulates ``h = 1``
        (raw datagram, recovery handled by urcgc's history).
    mtu:
        Optional transport MTU: frames above it go through the
        fragmentation sublayer.
    max_rounds:
        Hard stop for the round scheduler.
    seed, trace:
        Kernel determinism and tracing controls.
    storage:
        Optional :class:`~repro.storage.GroupStorage`: every member
        then write-ahead-logs its traffic and snapshots on the
        storage's cadence, exactly like the live runtime — the
        deterministic code path the recovery property tests replay.
    """

    def __init__(
        self,
        config: UrcgcConfig,
        *,
        workload: Workload | None = None,
        faults: FaultPlan | None = None,
        h: int = 1,
        mtu: int | None = None,
        max_rounds: int = 200,
        seed: int = 0,
        trace: bool = True,
        one_way_delay: Time = 0.5,
        medium=None,
        storage: GroupStorage | None = None,
    ) -> None:
        self.config = config
        self.kernel = Kernel(seed=seed, trace=trace)
        #: Span recorder (no-op unless ``config.observability``); it
        #: shares the kernel's registry, so `history.*` series and the
        #: network counters land in the same exported state.
        self.recorder: Recorder = (
            Recorder(
                clock=lambda: float(self.kernel.now),
                clock_kind="sim",
                registry=self.kernel.metrics,
            )
            if config.observability
            else NULL_RECORDER
        )
        self._obs = self.recorder.enabled
        self.network = DatagramNetwork(
            self.kernel, faults=faults, one_way_delay=one_way_delay, medium=medium
        )
        if self._obs:
            self.network.stats.bind(self.kernel.metrics)
        self.workload: Workload = workload or NullWorkload()
        self.scheduler = RoundScheduler(self.kernel, max_rounds=max_rounds)
        self.delivery_log = DeliveryLog()
        self.storage = storage
        self._quiescent_at: Time | None = None
        #: One effect pipeline per member (see :mod:`repro.core.driver`).
        self.drivers: list[MemberDriver] = []
        for i in range(config.n):
            pid = ProcessId(i)
            transport = MulticastTransport(
                self.kernel,
                self.network,
                pid,
                on_data=lambda src, data, pid=pid: self._on_data(pid, src, data),
                h=h,
                mtu=mtu,
            )
            self.network.join(BROADCAST_GROUP, pid)
            self.drivers.append(
                MemberDriver(
                    pid,
                    config,
                    transmit=lambda dst, data, kind, t=transport: t.t_data_rq(
                        dst, data, kind=kind
                    ),
                    clock=lambda: self.kernel.now,
                    recorder=self.recorder,
                    storage=storage.node(pid) if storage is not None else None,
                    delivery_log=self.delivery_log,
                    trace=self.kernel.trace,
                )
            )
        self.members: list[Member] = [d.member for d in self.drivers]
        self.services: list[UrcgcService] = [d.service for d in self.drivers]

        self.scheduler.subscribe(self._on_round)
        self.scheduler.start()

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    @property
    def now(self) -> Time:
        return self.kernel.now

    @property
    def decode_errors(self) -> int:
        """Datagrams dropped by the hardened decode path (malformed or
        semantically out-of-range PDUs), cluster-wide."""
        return sum(d.decode_errors for d in self.drivers)

    @property
    def dup_suppressed(self) -> int:
        """Batch-expanded duplicates suppressed before the engine."""
        return sum(d.dup_suppressed for d in self.drivers)

    @property
    def suspicion_events(self) -> list[tuple[ProcessId, SuspicionChange]]:
        """Suspicion transitions reported by members' failure detectors,
        as (pid, effect) pairs, each member's in occurrence order."""
        return [(d.pid, e) for d in self.drivers for e in d.suspicion_events]

    def is_active(self, pid: ProcessId) -> bool:
        """Active = not crashed and not left (the paper's group)."""
        return not self.network.faults.is_crashed(
            pid, self.kernel.now
        ) and not self.members[pid].has_left

    def active_pids(self) -> list[ProcessId]:
        return [ProcessId(i) for i in range(self.config.n) if self.is_active(ProcessId(i))]

    def quiescent(self) -> bool:
        """All active members agree on what was processed, have no
        pending submissions or waiting messages, and the workload has
        nothing more to submit."""
        finished = getattr(self.workload, "finished", None)
        if finished is not None and not finished(self.scheduler.current_round):
            return False
        return settled(self.members[pid] for pid in self.active_pids())

    @property
    def quiescent_at(self) -> Time | None:
        """First time quiescence was observed at a round boundary."""
        return self._quiescent_at

    def delay_report(self):
        """Delay statistics over the final active membership."""
        return self.delivery_log.report(set(self.active_pids()))

    def history_series(self, pid: ProcessId):
        return self.kernel.metrics.series_for(f"history.p{pid}")

    def max_history_series(self):
        """Per-round maximum history length over active members."""
        return self.kernel.metrics.series_for("history.max")

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def run(self, *, max_events: int | None = None) -> None:
        """Run to completion (queue drained or max_rounds reached)."""
        self.kernel.run(max_events=max_events)

    def resume_rounds(self) -> None:
        """Un-stop the round scheduler (see
        :meth:`~repro.sim.rounds.RoundScheduler.resume`): the service
        tier keeps a cluster alive across quiescent phases and re-runs
        it for failover salvage and topic handoff."""
        self._quiescent_at = None
        self.scheduler.resume()

    def crash(self, pid: ProcessId, *, partial_deliveries: int | None = None) -> None:
        """Crash ``pid`` *now* (mid-run fault injection).

        Unlike a pre-declared :class:`FaultPlan` crash this needs no
        schedule: the member stops sending and receiving from the
        current instant, and the survivors' loss-declaration machinery
        (K missed turns, orphan discard, eviction) takes over.  The
        service-tier failover path drives this.
        """
        self.network.faults.crashes.crash(
            pid, self.kernel.now, partial_deliveries=partial_deliveries
        )

    def run_until_quiescent(self, *, drain_subruns: int = 0) -> Time | None:
        """Run until the group goes *stably* quiescent, then optionally
        keep running ``drain_subruns`` more subruns (history cleaning
        trails quiescence by up to a subrun under reliable conditions).

        A workload may submit again after a momentarily-quiet round, so
        quiescence is re-checked after the drain window; if new work
        arrived, the run continues until the group is quiet again.
        Returns the (final) quiescence time, or None if max_rounds was
        reached first.
        """
        while True:
            self.kernel.run(stop_when=lambda: self._quiescent_at is not None)
            if self._quiescent_at is None:
                return None  # max_rounds exhausted without quiescence
            if drain_subruns:
                horizon = self._quiescent_at + 2 * drain_subruns
                self.kernel.run(until=horizon)
            if self.quiescent():
                break
            # More submissions landed after the quiet instant: unlatch
            # and keep running.
            self._quiescent_at = None
        self.scheduler.stop()
        self.kernel.run()
        return self._quiescent_at

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def write_trace(self, path: str, **meta: object) -> None:
        """Export the run's JSONL trace (requires observability on)."""
        if not self._obs:
            raise RuntimeError(
                "observability is disabled; construct the cluster with "
                "UrcgcConfig(observability=True)"
            )
        write_jsonl(path, self.recorder, runner="sim", n=self.config.n, **meta)

    def _on_round(self, round_no: int) -> None:
        now = self.kernel.now
        if self._obs and round_no % 2 == 0:
            self.recorder.subrun(round_no // 2, time=now)
        for pid, payload in self.workload.submissions(round_no):
            if self.is_active(pid):
                self.services[pid].data_rq(payload)
        for driver in self.drivers:
            if self.is_active(driver.pid):
                driver.tick(round_no)
        self._sample_metrics(now, round_no)
        if self._quiescent_at is None and round_no > 0 and self.quiescent():
            self._quiescent_at = now
            self.kernel.trace.emit(now, "cluster.quiescent", None, round=round_no)

    def _sample_metrics(self, now: Time, round_no: int) -> None:
        metrics = self.kernel.metrics
        max_history = 0
        max_waiting = 0
        for i in range(self.config.n):
            pid = ProcessId(i)
            if not self.is_active(pid):
                continue
            member = self.members[i]
            metrics.sample(f"history.p{pid}", now, member.history_length)
            max_history = max(max_history, member.history_length)
            max_waiting = max(max_waiting, member.waiting_length)
        metrics.sample("history.max", now, max_history)
        metrics.sample("waiting.max", now, max_waiting)

    def _on_data(self, pid: ProcessId, src: ProcessId, data: bytes) -> None:
        if not self.is_active(pid):
            return
        try:
            decoded = decode_message(data)
            expanded = list(expand_message(decoded))
        except WireFormatError:
            # Malformed bytes (bad tag, truncated vector, garbage) are
            # a loss at this endpoint, never a crash of the simulation.
            self.drivers[pid].decode_error("parse")
            return
        self.drivers[pid].receive(decoded, expanded)
