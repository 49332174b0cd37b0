"""One urcgc node on the asyncio LAN.

Hosts a :class:`~repro.core.driver.MemberDriver` (the member engine,
its user SAP and the effect pipeline the simulator shares): a
round-ticker task fires the two protocol rounds per subrun at a
configurable cadence and a receiver task feeds decoded datagrams to
the driver, which sends to the LAN and indicates to the application.

Use :class:`AsyncGroup` to spin up a whole group at once.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from ..core.batcher import expand_message
from ..core.config import UrcgcConfig
from ..core.driver import MemberDriver, settled
from ..core.effects import SuspicionChange
from ..core.member import Member
from ..core.message import UserMessage
from ..core.service import UrcgcService
from ..errors import WireFormatError
from ..net.addressing import BROADCAST_GROUP
from ..net.wire import decode_message
from ..obs import NULL_RECORDER, Recorder, write_jsonl
from ..storage import GroupStorage, NodeStorage, SnapshotJob, restore_member
from ..types import ProcessId, SubrunNo
from .lan import AsyncLan
from .rtt import AdaptiveRoundTimer

__all__ = ["AsyncNode", "AsyncGroup"]

IndicationCallback = Callable[[ProcessId, UserMessage], None]


class AsyncNode:
    """One live group member.

    Parameters
    ----------
    pid, config, lan:
        Identity, protocol parameters, fabric.
    round_interval:
        Wall-clock seconds per protocol round (half a subrun).
    adaptive_timer:
        Optional :class:`~repro.runtime.rtt.AdaptiveRoundTimer`: the
        node then sizes each round from the measured request→decision
        round trip ("assuming the subrun as long as the round trip
        delay"), instead of the fixed ``round_interval``.
    on_indication:
        Callback ``(pid, message)`` for every processed message.
    storage:
        Optional :class:`~repro.storage.NodeStorage`: the node then
        write-ahead-logs every own message (before it is sent), every
        processed peer message, and every adopted decision, snapshots on
        the storage's cadence, and supports :meth:`recover` after a
        :meth:`crash`.
    recorder:
        Span recorder shared across the group (wall clock).  Defaults
        to the no-op recorder; :class:`AsyncGroup` wires a live one
        when ``config.observability`` is set.
    """

    def __init__(
        self,
        pid: ProcessId,
        config: UrcgcConfig,
        lan: AsyncLan,
        *,
        round_interval: float = 0.02,
        adaptive_timer: AdaptiveRoundTimer | None = None,
        on_indication: IndicationCallback | None = None,
        storage: NodeStorage | None = None,
        recorder: Recorder | None = None,
    ) -> None:
        self.pid = pid
        self.config = config
        self.storage = storage
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._obs = self.recorder.enabled
        self._lan = lan
        self._endpoint = lan.attach(pid)
        lan.join(BROADCAST_GROUP, pid)
        self.round_interval = round_interval
        self.adaptive_timer = adaptive_timer
        #: The member's effect pipeline (see :mod:`repro.core.driver`).
        self.driver = MemberDriver(
            pid,
            config,
            transmit=lambda dst, data, kind: lan.sendto(pid, dst, data, kind=kind),
            clock=time.monotonic,
            recorder=self.recorder,
            storage=storage,
            round_timer=adaptive_timer,
            persist=self._persist_snapshot,
        )
        if on_indication is not None:
            self.service.set_indication_handler(
                lambda message: on_indication(pid, message)
            )
        self._tasks: list[asyncio.Task] = []
        #: In-flight snapshot persistence (runs on the default executor).
        self._snapshot_task: asyncio.Task | None = None
        self.crashed = False
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------

    def submit(self, payload: bytes) -> None:
        """urcgc.data.Rq: queue a payload for the next round; the
        request handle lands in ``service.confirmed`` once generated."""
        self.service.data_rq(payload)

    @property
    def member(self) -> Member:
        return self.driver.member

    @property
    def service(self) -> UrcgcService:
        """The urcgc SAP: indications, confirms, discards."""
        return self.driver.service

    @property
    def delivered(self) -> list[UserMessage]:
        """Every message processed here, in processing order."""
        return self.driver.service.delivered

    @property
    def decode_errors(self) -> int:
        """Datagrams dropped by the hardened decode path."""
        return self.driver.decode_errors

    @property
    def suspicion_events(self) -> list[SuspicionChange]:
        """Suspicion transitions the failure detector reported."""
        return self.driver.suspicion_events

    @property
    def has_left(self) -> bool:
        return self.member.has_left

    @property
    def current_round(self) -> int:
        return self.driver.round

    @property
    def current_subrun(self) -> int:
        return self.driver.round // 2

    @property
    def is_live(self) -> bool:
        """Still a functioning group member: neither crashed nor left."""
        return not self.crashed and not self.member.has_left

    def start(self) -> None:
        """Spawn the ticker and receiver tasks."""
        if self._tasks:
            raise RuntimeError("node already started")
        self._tasks = [
            asyncio.create_task(self._ticker(), name=f"urcgc-ticker-p{self.pid}"),
            asyncio.create_task(self._receiver(), name=f"urcgc-recv-p{self.pid}"),
        ]

    async def stop(self) -> None:
        """Cancel the node's tasks and wait for them to finish."""
        self._stopped.set()
        # Detach the task list *before* the await below: anything that
        # observes the node mid-gather (a concurrent start/stop) must
        # see it already stopped, not a half-cancelled intermediate.
        tasks, self._tasks = self._tasks, []
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        flush, self._snapshot_task = self._snapshot_task, None
        if flush is not None:
            # Drain the in-flight snapshot so durable state is settled
            # before crash()/recover() read it back.
            await flush

    async def crash(self) -> None:
        """Fail-stop this node: halt the ticker and receiver immediately.

        The engine state, delivery log, and endpoint are left intact
        (socket state stays consistent — the fabric still owns the
        endpoint), so a post-mortem audit can read what the process
        observed before dying.  Idempotent.
        """
        if self.crashed:
            return
        self.crashed = True
        await self.stop()

    def recover(self) -> None:
        """Restart after a :meth:`crash` as a *new incarnation*.

        Reloads the snapshot + WAL from :attr:`storage`, replays the
        WAL into a fresh engine (recomputing the delivered log, which
        extends the pre-crash log prefix-consistently), then begins the
        rejoin protocol: the node broadcasts JOIN requests until a
        coordinator admits it via a circulated decision, catches up by
        state transfer, and only then resumes generating REQUESTs.

        Requires ``storage`` and ``config.enable_rejoin``.  Must be
        called from a running event loop (it restarts the node tasks).
        If the fabric knows how to revive a process (``ChaosFabric``),
        the fabric-level crash is lifted too.
        """
        if self.storage is None:
            raise RuntimeError("node has no storage; cannot recover")
        if not self.crashed:
            raise RuntimeError("node is not crashed")
        snapshot, records = self.storage.load()
        member, delivered = restore_member(self.pid, self.config, snapshot, records)
        member.begin_rejoin()
        self.driver.restart(
            member, delivered, snapshot.round_no if snapshot is not None else 0
        )
        # Datagrams queued while dead belong to the old incarnation.
        while not self._endpoint.queue.empty():
            self._endpoint.queue.get_nowait()
        revive = getattr(self._lan, "revive", None)
        if revive is not None:
            revive(self.pid)
        self.crashed = False
        self._stopped = asyncio.Event()
        self.start()

    # ------------------------------------------------------------------

    async def _ticker(self) -> None:
        while not self._stopped.is_set() and not self.member.has_left:
            round_no = self.driver.round
            if self._obs and round_no % 2 == 0:
                self.recorder.subrun(round_no // 2, node=int(self.pid))
            self.driver.tick(round_no)
            interval = (
                self.adaptive_timer.interval()
                if self.adaptive_timer is not None
                else self.round_interval
            )
            await asyncio.sleep(interval)

    async def _receiver(self) -> None:
        while not self._stopped.is_set():
            datagram = await self._endpoint.recv()
            if self.member.has_left:
                continue
            try:
                decoded = decode_message(datagram.data)
                expanded = list(expand_message(decoded))
            except WireFormatError:
                # Malformed datagram (bad tag, truncation, garbage):
                # a loss, never a crash of the receive loop.
                self.driver.decode_error("parse")
                continue
            self.driver.receive(decoded, expanded)

    def _persist_snapshot(self, job: SnapshotJob) -> None:
        """Persist a captured snapshot off the event loop.

        The capture (state encode + WAL tail handoff) already happened
        synchronously in the driver, so the snapshot is a consistent
        cut of the engine.  The blocking backend write (fsync + rename
        on ``FileBackend``) runs on the default executor so the loop —
        shared by every node in the group — keeps ticking.
        """
        self._snapshot_task = asyncio.create_task(
            self._persist_off_loop(job), name=f"urcgc-snap-p{self.pid}"
        )

    async def _persist_off_loop(self, job: SnapshotJob) -> None:
        await asyncio.get_running_loop().run_in_executor(None, job.persist)
        if self.storage is not None:
            self.storage.finish_snapshot()


class AsyncGroup:
    """A whole urcgc group on one asyncio loop."""

    def __init__(
        self,
        config: UrcgcConfig,
        *,
        lan: AsyncLan | None = None,
        round_interval: float = 0.02,
        on_indication: IndicationCallback | None = None,
        storage: GroupStorage | None = None,
    ) -> None:
        self.config = config
        self.lan = lan or AsyncLan()
        self.storage = storage
        #: Span recorder shared by every node (no-op unless
        #: ``config.observability``); wall-clock timestamps.
        self.recorder: Recorder = (
            Recorder(clock_kind="wall") if config.observability else NULL_RECORDER
        )
        if self.recorder.enabled:
            bind = getattr(self.lan, "bind_registry", None)
            if bind is not None:
                bind(self.recorder.registry)
        self.nodes = [
            AsyncNode(
                ProcessId(i),
                config,
                self.lan,
                round_interval=round_interval,
                on_indication=on_indication,
                storage=storage.node(ProcessId(i)) if storage is not None else None,
                recorder=self.recorder,
            )
            for i in range(config.n)
        ]

    def write_trace(self, path: str, **meta: object) -> None:
        """Export the run's JSONL trace (requires observability on)."""
        if not self.recorder.enabled:
            raise RuntimeError(
                "observability is disabled; construct the group with "
                "UrcgcConfig(observability=True)"
            )
        write_jsonl(path, self.recorder, runner="live", n=self.config.n, **meta)

    def start(self) -> None:
        for node in self.nodes:
            node.start()

    async def stop(self) -> None:
        # Snapshot the membership: stop() suspends per node, and the
        # list must not shift under the iteration if a callback adds or
        # removes a node mid-shutdown.
        for node in list(self.nodes):
            await node.stop()
        self.lan.close()

    @property
    def live_nodes(self) -> "list[AsyncNode]":
        """Nodes that are still functioning members (not crashed, not
        left) — the paper's *active* set, at the runtime layer."""
        return [node for node in self.nodes if node.is_live]

    def quiescent(self) -> bool:
        """All live nodes agree on what was processed and have nothing
        pending or waiting (vacuously true with no live node)."""
        return settled(node.member for node in self.live_nodes)

    async def crash(
        self, pid: ProcessId, *, partial_deliveries: int | None = None
    ) -> None:
        """Fail-stop node ``pid``: cut it at the fabric (when the
        fabric supports it, e.g. :class:`~repro.runtime.chaos.ChaosFabric`)
        and halt its tasks.  ``partial_deliveries`` interrupts its next
        multicast after the fabric-level crash (non-indivisible send);
        it requires a chaos fabric and lets the dying broadcast happen
        before the tasks are halted."""
        node = self.nodes[pid]
        fabric_crash = getattr(self.lan, "crash", None)
        if fabric_crash is not None:
            fabric_crash(pid, partial_deliveries=partial_deliveries)
            if partial_deliveries is not None and node.is_live:
                # Give the dying multicast a chance to be attempted:
                # one more full subrun of the node's ticker.
                target = node.current_round + 2
                try:
                    await self.wait_until(
                        lambda: node.current_round >= target or not node.is_live,
                        timeout=2.0,
                    )
                except asyncio.TimeoutError:
                    pass
        await node.crash()

    async def crash_coordinator_at_subrun(
        self,
        subrun: int,
        *,
        partial_deliveries: int | None = None,
        timeout: float = 10.0,
    ) -> ProcessId | None:
        """Kill the rotating coordinator of ``subrun`` once that subrun
        is reached — the paper's coordinator-failover scenario, live.

        Waits until the coordinator's own clock enters ``subrun``, then
        crashes it via :meth:`crash`.  Returns the pid killed, or None
        if no live node could name a coordinator.  With
        ``partial_deliveries=k`` the coordinator's next multicast (its
        decision broadcast, or a data message if it was generating) is
        cut after ``k`` destinations.
        """
        live = self.live_nodes
        if not live:
            return None
        coordinator = live[0].member.view.coordinator_of(SubrunNo(subrun))
        node = self.nodes[coordinator]
        try:
            await self.wait_until(
                lambda: node.current_subrun >= subrun or not node.is_live,
                timeout=timeout,
            )
        except asyncio.TimeoutError:
            pass
        await self.crash(coordinator, partial_deliveries=partial_deliveries)
        return coordinator

    def recover(self, pid: ProcessId) -> AsyncNode:
        """Recover crashed node ``pid`` from its durable state and start
        its rejoin (see :meth:`AsyncNode.recover`).  Returns the node;
        use :meth:`wait_until` on ``not node.member.rejoining`` to await
        admission."""
        node = self.nodes[pid]
        node.recover()
        return node

    async def wait_until(
        self, predicate: Callable[[], bool], *, timeout: float = 10.0
    ) -> None:
        """Poll ``predicate`` until true (or raise TimeoutError)."""

        async def poll() -> None:
            while not predicate():
                await asyncio.sleep(0.005)

        await asyncio.wait_for(poll(), timeout)

    async def run_workload(
        self,
        submissions: list[tuple[ProcessId, bytes]],
        *,
        timeout: float = 10.0,
    ) -> None:
        """Submit payloads, then wait until every live node processed
        every message every live node generated."""
        for pid, payload in submissions:
            self.nodes[pid].submit(payload)
        await self.wait_until(self.quiescent, timeout=timeout)
