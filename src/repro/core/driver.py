"""The per-member effect pipeline shared by the simulator and the runtime.

:class:`MemberDriver` hosts one :class:`~repro.core.member.Member` and
its :class:`~repro.core.service.UrcgcService` (the user SAP).  Both
drivers — :class:`~repro.harness.cluster.SimCluster` and
:class:`~repro.runtime.node.AsyncNode` — build one per member and hand
it only a clock, a ``transmit(dst, data, kind)`` callable and their own
sinks (the simulator's delay log and kernel trace, the runtime's
adaptive round timer and off-loop snapshot persistence).

:meth:`MemberDriver.execute` runs every effect batch in one order: WAL
appends, spans and logs; then the service's indications and confirms;
then batcher pack, encode and transmit; then rejoin realignment; then
a snapshot on the storage's cadence.  So a record is durable before
the indication it backs fires and before the send it covers leaves.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable

from ..net.wire import BatchFrame, encode_message
from ..obs import NULL_RECORDER, Recorder
from ..storage import NodeStorage, SnapshotJob, snapshot_of
from ..types import ProcessId
from .batcher import Batcher
from .config import UrcgcConfig
from .effects import (
    Confirm,
    DecisionApplied,
    Deliver,
    Discarded,
    Effect,
    Left,
    Send,
    SuspicionChange,
)
from .member import Member
from .message import DecisionMessage, GenerateBatch, RequestMessage, UserMessage
from .service import UrcgcService
from .validate import validate_message

if TYPE_CHECKING:  # pragma: no cover - driver-specific sinks
    from ..analysis.delay import DeliveryLog
    from ..runtime.rtt import AdaptiveRoundTimer
    from ..sim.trace import Trace

__all__ = ["MemberDriver", "settled"]

#: Unanswered request timestamps kept for round-trip sampling.
_MAX_PROBES = 64


def settled(members: Iterable[Member]) -> bool:
    """Nothing pending or waiting at any of ``members``, and all of them
    processed the same messages (vacuously true for none)."""
    vectors = set()
    for member in members:
        if member.pending_submissions or member.waiting_length:
            return False
        vectors.add(member.last_processed_vector())
    return len(vectors) <= 1


class MemberDriver:
    """One member's receive → engine → effect pipeline, sans-IO.

    ``clock`` stamps the delay log, the trace and round-trip samples
    (rtd in the simulator, seconds live).  ``persist(job)`` writes a
    captured snapshot and then calls ``storage.finish_snapshot()``; by
    default both happen inline.
    """

    def __init__(
        self,
        pid: ProcessId,
        config: UrcgcConfig,
        *,
        transmit: Callable[[object, bytes, str], None],
        clock: Callable[[], float],
        recorder: Recorder = NULL_RECORDER,
        storage: NodeStorage | None = None,
        delivery_log: "DeliveryLog | None" = None,
        trace: "Trace | None" = None,
        round_timer: "AdaptiveRoundTimer | None" = None,
        persist: Callable[[SnapshotJob], None] | None = None,
    ) -> None:
        self.pid = pid
        self.member = Member(pid, config)
        self.service = UrcgcService(self.member)
        self.storage = storage
        self.recorder = recorder
        self._obs = recorder.enabled
        self._registry = recorder.registry
        if self._obs and storage is not None:
            storage.bind_registry(self._registry)
        #: Wire batcher (None when batching is off): bookkeeping always
        #: sees the original sends; only transmission goes through pack.
        #: The wall clock only times packs for the latency histogram.
        self._batcher = (
            Batcher(
                config.batching,
                registry=self._registry if self._obs else None,
                clock=perf_counter if self._obs else None,
            )
            if config.batching is not None
            else None
        )
        self._transmit = transmit
        self._clock = clock
        self._delivery_log = delivery_log
        self._trace = trace
        self._round_timer = round_timer
        self._request_sent_at: dict[int, float] = {}
        self._persist = persist if persist is not None else self._persist_inline
        #: The round being fired during a tick, the next one between ticks.
        self.round = 0
        #: Datagrams dropped by the hardened decode path: structurally
        #: malformed bytes or semantically out-of-range PDUs.
        self.decode_errors = 0
        #: Batch-expanded sub-messages suppressed as duplicates before
        #: reaching the engine (fabric duplication x batching).
        self.dup_suppressed = 0
        #: Suspicion transitions the failure detector reported.
        self.suspicion_events: list[SuspicionChange] = []

    def tick(self, round_no: int) -> None:
        """Fire protocol round ``round_no``."""
        self.round = round_no
        self.execute(self.member.on_round(round_no))
        self.round += 1

    def receive(self, decoded: object, expanded: list[object]) -> None:
        """Feed one decoded, batch-expanded datagram to the engine."""
        batched = isinstance(decoded, (BatchFrame, GenerateBatch))
        member = self.member
        for message in expanded:
            if member.has_left:
                break
            if validate_message(message, member.config.n) is not None:
                # Structurally valid but semantically out of range
                # (forged vector, member index >= n): drop the PDU.
                self.decode_error("range")
                continue
            if (
                batched
                and isinstance(message, UserMessage)
                and member.already_seen(message.mid)
            ):
                # A duplicated batch frame re-expands every sub-message;
                # suppress the copies here so duplication x batching is
                # not multiply-counted by the engine.
                self.dup_suppressed += 1
                if self._obs:
                    self._registry.count("batch.dup_suppressed", node=int(self.pid))
                continue
            if self._round_timer is not None and isinstance(message, DecisionMessage):
                self._sample_round_trip(message)
            self.execute(member.on_message(message))

    def decode_error(self, reason: str) -> None:
        """Count one datagram dropped by the hardened decode path."""
        self.decode_errors += 1
        if self._obs:
            self._registry.count("net.decode_error", node=int(self.pid), reason=reason)

    def execute(self, effects: list[Effect]) -> None:
        """Run one effect batch through the pipeline (module docstring)."""
        pid = self.pid
        storage = self.storage
        log = self._delivery_log
        trace = self._trace
        obs = self._obs
        recorder = self.recorder
        now = self._clock()
        for effect in effects:
            if isinstance(effect, Send):
                message = effect.message
                if isinstance(message, UserMessage):  # always an own message
                    if log is not None:
                        log.on_generated(message.mid, now)
                    if obs:
                        recorder.generated(message.mid, message.deps, node=pid)
                    if storage is not None:
                        # Log-before-send: a sent message is always in
                        # the WAL, so recovery never reuses its seq.
                        # That ordering is why the append stays inline
                        # (small buffered write, see docs/ANALYSIS.md).
                        storage.log_generated(message)  # lint: disable=I502
                elif isinstance(message, RequestMessage):
                    if self._round_timer is not None:
                        self._stamp_request(int(message.subrun), now)
                    if obs:
                        recorder.request(int(message.subrun), node=pid)
                elif isinstance(message, DecisionMessage):
                    decision = message.decision
                    if obs:
                        recorder.decision(int(decision.number), node=pid)
                    if trace is not None:
                        trace.emit(
                            now, "decision.broadcast", pid,
                            number=int(decision.number), chain=decision.chain,
                            full_group=decision.full_group, alive=sum(decision.alive),
                        )
            elif isinstance(effect, Deliver):
                message = effect.message
                if log is not None:
                    log.on_processed(message.mid, pid, now)
                if obs:
                    recorder.processed(message.mid, node=pid)
                if storage is not None and message.mid.origin != pid:
                    # Own messages were logged at generation time.
                    # Inline by design: the record must be durable
                    # before the indication fires in dispatch below
                    # (log-before-indicate, see docs/ANALYSIS.md).
                    storage.log_processed(message)  # lint: disable=I502
            elif isinstance(effect, DecisionApplied):
                if obs:
                    recorder.decision(int(effect.decision.number), node=pid, applied=True)
                if storage is not None:
                    # Inline by design: the decision must hit the WAL
                    # before any send it unblocks leaves this effect
                    # batch (log-before-send, see docs/ANALYSIS.md).
                    storage.log_decision(effect.decision)  # lint: disable=I502
            elif isinstance(effect, Discarded):
                # The lost message is destroyed along with its
                # dependents: the "or none of them" branch of atomicity.
                count = len(effect.discarded)
                if log is not None:
                    log.on_discarded((effect.lost, *effect.discarded))
                if obs:
                    recorder.discarded(effect.lost, node=pid, count=1 + count)
                if trace is not None:
                    trace.emit(now, "member.discarded", pid, lost=effect.lost, count=count)
            elif isinstance(effect, SuspicionChange):
                self.suspicion_events.append(effect)
                if obs:
                    recorder.suspect(
                        effect.pid, suspected=effect.suspected,
                        node=int(pid), reason=effect.reason,
                    )
                    self._registry.count(
                        "fd.suspect" if effect.suspected else "fd.unsuspect",
                        node=int(pid),
                    )
            elif trace is not None:
                if isinstance(effect, Left):
                    trace.emit(now, "member.left", pid, reason=effect.reason)
                elif isinstance(effect, Confirm):
                    trace.emit(now, "member.confirm", pid, mid=effect.mid)
        sends = self.service.dispatch(effects)
        if sends:
            if self._batcher is not None:
                sends = self._batcher.pack(sends)
            for send in sends:
                self._transmit(send.dst, encode_message(send.message), send.kind)
        realign = self.member.consume_realignment()
        if realign is not None and realign > self.round:
            # Rejoin completed: fall in step with the group's clock.
            self.round = realign
        if storage is not None and storage.should_snapshot():
            snapshot = snapshot_of(self.member, self.service.delivered, round_no=self.round)
            self._persist(storage.begin_snapshot(snapshot))

    def restart(self, member: Member, delivered: list[UserMessage], round_no: int) -> None:
        """Host a recovered incarnation (see ``AsyncNode.recover``)."""
        self.member = member
        self.service.rebind(member, delivered)
        self.round = round_no
        self._request_sent_at.clear()

    def _persist_inline(self, job: SnapshotJob) -> None:
        assert self.storage is not None
        job.persist()
        self.storage.finish_snapshot()

    def _stamp_request(self, subrun: int, now: float) -> None:
        self._request_sent_at[subrun] = now
        if len(self._request_sent_at) > _MAX_PROBES:
            # Bound the table: forget ancient unanswered probes.
            del self._request_sent_at[min(self._request_sent_at)]

    def _sample_round_trip(self, message: DecisionMessage) -> None:
        # One request -> decision echo = one rtd sample.
        sent = self._request_sent_at.pop(int(message.decision.number), None)
        if sent is None or self._round_timer is None:
            return
        rtt = self._clock() - sent
        self._round_timer.observe(rtt)
        if self._obs:
            self._registry.observe("runtime.rtt", rtt, node=int(self.pid))
