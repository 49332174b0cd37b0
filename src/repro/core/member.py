"""The urcgc member engine — one process of the group.

This is the paper's Section 4 algorithm as a sans-IO state machine.
The driver calls :meth:`Member.on_round` at every round boundary and
:meth:`Member.on_message` for every received PDU; both return effects
(:mod:`repro.core.effects`) the driver executes.

Per subrun ``s`` (rounds ``2s`` and ``2s+1``):

* **First round** — if the application queued a payload and flow
  control permits, allocate the next mid, fill the dependency list,
  broadcast the :class:`~repro.core.message.UserMessage` to the group
  and process it locally.  Then send the coordinator a
  :class:`~repro.core.message.RequestMessage` with ``last_processed``,
  the oldest waiting mid per sequence, and the latest received
  decision (decision circulation).
* **Second round** — the subrun's coordinator folds the requests that
  arrived (plus its own state) into a new decision via
  :func:`~repro.core.decision.compute_decision` and broadcasts it.

Applying a decision drives every embedded fault-handling mechanism:
membership updates and suicide, history cleaning (only on
``full_group`` decisions), orphan-sequence discard, recovery requests
to the ``most_updated`` process, the ``R``-attempt recovery budget,
and the leave-on-missed-decisions rule.

With ``config.enable_rejoin`` (PROTOCOL §12) a crashed-and-restored
member additionally supports *rejoin mode*: it circulates
:class:`~repro.core.rejoin.JoinRequest` PDUs until a coordinator
re-admits it through ``Decision.joiners``, closing the orphan-void
range of its previous incarnation and pinning peer histories so the
state transfer it needs cannot be compacted away.
"""

from __future__ import annotations

from collections import deque

from ..detect import make_detector
from ..errors import ConfigError, MemberLeftError, NotInGroupError
from ..net.addressing import BROADCAST_GROUP, GroupAddress, UnicastAddress
from ..types import ProcessId, SeqNo, SubrunNo
from .causality import CausalContext, ContiguousDependencyTracker
from .config import LeaveRule, UrcgcConfig
from .decision import Decision, RequestInfo, compute_decision, initial_decision
from .effects import (
    Confirm,
    DecisionApplied,
    Deliver,
    Discarded,
    Effect,
    Left,
    MembershipChange,
    Rejoined,
    Send,
    SuspicionChange,
)
from .group_view import GroupView
from .history import History
from .message import (
    KIND_DATA,
    KIND_DECISION,
    KIND_HEARTBEAT,
    KIND_RECOVERY_RQ,
    KIND_RECOVERY_RSP,
    KIND_REQUEST,
    DecisionMessage,
    GenerateBatch,
    HeartbeatMessage,
    RecoveryRequest,
    RecoveryResponse,
    RequestMessage,
    UserMessage,
)
from .mid import NO_MESSAGE, Mid
from .rejoin import KIND_JOIN, IncarnationFence, JoinRequest
from .waiting import WaitingList

__all__ = ["Member"]

#: Bound on the decision cross-check log used for equivocation
#: detection (PROTOCOL §13): old entries can no longer conflict with
#: anything adoptable, so the window stays small.
_DECISION_LOG_LIMIT = 64


class Member:
    """One urcgc protocol engine.

    Parameters
    ----------
    pid:
        This process's id, ``0 <= pid < config.n``.
    config:
        Group-wide parameter set (identical at every member).
    group:
        Multicast address of the peer group.
    """

    def __init__(
        self,
        pid: ProcessId,
        config: UrcgcConfig,
        *,
        group: GroupAddress = BROADCAST_GROUP,
    ) -> None:
        if not 0 <= pid < config.n:
            raise NotInGroupError(f"pid {pid} outside group of size {config.n}")
        self.pid = pid
        self.config = config
        self.group = group
        self.view = GroupView(config.n)
        self.context = CausalContext(pid, auto_significant=config.auto_significant)
        self.tracker = ContiguousDependencyTracker()
        self.history = History(max_length=config.max_history)
        self.waiting = WaitingList()
        self.latest_decision: Decision = initial_decision(config.n)

        self._outbox: deque[bytes] = deque()
        self._subrun: SubrunNo = SubrunNo(0)
        self._requests: dict[ProcessId, RequestInfo] = {}
        self._requests_subrun: SubrunNo = SubrunNo(-1)
        self._left_reason: str | None = None

        # Failure detection (PROTOCOL §13): the paper's K-consecutive
        # leave rule — and optionally a suspicion-tracking detector —
        # behind the pluggable repro.detect interface.
        self.detector = make_detector(pid, config)

        # Decision cross-check log for equivocation detection: subrun
        # number -> first decision seen for it.
        self._decision_log: dict[SubrunNo, Decision] = {}
        # Zombie fence: per-slot admitted-incarnation floor.
        self._fence = IncarnationFence()

        # Recovery state: per-origin attempt counters and the
        # last_processed value observed when the last attempt was made.
        self._recovery_attempts: dict[ProcessId, int] = {}
        self._recovery_baseline: dict[ProcessId, SeqNo] = {}

        # Orphan-discard marks: origin -> first discarded seq (open:
        # everything at or above the mark is presumed lost).
        self._discarded_from: dict[ProcessId, SeqNo] = {}

        # Cached last-processed vector, invalidated by the tracker's
        # version counter (the vector is rebuilt at most once per
        # processing step instead of once per request/round).
        self._lpv_cache: tuple[SeqNo, ...] | None = None
        self._lpv_version = -1

        # Rejoin extension (PROTOCOL §12).
        #: Incarnation number of this engine instance (0 = original).
        self.incarnation = 0
        #: True while this member is circulating JoinRequests.
        self.rejoining = False
        self._realign_round: int | None = None
        #: joiner -> (reported last_processed, full_group_count at
        #: stash, incarnation from the JoinRequest).
        self._pending_joins: dict[
            ProcessId, tuple[tuple[SeqNo, ...], int, int]
        ] = {}
        #: Closed void ranges per origin: [first, last] lost forever.
        self._void_ranges: dict[ProcessId, list[tuple[SeqNo, SeqNo]]] = {}
        #: Crash-grace history pins: removed pid -> full_group_count at removal.
        self._crash_pins: dict[ProcessId, int] = {}

        # Introspection counters (read by the harness and tests).
        self.generated_count = 0
        self.processed_count = 0
        self.duplicate_count = 0
        self.flow_blocked_rounds = 0
        self.forked_decisions_rejected = 0
        self.full_group_decisions_seen = 0
        self.rejoins_observed = 0
        self.equivocations_detected = 0
        self.stale_joins_fenced = 0

    # ------------------------------------------------------------------
    # public state
    # ------------------------------------------------------------------

    @property
    def has_left(self) -> bool:
        return self._left_reason is not None

    @property
    def left_reason(self) -> str | None:
        return self._left_reason

    @property
    def history_length(self) -> int:
        return len(self.history)

    @property
    def waiting_length(self) -> int:
        return len(self.waiting)

    @property
    def pending_submissions(self) -> int:
        return len(self._outbox)

    @property
    def _decision_seen_for(self) -> SubrunNo:
        """Leave-rule frontier, now owned by the detector (kept as a
        property because snapshot restore assigns it directly)."""
        return self.detector.decision_seen_for

    @_decision_seen_for.setter
    def _decision_seen_for(self, value: SubrunNo) -> None:
        self.detector.decision_seen_for = value

    def already_seen(self, mid: Mid) -> bool:
        """Would receiving ``mid`` again be a duplicate (processed or
        waiting)?  Drivers use this to dedupe batch expansions."""
        return self.tracker.is_processed(mid) or mid in self.waiting

    def last_processed_vector(self) -> tuple[SeqNo, ...]:
        """``last_processed[j]`` for every ``j`` (Section 4's request field)."""
        version = self.tracker.version
        if self._lpv_cache is None or self._lpv_version != version:
            self._lpv_cache = tuple(
                self.tracker.last_processed(ProcessId(k))
                for k in range(self.config.n)
            )
            self._lpv_version = version
        return self._lpv_cache

    # ------------------------------------------------------------------
    # application interface (used by the service layer)
    # ------------------------------------------------------------------

    def submit(self, payload: bytes) -> None:
        """Queue a payload; it is broadcast at the next permitted round.

        One message is generated per round (the paper's maximum service
        rate); extra submissions queue behind it.
        """
        if self.has_left:
            raise MemberLeftError(f"p{self.pid} left the group: {self._left_reason}")
        self._outbox.append(payload)

    def mark_significant(self, origin: ProcessId) -> None:
        """Declare a causal dependency on ``origin``'s latest processed
        message for this process's next generated message."""
        self.context.mark_significant(origin)

    # ------------------------------------------------------------------
    # rejoin interface (PROTOCOL §12)
    # ------------------------------------------------------------------

    def begin_rejoin(self) -> None:
        """Enter rejoin mode as a new incarnation of this slot.

        Called by the recovery driver after the engine was rebuilt from
        snapshot + WAL.  Until a coordinator re-admits us, rounds
        broadcast :class:`JoinRequest` instead of generating messages
        or sending REQUESTs, and decisions are adopted without the
        suicide / leave reflexes (the group rightly marks us crashed).
        """
        if not self.config.enable_rejoin:
            raise ConfigError("begin_rejoin requires config.enable_rejoin")
        if self.has_left:
            raise MemberLeftError(
                f"p{self.pid} left the group: {self._left_reason}"
            )
        self.incarnation += 1
        self.rejoining = True

    def consume_realignment(self) -> int | None:
        """Round number the driver should fast-forward its round clock
        to after re-admission (None if no realignment is pending)."""
        realign = self._realign_round
        self._realign_round = None
        return realign

    # ------------------------------------------------------------------
    # driver interface
    # ------------------------------------------------------------------

    def on_round(self, round_no: int) -> list[Effect]:
        """Handle a round boundary; returns the effects to execute."""
        if self.has_left:
            return []
        effects: list[Effect] = []
        subrun = SubrunNo(round_no // 2)
        self._subrun = subrun
        if self.rejoining:
            if round_no % 2 == 0:
                join = JoinRequest(
                    self.pid, self.incarnation, self.last_processed_vector()
                )
                effects.append(Send(self.group, join, KIND_JOIN))
            return effects
        if self.detector.tracks_suspicion:
            self.detector.advance(round_no)
        if round_no % 2 == 0:
            self._first_round(subrun, effects)
        else:
            self._second_round(subrun, effects)
        if self.detector.tracks_suspicion:
            self._drain_suspicions(effects)
        return effects

    def on_message(self, message: object) -> list[Effect]:
        """Handle a received PDU; returns the effects to execute."""
        if self.has_left:
            return []
        effects: list[Effect] = []
        if self.detector.tracks_suspicion:
            self._observe_evidence(message)
        if isinstance(message, UserMessage):
            self._handle_user_message(message, effects)
        elif isinstance(message, GenerateBatch):
            # Drivers normally expand batches before dispatch (see
            # repro.core.batcher.expand_message); accept one directly
            # so the engine stays correct behind any driver.
            for user_message in message.expand():
                if self.has_left:
                    break
                self._handle_user_message(user_message, effects)
        elif isinstance(message, RequestMessage):
            self._handle_request(message, effects)
        elif isinstance(message, DecisionMessage):
            self._apply_decision(message.decision, effects)
        elif isinstance(message, RecoveryRequest):
            self._handle_recovery_request(message, effects)
        elif isinstance(message, RecoveryResponse):
            for user_message in message.messages:
                if self.has_left:
                    break
                self._handle_user_message(user_message, effects)
        elif isinstance(message, JoinRequest):
            self._handle_join_request(message, effects)
        elif isinstance(message, HeartbeatMessage):
            pass  # pure liveness evidence, consumed above
        else:
            raise TypeError(f"unexpected message type {type(message).__name__}")
        if self.detector.tracks_suspicion:
            self._drain_suspicions(effects)
        return effects

    def _observe_evidence(self, message: object) -> None:
        """Feed the suspicion-tracking detector the PDU's liveness
        evidence (which peer process just proved it is running)."""
        if isinstance(message, HeartbeatMessage):
            self.detector.observe_heartbeat(message.sender, message.incarnation)
        elif isinstance(message, UserMessage):
            self.detector.observe_alive(message.mid.origin)
        elif isinstance(message, GenerateBatch):
            self.detector.observe_alive(message.origin)
        elif isinstance(message, (RequestMessage, RecoveryRequest, RecoveryResponse)):
            self.detector.observe_alive(message.sender)
        elif isinstance(message, DecisionMessage):
            self.detector.observe_alive(message.decision.coordinator)
        elif isinstance(message, JoinRequest):
            self.detector.observe_alive(ProcessId(message.sender))

    def _drain_suspicions(self, effects: list[Effect]) -> None:
        for event in self.detector.poll_events():
            effects.append(
                SuspicionChange(int(event.pid), event.suspected, event.reason)
            )

    def replay_generated(self, message: UserMessage) -> list[Effect]:
        """Re-apply an own message from the WAL during crash recovery.

        The mid and dependency list come from the log (they were fixed
        at generation time), so replay bypasses allocation and goes
        straight to processing.
        """
        effects: list[Effect] = []
        if self.tracker.is_processed(message.mid):
            return effects
        self.context.restore_own_seq(message.mid.seq)
        self.generated_count += 1
        self._process(message, effects)
        return effects

    # ------------------------------------------------------------------
    # round handlers
    # ------------------------------------------------------------------

    def _first_round(self, subrun: SubrunNo, effects: list[Effect]) -> None:
        if self.detector.wants_heartbeats and self.detector.heartbeat_due(subrun):
            beat = HeartbeatMessage(self.pid, self.incarnation, 2 * int(subrun))
            effects.append(Send(self.group, beat, KIND_HEARTBEAT))
        self._account_missed_decision(subrun, effects)
        if self.has_left:
            return
        self._maybe_generate(effects)
        coordinator = self.view.coordinator_of(subrun)
        info = RequestInfo(self.last_processed_vector(), self._waiting_vector())
        if coordinator == self.pid:
            # The coordinator's own state counts as a request; no
            # network traffic for it (Table 1: 2(n-1) control messages).
            self._stash_request(subrun, self.pid, info)
        else:
            # Decision circulation: forward the most recent decision so
            # the next coordinator can continue the chain.  The
            # ablation variant ships the initial decision instead,
            # which carries no knowledge.
            circulated = (
                self.latest_decision
                if self.config.circulate_decisions
                else initial_decision(self.config.n)
            )
            request = RequestMessage(self.pid, subrun, info, circulated)
            effects.append(Send(UnicastAddress(coordinator), request, KIND_REQUEST))

    def _second_round(self, subrun: SubrunNo, effects: list[Effect]) -> None:
        if self.view.coordinator_of(subrun) != self.pid:
            return
        if self._requests_subrun != subrun:
            self._requests = {}
        joiners: dict[ProcessId, SeqNo] = {}
        void_from: tuple[SeqNo, ...] = ()
        join_boundary: tuple[SeqNo, ...] = ()
        if self.config.enable_rejoin:
            for j, (reported, _, _) in self._pending_joins.items():
                if not self.view.is_alive(j):
                    # Boundary: the joiner's own frontier, raised to the
                    # group's knowledge of its sequence (defensive for a
                    # torn WAL that lost the tail of its own log).
                    joiners[j] = SeqNo(
                        max(reported[j], self.latest_decision.max_processed[j])
                    )
            void_from, join_boundary = self._render_void_vectors(joiners)
        suspected = (
            self.detector.suspects()
            if self.detector.tracks_suspicion
            else frozenset()
        )
        decision = compute_decision(
            subrun,
            self.pid,
            self.latest_decision,
            self._requests,
            self.config.K,
            joiners=joiners or None,
            void_from=void_from,
            join_boundary=join_boundary,
            suspected=suspected,
        )
        self._requests = {}
        effects.append(Send(self.group, DecisionMessage(decision), KIND_DECISION))
        self._apply_decision(decision, effects)

    def _maybe_generate(self, effects: list[Effect]) -> None:
        # Up to ``generate_burst`` messages per round (the paper's base
        # service rate is 1); flow control is re-checked per message.
        # Burst messages are emitted back to back, so their Sends form
        # one contiguous run the batching layer can coalesce into a
        # single GENERATE.
        for _ in range(self.config.generate_burst):
            if not self._outbox:
                return
            if (
                self.config.flow_control_enabled
                and len(self.history) >= self.config.effective_flow_threshold
            ):
                # Distributed flow control (Section 6): refrain from
                # generating until the history drains below the threshold.
                self.flow_blocked_rounds += 1
                return
            payload = self._outbox.popleft()
            mid, deps = self.context.next_message()
            message = UserMessage(mid, deps, payload)
            self.generated_count += 1
            effects.append(Send(self.group, message, KIND_DATA))
            self._process(message, effects)
            effects.append(Confirm(mid))

    # ------------------------------------------------------------------
    # message processing (GMT sublayer: process / wait / history)
    # ------------------------------------------------------------------

    def _handle_user_message(self, message: UserMessage, effects: list[Effect]) -> None:
        mid = message.mid
        deps = message.deps
        if self._is_discarded(mid) or (
            # Only an open orphan mark can doom a dependency.
            self._discarded_from and any(self._dep_lost(d) for d in deps)
        ):
            return
        if self.already_seen(mid):
            self.duplicate_count += 1
            return
        missing = self.tracker.missing(deps)
        predecessor = mid.predecessor
        if predecessor is not None and not self.tracker.is_processed(predecessor):
            # Sequence contiguity is an implicit dependency even if the
            # sender omitted it from the explicit list.
            missing.add(predecessor)
        if missing:
            self.waiting.add(message, missing)
        else:
            self._process(message, effects)

    def _process(self, message: UserMessage, effects: list[Effect]) -> None:
        """Process a message whose causal cut is complete, then drain
        every waiting message this releases (in causal order)."""
        queue = deque([message])
        while queue:
            current = queue.popleft()
            self.tracker.mark_processed(current.mid)
            self.context.note_processed(current.mid)
            self.history.store(current)
            self.processed_count += 1
            # Progress on this origin resets its recovery budget.
            self._recovery_attempts.pop(current.mid.origin, None)
            self._recovery_baseline.pop(current.mid.origin, None)
            effects.append(Deliver(current))
            queue.extend(self.waiting.notify_processed(current.mid))
            if not self.tracker.has_gaps:
                continue
            # If this processing carried the frontier across a void gap
            # (rejoin extension), the void seqs count as processed too:
            # release anything waiting on them.
            frontier = self.tracker.last_processed(current.mid.origin)
            for seq in range(current.mid.seq + 1, frontier + 1):
                queue.extend(
                    self.waiting.notify_processed(Mid(current.mid.origin, SeqNo(seq)))
                )

    def _is_discarded(self, mid: Mid) -> bool:
        """Is ``mid`` itself destroyed — above an open orphan mark, or
        inside a closed void range of a rejoined origin?"""
        mark = self._discarded_from.get(mid.origin)
        if mark is not None and mid.seq >= mark:
            return True
        return any(
            first <= mid.seq <= last
            for first, last in self._void_ranges.get(mid.origin, ())
        )

    def _dep_lost(self, dep: Mid) -> bool:
        """Is ``dep`` unsatisfiable forever?  Only an *open* orphan mark
        dooms dependents; a dependency inside a closed void range is
        treated as satisfied (the group agreed the range will never
        arrive), which is what lets a rejoined incarnation's first
        message — whose predecessor is the void boundary — through."""
        mark = self._discarded_from.get(dep.origin)
        return mark is not None and dep.seq >= mark

    def _waiting_vector(self) -> tuple[SeqNo, ...]:
        oldest = self.waiting.oldest_waiting()
        return tuple(
            oldest.get(ProcessId(k), NO_MESSAGE) for k in range(self.config.n)
        )

    # ------------------------------------------------------------------
    # coordination (GC sublayer: requests and decisions)
    # ------------------------------------------------------------------

    def _stash_request(
        self, subrun: SubrunNo, sender: ProcessId, info: RequestInfo
    ) -> None:
        if self._requests_subrun != subrun:
            self._requests = {}
            self._requests_subrun = subrun
        self._requests[sender] = info

    def _handle_request(self, request: RequestMessage, effects: list[Effect]) -> None:
        # Adopt a newer circulated decision regardless of whether we
        # are the coordinator the sender believes in.
        self._apply_decision(request.decision, effects)
        if self.has_left or self.rejoining:
            return
        if self.view.coordinator_of(request.subrun) != self.pid:
            return
        if request.subrun < self._subrun:
            return  # stale request from a past subrun
        self._stash_request(request.subrun, request.sender, request.info)

    def _is_equivocation(self, decision: Decision) -> bool:
        """Cross-check ``decision`` against the decision log.

        An equivocating coordinator sends *different* decisions for the
        same subrun to different members; circulation then confronts
        each member with both variants.  Two decisions with the same
        number and the same coordinator but different content prove the
        equivocation, and the later-seen variant is rejected (the
        defense is detection + first-seen-wins — tolerating the fork
        outright would need authenticated consensus, see PROTOCOL §13).
        Same-number decisions from *different* coordinators are the
        benign dual-coordinator race under view divergence and pass
        through to the ordinary chain discipline.
        """
        seen = self._decision_log.get(decision.number)
        if seen is None:
            self._decision_log[decision.number] = decision
            if len(self._decision_log) > _DECISION_LOG_LIMIT:
                del self._decision_log[min(self._decision_log)]
            return False
        if seen.coordinator == decision.coordinator and seen != decision:
            self.equivocations_detected += 1
            return True
        return False

    def _apply_decision(self, decision: Decision, effects: list[Effect]) -> None:
        if self.rejoining:
            self._apply_decision_rejoining(decision, effects)
            return
        if self._is_equivocation(decision):
            return
        if not decision.is_newer_than(self.latest_decision):
            return
        if decision.chain <= self.latest_decision.chain:
            # A later-numbered decision with a shorter (or equal) chain
            # did not descend from the decision we already hold: its
            # coordinator was cut off from the circulation (e.g. a
            # totally receive-omitting process).  The paper's
            # consistency argument ("coordinator c knows the decision
            # of coordinator c-1") only covers decisions extending the
            # chain, so a forked decision is discarded.
            self.forked_decisions_rejected += 1
            return
        chain_gap = decision.chain - self.latest_decision.chain - 1
        # The CONFIRMED rule: a chain gap proves we failed to receive
        # from that many consecutive (decision-producing) coordinators.
        leave_reason = self.detector.observe_chain_gap(chain_gap)
        if leave_reason is not None:
            self._leave(leave_reason, effects)
            return
        self.latest_decision = decision
        self.detector.decision_adopted(decision.number)
        effects.append(DecisionApplied(decision))

        if self.config.enable_rejoin:
            self._sync_rejoin_state(decision, effects)
        removed = self.view.apply_vector(list(decision.alive))
        if removed:
            effects.append(
                MembershipChange(
                    tuple(int(pid) for pid in removed),
                    tuple(self.view.alive_vector()),
                )
            )
        if not self.view.is_alive(self.pid):
            # "When an alive process notices it is supposed dead, it
            # commits suicide."
            self._leave("suicide: presumed crashed by the group", effects)
            return
        if self.config.enable_rejoin and removed:
            # Freeze the current floors so a quick rejoin of the removed
            # process can still be served the interval it missed; the
            # pin expires after recovery_grace full-group decisions.
            for gone in removed:
                self.history.set_recovery_floor(
                    ("crash", int(gone)),
                    {
                        ProcessId(k): self.history.floor(ProcessId(k))
                        for k in range(decision.n)
                    },
                )
                self._crash_pins[gone] = decision.full_group_count

        if decision.full_group:
            self.full_group_decisions_seen += 1
            self.history.clean_vector(
                {
                    ProcessId(k): decision.stable[k]
                    for k in range(decision.n)
                }
            )
            self._orphan_discard(decision, effects)
        if self.config.enable_rejoin:
            self._release_pins(decision)
        self._plan_recovery(decision, effects)

    def _orphan_discard(self, decision: Decision, effects: list[Effect]) -> None:
        """Destroy waiting messages whose causal predecessor is lost.

        Fires only on full-group decisions, where ``max_processed`` is
        exact over the active group: if the oldest waiting message of a
        *crashed* origin leaves a gap above ``max_processed``, every
        holder of the gap message crashed and the tail of the sequence
        is unrecoverable.
        """
        for k in range(decision.n):
            if decision.alive[k]:
                continue
            origin = ProcessId(k)
            min_waiting = decision.min_waiting[k]
            max_processed = decision.max_processed[k]
            if min_waiting == NO_MESSAGE or min_waiting <= max_processed + 1:
                continue
            lost = Mid(origin, SeqNo(max_processed + 1))
            mark = SeqNo(max_processed + 1)
            current = self._discarded_from.get(origin)
            if current is not None and current <= mark:
                continue
            self._discarded_from[origin] = mark
            discarded = self.waiting.discard_dependent(lost)
            effects.append(Discarded(lost, tuple(discarded)))

    # ------------------------------------------------------------------
    # rejoin mechanics (PROTOCOL §12)
    # ------------------------------------------------------------------

    def _handle_join_request(self, join: JoinRequest, effects: list[Effect]) -> None:
        """A recovering incarnation asked to be re-admitted.

        Every member pins its history at the joiner's reported frontier
        (so compaction cannot outrun the state transfer) and drops any
        waiting stragglers of the joiner's *previous* incarnation above
        its boundary; the subrun coordinator additionally folds the
        joiner into its next decision.
        """
        if not self.config.enable_rejoin or self.rejoining:
            return
        sender = ProcessId(join.sender)
        if sender == self.pid or len(join.last_processed) != self.config.n:
            return
        if self._fence.is_stale(sender, join.incarnation):
            # Incarnation fence (PROTOCOL §13): a replayed JoinRequest
            # from an incarnation this member already saw admitted is a
            # zombie — it must not re-pin histories or be folded into
            # another decision.
            self.stale_joins_fenced += 1
            return
        self._pending_joins[sender] = (
            join.last_processed,
            self.latest_decision.full_group_count,
            join.incarnation,
        )
        self.history.set_recovery_floor(
            ("join", int(sender)),
            {
                ProcessId(k): join.last_processed[k]
                for k in range(self.config.n)
            },
        )
        # Old-incarnation stragglers above the boundary can never be
        # completed (mids are incarnation-blind): drop them silently so
        # they cannot mix with the new incarnation's sequence.
        boundary = join.last_processed[sender]
        self.waiting.discard_dependent(Mid(sender, SeqNo(boundary + 1)))

    def _sync_rejoin_state(self, decision: Decision, effects: list[Effect]) -> None:
        """Adopt the decision-carried rejoin bookkeeping.

        Runs before ``apply_vector``: (1) adopt group-agreed orphan
        marks and close void ranges whose boundary the decision
        publishes; (2) re-admit any slot the (strictly newer, chain-
        verified) decision marks alive that our view had removed.
        """
        if decision.void_from:
            for k in range(decision.n):
                mark = decision.void_from[k]
                if mark == NO_MESSAGE:
                    continue
                origin = ProcessId(k)
                boundary = (
                    decision.join_boundary[k]
                    if decision.join_boundary
                    else NO_MESSAGE
                )
                if boundary >= mark:
                    self._close_void(origin, SeqNo(mark), SeqNo(boundary), effects)
                else:
                    self._adopt_mark(origin, SeqNo(mark), effects)
        for k in range(decision.n):
            origin = ProcessId(k)
            if origin == self.pid:
                continue
            if decision.alive[k] and not self.view.is_alive(origin):
                self.view.restore(origin)
                self.rejoins_observed += 1
                pending = self._pending_joins.get(origin)
                self._fence.admit(
                    origin, pending[2] if pending is not None else None
                )
                boundary = (
                    decision.join_boundary[k]
                    if decision.join_boundary
                    else self.tracker.last_processed(origin)
                )
                # Drop old-incarnation stragglers above the boundary.
                self.waiting.discard_dependent(Mid(origin, SeqNo(boundary + 1)))
                effects.append(Rejoined(int(origin), int(boundary)))
        for j in decision.joiners:
            pending = self._pending_joins.get(ProcessId(j))
            if pending is not None:
                # Keep the pin until the new incarnation contributes,
                # but restart its expiry clock at admission.
                self._pending_joins[ProcessId(j)] = (
                    pending[0],
                    decision.full_group_count,
                    pending[2],
                )

    def _adopt_mark(self, origin: ProcessId, mark: SeqNo, effects: list[Effect]) -> None:
        """Adopt an open orphan mark published by a decision."""
        current = self._discarded_from.get(origin)
        if current is not None and current <= mark:
            return
        if any(first <= mark <= last for first, last in self._void_ranges.get(origin, ())):
            return  # already resolved into a closed range locally
        self._discarded_from[origin] = mark
        lost = Mid(origin, mark)
        discarded = self.waiting.discard_dependent(lost)
        effects.append(Discarded(lost, tuple(discarded)))

    def _close_void(
        self, origin: ProcessId, first: SeqNo, last: SeqNo, effects: list[Effect]
    ) -> None:
        """Close the void range ``[first, last]`` of ``origin``.

        The range is agreed lost forever (orphan-discarded, bounded by
        the rejoined incarnation's boundary): register it with the
        tracker so contiguity jumps it, destroy anything waiting inside
        it, and release messages that were only blocked on void seqs.
        """
        ranges = self._void_ranges.setdefault(origin, [])
        if (first, last) in ranges:
            return
        lost = Mid(origin, first)
        discarded = self.waiting.discard_dependent(lost)
        ranges.append((first, last))
        ranges.sort()
        self.tracker.add_gap(origin, first, last)
        mark = self._discarded_from.get(origin)
        if mark is not None and first <= mark <= last:
            del self._discarded_from[origin]
        # Audit trail: the whole range counts as discarded (exempt from
        # uniform atomicity), plus whatever the waiting list destroyed.
        void_mids = tuple(
            Mid(origin, SeqNo(seq)) for seq in range(first, last + 1)
        )
        effects.append(Discarded(lost, void_mids + tuple(discarded)))
        # Seqs the frontier already covers satisfy waiters immediately.
        frontier = self.tracker.last_processed(origin)
        released: list[UserMessage] = []
        for seq in range(first, min(last, frontier) + 1):
            released.extend(self.waiting.notify_processed(Mid(origin, SeqNo(seq))))
        for message in released:
            self._process(message, effects)

    def _render_void_vectors(
        self, joiners: dict[ProcessId, SeqNo]
    ) -> tuple[tuple[SeqNo, ...], tuple[SeqNo, ...]]:
        """The coordinator's rendering of void knowledge for a decision.

        Open marks travel with a zero boundary; the latest closed range
        travels whole (so members that missed the closing decision still
        learn it); a slot being admitted right now gets its mark closed
        at the join boundary.  All-zero vectors collapse to empty tuples
        to keep the legacy wire size when nothing ever crashed.
        """
        n = self.config.n
        void = [NO_MESSAGE] * n
        bound = [NO_MESSAGE] * n
        for k in range(n):
            origin = ProcessId(k)
            mark = self._discarded_from.get(origin)
            ranges = self._void_ranges.get(origin)
            if mark is not None:
                void[k] = mark
            elif ranges:
                void[k], bound[k] = ranges[-1]
        for j, boundary in joiners.items():
            mark = self._discarded_from.get(j)
            if mark is not None and mark <= boundary:
                void[j] = mark
                bound[j] = boundary
        if not any(void):
            return (), ()
        return tuple(void), tuple(bound)

    def _release_pins(self, decision: Decision) -> None:
        """Expire history pins that served their purpose.

        A crash pin lifts when the slot rejoins or after
        ``recovery_grace`` further full-group decisions; a join pin
        lifts when the new incarnation contributes to a decision (its
        state transfer is over) or when its expiry clock runs out
        without an admission.
        """
        for gone, at in list(self._crash_pins.items()):
            if (
                self.view.is_alive(gone)
                or decision.full_group_count - at >= self.config.recovery_grace
            ):
                self.history.clear_recovery_floor(("crash", int(gone)))
                del self._crash_pins[gone]
        for j, (_, at, _) in list(self._pending_joins.items()):
            admitted = self.view.is_alive(j)
            if admitted and decision.contributors[j]:
                self.history.clear_recovery_floor(("join", int(j)))
                del self._pending_joins[j]
            elif (
                not admitted
                and decision.full_group_count - at >= self.config.recovery_grace
            ):
                self.history.clear_recovery_floor(("join", int(j)))
                del self._pending_joins[j]

    def _apply_decision_rejoining(
        self, decision: Decision, effects: list[Effect]
    ) -> None:
        """Decision adoption while circulating JoinRequests.

        Same chain discipline as the normal path, but without suicide
        (the group *should* mark us crashed right now), without the
        missed-decision leave rules (we missed decisions by definition),
        and without coordinator duties.  Seeing ourselves alive in a
        decision completes the rejoin.
        """
        if self._is_equivocation(decision):
            return
        if not decision.is_newer_than(self.latest_decision):
            return
        if decision.chain <= self.latest_decision.chain:
            self.forked_decisions_rejected += 1
            return
        self.latest_decision = decision
        # Rejoin path: update the seen-frontier but accrue/reset no
        # misses (a rejoining member missed decisions by definition).
        self.detector.decision_adopted(decision.number, reset_misses=False)
        effects.append(DecisionApplied(decision))
        self._sync_rejoin_state(decision, effects)
        removed: list[ProcessId] = []
        for k in range(decision.n):
            origin = ProcessId(k)
            if origin != self.pid and not decision.alive[k] and self.view.is_alive(origin):
                self.view.remove(origin)
                removed.append(origin)
        if removed:
            effects.append(
                MembershipChange(
                    tuple(int(pid) for pid in removed),
                    tuple(self.view.alive_vector()),
                )
            )
        if decision.alive[self.pid]:
            self._complete_rejoin(decision, effects)

    def _complete_rejoin(self, decision: Decision, effects: list[Effect]) -> None:
        self.rejoining = False
        self.view.restore(self.pid)
        self.detector.reset()
        self._fence.admit(self.pid, self.incarnation)
        # Resume the subrun clock right after the admitting decision.
        self._realign_round = 2 * (int(decision.number) + 1)
        boundary = (
            decision.join_boundary[self.pid]
            if decision.join_boundary
            else NO_MESSAGE
        )
        if boundary > self.context.own_last_seq:
            # The group knows more of our old sequence than our log did
            # (torn tail): never reuse those seqs.
            self.context.restore_own_seq(SeqNo(boundary))
        effects.append(Rejoined(int(self.pid), int(self.context.own_last_seq)))
        # Rebroadcast the unstable suffix of our own sequence: messages
        # the crash may have kept from some peers, which uniform
        # atomicity requires everyone (or no one) to process.
        start = SeqNo(decision.max_processed[self.pid] + 1)
        for message in self.history.fetch_range(
            self.pid, start, self.context.own_last_seq
        ):
            if not self._is_discarded(message.mid):
                effects.append(Send(self.group, message, KIND_DATA))
        # Catch up on what we missed while down (state transfer via the
        # ordinary recovery machinery; peers pinned their histories).
        self._plan_recovery(decision, effects)

    def _plan_recovery(self, decision: Decision, effects: list[Effect]) -> None:
        """Ask the most-updated process for the messages we miss."""
        ranges_by_holder: dict[ProcessId, list[tuple[ProcessId, SeqNo, SeqNo]]] = {}
        for k in range(decision.n):
            origin = ProcessId(k)
            mine = self.tracker.last_processed(origin)
            target = decision.max_processed[k]
            discarded = self._discarded_from.get(origin)
            if discarded is not None:
                target = min(target, SeqNo(discarded - 1))
            if target <= mine:
                continue
            holder = decision.most_updated[k]
            if holder == self.pid or not self.view.is_alive(holder):
                continue
            baseline = self._recovery_baseline.get(origin)
            if baseline is not None and baseline >= mine:
                # No progress since the previous attempt.
                attempts = self._recovery_attempts.get(origin, 0) + 1
            else:
                attempts = 1
            self._recovery_attempts[origin] = attempts
            self._recovery_baseline[origin] = mine
            if attempts > self.config.recovery_budget:
                self._leave(
                    f"recovery of origin {origin} exhausted after {attempts - 1} attempts",
                    effects,
                )
                return
            first = SeqNo(mine + 1)
            ranges_by_holder.setdefault(holder, []).append((origin, first, target))
        for holder, ranges in sorted(ranges_by_holder.items()):
            request = RecoveryRequest(self.pid, tuple(ranges))
            effects.append(Send(UnicastAddress(holder), request, KIND_RECOVERY_RQ))

    def _handle_recovery_request(
        self, request: RecoveryRequest, effects: list[Effect]
    ) -> None:
        messages: list[UserMessage] = []
        for origin, first, last in request.ranges:
            messages.extend(self.history.fetch_range(origin, first, last))
        response = RecoveryResponse(self.pid, tuple(messages))
        effects.append(Send(UnicastAddress(request.sender), response, KIND_RECOVERY_RSP))

    # ------------------------------------------------------------------
    # leave rules
    # ------------------------------------------------------------------

    def _account_missed_decision(self, subrun: SubrunNo, effects: list[Effect]) -> None:
        """At the start of subrun ``s`` check whether subrun ``s-1``
        produced a decision we received (STRICT rule only).

        The counting itself lives in the detector; the member supplies
        the *excusal* evidence — no coordinator exists for the subrun,
        the local view already marks it crashed, or the suspicion
        surface suspects it (a suspected-silent coordinator is the
        detector's failure to observe, not ours).
        """
        if self.config.leave_rule is not LeaveRule.STRICT or subrun == 0:
            return
        previous = SubrunNo(subrun - 1)
        try:
            coordinator = self.view.coordinator_of(previous)
        except NotInGroupError:
            excused = True
        else:
            excused = (
                not self.view.is_alive(coordinator)
                or coordinator in self.detector.suspects()
            )
        leave_reason = self.detector.account_missed_decision(
            previous, excused=excused
        )
        if leave_reason is not None:
            self._leave(leave_reason, effects)

    def _leave(self, reason: str, effects: list[Effect]) -> None:
        if self.has_left:
            return
        self._left_reason = reason
        self.view.remove(self.pid)
        effects.append(Left(reason))
