"""The urcgc service access point (Section 5).

The user entity accesses the service through three primitives:

* ``urcgc.data.Rq`` — :meth:`UrcgcService.data_rq`: hand a payload to
  the protocol.  The paper's user entity blocks until the Confirm; in
  this sans-IO rendering the Rq returns a :class:`RequestHandle` that
  resolves when the local entity has processed the message.
* ``urcgc.data.Conf`` — the handle resolves (and the optional confirm
  callback fires) when the message was generated and locally
  processed; "in absence of failures, the urcgc service guarantees to
  process one message a round".
* ``urcgc.data.Ind`` — the indication callback fires for every message
  processed at this site, in causal order, own messages included.

Architecturally the service is the boundary between the user and the
GC sublayer; the GMT sublayer (history, recovery) lives inside
:class:`~repro.core.member.Member`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from ..errors import FlowControlBlocked

from .effects import (
    Confirm,
    Deliver,
    Discarded,
    Effect,
    Left,
    MembershipChange,
    Send,
)
from .member import Member
from .message import UserMessage
from .mid import Mid

__all__ = ["RequestHandle", "UrcgcService"]

IndicationHandler = Callable[[UserMessage], None]
ConfirmHandler = Callable[["RequestHandle"], None]
LeaveHandler = Callable[[str], None]
MembershipHandler = Callable[[MembershipChange], None]


class RequestHandle:
    """Tracks one urcgc.data.Rq until its Confirm arrives."""

    def __init__(self, payload: bytes) -> None:
        self.payload = payload
        self.mid: Mid | None = None

    @property
    def confirmed(self) -> bool:
        return self.mid is not None

    def __repr__(self) -> str:
        state = f"confirmed as {self.mid}" if self.confirmed else "pending"
        return f"RequestHandle({state})"


class UrcgcService:
    """User-facing SAP wrapping one :class:`Member` engine."""

    def __init__(
        self,
        member: Member,
        *,
        on_indication: IndicationHandler | None = None,
        on_confirm: ConfirmHandler | None = None,
        on_leave: LeaveHandler | None = None,
        on_membership: MembershipHandler | None = None,
    ) -> None:
        self.member = member
        self._on_indication = on_indication
        self._extra_indications: list[IndicationHandler] = []
        self._on_confirm = on_confirm
        self._on_leave = on_leave
        self._on_membership = on_membership
        self._pending: deque[RequestHandle] = deque()
        self.delivered: list[UserMessage] = []
        self.confirmed: list[RequestHandle] = []
        #: Orphan discard: ``discarded_mids`` are the destroyed waiting
        #: messages, ``lost_mids`` the lost messages they depended on.
        self.discarded_mids: list[Mid] = []
        self.lost_mids: list[Mid] = []
        #: Every membership change observed, in order.
        self.membership_changes: list[MembershipChange] = []

    def rebind(self, member: Member, delivered: list[UserMessage]) -> None:
        """Serve a recovered incarnation: its replayed delivered log
        replaces this one, and requests the crash lost never confirm."""
        self.member = member
        self.delivered = delivered
        self._pending.clear()

    def set_indication_handler(self, handler: IndicationHandler | None) -> None:
        """Install (or clear) the *primary* urcgc.data.Ind callback."""
        self._on_indication = handler

    def add_indication_handler(self, handler: IndicationHandler) -> None:
        """Register an *additional* urcgc.data.Ind callback.

        The service fans every indication out to the primary handler
        and then to each added handler, in registration order — this is
        what lets several consumers (a client-tier frontend, a
        request/reply adapter, application code) share one member
        without clobbering each other's subscriptions.
        """
        self._extra_indications.append(handler)

    def remove_indication_handler(self, handler: IndicationHandler) -> None:
        """Unregister a handler added with :meth:`add_indication_handler`."""
        self._extra_indications.remove(handler)

    def set_confirm_handler(self, handler: ConfirmHandler | None) -> None:
        """Install (or clear) the urcgc.data.Conf callback."""
        self._on_confirm = handler

    def data_rq(self, payload: bytes) -> RequestHandle:
        """The urcgc.data.Rq primitive.

        Always accepted: submissions queue behind flow control and the
        one-generation-per-round rule, confirming when processed.
        """
        handle = RequestHandle(payload)
        self.member.submit(payload)
        self._pending.append(handle)
        return handle

    def data_rq_many(self, payloads: Iterable[bytes]) -> list[RequestHandle]:
        """Fan-in variant of :meth:`data_rq`: queue a whole batch of
        payloads in one call.

        The client tier uses this to pour many client publishes into
        one member; each payload still confirms individually, in FIFO
        order, as the member generates it (one or ``generate_burst``
        per round).
        """
        return [self.data_rq(payload) for payload in payloads]

    def try_data_rq(self, payload: bytes) -> RequestHandle:
        """Non-queueing variant of :meth:`data_rq`.

        Refuses (raising :class:`FlowControlBlocked`) instead of
        queueing when the request could not be generated at the next
        round: flow control is engaged, or earlier submissions are
        already waiting their turn.  For senders that would rather
        shed or retry than build a backlog.
        """
        member = self.member
        throttled = (
            member.config.flow_control_enabled
            and member.history_length >= member.config.effective_flow_threshold
        )
        if throttled or member.pending_submissions > 0:
            reason = "flow control engaged" if throttled else "submissions queued"
            raise FlowControlBlocked(
                f"p{member.pid} cannot generate next round: {reason} "
                f"(history {member.history_length}, "
                f"queue {member.pending_submissions})"
            )
        return self.data_rq(payload)

    def dispatch(self, effects: list[Effect]) -> list[Send]:
        """Consume application-facing effects; return the Send effects
        the driver must put on the wire."""
        sends: list[Send] = []
        for effect in effects:
            if isinstance(effect, Send):
                sends.append(effect)
            elif isinstance(effect, Deliver):
                self.delivered.append(effect.message)
                if self._on_indication is not None:
                    self._on_indication(effect.message)
                for handler in self._extra_indications:
                    handler(effect.message)
            elif isinstance(effect, Confirm):
                # Submissions confirm in FIFO order (one queue, one
                # generation per round), so the oldest pending handle
                # owns this Confirm.
                if self._pending:
                    handle = self._pending.popleft()
                    handle.mid = effect.mid
                    self.confirmed.append(handle)
                    if self._on_confirm is not None:
                        self._on_confirm(handle)
            elif isinstance(effect, Left):
                if self._on_leave is not None:
                    self._on_leave(effect.reason)
            elif isinstance(effect, Discarded):
                self.discarded_mids.extend(effect.discarded)
                self.lost_mids.append(effect.lost)
            elif isinstance(effect, MembershipChange):
                self.membership_changes.append(effect)
                if self._on_membership is not None:
                    self._on_membership(effect)
        return sends
