"""Semantic bounds validation of decoded PDUs.

The wire codecs (:mod:`repro.net.wire`, :mod:`repro.core.message`)
reject *structurally* malformed bytes — bad tags, truncation, trailing
garbage — but a structurally valid PDU can still be semantically
poisonous to a group of size ``n``: a member index at or above ``n``
(indexing crashes in the view/tracker), a vector of the wrong length,
a forged dependency naming a process that does not exist.  Drivers run
:func:`validate_message` over every decoded (and batch-expanded) PDU
before dispatching it to the engine and drop offenders under the
``net.decode_error`` counter, so a corrupted or adversarial datagram
can never raise out of a receive loop (PROTOCOL §13's forged-vector
fault class).
"""

from __future__ import annotations

from .decision import Decision
from .message import (
    DecisionMessage,
    GenerateBatch,
    HeartbeatMessage,
    RecoveryRequest,
    RecoveryResponse,
    RequestMessage,
    UserMessage,
)
from .mid import Mid
from .rejoin import JoinRequest

__all__ = ["validate_message"]


def _check_mid(mid: Mid, n: int) -> str | None:
    if mid.origin >= n:
        return f"mid origin {mid.origin} >= n={n}"
    return None


def _check_vector(name: str, vector: tuple, n: int) -> str | None:
    if len(vector) != n:
        return f"{name} has length {len(vector)}, expected {n}"
    return None


def _check_decision(decision: Decision, n: int) -> str | None:
    if decision.coordinator >= n:
        return f"decision coordinator {decision.coordinator} >= n={n}"
    for name, vector in (
        ("alive", decision.alive),
        ("attempts", decision.attempts),
        ("stable", decision.stable),
        ("contributors", decision.contributors),
        ("max_processed", decision.max_processed),
        ("most_updated", decision.most_updated),
        ("min_waiting", decision.min_waiting),
    ):
        problem = _check_vector(f"decision {name}", vector, n)
        if problem is not None:
            return problem
    if any(pid >= n for pid in decision.most_updated):
        return "decision most_updated names a pid >= n"
    if any(pid >= n for pid in decision.joiners):
        return "decision joiners names a pid >= n"
    # The rejoin vectors are empty (legacy wire size) or full length.
    for name, vector in (
        ("void_from", decision.void_from),
        ("join_boundary", decision.join_boundary),
    ):
        if vector and len(vector) != n:
            return f"decision {name} has length {len(vector)}, expected 0 or {n}"
    return None


def validate_message(message: object, n: int) -> str | None:
    """Reason this decoded PDU is unsafe for a group of size ``n``
    (None when it is in range).

    Unknown message types are rejected too: a datagram carrying some
    other protocol's (structurally valid) tag must not reach
    ``Member.on_message``, which raises on unexpected types.
    """
    if isinstance(message, UserMessage):
        problem = _check_mid(message.mid, n)
        if problem is not None:
            return problem
        # Mids order by origin first: the largest names the largest origin.
        last = max(message.deps, default=None)
        if last is not None and last.origin >= n:
            return f"dep: mid origin {last.origin} >= n={n}"
        return None
    if isinstance(message, GenerateBatch):
        if message.origin >= n:
            return f"batch origin {message.origin} >= n={n}"
        last = max(message.shared_deps, default=None)
        if last is not None and last.origin >= n:
            return f"shared dep: mid origin {last.origin} >= n={n}"
        return None
    if isinstance(message, RequestMessage):
        if message.sender >= n:
            return f"request sender {message.sender} >= n={n}"
        return (
            _check_vector("request last_processed", message.info.last_processed, n)
            or _check_vector("request waiting", message.info.waiting, n)
            or _check_decision(message.decision, n)
        )
    if isinstance(message, DecisionMessage):
        return _check_decision(message.decision, n)
    if isinstance(message, RecoveryRequest):
        if message.sender >= n:
            return f"recovery sender {message.sender} >= n={n}"
        if any(origin >= n for origin, _, _ in message.ranges):
            return "recovery range names an origin >= n"
        return None
    if isinstance(message, RecoveryResponse):
        if message.sender >= n:
            return f"recovery sender {message.sender} >= n={n}"
        for inner in message.messages:
            problem = validate_message(inner, n)
            if problem is not None:
                return problem
        return None
    if isinstance(message, JoinRequest):
        if message.sender >= n:
            return f"join sender {message.sender} >= n={n}"
        return _check_vector("join last_processed", message.last_processed, n)
    if isinstance(message, HeartbeatMessage):
        if message.sender >= n:
            return f"heartbeat sender {message.sender} >= n={n}"
        return None
    return f"unexpected message type {type(message).__name__}"
