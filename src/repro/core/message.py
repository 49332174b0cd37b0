"""Protocol data units of the urcgc protocol, with binary codecs.

Five PDUs cross the wire (Section 4 / Figure 1):

* :class:`UserMessage` — an application message: mid, the explicit
  causal-dependency list, payload.
* :class:`RequestMessage` — per-subrun report from each process to the
  coordinator: ``last_processed`` vector, oldest-waiting vector, and
  the most recent decision the sender received (decision circulation).
* :class:`DecisionMessage` — the coordinator's broadcast decision.
* :class:`RecoveryRequest` / :class:`RecoveryResponse` — point-to-point
  recovery from a peer's history.

Everything encodes to real bytes (network byte order) via
:mod:`repro.net.wire`, so Table 1's size accounting measures genuine
wire sizes rather than field counts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from typing import Callable, cast

from ..errors import CausalityViolationError, WireFormatError
from ..net.wire import Reader, Writer, global_registry
from ..types import ProcessId, SeqNo, SubrunNo
from .causality import validate_deps
from .decision import Decision, RequestInfo
from .mid import Mid

__all__ = [
    "UserMessage",
    "GenerateBatch",
    "RequestMessage",
    "DecisionMessage",
    "RecoveryRequest",
    "RecoveryResponse",
    "HeartbeatMessage",
    "KIND_DATA",
    "KIND_BATCH",
    "KIND_REQUEST",
    "KIND_DECISION",
    "KIND_RECOVERY_RQ",
    "KIND_RECOVERY_RSP",
    "KIND_HEARTBEAT",
]

#: Packet-kind labels used for traffic accounting (Table 1 separates
#: data traffic from control traffic).
KIND_DATA = "data"
KIND_BATCH = "batch"
KIND_REQUEST = "ctrl-request"
KIND_DECISION = "ctrl-decision"
KIND_RECOVERY_RQ = "ctrl-recovery-rq"
KIND_RECOVERY_RSP = "ctrl-recovery-rsp"
KIND_HEARTBEAT = "ctrl-heartbeat"

_TAG_USER = 10
_TAG_REQUEST = 11
_TAG_DECISION = 12
_TAG_RECOVERY_RQ = 13
_TAG_RECOVERY_RSP = 14
_TAG_GENERATE_BATCH = 17
_TAG_HEARTBEAT = 18


#: Head of a USER message and of a GENERATE batch: an origin (u16), a
#: seq (u32) and the count (u8) of the (u16, u32) mids that follow.
_HEAD = struct.Struct("!HIB")

#: ``0x00``/``0x01`` flag bytes to ASCII binary digits.
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

#: The eight flags of each bitmask byte, LSB first.
_BYTE_FLAGS = tuple(tuple(bool(byte >> bit & 1) for bit in range(8)) for byte in range(256))

#: The :class:`Mid` for an ``(origin, seq)`` pair whose fields are
#: already checked, without the constructor's Python-level checks.
_checked_mid = cast("Callable[[tuple[int, int]], Mid]", partial(tuple.__new__, Mid))


def _write_deps(writer: Writer, head: Mid, deps: tuple[Mid, ...]) -> None:
    """``head``, the dependency count, then every dependency mid."""
    if len(deps) > 0xFF:
        raise WireFormatError(f"{head} has {len(deps)} deps (max 255)")
    writer.pack(_HEAD, head[0], head[1], len(deps))
    writer.u16_u32_pairs(deps)


def _read_deps(reader: Reader, count: int) -> tuple[Mid, ...]:
    """``count`` dependency mids, without a per-mid constructor call:
    the one bulk check rejects a zero seq as the constructor would (a
    u16 origin cannot be negative)."""
    if count == 0:
        return ()
    flat = reader.u16_u32_pairs(count)
    if min(flat[1::2]) < 1:
        raise WireFormatError(
            "dependency list names seq 0 (sequence numbers start at 1)"
        )
    fields = iter(flat)
    return tuple(map(_checked_mid, zip(fields, fields)))


def _write_bitmask(writer: Writer, flags: tuple[bool, ...]) -> None:
    """u16 count, then the flags packed eight per byte, LSB first."""
    count = len(flags)
    writer.u16(count)
    if count:
        digits = bytes(map(bool, reversed(flags))).translate(_FLAG_DIGITS)
        writer.raw(int(digits, 2).to_bytes((count + 7) // 8, "little"))


def _read_bitmask(reader: Reader) -> tuple[bool, ...]:
    count = reader.u16()
    if count == 0:
        return ()
    packed = reader.raw((count + 7) // 8)
    return tuple(chain.from_iterable(map(_BYTE_FLAGS.__getitem__, packed)))[:count]


@dataclass(frozen=True)
class UserMessage:
    """An application message with explicit causal dependencies."""

    mid: Mid
    deps: tuple[Mid, ...]
    payload: bytes = b""

    def __post_init__(self) -> None:
        validate_deps(self.mid, self.deps)

    def encode_fields(self, writer: Writer) -> None:
        _write_deps(writer, self.mid, self.deps)
        writer.bytes_field(self.payload)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "UserMessage":
        origin, seq, count = reader.unpack(_HEAD)
        if seq < 1:
            raise WireFormatError(f"message seq {seq} (sequence numbers start at 1)")
        mid = _checked_mid((origin, seq))
        return cls(mid, _read_deps(reader, count), reader.bytes_field())


@dataclass(frozen=True)
class GenerateBatch:
    """Several consecutive own-sequence messages in one GENERATE.

    Messages a member generates back to back within one round share
    their external dependencies (its own processing between them adds
    none), so a burst encodes as: the origin, the first seq, the shared
    external dependency vector once, a per-message flag saying whether
    the message carries it, and the payloads.  :meth:`expand`
    reconstructs the exact :class:`UserMessage` tuple — each message's
    dependency list is its predecessor (seq contiguity) plus the shared
    vector when flagged — so batching is invisible above the wire.
    """

    origin: ProcessId
    first_seq: SeqNo
    shared_deps: tuple[Mid, ...]
    ext_flags: tuple[bool, ...]
    payloads: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if not self.payloads:
            raise WireFormatError("empty GenerateBatch")
        if len(self.ext_flags) != len(self.payloads):
            raise WireFormatError(
                f"GenerateBatch flag/payload mismatch: "
                f"{len(self.ext_flags)} != {len(self.payloads)}"
            )
        if self.first_seq < 1:
            raise WireFormatError(f"bad first_seq {self.first_seq}")
        for dep in self.shared_deps:
            if dep.origin == self.origin:
                raise WireFormatError(
                    f"shared dependency {dep} names the batch origin "
                    f"{self.origin} (predecessors are implicit)"
                )
        # expand() runs each message's list through validate_deps, whose
        # CausalityViolationError is no decode failure and would escape
        # a receive loop: check the shared list (and origin) here.
        try:
            validate_deps(Mid(self.origin, self.first_seq), self.shared_deps)
        except CausalityViolationError as exc:
            raise WireFormatError(f"bad GenerateBatch: {exc}") from exc

    def __len__(self) -> int:
        return len(self.payloads)

    def expand(self) -> tuple[UserMessage, ...]:
        """The batched messages, exactly as generated."""
        messages = []
        for index, payload in enumerate(self.payloads):
            mid = _checked_mid((self.origin, self.first_seq + index))
            predecessor = mid.predecessor
            deps: tuple[Mid, ...] = () if predecessor is None else (predecessor,)
            if self.ext_flags[index]:
                deps += self.shared_deps
            messages.append(UserMessage(mid, deps, payload))
        return tuple(messages)

    def encode_fields(self, writer: Writer) -> None:
        _write_deps(writer, Mid(self.origin, self.first_seq), self.shared_deps)
        _write_bitmask(writer, self.ext_flags)
        for payload in self.payloads:
            writer.bytes_field(payload)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "GenerateBatch":
        origin, first_seq, count = reader.unpack(_HEAD)
        shared_deps = _read_deps(reader, count)
        ext_flags = _read_bitmask(reader)
        payloads = tuple(reader.bytes_field() for _ in range(len(ext_flags)))
        return cls(origin, first_seq, shared_deps, ext_flags, payloads)


def _write_seq_vector(writer: Writer, values: tuple[SeqNo, ...]) -> None:
    writer.u32_list(values)


def _read_seq_vector(reader: Reader) -> tuple[SeqNo, ...]:
    return cast("tuple[SeqNo, ...]", tuple(reader.u32_list()))


def _write_decision(writer: Writer, decision: Decision) -> None:
    writer.u32(decision.number + 1)  # number starts at -1
    writer.u32(decision.chain)
    writer.u16(decision.coordinator)
    _write_bitmask(writer, decision.alive)
    writer.u16(len(decision.attempts))
    writer.raw(bytes(map(min, decision.attempts, repeat(0xFF))))
    _write_seq_vector(writer, decision.stable)
    _write_bitmask(writer, decision.contributors)
    writer.boolean(decision.full_group)
    _write_seq_vector(writer, decision.max_processed)
    writer.u16_list(decision.most_updated)
    _write_seq_vector(writer, decision.min_waiting)
    writer.u32(decision.full_group_count)
    # Rejoin extension (all empty without enable_rejoin: 6 bytes).
    writer.u16_list(decision.joiners)
    _write_seq_vector(writer, decision.void_from)
    _write_seq_vector(writer, decision.join_boundary)


def _read_decision(reader: Reader) -> Decision:
    number = SubrunNo(reader.u32() - 1)
    chain = reader.u32()
    coordinator = ProcessId(reader.u16())
    alive = _read_bitmask(reader)
    attempts = tuple(reader.raw(reader.u16()))
    stable = _read_seq_vector(reader)
    contributors = _read_bitmask(reader)
    full_group = reader.boolean()
    max_processed = _read_seq_vector(reader)
    most_updated = cast("tuple[ProcessId, ...]", reader.u16_list())
    min_waiting = _read_seq_vector(reader)
    full_group_count = reader.u32()
    joiners = cast("tuple[ProcessId, ...]", reader.u16_list())
    void_from = _read_seq_vector(reader)
    join_boundary = _read_seq_vector(reader)
    return Decision(
        number=number,
        chain=chain,
        coordinator=coordinator,
        alive=alive,
        attempts=attempts,
        stable=stable,
        contributors=contributors,
        full_group=full_group,
        max_processed=max_processed,
        most_updated=most_updated,
        min_waiting=min_waiting,
        full_group_count=full_group_count,
        joiners=joiners,
        void_from=void_from,
        join_boundary=join_boundary,
    )


@dataclass(frozen=True)
class RequestMessage:
    """Per-subrun report from ``sender`` to the subrun's coordinator."""

    sender: ProcessId
    subrun: SubrunNo
    info: RequestInfo
    decision: Decision

    def encode_fields(self, writer: Writer) -> None:
        writer.u16(self.sender)
        writer.u32(self.subrun)
        _write_seq_vector(writer, self.info.last_processed)
        _write_seq_vector(writer, self.info.waiting)
        _write_decision(writer, self.decision)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "RequestMessage":
        sender = ProcessId(reader.u16())
        subrun = SubrunNo(reader.u32())
        last_processed = _read_seq_vector(reader)
        waiting = _read_seq_vector(reader)
        decision = _read_decision(reader)
        return cls(sender, subrun, RequestInfo(last_processed, waiting), decision)


@dataclass(frozen=True)
class DecisionMessage:
    """The coordinator's decision broadcast."""

    decision: Decision

    def encode_fields(self, writer: Writer) -> None:
        _write_decision(writer, self.decision)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "DecisionMessage":
        return cls(_read_decision(reader))


@dataclass(frozen=True)
class RecoveryRequest:
    """Ask a peer for missing seq ranges, one ``(origin, first, last)``
    triple per sequence with a gap."""

    sender: ProcessId
    ranges: tuple[tuple[ProcessId, SeqNo, SeqNo], ...]

    def __post_init__(self) -> None:
        for origin, first, last in self.ranges:
            if first < 1 or last < first:
                raise WireFormatError(
                    f"bad recovery range ({origin}, {first}, {last})"
                )

    def encode_fields(self, writer: Writer) -> None:
        writer.u16(self.sender)
        writer.u16(len(self.ranges))
        for origin, first, last in self.ranges:
            writer.u16(origin)
            writer.u32(first)
            writer.u32(last)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "RecoveryRequest":
        sender = ProcessId(reader.u16())
        count = reader.u16()
        ranges = tuple(
            (ProcessId(reader.u16()), SeqNo(reader.u32()), SeqNo(reader.u32()))
            for _ in range(count)
        )
        return cls(sender, ranges)


@dataclass(frozen=True)
class RecoveryResponse:
    """Messages retrieved from the responder's history."""

    sender: ProcessId
    messages: tuple[UserMessage, ...] = field(default_factory=tuple)

    def encode_fields(self, writer: Writer) -> None:
        writer.u16(self.sender)
        writer.u16(len(self.messages))
        for message in self.messages:
            inner = Writer()
            message.encode_fields(inner)
            writer.bytes_field(inner.getvalue())

    @classmethod
    def decode_fields(cls, reader: Reader) -> "RecoveryResponse":
        sender = ProcessId(reader.u16())
        count = reader.u16()
        messages = []
        for _ in range(count):
            inner = Reader(reader.bytes_field())
            messages.append(UserMessage.decode_fields(inner))
            inner.expect_end()
        return cls(sender, tuple(messages))


@dataclass(frozen=True)
class HeartbeatMessage:
    """A liveness beacon for the heartbeat failure detector.

    Broadcast once per ``heartbeat_every`` subruns when
    ``UrcgcConfig.failure_detector`` selects the heartbeat kind
    (PROTOCOL §13).  Carries the sender's incarnation so a detector can
    tell a rejoined slot's beacons from its previous life's stragglers,
    and the sender's round number for diagnostics.
    """

    sender: ProcessId
    incarnation: int
    round_no: int

    def __post_init__(self) -> None:
        if self.sender < 0 or self.incarnation < 0 or self.round_no < 0:
            raise WireFormatError(
                f"bad heartbeat ({self.sender}, {self.incarnation}, {self.round_no})"
            )

    def encode_fields(self, writer: Writer) -> None:
        writer.u16(self.sender)
        writer.u32(self.incarnation)
        writer.u32(self.round_no)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "HeartbeatMessage":
        sender = ProcessId(reader.u16())
        incarnation = reader.u32()
        round_no = reader.u32()
        return cls(sender, incarnation, round_no)


global_registry.register(_TAG_USER, UserMessage, UserMessage.decode_fields)
global_registry.register(
    _TAG_GENERATE_BATCH, GenerateBatch, GenerateBatch.decode_fields
)
global_registry.register(_TAG_REQUEST, RequestMessage, RequestMessage.decode_fields)
global_registry.register(_TAG_DECISION, DecisionMessage, DecisionMessage.decode_fields)
global_registry.register(_TAG_RECOVERY_RQ, RecoveryRequest, RecoveryRequest.decode_fields)
global_registry.register(
    _TAG_RECOVERY_RSP, RecoveryResponse, RecoveryResponse.decode_fields
)
global_registry.register(
    _TAG_HEARTBEAT, HeartbeatMessage, HeartbeatMessage.decode_fields
)
