"""Client-tier wire PDUs (PROTOCOL §14.1).

Four PDUs cross the client/frontend boundary, registered in the
:data:`repro.net.wire.global_registry` alongside the group-internal
tags (the client tier shares the LAN, so tags must not collide):

* :class:`ClientHello` (tag 19) — session open / resume.
* :class:`ClientPublish` (tag 20) — a sequence-numbered publish to one
  or more topics.
* :class:`ClientDeliver` (tag 21) — a causal delivery fanned back out
  to a subscribed session; per-``(session, shard)`` streams carry
  their own contiguous ``deliver_seq``.
* :class:`ClientAck` (tag 22) — cumulative acknowledgement, both
  directions: the frontend acks publishes (granting publish credit),
  the client acks deliveries (granting fan-out credit).

All fixed-width headers encode through preallocated ``struct.Struct``
codecs (the wire layer's struct fast path), so the hot client path
does one pack/unpack call per PDU.

A CLIENT_DELIVER splits into a per-recipient header and a ``(topic,
payload)`` body that every subscriber of one publish shares: the
fan-out encodes the body once with :func:`deliver_body` and joins it
to each recipient's header with :func:`deliver_frame`.
:meth:`ClientDeliver.encode_fields` uses the same body helper and
header layout, so both paths produce the same bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import WireFormatError
from ..net.wire import Reader, Writer, global_registry

__all__ = [
    "ACK_PUBLISH",
    "ACK_DELIVER",
    "MAX_TOPICS",
    "ClientHello",
    "ClientPublish",
    "ClientDeliver",
    "ClientAck",
    "KIND_CLIENT",
    "deliver_body",
    "deliver_frame",
]

_TAG_CLIENT_HELLO = 19
_TAG_CLIENT_PUB = 20
_TAG_CLIENT_DELIVER = 21
_TAG_CLIENT_ACK = 22

#: Packet-kind label for traffic accounting (client-tier traffic is
#: neither group data nor control).
KIND_CLIENT = "client"

#: Topics one publish may target (multi-topic publishes cross shards
#: through the bridge; the intersection rule is quadratic in this).
MAX_TOPICS = 8

#: Longest topic name on the wire, in bytes.
MAX_TOPIC_LEN = 128

#: ``ClientAck.kind`` values: a frontend acknowledging publishes, or a
#: client acknowledging deliveries.
ACK_PUBLISH = 0
ACK_DELIVER = 1

_HELLO_HEAD = struct.Struct("!QHII")  # client_id, credit, resume_seq, acked_seq
_PUB_HEAD = struct.Struct("!QI")  # client_id, client_seq
# client_id, shard, deliver_seq, origin, origin_seq, epoch
_DELIVER_HEAD = struct.Struct("!QHIQIH")
# the type tag, then _DELIVER_HEAD's fields: a whole frame's header
_DELIVER_FRAME_HEAD = struct.Struct("!B" + _DELIVER_HEAD.format[1:])
# kind, client_id, shard, ack_seq, credit, resume_seq, epoch
_ACK_HEAD = struct.Struct("!BQHIHIH")

_U64_MAX = 0xFFFF_FFFF_FFFF_FFFF
_U32_MAX = 0xFFFF_FFFF
_U16_MAX = 0xFFFF


def _check_client_id(client_id: int) -> None:
    if not 0 <= client_id <= _U64_MAX:
        raise WireFormatError(f"client id {client_id} outside u64")


@dataclass(frozen=True)
class ClientHello:
    """Open (or resume) a client session at a frontend.

    ``credit`` is the publish window the client *requests*; the
    frontend grants its own value in the hello-ack.  ``resume_seq`` is
    the last publish sequence number the client used in a previous
    life of this session (0 for a fresh session) and ``acked_seq`` the
    highest cumulative publish-ack it received.  A frontend never
    trusts ``resume_seq`` for a session it has no record of — it
    answers with its own accepted frontier in the hello-ack's
    ``resume_seq`` (the negotiated resume handshake, PROTOCOL §14.7),
    and the client replays everything past that offer.
    """

    client_id: int
    credit: int = 32
    resume_seq: int = 0
    acked_seq: int = 0

    def __post_init__(self) -> None:
        _check_client_id(self.client_id)
        if not 1 <= self.credit <= _U16_MAX:
            raise WireFormatError(f"hello credit {self.credit} outside [1, 65535]")
        if not 0 <= self.resume_seq <= _U32_MAX:
            raise WireFormatError(f"resume_seq {self.resume_seq} outside u32")
        if not 0 <= self.acked_seq <= self.resume_seq:
            raise WireFormatError(
                f"acked_seq {self.acked_seq} outside [0, resume_seq={self.resume_seq}]"
            )

    def encode_fields(self, writer: Writer) -> None:
        writer.pack(
            _HELLO_HEAD, self.client_id, self.credit, self.resume_seq, self.acked_seq
        )

    @classmethod
    def decode_fields(cls, reader: Reader) -> "ClientHello":
        client_id, credit, resume_seq, acked_seq = reader.unpack(_HELLO_HEAD)
        return cls(client_id, credit, resume_seq, acked_seq)


@dataclass(frozen=True)
class ClientPublish:
    """A client's sequence-numbered publish to one or more topics.

    ``client_seq`` starts at 1 and is contiguous per session: the
    frontend rejects gaps and duplicates, which is what makes the
    cumulative :class:`ClientAck` meaningful.
    """

    client_id: int
    client_seq: int
    topics: tuple[bytes, ...]
    payload: bytes = b""

    def __post_init__(self) -> None:
        _check_client_id(self.client_id)
        if not 1 <= self.client_seq <= _U32_MAX:
            raise WireFormatError(f"client_seq {self.client_seq} outside [1, u32]")
        if not 1 <= len(self.topics) <= MAX_TOPICS:
            raise WireFormatError(
                f"publish must target 1..{MAX_TOPICS} topics, got {len(self.topics)}"
            )
        if len(set(self.topics)) != len(self.topics):
            raise WireFormatError("publish topics must be distinct")
        for topic in self.topics:
            if not 1 <= len(topic) <= MAX_TOPIC_LEN:
                raise WireFormatError(f"topic of {len(topic)} bytes outside [1, {MAX_TOPIC_LEN}]")

    def encode_fields(self, writer: Writer) -> None:
        writer.pack(_PUB_HEAD, self.client_id, self.client_seq)
        writer.u8(len(self.topics))
        for topic in self.topics:
            writer.bytes_field(topic)
        writer.bytes_field(self.payload)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "ClientPublish":
        client_id, client_seq = reader.unpack(_PUB_HEAD)
        topics = tuple(reader.bytes_field() for _ in range(reader.u8()))
        payload = reader.bytes_field()
        return cls(client_id, client_seq, topics, payload)


@dataclass(frozen=True)
class ClientDeliver:
    """One causal delivery fanned out to a subscribed session.

    Deliveries form per-``(session, shard)`` streams: ``deliver_seq``
    is contiguous within the stream, so the client state machine can
    detect fan-out loss without any n-sized metadata.  ``origin`` /
    ``origin_seq`` identify the publish (globally unique), and
    ``topic`` is the subscribed topic that matched.  ``epoch`` is the
    stream's re-anchor generation: it bumps when the stream fails over
    to a successor frontend, so stragglers from a previous life are
    recognized and dropped instead of corrupting the new cursor.
    """

    client_id: int
    shard: int
    deliver_seq: int
    origin: int
    origin_seq: int
    topic: bytes
    payload: bytes = b""
    epoch: int = 0

    def __post_init__(self) -> None:
        _check_client_id(self.client_id)
        _check_client_id(self.origin)
        if not 0 <= self.shard <= _U16_MAX:
            raise WireFormatError(f"shard {self.shard} outside u16")
        if not 1 <= self.deliver_seq <= _U32_MAX:
            raise WireFormatError(f"deliver_seq {self.deliver_seq} outside [1, u32]")
        if not 1 <= self.origin_seq <= _U32_MAX:
            raise WireFormatError(f"origin_seq {self.origin_seq} outside [1, u32]")
        if not 1 <= len(self.topic) <= MAX_TOPIC_LEN:
            raise WireFormatError(f"topic of {len(self.topic)} bytes outside [1, {MAX_TOPIC_LEN}]")
        if not 0 <= self.epoch <= _U16_MAX:
            raise WireFormatError(f"epoch {self.epoch} outside u16")

    def encode_fields(self, writer: Writer) -> None:
        writer.pack(
            _DELIVER_HEAD,
            self.client_id,
            self.shard,
            self.deliver_seq,
            self.origin,
            self.origin_seq,
            self.epoch,
        )
        writer.raw(deliver_body(self.topic, self.payload))

    @classmethod
    def decode_fields(cls, reader: Reader) -> "ClientDeliver":
        client_id, shard, deliver_seq, origin, origin_seq, epoch = reader.unpack(
            _DELIVER_HEAD
        )
        topic = reader.bytes_field()
        payload = reader.bytes_field()
        return cls(
            client_id, shard, deliver_seq, origin, origin_seq, topic, payload, epoch
        )


def deliver_body(topic: bytes, payload: bytes) -> bytes:
    """The recipient-independent tail of a CLIENT_DELIVER: the
    length-prefixed matched topic, then the length-prefixed payload."""
    writer = Writer()
    writer.bytes_field(topic)
    writer.bytes_field(payload)
    return writer.getvalue()


def deliver_frame(
    body: bytes,
    client_id: int,
    shard: int,
    deliver_seq: int,
    origin: int,
    origin_seq: int,
    epoch: int,
) -> bytes:
    """A complete tag-prefixed CLIENT_DELIVER: one recipient's header
    joined to a shared :func:`deliver_body` — byte for byte what the
    registry encodes for the equivalent :class:`ClientDeliver`.

    The pack rejects values that overflow a field; the remaining
    checks (nonzero sequence numbers, topic length) are the receiver's
    decode, as for any untrusted PDU.
    """
    return (
        _DELIVER_FRAME_HEAD.pack(
            _TAG_CLIENT_DELIVER, client_id, shard, deliver_seq, origin, origin_seq, epoch
        )
        + body
    )


@dataclass(frozen=True)
class ClientAck:
    """Cumulative acknowledgement; direction selected by ``kind``.

    * ``ACK_PUBLISH`` (frontend → client): every publish with
      ``client_seq <= ack_seq`` was processed by the group, and the
      client may keep up to ``credit`` publishes outstanding.  The
      hello-ack is this kind; its ``resume_seq`` carries the
      frontend's *accepted frontier* — the resume offer of the
      negotiated handshake: a resuming client replays every retained
      publish with ``client_seq > resume_seq``.
    * ``ACK_DELIVER`` (client → frontend): every delivery on stream
      ``shard`` with ``deliver_seq <= ack_seq`` reached the client in
      stream generation ``epoch``; the frontend un-parks further
      fan-out for the stream (acks from older epochs are ignored).
    """

    kind: int
    client_id: int
    shard: int
    ack_seq: int
    credit: int
    resume_seq: int = 0
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (ACK_PUBLISH, ACK_DELIVER):
            raise WireFormatError(f"unknown ack kind {self.kind}")
        _check_client_id(self.client_id)
        if not 0 <= self.shard <= _U16_MAX:
            raise WireFormatError(f"shard {self.shard} outside u16")
        if not 0 <= self.ack_seq <= _U32_MAX:
            raise WireFormatError(f"ack_seq {self.ack_seq} outside u32")
        if not 0 <= self.credit <= _U16_MAX:
            raise WireFormatError(f"credit {self.credit} outside u16")
        if not 0 <= self.resume_seq <= _U32_MAX:
            raise WireFormatError(f"resume_seq {self.resume_seq} outside u32")
        if not 0 <= self.epoch <= _U16_MAX:
            raise WireFormatError(f"epoch {self.epoch} outside u16")

    def encode_fields(self, writer: Writer) -> None:
        writer.pack(
            _ACK_HEAD,
            self.kind,
            self.client_id,
            self.shard,
            self.ack_seq,
            self.credit,
            self.resume_seq,
            self.epoch,
        )

    @classmethod
    def decode_fields(cls, reader: Reader) -> "ClientAck":
        kind, client_id, shard, ack_seq, credit, resume_seq, epoch = reader.unpack(
            _ACK_HEAD
        )
        return cls(kind, client_id, shard, ack_seq, credit, resume_seq, epoch)


global_registry.register(_TAG_CLIENT_HELLO, ClientHello, ClientHello.decode_fields)
global_registry.register(_TAG_CLIENT_PUB, ClientPublish, ClientPublish.decode_fields)
global_registry.register(_TAG_CLIENT_DELIVER, ClientDeliver, ClientDeliver.decode_fields)
global_registry.register(_TAG_CLIENT_ACK, ClientAck, ClientAck.decode_fields)
