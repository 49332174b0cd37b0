"""Binary wire codec primitives.

Table 1 of the paper compares *byte* sizes of control messages, so the
reproduction encodes every protocol message to a real byte string
rather than counting abstract fields.  This module provides the
low-level encode/decode helpers (fixed-width integers, varints, length-
prefixed collections) and a type-tag registry used by the message
classes in :mod:`repro.core.message` and the baselines.

The format is deliberately simple: network byte order, a one-byte type
tag, then type-specific fields.  It is a faithful stand-in for the
"fits into a single IP datagram" arithmetic in the paper.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Protocol, Sequence, Type, TypeVar

from ..errors import WireFormatError

__all__ = [
    "Reader",
    "Writer",
    "WireMessage",
    "BatchFrame",
    "CodecRegistry",
    "encode_message",
    "decode_message",
    "global_registry",
]

_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_F64 = struct.Struct("!d")


def _row_codecs(row_format: Callable[[int], str]) -> Callable[[int], struct.Struct]:
    """Memoized codecs for rows of ``n`` repeated fields, built from the
    format string ``row_format(n)``.

    The hot fixed-width vectors (the REQUEST / DECISION
    ``last_processed`` / ``stable`` / … u32 rows, dependency lists of
    (u16, u32) mids) repeat at a handful of lengths, so one
    preallocated Struct per length covers them.
    """
    cache: dict[int, struct.Struct] = {}

    def codec(n: int) -> struct.Struct:
        found = cache.get(n)
        if found is None:
            found = cache[n] = struct.Struct(row_format(n))
        return found

    return codec


#: Single-field rows use struct's repeat count, which compiles to one
#: code however long the row.  A (u16, u32) pair has no repeat form, so
#: its rows spell out every pair; their count is a u8 (at most 255).
_vector_struct = _row_codecs("!{}I".format)
_u16_vector_struct = _row_codecs("!{}H".format)
_pair_struct = _row_codecs(lambda n: "!" + "HI" * n)


class Writer:
    """Accumulates encoded fields into a byte string.

    Backed by a single growable :class:`bytearray` (not a part list),
    so hot-path encodes do one allocation per message; :meth:`reset`
    lets a codec reuse the buffer across messages.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def reset(self) -> None:
        """Drop accumulated bytes so the buffer can be reused."""
        del self._buf[:]

    def u8(self, value: int) -> "Writer":
        self._buf += _U8.pack(value)
        return self

    def u16(self, value: int) -> "Writer":
        self._buf += _U16.pack(value)
        return self

    def u32(self, value: int) -> "Writer":
        self._buf += _U32.pack(value)
        return self

    def u64(self, value: int) -> "Writer":
        self._buf += _U64.pack(value)
        return self

    def f64(self, value: float) -> "Writer":
        self._buf += _F64.pack(value)
        return self

    def boolean(self, value: bool) -> "Writer":
        return self.u8(1 if value else 0)

    def raw(self, data: bytes) -> "Writer":
        self._buf += data
        return self

    def pack(self, codec: struct.Struct, *values: object) -> "Writer":
        """Append several fixed-width fields in one preallocated-Struct
        pack call (the struct fast path; wire bytes are identical to
        the per-field encoding)."""
        self._buf += codec.pack(*values)
        return self

    def bytes_field(self, data: bytes) -> "Writer":
        """Length-prefixed (u16) byte string."""
        if len(data) > 0xFFFF:
            raise WireFormatError(f"bytes field too long: {len(data)}")
        self.u16(len(data))
        return self.raw(data)

    def u32_list(self, values: Iterable[int]) -> "Writer":
        """Length-prefixed (u16) list of u32.

        Encoded in one preallocated-Struct pack call — the wire bytes
        are identical to the per-element encoding.
        """
        vals = values if isinstance(values, (list, tuple)) else list(values)
        n = len(vals)
        if n > 0xFFFF:
            raise WireFormatError(f"list too long: {n}")
        self._buf += _U16.pack(n)
        if n:
            self._buf += _vector_struct(n).pack(*vals)
        return self

    def u16_list(self, values: Sequence[int]) -> "Writer":
        """Length-prefixed (u16) list of u16, in one pack call."""
        n = len(values)
        if n > 0xFFFF:
            raise WireFormatError(f"list too long: {n}")
        self._buf += _U16.pack(n)
        if n:
            self._buf += _u16_vector_struct(n).pack(*values)
        return self

    def u16_u32_pairs(self, pairs: Sequence[Sequence[int]]) -> "Writer":
        """``len(pairs)`` (u16, u32) pairs, no count prefix, in one pack
        call (byte-identical to writing each pair's two fields)."""
        if pairs:
            self._buf += _pair_struct(len(pairs)).pack(*chain.from_iterable(pairs))
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class Reader:
    """Consumes fields from a byte string, raising on truncation.

    Fields decode in place with ``Struct.unpack_from`` at the current
    offset: the only slices taken are the byte strings
    :meth:`bytes_field` returns.
    """

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _truncated(self, count: int) -> WireFormatError:
        return WireFormatError(
            f"truncated message: wanted {count} bytes at offset {self._pos}, "
            f"have {len(self._data) - self._pos}"
        )

    def u8(self) -> int:
        return self.unpack(_U8)[0]

    def u16(self) -> int:
        return self.unpack(_U16)[0]

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def u64(self) -> int:
        return self.unpack(_U64)[0]

    def f64(self) -> float:
        return self.unpack(_F64)[0]

    def boolean(self) -> bool:
        return self.u8() != 0

    def raw(self, count: int) -> bytes:
        """The next ``count`` bytes, unprefixed."""
        start = self._pos
        end = start + count
        if end > len(self._data):
            raise self._truncated(count)
        self._pos = end
        return self._data[start:end]

    def bytes_field(self) -> bytes:
        # Not a call to raw(): this is the hottest field of the service
        # tier's frames, and the call would cost more than the slice.
        count = self.unpack(_U16)[0]
        start = self._pos
        end = start + count
        if end > len(self._data):
            raise self._truncated(count)
        self._pos = end
        return self._data[start:end]

    def u32_list(self) -> list[int]:
        n = self.u16()
        if n == 0:
            return []
        return list(self._rows(_vector_struct, n, 4))

    def u16_list(self) -> tuple[int, ...]:
        n = self.u16()
        if n == 0:
            return ()
        return self._rows(_u16_vector_struct, n, 2)

    def u16_u32_pairs(self, count: int) -> tuple[int, ...]:
        """``count`` (u16, u32) pairs as one flat tuple
        ``(first0, second0, first1, second1, …)``, in one unpack call."""
        if count == 0:
            return ()
        return self._rows(_pair_struct, count, 6)

    def _rows(
        self, codecs: Callable[[int], struct.Struct], count: int, row_size: int
    ) -> tuple:
        """``count`` rows of ``row_size`` bytes in one unpack call.

        The length is checked before the row codec is looked up: the
        count comes off the wire, and a forged one must not build (and
        cache) a codec for a row the datagram does not hold.
        """
        pos = self._pos
        end = pos + count * row_size
        if end > len(self._data):
            raise self._truncated(count * row_size)
        self._pos = end
        return codecs(count).unpack_from(self._data, pos)

    def unpack(self, codec: struct.Struct) -> tuple:
        """Decode several fixed-width fields in one preallocated-Struct
        unpack call (the struct fast path mirroring :meth:`Writer.pack`)."""
        pos = self._pos
        end = pos + codec.size
        if end > len(self._data):
            raise self._truncated(codec.size)
        self._pos = end
        return codec.unpack_from(self._data, pos)

    def expect_end(self) -> None:
        """Raise unless the whole buffer has been consumed."""
        if self._pos != len(self._data):
            raise WireFormatError(
                f"{len(self._data) - self._pos} trailing bytes after message"
            )


class WireMessage(Protocol):
    """Anything encodable by a :class:`CodecRegistry`."""

    def encode_fields(self, writer: Writer) -> None: ...


M = TypeVar("M")


class CodecRegistry:
    """Maps one-byte type tags to message classes and decoders."""

    def __init__(self) -> None:
        self._by_tag: dict[int, tuple[type, Callable[[Reader], object]]] = {}
        self._by_type: dict[type, int] = {}
        # Encode-buffer reuse: one scratch Writer serves the non-nested
        # (hot) encode path; a nested encode falls back to a fresh one.
        self._scratch = Writer()
        self._scratch_busy = False

    def register(
        self, tag: int, cls: Type[M], decoder: Callable[[Reader], M]
    ) -> None:
        """Register ``cls`` under ``tag`` with its field decoder."""
        if tag in self._by_tag:
            raise WireFormatError(f"tag {tag} already registered for {self._by_tag[tag][0]}")
        if cls in self._by_type:
            raise WireFormatError(f"{cls} already registered")
        self._by_tag[tag] = (cls, decoder)
        self._by_type[cls] = tag

    def tag_of(self, cls: type) -> int:
        try:
            return self._by_type[cls]
        except KeyError:
            raise WireFormatError(f"{cls} is not a registered wire message") from None

    def registered(self) -> dict[int, type]:
        """Snapshot of tag -> message class (golden-vector tests)."""
        return {tag: entry[0] for tag, entry in self._by_tag.items()}

    def encode(self, message: WireMessage) -> bytes:
        if self._scratch_busy:
            writer = Writer()
        else:
            self._scratch_busy = True
            writer = self._scratch
            writer.reset()
        try:
            writer.u8(self.tag_of(type(message)))
            message.encode_fields(writer)
            return writer.getvalue()
        finally:
            if writer is self._scratch:
                self._scratch_busy = False

    def decode(self, data: bytes) -> object:
        """Decode untrusted bytes.

        Every failure — truncation, unknown tags, and any semantic
        validation a message constructor performs (e.g. a zero
        sequence number) — surfaces as :class:`WireFormatError`, so a
        receiver can treat "didn't parse" uniformly as a datagram loss.
        """
        reader = Reader(data)
        tag = reader.u8()
        entry = self._by_tag.get(tag)
        if entry is None:
            raise WireFormatError(f"unknown message tag {tag}")
        try:
            message = entry[1](reader)
        except WireFormatError:
            raise
        except Exception as exc:
            raise WireFormatError(
                f"malformed {entry[0].__name__}: {exc}"
            ) from exc
        reader.expect_end()
        return message


_TAG_BATCH_FRAME = 16


@dataclass(frozen=True)
class BatchFrame:
    """Wire envelope carrying several already-encoded messages.

    The throughput layer (:mod:`repro.core.batcher`) coalesces
    consecutive same-destination sends into one frame: a u16 count
    followed by length-prefixed sub-messages, each a complete
    tag-prefixed encoding.  The envelope is deliberately opaque — it
    lives at the wire layer and never interprets its payload, so the
    codec registry stays free of protocol dependencies.
    """

    frames: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if not self.frames:
            raise WireFormatError("BatchFrame needs at least one sub-message")
        if len(self.frames) > 0xFFFF:
            raise WireFormatError(f"BatchFrame of {len(self.frames)} sub-messages")
        for frame in self.frames:
            if not frame:
                raise WireFormatError("BatchFrame sub-message is empty")
            if len(frame) > 0xFFFF:
                raise WireFormatError(
                    f"BatchFrame sub-message too long: {len(frame)}"
                )

    def encode_fields(self, writer: Writer) -> None:
        writer.u16(len(self.frames))
        for frame in self.frames:
            writer.bytes_field(frame)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "BatchFrame":
        count = reader.u16()
        return cls(tuple(reader.bytes_field() for _ in range(count)))


#: Registry shared by the urcgc core and the baselines (distinct tags).
global_registry = CodecRegistry()
global_registry.register(_TAG_BATCH_FRAME, BatchFrame, BatchFrame.decode_fields)


def encode_message(message: WireMessage) -> bytes:
    """Encode ``message`` with the global registry."""
    return global_registry.encode(message)


def decode_message(data: bytes) -> object:
    """Decode a message encoded by :func:`encode_message`."""
    return global_registry.decode(data)
