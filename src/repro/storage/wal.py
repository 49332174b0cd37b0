"""The append-only write-ahead log.

Record framing (network byte order)::

    u32 length | u32 crc32(payload) | payload
    payload = u8 record_kind | wire-encoded PDU

``record_kind`` is one of :data:`~repro.core.rejoin.RECORD_GENERATED`
(an own message, logged *before* it is sent, so a sent message is
always in the log), :data:`~repro.core.rejoin.RECORD_PROCESSED` (a
peer message, logged at processing time — hence in causal order), or
:data:`~repro.core.rejoin.RECORD_DECISION` (an adopted decision,
wrapped as a :class:`~repro.core.message.DecisionMessage` so it reuses
the registered wire codec).

On open, :meth:`WriteAheadLog.open` scans the log sequentially and
truncates at the first torn record — short frame, crc mismatch, or
undecodable payload — which is exactly the state a crash mid-append
leaves behind.  Everything before the tear is intact by crc.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from ..core.decision import Decision
from ..core.message import DecisionMessage, UserMessage
from ..core.rejoin import RECORD_DECISION, RECORD_GENERATED, RECORD_PROCESSED
from ..errors import WireFormatError
from ..net.wire import decode_message, encode_message
from .backend import StorageBackend

__all__ = ["WalRecord", "WriteAheadLog"]

_HEADER = struct.Struct("!II")


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record: ``(kind, pdu)``."""

    kind: int
    pdu: object

    def as_replay_tuple(self) -> tuple[int, object]:
        pdu = self.pdu
        if self.kind == RECORD_DECISION and isinstance(pdu, DecisionMessage):
            pdu = pdu.decision
        return self.kind, pdu


def encode_record(kind: int, pdu: object) -> bytes:
    payload = bytes([kind]) + encode_message(pdu)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class WriteAheadLog:
    """Append-only record log over one backend blob."""

    def __init__(self, backend: StorageBackend, name: str) -> None:
        self.backend = backend
        self.name = name
        #: Bytes dropped by torn-tail truncation at the last open().
        self.truncated_bytes = 0

    # -- append side ---------------------------------------------------
    #
    # Every append returns the framed bytes it wrote, so a caller that
    # is buffering the log tail during an in-flight snapshot
    # (``NodeStorage.begin_snapshot``) can keep the exact on-disk
    # framing without re-encoding.

    def append_generated(self, message: UserMessage) -> bytes:
        record = encode_record(RECORD_GENERATED, message)
        self.backend.append(self.name, record)
        return record

    def append_processed(self, message: UserMessage) -> bytes:
        record = encode_record(RECORD_PROCESSED, message)
        self.backend.append(self.name, record)
        return record

    def append_decision(self, decision: Decision) -> bytes:
        record = encode_record(RECORD_DECISION, DecisionMessage(decision))
        self.backend.append(self.name, record)
        return record

    def rewrite(self, records: list[bytes]) -> None:
        """Atomically replace the log with the given framed records.

        Snapshot compaction: the log becomes exactly the tail appended
        while the snapshot was persisting.  One backend write, so a
        crash leaves either the old log or the new one — never a
        truncated-but-not-yet-rewritten window.
        """
        self.backend.write(self.name, b"".join(records))
        self.truncated_bytes = 0

    # -- recovery side -------------------------------------------------

    def open(self) -> list[WalRecord]:
        """Scan the log; truncate and drop a torn tail; return records."""
        blob = self.backend.read(self.name)
        if blob is None:
            self.truncated_bytes = 0
            return []
        records: list[WalRecord] = []
        pos = 0
        good = 0
        size = len(blob)
        while pos + _HEADER.size <= size:
            length, crc = _HEADER.unpack_from(blob, pos)
            start = pos + _HEADER.size
            end = start + length
            if length == 0 or end > size:
                break  # torn: header promised more bytes than exist
            payload = blob[start:end]
            if zlib.crc32(payload) != crc:
                break  # torn or corrupted mid-record
            kind = payload[0]
            if kind not in (RECORD_GENERATED, RECORD_PROCESSED, RECORD_DECISION):
                break
            try:
                pdu = decode_message(bytes(payload[1:]))
            except WireFormatError:
                break
            records.append(WalRecord(kind, pdu))
            pos = end
            good = end
        self.truncated_bytes = size - good
        if self.truncated_bytes:
            self.backend.write(self.name, bytes(blob[:good]))
        return records
