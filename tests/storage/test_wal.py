"""Unit tests for the write-ahead log, torn tail included."""

import pytest

from repro.core.decision import Decision
from repro.core.message import DecisionMessage, UserMessage
from repro.core.mid import Mid
from repro.core.rejoin import RECORD_DECISION, RECORD_GENERATED, RECORD_PROCESSED
from repro.storage.backend import MemoryBackend
from repro.storage.wal import WriteAheadLog, encode_record
from repro.types import ProcessId, SeqNo


def msg(origin, seq, deps=(), payload=b"x"):
    return UserMessage(Mid(ProcessId(origin), SeqNo(seq)), tuple(deps), payload)


def decision(number=1):
    zeros = (SeqNo(0), SeqNo(0), SeqNo(0))
    return Decision(
        number=number,
        chain=1,
        coordinator=ProcessId(0),
        alive=(True, True, True),
        attempts=(0, 0, 0),
        stable=zeros,
        contributors=(True, True, True),
        full_group=True,
        max_processed=zeros,
        most_updated=(ProcessId(0),),
        min_waiting=zeros,
        full_group_count=1,
    )


@pytest.fixture
def wal():
    return WriteAheadLog(MemoryBackend(), "node-00001.wal")


def test_empty_log_opens_empty(wal):
    assert wal.open() == []
    assert wal.truncated_bytes == 0


def test_roundtrip_all_record_kinds(wal):
    wal.append_generated(msg(1, 1))
    wal.append_processed(msg(2, 1))
    wal.append_decision(decision())
    records = wal.open()
    assert [r.kind for r in records] == [
        RECORD_GENERATED,
        RECORD_PROCESSED,
        RECORD_DECISION,
    ]
    assert records[0].pdu == msg(1, 1)
    assert records[1].pdu == msg(2, 1)
    assert isinstance(records[2].pdu, DecisionMessage)
    assert records[2].pdu.decision == decision()


def test_as_replay_tuple_unwraps_decisions(wal):
    wal.append_decision(decision())
    (record,) = wal.open()
    kind, pdu = record.as_replay_tuple()
    assert kind == RECORD_DECISION
    assert pdu == decision()


def test_order_preserved(wal):
    for seq in range(1, 6):
        wal.append_generated(msg(0, seq))
    records = wal.open()
    assert [r.pdu.mid.seq for r in records] == [1, 2, 3, 4, 5]


def test_rewrite_to_empty_truncates(wal):
    wal.append_generated(msg(0, 1))
    wal.rewrite([])
    assert wal.open() == []


def test_torn_tail_truncated(wal):
    wal.append_generated(msg(0, 1))
    wal.append_generated(msg(0, 2))
    blob = wal.backend.read(wal.name)
    # Crash mid-append: half of the final record made it to disk.
    wal.backend.write(wal.name, blob[: len(blob) - 7])
    records = wal.open()
    assert [r.pdu.mid.seq for r in records] == [1]
    assert wal.truncated_bytes > 0
    # The torn bytes were physically removed, so appends resume cleanly.
    wal.append_generated(msg(0, 2))
    records = wal.open()
    assert [r.pdu.mid.seq for r in records] == [1, 2]
    assert wal.truncated_bytes == 0


def test_corrupted_crc_truncates_from_there(wal):
    wal.append_generated(msg(0, 1))
    wal.append_generated(msg(0, 2))
    wal.append_generated(msg(0, 3))
    blob = bytearray(wal.backend.read(wal.name))
    first_len = len(encode_record(RECORD_GENERATED, msg(0, 1)))
    blob[first_len + 12] ^= 0xFF  # flip a byte inside record 2's payload
    wal.backend.write(wal.name, bytes(blob))
    records = wal.open()
    # Record 2's crc fails; record 3 is unreachable behind the tear.
    assert [r.pdu.mid.seq for r in records] == [1]


def test_unknown_record_kind_treated_as_tear(wal):
    wal.append_generated(msg(0, 1))
    bad = encode_record(RECORD_GENERATED, msg(0, 2))
    # Patch the kind byte to garbage but keep the crc consistent.
    import struct
    import zlib

    payload = bytes([99]) + bad[9:]
    framed = struct.pack("!II", len(payload), zlib.crc32(payload)) + payload
    wal.backend.append(wal.name, framed)
    records = wal.open()
    assert [r.pdu.mid.seq for r in records] == [1]


def test_garbage_only_log_truncates_to_empty(wal):
    wal.backend.write(wal.name, b"\xde\xad\xbe\xef" * 4)
    assert wal.open() == []
    assert wal.backend.read(wal.name) == b""


def test_every_prefix_of_the_log_is_readable(wal):
    """Torn-tail handling works at *any* byte boundary."""
    messages = [msg(0, 1), msg(1, 1, [Mid(ProcessId(0), SeqNo(1))]), msg(0, 2)]
    for m in messages:
        wal.append_generated(m)
    blob = wal.backend.read(wal.name)
    boundaries = []
    pos = 0
    for m in messages:
        pos += len(encode_record(RECORD_GENERATED, m))
        boundaries.append(pos)
    for cut in range(len(blob) + 1):
        wal.backend.write(wal.name, blob[:cut])
        records = wal.open()
        expected = sum(1 for b in boundaries if b <= cut)
        assert len(records) == expected, f"cut at {cut}"
