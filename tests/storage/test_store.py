"""Unit tests for NodeStorage / GroupStorage facades."""

import pytest

from repro.core.config import UrcgcConfig
from repro.core.member import Member
from repro.core.message import UserMessage
from repro.core.mid import Mid
from repro.storage import (
    GroupStorage,
    MemoryBackend,
    NodeStorage,
    snapshot_of,
)
from repro.types import ProcessId, SeqNo


def msg(origin, seq):
    return UserMessage(Mid(ProcessId(origin), SeqNo(seq)), (), b"p")


def test_snapshot_cadence():
    storage = NodeStorage(MemoryBackend(), ProcessId(0), snapshot_interval=3)
    assert not storage.should_snapshot()
    storage.log_generated(msg(0, 1))
    storage.log_processed(msg(1, 1))
    assert not storage.should_snapshot()
    storage.log_processed(msg(1, 2))
    assert storage.should_snapshot()


def test_snapshot_truncates_wal_and_resets_counter():
    storage = NodeStorage(MemoryBackend(), ProcessId(0), snapshot_interval=2)
    storage.log_generated(msg(0, 1))
    storage.log_generated(msg(0, 2))
    member = Member(ProcessId(0), UrcgcConfig(n=3))
    storage.begin_snapshot(snapshot_of(member, [])).persist()
    storage.finish_snapshot()
    assert storage.records_since_snapshot == 0
    assert storage.snapshots_taken == 1
    snapshot, records = storage.load()
    assert snapshot is not None
    assert records == []


def test_load_counts_wal_suffix():
    backend = MemoryBackend()
    storage = NodeStorage(backend, ProcessId(0), snapshot_interval=100)
    storage.log_generated(msg(0, 1))
    storage.log_processed(msg(1, 1))
    reopened = NodeStorage(backend, ProcessId(0), snapshot_interval=100)
    snapshot, records = reopened.load()
    assert snapshot is None
    assert len(records) == 2
    assert reopened.records_since_snapshot == 2


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        NodeStorage(MemoryBackend(), ProcessId(0), snapshot_interval=0)


def test_group_storage_caches_per_pid():
    group = GroupStorage(snapshot_interval=7)
    a = group.node(ProcessId(1))
    assert group.node(ProcessId(1)) is a
    assert group.node(ProcessId(2)) is not a
    assert a.snapshot_interval == 7


def test_group_storage_nodes_share_backend():
    group = GroupStorage()
    group.node(ProcessId(0)).log_generated(msg(0, 1))
    group.node(ProcessId(1)).log_generated(msg(1, 1))
    assert group.backend.names() == ["node-00000.wal", "node-00001.wal"]


# ----------------------------------------------------------------------
# Asynchronous snapshot protocol: begin / persist / finish.


def fresh_snapshot():
    return snapshot_of(Member(ProcessId(0), UrcgcConfig(n=3)), [])


def test_begin_finish_preserves_records_logged_in_flight():
    # The I502 fix moves the blob write off the event loop; records
    # appended while the write is in flight must survive compaction.
    backend = MemoryBackend()
    storage = NodeStorage(backend, ProcessId(0), snapshot_interval=2)
    storage.log_generated(msg(0, 1))
    storage.log_generated(msg(0, 2))
    job = storage.begin_snapshot(fresh_snapshot())
    storage.log_processed(msg(1, 1))  # lands while the write is in flight
    job.persist()
    storage.finish_snapshot()
    assert storage.snapshots_taken == 1
    assert storage.records_since_snapshot == 1
    snapshot, records = storage.load()
    assert snapshot is not None
    assert len(records) == 1
    assert records[0].pdu == msg(1, 1)


def test_should_snapshot_false_while_in_flight():
    storage = NodeStorage(MemoryBackend(), ProcessId(0), snapshot_interval=1)
    storage.log_generated(msg(0, 1))
    assert storage.should_snapshot()
    job = storage.begin_snapshot(fresh_snapshot())
    storage.log_generated(msg(0, 2))
    assert not storage.should_snapshot()  # no second snapshot mid-flight
    job.persist()
    storage.finish_snapshot()
    assert storage.should_snapshot()  # the buffered tail counts


def test_double_begin_and_stray_finish_rejected():
    storage = NodeStorage(MemoryBackend(), ProcessId(0), snapshot_interval=2)
    with pytest.raises(RuntimeError, match="no snapshot in flight"):
        storage.finish_snapshot()
    storage.begin_snapshot(fresh_snapshot())
    with pytest.raises(RuntimeError, match="already in flight"):
        storage.begin_snapshot(fresh_snapshot())


def test_crash_before_persist_loses_nothing():
    # begin_snapshot mutates no durable state: a crash before persist
    # leaves the full WAL, so recovery replays everything.
    backend = MemoryBackend()
    storage = NodeStorage(backend, ProcessId(0), snapshot_interval=2)
    storage.log_generated(msg(0, 1))
    storage.begin_snapshot(fresh_snapshot())
    storage.log_processed(msg(1, 1))
    reopened = NodeStorage(backend, ProcessId(0), snapshot_interval=2)
    snapshot, records = reopened.load()
    assert snapshot is None
    assert len(records) == 2


def test_crash_between_persist_and_finish_keeps_full_wal():
    # The snapshot blob landed but the WAL was never compacted: the
    # same overlap window the synchronous path has between its write
    # and reset, and recovery replay is idempotent over it.
    backend = MemoryBackend()
    storage = NodeStorage(backend, ProcessId(0), snapshot_interval=2)
    storage.log_generated(msg(0, 1))
    job = storage.begin_snapshot(fresh_snapshot())
    storage.log_processed(msg(1, 1))
    job.persist()  # crash here: no finish_snapshot()
    reopened = NodeStorage(backend, ProcessId(0), snapshot_interval=2)
    snapshot, records = reopened.load()
    assert snapshot is not None
    assert len(records) == 2  # nothing dropped before the compaction
