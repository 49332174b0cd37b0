"""Unit tests for snapshot encode/decode and member restore."""

import pytest

from repro.core.config import UrcgcConfig
from repro.core.member import Member
from repro.errors import StorageError
from repro.harness.cluster import SimCluster
from repro.storage import (
    GroupStorage,
    MemoryBackend,
    decode_snapshot,
    encode_snapshot,
    restore_member,
    snapshot_of,
)
from repro.types import ProcessId
from repro.workloads.generators import FixedBudgetWorkload


PIDS = [ProcessId(i) for i in range(4)]


def run_cluster(total=16, snapshot_interval=8, seed=3):
    storage = GroupStorage(MemoryBackend(), snapshot_interval=snapshot_interval)
    cluster = SimCluster(
        UrcgcConfig(n=4, K=2),
        workload=FixedBudgetWorkload(PIDS, total),
        storage=storage,
        seed=seed,
    )
    cluster.run_until_quiescent(drain_subruns=2)
    return cluster, storage


def test_snapshot_roundtrip_empty_member():
    config = UrcgcConfig(n=3)
    member = Member(ProcessId(1), config)
    snapshot = snapshot_of(member, [], round_no=0)
    decoded = decode_snapshot(encode_snapshot(snapshot))
    assert decoded.pid == 1
    restored, delivered = restore_member(ProcessId(1), config, decoded, [])
    assert delivered == []
    assert restored.last_processed_vector() == member.last_processed_vector()


def test_snapshot_roundtrip_after_traffic():
    cluster, storage = run_cluster()
    for pid in PIDS:
        live = cluster.members[pid]
        snapshot = snapshot_of(live, cluster.services[pid].delivered, round_no=10)
        decoded = decode_snapshot(encode_snapshot(snapshot))
        restored, delivered = restore_member(pid, cluster.config, decoded, [])
        assert restored.last_processed_vector() == live.last_processed_vector()
        assert [m.mid for m in delivered] == [
            m.mid for m in cluster.services[pid].delivered
        ]
        assert decoded.round_no == 10


def test_restore_from_snapshot_plus_wal():
    """The durable state written during a run reproduces the live
    member: snapshot + WAL suffix, whatever the compaction cadence."""
    for interval in (8, 1000):
        cluster, storage = run_cluster(snapshot_interval=interval)
        for pid in PIDS:
            snapshot, records = storage.node(pid).load()
            restored, delivered = restore_member(
                pid, cluster.config, snapshot, records
            )
            live = cluster.members[pid]
            assert (
                restored.last_processed_vector() == live.last_processed_vector()
            ), f"pid {pid} interval {interval}"
            assert [m.mid for m in delivered] == [
                m.mid for m in cluster.services[pid].delivered
            ]


def test_compaction_actually_happened():
    cluster, storage = run_cluster(snapshot_interval=8)
    assert any(storage.node(pid).snapshots_taken > 0 for pid in PIDS)


def test_corrupted_snapshot_raises_storage_error():
    config = UrcgcConfig(n=3)
    member = Member(ProcessId(0), config)
    blob = bytearray(encode_snapshot(snapshot_of(member, [])))
    blob[10] ^= 0xFF
    with pytest.raises(StorageError):
        decode_snapshot(bytes(blob))


def test_truncated_snapshot_raises_storage_error():
    config = UrcgcConfig(n=3)
    member = Member(ProcessId(0), config)
    blob = encode_snapshot(snapshot_of(member, []))
    with pytest.raises(StorageError):
        decode_snapshot(blob[:3])


def test_unsupported_version_raises_storage_error():
    import zlib

    config = UrcgcConfig(n=3)
    member = Member(ProcessId(0), config)
    blob = bytearray(encode_snapshot(snapshot_of(member, [])))
    body = bytearray(blob[4:])
    body[0] = 99  # version byte
    crc = zlib.crc32(bytes(body))
    fixed = crc.to_bytes(4, "big") + bytes(body)
    with pytest.raises(StorageError):
        decode_snapshot(fixed)


def test_pid_mismatch_raises_storage_error():
    config = UrcgcConfig(n=3)
    member = Member(ProcessId(0), config)
    snapshot = decode_snapshot(encode_snapshot(snapshot_of(member, [])))
    with pytest.raises(StorageError):
        restore_member(ProcessId(2), config, snapshot, [])


def test_restore_without_snapshot_is_fresh_member():
    config = UrcgcConfig(n=3)
    member, delivered = restore_member(ProcessId(1), config, None, [])
    assert delivered == []
    assert member.last_processed_vector() == (0, 0, 0)
