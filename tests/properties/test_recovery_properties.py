"""Recovery determinism properties.

The crash-recovery contract: at *any* crash point — any prefix of the
WAL, torn at any byte — replaying snapshot + WAL yields a member whose
durable state (``last_processed`` frontier, history floors, own seq
counter) matches what the pre-crash member had after exactly the
replayed records, and whose delivered log is a prefix of the pre-crash
log.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import UrcgcConfig
from repro.harness.cluster import SimCluster
from repro.storage import (
    GroupStorage,
    MemoryBackend,
    NodeStorage,
    restore_member,
)
from repro.types import ProcessId
from repro.workloads.generators import BernoulliWorkload

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def run_durable_cluster(n, K, seed, load, snapshot_interval):
    pids = [ProcessId(i) for i in range(n)]
    storage = GroupStorage(MemoryBackend(), snapshot_interval=snapshot_interval)
    cluster = SimCluster(
        UrcgcConfig(n=n, K=K),
        workload=BernoulliWorkload(
            pids, load, rng=random.Random(seed), stop_after_round=12
        ),
        storage=storage,
        max_rounds=300,
        seed=seed,
        trace=False,
    )
    cluster.run_until_quiescent(drain_subruns=2)
    return cluster, storage


@st.composite
def durable_scenarios(draw):
    n = draw(st.integers(3, 5))
    K = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    load = draw(st.floats(0.2, 0.8))
    snapshot_interval = draw(st.sampled_from([4, 16, 1000]))
    victim = draw(st.integers(0, n - 1))
    return n, K, seed, load, snapshot_interval, victim


@given(durable_scenarios())
@SETTINGS
def test_full_replay_reproduces_live_state(scenario):
    n, K, seed, load, snapshot_interval, victim = scenario
    cluster, storage = run_durable_cluster(n, K, seed, load, snapshot_interval)
    pid = ProcessId(victim)
    snapshot, records = storage.node(pid).load()
    member, delivered = restore_member(pid, cluster.config, snapshot, records)
    live = cluster.members[pid]
    assert member.last_processed_vector() == live.last_processed_vector()
    assert [m.mid for m in delivered] == [m.mid for m in cluster.services[pid].delivered]
    for origin in range(n):
        assert member.history.floor(ProcessId(origin)) == live.history.floor(
            ProcessId(origin)
        ), f"floor of origin {origin}"


@given(durable_scenarios(), st.data())
@SETTINGS
def test_any_wal_prefix_replays_to_a_delivered_prefix(scenario, data):
    """Crash at any record boundary: the rebuilt member's delivered log
    is a prefix of the full-replay log, and the rebuilt state is
    internally consistent (replaying the rest reconverges)."""
    n, K, seed, load, snapshot_interval, victim = scenario
    cluster, storage = run_durable_cluster(n, K, seed, load, snapshot_interval)
    pid = ProcessId(victim)
    node = storage.node(pid)
    snapshot, records = node.load()
    full_member, full_delivered = restore_member(
        pid, cluster.config, snapshot, records
    )
    cut = data.draw(st.integers(0, len(records)), label="crash point")
    member, delivered = restore_member(pid, cluster.config, snapshot, records[:cut])
    assert [m.mid for m in delivered] == [
        m.mid for m in full_delivered[: len(delivered)]
    ]
    # Resuming the replay from the crash point reconverges exactly.
    from repro.core.rejoin import replay

    delivered.extend(
        replay(member, (r.as_replay_tuple() for r in records[cut:]))
    )
    assert member.last_processed_vector() == full_member.last_processed_vector()
    assert [m.mid for m in delivered] == [m.mid for m in full_delivered]


@given(durable_scenarios(), st.data())
@SETTINGS
def test_torn_tail_at_any_byte_recovers_a_record_prefix(scenario, data):
    """Tear the WAL at any byte offset: open() must recover exactly the
    records whose frames fit below the tear, and the replayed member
    must match a clean replay of that record prefix."""
    n, K, seed, load, snapshot_interval, victim = scenario
    cluster, storage = run_durable_cluster(n, K, seed, load, snapshot_interval)
    pid = ProcessId(victim)
    node = storage.node(pid)
    snapshot, records = node.load()
    blob = storage.backend.read(node.wal.name) or b""
    cut = data.draw(st.integers(0, len(blob)), label="tear byte")
    storage.backend.write(node.wal.name, blob[:cut])
    torn = NodeStorage(
        storage.backend, pid, snapshot_interval=snapshot_interval
    )
    torn_snapshot, torn_records = torn.load()
    assert len(torn_records) <= len(records)
    for torn_record, record in zip(torn_records, records):
        assert torn_record == record
    member, delivered = restore_member(
        pid, cluster.config, torn_snapshot, torn_records
    )
    reference, reference_delivered = restore_member(
        pid, cluster.config, snapshot, records[: len(torn_records)]
    )
    assert member.last_processed_vector() == reference.last_processed_vector()
    assert [m.mid for m in delivered] == [m.mid for m in reference_delivered]
