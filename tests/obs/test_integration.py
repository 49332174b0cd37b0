"""End-to-end observability: both drivers produce reconstructible traces.

The acceptance check of the obs subsystem: a simulated run and a live
asyncio run each export a JSONL trace from which a message's full
generated → requested → decided → processed timeline can be rebuilt,
and the disabled path records nothing.
"""

import asyncio

import pytest

from repro.core.config import FailureDetectorConfig, UrcgcConfig
from repro.harness.cluster import SimCluster
from repro.harness.live_torture import audit_group
from repro.net.faults import FaultPlan
from repro.obs import message_timeline, read_jsonl
from repro.runtime.chaos import ChaosFabric
from repro.runtime.lan import AsyncLan
from repro.runtime.node import AsyncGroup
from repro.types import ProcessId
from repro.workloads.generators import FixedBudgetWorkload, ScriptedWorkload


def _sim_cluster(observability: bool) -> SimCluster:
    config = UrcgcConfig(n=4, observability=observability)
    pids = [ProcessId(0), ProcessId(1)]
    return SimCluster(config, workload=FixedBudgetWorkload(pids, 6))


class TestSimulatedTrace:
    def test_trace_reconstructs_full_timeline(self, tmp_path):
        cluster = _sim_cluster(observability=True)
        cluster.run_until_quiescent(drain_subruns=2)
        path = tmp_path / "sim.jsonl"
        cluster.write_trace(str(path), experiment="integration")
        records = read_jsonl(str(path))

        meta = records[0]
        assert meta["runner"] == "sim"
        assert meta["clock"] == "sim"
        assert meta["experiment"] == "integration"

        timeline = message_timeline(records)
        stages = [stage for stage, _, _ in timeline["stages"]]
        assert stages[:3] == ["generated", "requested", "decided"]
        processed = [s for s in stages if s.startswith("processed@")]
        assert len(processed) == 4  # every node processed it
        assert timeline["group_processed"] is not None

        # Stage times are monotone along the pipeline.
        times = [time for _, time, _ in timeline["stages"]]
        assert times[0] <= times[1] <= times[2]

    def test_net_counters_exported_with_kind_labels(self, tmp_path):
        cluster = _sim_cluster(observability=True)
        cluster.run_until_quiescent(drain_subruns=2)
        path = tmp_path / "sim.jsonl"
        cluster.write_trace(str(path))
        metric_records = [r for r in read_jsonl(str(path)) if r["ev"] == "metric"]
        sent = {
            r["labels"]["kind"]: r["value"]
            for r in metric_records
            if r["name"] == "net.sent"
        }
        assert sent["data"] == 6.0
        assert sent["ctrl-request"] > 0
        # history occupancy series ride the same registry
        assert any(r["name"] == "history.max" for r in metric_records)

    def test_disabled_records_nothing(self):
        cluster = _sim_cluster(observability=False)
        cluster.run_until_quiescent(drain_subruns=2)
        assert cluster.recorder.enabled is False
        assert cluster.recorder.events == []
        with pytest.raises(RuntimeError):
            cluster.write_trace("never-written.jsonl")

    def test_same_run_with_and_without_observability(self):
        observed = _sim_cluster(observability=True)
        plain = _sim_cluster(observability=False)
        t_observed = observed.run_until_quiescent(drain_subruns=2)
        t_plain = plain.run_until_quiescent(drain_subruns=2)
        # Observation must not perturb the simulation.
        assert t_observed == t_plain
        assert [m.last_processed_vector() for m in observed.members] == [
            m.last_processed_vector() for m in plain.members
        ]


class TestLiveTrace:
    def test_live_group_trace(self, tmp_path):
        async def run() -> list[dict]:
            config = UrcgcConfig(n=3, observability=True)
            group = AsyncGroup(config, round_interval=0.005)
            group.start()
            await group.run_workload(
                [(ProcessId(0), b"hello"), (ProcessId(1), b"world")],
                timeout=10.0,
            )
            await group.stop()
            path = tmp_path / "live.jsonl"
            group.write_trace(str(path))
            return read_jsonl(str(path))

        records = asyncio.run(run())
        meta = records[0]
        assert meta["runner"] == "live"
        assert meta["clock"] == "wall"

        timeline = message_timeline(records, "p0:1")
        stages = [stage for stage, _, _ in timeline["stages"]]
        assert stages[0] == "generated"
        assert "decided" in stages
        assert sum(1 for s in stages if s.startswith("processed@")) == 3

    def test_chaos_fabric_counters_in_registry(self, tmp_path):
        async def run() -> list[dict]:
            config = UrcgcConfig(n=3, observability=True)
            fabric = ChaosFabric(AsyncLan(), duplication=0.2, seed=11)
            group = AsyncGroup(config, lan=fabric, round_interval=0.005)
            group.start()
            await group.run_workload([(ProcessId(0), b"x")], timeout=10.0)
            await group.stop()
            path = tmp_path / "chaos.jsonl"
            group.write_trace(str(path))
            return read_jsonl(str(path))

        records = asyncio.run(run())
        names = {r["name"] for r in records if r["ev"] == "metric"}
        assert "chaos.sent" in names
        assert "chaos.delivered" in names

    def test_live_disabled_is_null(self):
        async def run() -> AsyncGroup:
            group = AsyncGroup(UrcgcConfig(n=2), round_interval=0.005)
            group.start()
            await group.run_workload([(ProcessId(0), b"x")], timeout=10.0)
            await group.stop()
            return group

        group = asyncio.run(run())
        assert group.recorder.enabled is False
        assert group.recorder.events == []
        with pytest.raises(RuntimeError):
            group.write_trace("never-written.jsonl")


# ----------------------------------------------------------------------
# one scenario, both drivers: the same spans
# ----------------------------------------------------------------------

VICTIM = ProcessId(3)


def _orphan_config() -> UrcgcConfig:
    return UrcgcConfig(
        n=4,
        K=2,
        observability=True,
        failure_detector=FailureDetectorConfig(kind="heartbeat"),
    )


def _orphan_plan() -> FaultPlan:
    """Only the victim ever holds its first message: the broadcast and
    every recovery response are dropped, so once the victim crashes
    its second message is an orphan the survivors must discard."""
    plan = FaultPlan()
    data_sent = [0]

    def drop(packet, now) -> bool:
        if packet.src != VICTIM:
            return False
        if packet.kind == "data":
            data_sent[0] += 1
            return data_sent[0] == 1
        return packet.kind == "ctrl-recovery-rsp"

    plan.custom_send_filter = drop
    return plan


def _spans(recorder, kind: str) -> set[tuple[int, str | None]]:
    return {(e.node, e.mid) for e in recorder.events if e.kind == kind}


def test_sim_and_live_record_suspect_and_discarded_spans():
    plan = _orphan_plan()
    cluster = SimCluster(
        _orphan_config(),
        workload=ScriptedWorkload({0: [(VICTIM, b"a"), (VICTIM, b"b")]}),
        faults=plan,
        max_rounds=300,
    )
    plan.crashes.crash(VICTIM, 3.2)
    assert cluster.run_until_quiescent(drain_subruns=4) is not None

    async def live() -> AsyncGroup:
        group = AsyncGroup(
            _orphan_config(),
            lan=ChaosFabric(AsyncLan(), _orphan_plan()),
            round_interval=0.004,
        )
        group.start()
        try:
            group.nodes[VICTIM].submit(b"a")
            group.nodes[VICTIM].submit(b"b")
            await group.wait_until(
                lambda: any(
                    node.member.waiting_length
                    for node in group.nodes
                    if node.pid != VICTIM
                ),
                timeout=10.0,
            )
            await group.crash(VICTIM)
            await group.wait_until(
                lambda: _spans(group.recorder, "discarded") and group.quiescent(),
                timeout=20.0,
            )
        finally:
            await group.stop()
        return group

    group = asyncio.run(live())
    survivors = {0, 1, 2}
    for recorder in (cluster.recorder, group.recorder):
        assert {node for node, _ in _spans(recorder, "suspect")} <= survivors
        assert _spans(recorder, "suspect")
        assert {mid for _, mid in _spans(recorder, "discarded")} == {"p3:1"}
    assert _spans(group.recorder, "discarded") <= _spans(cluster.recorder, "discarded")
    # The live audit exempts the lost message and its dependents.
    assert audit_group(group, converged=True) == []
