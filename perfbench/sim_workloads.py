"""The two simulated-group workloads: ``sim-burst`` and ``sim-paper``.

Both drive :class:`~repro.harness.cluster.SimCluster` with the default
one-way delay of 0.5 rtd.  The seed makes the inputs; each repetition
of a run replays the same inputs, so its deterministic counts must
repeat exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

from repro.core.config import BatchingConfig, UrcgcConfig
from repro.harness.cluster import SimCluster
from repro.net.faults import CrashSchedule, FaultPlan
from repro.types import ProcessId
from repro.workloads.generators import ScriptedWorkload

from common import (
    HostProbe,
    Rep,
    audit_cluster,
    engine_peaks,
    membership,
    network_layer,
    timed_builds,
)

#: Clusters built per repetition to time set-up (at least this many,
#: and at least ``SETUP_MIN_S`` of building); the last one runs.
SETUP_SAMPLES = 5
SETUP_MIN_S = 0.05


@dataclass
class SimInputs:
    config: UrcgcConfig
    #: ``{round: [(pid, payload), ...]}``, every payload distinct.
    schedule: dict[int, list[tuple[ProcessId, bytes]]]
    #: pid -> crash time (rtd) and partial-broadcast budget.
    crashes: dict[int, tuple[float, int]]
    omission: float
    seed: int


def burst_inputs(seed: int) -> SimInputs:
    """n=8, one closed burst at round 0: about 512 64-byte messages
    per member (the seed draws each member's count in [480, 544])."""
    rng = random.Random(seed)
    n = 8
    entries = [
        (ProcessId(pid), i.to_bytes(4, "big") + rng.randbytes(60))
        for pid in range(n)
        for i in range(rng.randint(480, 544))
    ]
    config = UrcgcConfig(
        n=n, flow_threshold=0, generate_burst=16, batching=BatchingConfig()
    )
    return SimInputs(config, {0: entries}, {}, 0.0, seed)


def paper_inputs(seed: int) -> SimInputs:
    """The paper's load model at n=16: each member submits with
    probability 0.5 per round for 300 rounds (32-byte payloads), 1%
    send+receive omission everywhere, and p3 crashes at t=100 rtd
    mid-broadcast (5 destinations).  No submissions go to p3 after its
    crash: the workload does not count its own crash as a failure."""
    rng = random.Random(seed)
    n, rounds, victim, crash_at = 16, 300, 3, 100.0
    crash_round = int(crash_at * 2)
    schedule: dict[int, list[tuple[ProcessId, bytes]]] = {}
    serial = 0
    for round_no in range(rounds):
        entries = []
        for pid in range(n):
            if rng.random() < 0.5 and not (pid == victim and round_no >= crash_round):
                entries.append((ProcessId(pid), serial.to_bytes(4, "big") + rng.randbytes(28)))
                serial += 1
        schedule[round_no] = entries
    return SimInputs(UrcgcConfig(n=n), schedule, {victim: (crash_at, 5)}, 0.01, seed)


def _build(inputs: SimInputs) -> SimCluster:
    faults = None
    if inputs.crashes or inputs.omission:
        crashes = CrashSchedule()
        for pid, (at, partial) in inputs.crashes.items():
            crashes.crash(ProcessId(pid), at, partial_deliveries=partial)
        faults = FaultPlan(crashes=crashes, rng=random.Random(inputs.seed + 1))
        if inputs.omission:
            pids = [ProcessId(i) for i in range(inputs.config.n)]
            faults.set_uniform_omission(pids, inputs.omission)
    return SimCluster(
        inputs.config,
        workload=ScriptedWorkload(inputs.schedule),
        faults=faults,
        max_rounds=5_000,
        seed=inputs.seed,
        trace=False,
    )


def rep(inputs: SimInputs, tracer=None) -> Rep:
    setup, setup_ref, cluster = timed_builds(
        lambda: _build(inputs), samples=SETUP_SAMPLES, seconds=SETUP_MIN_S
    )
    probe = HostProbe()
    if tracer is None:
        cluster.scheduler.subscribe(probe)
    start = perf_counter()
    quiesced = cluster.run_until_quiescent(drain_subruns=2) is not None
    end = perf_counter()

    violations = audit_cluster(cluster, quiesced=quiesced)
    active = cluster.active_pids()
    report = cluster.delivery_log.report(set(active))
    # Attempted: the messages that entered the group.  Submissions still
    # queued at a member the workload crashed were never generated, and
    # a message its crash cut off before any active member processed it
    # is lost with its sender, as the crash model allows.
    log = cluster.delivery_log
    lost_with_sender = sum(
        1
        for mid in log.generated_at
        if mid.origin in inputs.crashes
        and not any(p in log.processed_at.get(mid, ()) for p in active)
    )
    attempted = len(log.generated_at) - lost_with_sender
    deliveries = sum(m.processed_count for m in cluster.members)
    views = membership(
        inputs.config.n,
        set(inputs.crashes),
        {int(p) for p in active},
        cluster.members,
    )
    stats = cluster.network.stats.total()
    layer = {
        **network_layer([cluster], report.complete_messages),
        **engine_peaks([cluster]),
        "detect.suspicions": views["declared"],
        "detect.false_leaves": views["false_leaves"],
    }
    counts = {
        "processed": deliveries,
        "complete": report.complete_messages,
        "rounds": cluster.scheduler.current_round,
        "datagrams": stats.sent,
        "wire_bytes": stats.sent_bytes,
        "discarded": len(log.discarded),
        "lost_with_sender": lost_with_sender,
        "delay_mean_rtd": report.group_delay.mean,
        "delay_p99_rtd": report.group_delay.p99,
    }
    return Rep(
        setup_s=setup,
        window_s=end - start - probe.spent,
        msgs=report.complete_messages,
        deliveries=deliveries,
        delay_rtd=report.group_delay,
        attempted=attempted,
        failed=attempted - report.complete_messages,
        members_kept=views["kept"],
        members_lost=views["lost"],
        counts=counts,
        layer=layer,
        violations=violations,
        host_ref_ms=probe.samples,
        setup_ref_ms=setup_ref,
    )
