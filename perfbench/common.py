"""Pieces shared by the workloads: the repetition record, statistics,
the host-noise reference loop and the simulated-group audit."""

from __future__ import annotations

import gc
import resource
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, TypeVar

from repro.analysis.checkers import (
    check_local_causal_order,
    check_uniform_atomicity,
    check_uniform_ordering,
)
from repro.harness.cluster import SimCluster
from repro.obs.metrics import Summary, summarize
from repro.types import ProcessId

T = TypeVar("T")


@dataclass
class Rep:
    """What one repetition of a workload measured and counted."""

    #: Set-up durations (construction, plus binding or connecting).
    setup_s: list[float]
    #: The timed window.
    window_s: float
    #: Distinct messages processed by every active member.
    msgs: int
    #: Processing events at members, or client deliveries (svc).
    deliveries: int
    #: The paper's D in rtd: generation -> processed by the final
    #: membership (live-udp: due time -> processed at the last starting
    #: member, in subruns).
    delay_rtd: Summary
    attempted: int
    failed: int
    #: Starting-view members still active at the end and not lost.
    members_kept: int
    #: Starting-view members that left or were evicted without the
    #: workload crashing them.
    members_lost: int
    #: Deterministic counts; two repetitions of one seed must agree.
    counts: dict[str, object] | None
    #: Wall clock, due time -> processed at the last starting member
    #: (ms); only the live group has wall-clock due times.
    latencies_ms: list[float] = field(default_factory=list)
    #: Per-layer values the repetition read from public state.
    layer: dict[str, float] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    traced: bool = False
    trace: dict | None = None
    #: Reference-loop times (ms) sampled inside the timed window (none
    #: on live-udp, which the wall clock paces), and just before the
    #: set-up, which they correct.
    host_ref_ms: list[float] = field(default_factory=list)
    setup_ref_ms: list[float] = field(default_factory=list)


def median(values) -> float:
    return summarize(values).p50


def tail(summary: Summary) -> float:
    """p99, which needs at least ten samples beyond it."""
    if summary.count * 0.01 < 10:
        raise ValueError(f"p99 needs 1000 samples, got {summary.count}")
    return summary.p99


_REF_WORK = 40_000
#: The reference loop's time on the reference host speed: timings are
#: corrected to a host on which it takes this long.
REF_LOOP_MS = 10.0
#: Fitted on three to five ten-seed sets of runs per CPU-bound workload:
#: with each repetition's window corrected by its own samples, the
#: largest throughput spread it left was 0.084, against 0.092 for 1,
#: 0.115 for 0.75 and 0.17 for 0.5.
SLOWNESS_EXP = 0.875
PROBE_PERIOD_S = 0.5
SETUP_REF_SAMPLES = 3


def host_reference_ms() -> float:
    """Time a fixed pure-Python loop (dict, list and int work), in ms.

    Its time depends on the host's speed only, never on the program, so
    it measures how fast the host ran while a repetition did.
    """
    start = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(_REF_WORK):
        table[i & 1023] = acc
        acc = (acc + i * 7 + table.get((i >> 3) & 1023, 1)) & 0xFFFFFF
    items = sorted(table.items())
    if acc < 0 or not items:
        raise AssertionError("reference loop miscomputed")
    return (perf_counter() - start) * 1000.0


class HostProbe:
    """Samples the host's speed from inside a repetition.

    Subscribed as a round handler, it times the reference loop every
    ``PROBE_PERIOD_S``; ``spent`` is the time the samples took, which the
    repetition leaves out of its timed window.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._due = perf_counter()

    def __call__(self, _round: int) -> None:
        now = perf_counter()
        if now < self._due:
            return
        self.samples.append(host_reference_ms())
        done = perf_counter()
        self.spent += done - now
        self._due = done + PROBE_PERIOD_S


def host_slowness(samples: list[float]) -> float:
    """How many times slower than at the reference speed the program
    ran while ``samples`` were taken (1.0 without samples).

    The median sample, since a hiccup during one 10 ms sample inflates
    it far more than it slows the workload.  Raised to ``SLOWNESS_EXP``,
    since the workloads slow less, in log terms, than the loop's tight
    integer work when the host is contended.
    """
    return (median(samples) / REF_LOOP_MS) ** SLOWNESS_EXP if samples else 1.0


def setup_reference_ms() -> list[float]:
    """Host speed just before a set-up: the earlier repetition's
    garbage is collected first, so the samples do not pay for it."""
    gc.collect()
    return [host_reference_ms() for _ in range(SETUP_REF_SAMPLES)]


def timed_builds(
    build: Callable[[], T], *, samples: int, seconds: float
) -> tuple[list[float], list[float], T]:
    """Build ``samples`` times at least, and until ``seconds`` of set-up
    are measured, so a sub-millisecond build still gives a steady
    median.  Returns the set-up times, the host speed samples taken just
    before them, and the last build, which runs.

    The discarded builds' garbage is collected here, so that the timed
    window does not pay for it.
    """
    ref = setup_reference_ms()
    times: list[float] = []
    while True:
        start = perf_counter()
        built = build()
        times.append(perf_counter() - start)
        if len(times) >= samples and sum(times) >= seconds:
            gc.collect()
            return times, ref, built


def setup_seconds(reps: list[Rep]) -> float:
    """Median over repetitions of each one's median set-up time,
    corrected by the samples taken just before it.  Samples from the
    timed window, seconds away, left sim-paper's set-up times as spread
    as uncorrected; these cut their spread by a quarter."""
    return median(median(r.setup_s) / host_slowness(r.setup_ref_ms) for r in reps)


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# simulated groups
# ----------------------------------------------------------------------


def audit_cluster(cluster: SimCluster, *, quiesced: bool) -> list[str]:
    """Definition 3.2 over a cluster's delivery logs: local causal
    order and Uniform Ordering per active stream, Uniform Atomicity
    over every generated message."""
    if not quiesced:
        return ["group did not reach quiescence"]
    active = set(cluster.active_pids())
    streams = {pid: cluster.services[pid].delivered for pid in active}
    violations = [
        str(v)
        for pid, stream in streams.items()
        for v in check_local_causal_order(pid, stream).violations
    ]
    if active:
        violations += [
            str(v) for v in check_uniform_ordering(streams, converged=True).violations
        ]
        log = cluster.delivery_log
        violations += [
            str(v)
            for v in check_uniform_atomicity(
                log.generated_at,
                {mid: set(by) for mid, by in log.processed_at.items()},
                active,
                discarded=log.discarded,
            ).violations
        ]
    return violations


def membership(n: int, crashed: set[int], active: set[int], members) -> dict[str, int]:
    """Account for the starting view ``0..n-1``.

    ``members[i]`` is member ``i``'s engine.  A member is *declared*
    failed when it left or some active member's view holds it dead,
    the K-consecutive detector's only output (it reports no suspicion
    events).  *Lost* members are the declared or inactive ones the
    workload did not crash; *kept* members are active and declared by
    no one.
    """
    declared = {
        p
        for p in range(n)
        if members[p].has_left
        or any(not members[q].view.is_alive(ProcessId(p)) for q in active)
    }
    kept = len(active - declared)
    return {
        "kept": kept,
        "lost": n - len(crashed) - kept,
        "declared": len(declared),
        "false_leaves": len(declared - crashed),
    }


def network_layer(clusters: list[SimCluster], msgs: int) -> dict[str, float]:
    """Transport/network counts summed over ``clusters``."""
    sent = control = recoveries = subruns = 0
    for cluster in clusters:
        stats = cluster.network.stats
        sent += stats.total().sent
        control += sum(
            stats.kind(k).sent for k in stats.kinds() if k.startswith("ctrl-")
        )
        recoveries += stats.kind("ctrl-recovery-rq").sent
        subruns += cluster.scheduler.current_round / 2
    return {
        "net.datagrams_per_msg": sent / msgs if msgs else 0.0,
        "net.control_per_subrun": control / subruns if subruns else 0.0,
        "net.recoveries": recoveries,
    }


def engine_peaks(clusters: list[SimCluster]) -> dict[str, float]:
    """Peak waiting-list and history lengths any member reached."""
    waiting = history = 0.0
    for cluster in clusters:
        metrics = cluster.kernel.metrics
        waiting = max(waiting, metrics.series_for("waiting.max").max())
        history = max(history, metrics.series_for("history.max").max())
    return {"waiting.peak": waiting, "history.peak": history}
