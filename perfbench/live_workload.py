"""The ``live-udp`` workload: an 8-node group over loopback UDP.

All eight :class:`~repro.runtime.node.AsyncNode` s, their tickers, the
generator and a lag probe share one asyncio loop on one thread.  The
generator is open loop: message ``i`` is due ``i / rate`` seconds after
the start and goes to member ``i % 8``, whatever the group's backlog.
Each message is timed from its due time to its processing at the last
member of the starting view.

Failures are counted against the starting view, never against the
survivors: a submission a departed member refuses, and a message some
starting member never processed, both count as failed.

The group runs with ``K = n``.  Each node's ticker sleeps a round
interval after its own round's work, so the nodes' round clocks drift
apart; on one loop the higher pids, woken after the lower ones, fall
behind by up to a whole round interval within seconds.  A request
that reaches its coordinator after the coordinator's decision round is
stale, and with the default ``K = 3`` three such coordinators in a row
evict a healthy member: on a 2-vCPU host, in about one repetition in
ten at 300 msg/s, even in 0.5 s repetitions.  With ``K = n`` a live member is never
evicted for it, since its own decision, when it coordinates, always
counts its request.  ``runtime.tick_skew_ms_p99`` measures the drift.
"""

from __future__ import annotations

import asyncio
import gc
import random
from dataclasses import dataclass
from time import perf_counter

from repro.core.config import BatchingConfig, UrcgcConfig
from repro.errors import MemberLeftError
from repro.harness.live_torture import audit_group
from repro.runtime.node import AsyncGroup
from repro.runtime.udp import UdpFabric
from repro.types import ProcessId

from repro.obs.metrics import summarize

from common import Rep, membership, setup_reference_ms

N = 8
ROUND_INTERVAL = 0.02
#: The offered load the group holds today without losing members.
NOMINAL_RATE = 300.0
#: Seconds of submissions per repetition at the nominal rate.
SUBMIT_S = 4.0
#: Ladder rungs above nominal (multiples of it), and their length.
LADDER = (1.5, 2.0, 3.0, 4.0)
LADDER_SUBMIT_S = 2.0
#: A rung is sustained when p99 stays within 10 round intervals.
P99_LIMIT_MS = 10 * ROUND_INTERVAL * 1000.0
DRAIN_TIMEOUT_S = 3.0
PROBE_S = 0.002
#: Groups bound and built per repetition to time set-up (at least this
#: many, and at least ``SETUP_MIN_S`` of set-up); the last one runs.
SETUP_SAMPLES = 3
SETUP_MIN_S = 0.05


@dataclass
class LiveInputs:
    payloads: list[bytes]
    seed: int


def inputs(seed: int) -> LiveInputs:
    """64-byte payloads drawn from the seed; the longest ladder rung
    decides how many are needed."""
    rng = random.Random(seed)
    most = int(max(NOMINAL_RATE * SUBMIT_S, NOMINAL_RATE * LADDER[-1] * LADDER_SUBMIT_S))
    return LiveInputs([i.to_bytes(4, "big") + rng.randbytes(60) for i in range(most)], seed)


def _config() -> UrcgcConfig:
    return UrcgcConfig(n=N, K=N, generate_burst=16, batching=BatchingConfig())


async def _setup(seed: int, on_indication) -> tuple[list[float], AsyncGroup, UdpFabric]:
    """Bind and build the group repeatedly; keep the last.  The
    discarded groups' garbage is collected before the timed window."""
    setup: list[float] = []
    while True:
        start = perf_counter()
        fabric = await UdpFabric.create(N, seed=seed)
        group = AsyncGroup(_config(), lan=fabric, on_indication=on_indication)
        setup.append(perf_counter() - start)
        if len(setup) >= SETUP_SAMPLES and sum(setup) >= SETUP_MIN_S:
            gc.collect()
            return setup, group, fabric
        fabric.close()


async def _run(inputs: LiveInputs, rate: float, submit_s: float, tracer) -> Rep:
    count = int(rate * submit_s)
    # payload index -> [members processed, last processing time]
    seen: dict[int, list] = {}

    def on_indication(pid: ProcessId, message) -> None:
        now = perf_counter()
        entry = seen.get(index := int.from_bytes(message.payload[:4], "big"))
        if entry is None:
            seen[index] = [1, now]
        else:
            entry[0] += 1
            entry[1] = now

    setup_ref = setup_reference_ms()
    setup, group, fabric = await _setup(inputs.seed, on_indication)
    lag: list[float] = []
    peaks = {"waiting.peak": 0.0, "history.peak": 0.0}
    # pid -> round -> when the probe first saw the node in that round
    ticks: list[dict[int, float]] = [{} for _ in range(N)]
    stop_probe = asyncio.Event()

    async def probe() -> None:
        # Event-loop lag as the generator's neighbours see it, the
        # nodes' round clocks, and the engine's queue depths.
        while not stop_probe.is_set():
            before = perf_counter()
            await asyncio.sleep(PROBE_S)
            now = perf_counter()
            lag.append((now - before - PROBE_S) * 1000.0)
            for node in group.nodes:
                ticks[int(node.pid)].setdefault(node.current_round, now)
                peaks["waiting.peak"] = max(peaks["waiting.peak"], node.member.waiting_length)
                peaks["history.peak"] = max(peaks["history.peak"], node.member.history_length)

    group.start()
    group_started = perf_counter()
    probe_task = asyncio.create_task(probe())
    late: list[float] = []
    refused = 0
    start = perf_counter() + 0.05
    try:
        for i in range(count):
            due = start + i / rate
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append((perf_counter() - due) * 1000.0)
            try:
                group.nodes[i % N].submit(inputs.payloads[i])
            except MemberLeftError:
                refused += 1
        submitted_end = perf_counter()
        round_lag = max(
            ((submitted_end - group_started) / ROUND_INTERVAL - node.current_round
             for node in group.live_nodes),
            default=0.0,
        )
        accepted = count - refused
        drain_deadline = perf_counter() + DRAIN_TIMEOUT_S
        while perf_counter() < drain_deadline and not all(
            len(node.delivered) >= accepted for node in group.live_nodes
        ):
            await asyncio.sleep(0.002)
        end = perf_counter()
        violations = audit_group(group, converged=True)
    finally:
        stop_probe.set()
        await probe_task
        await group.stop()

    latencies = [
        (entry[1] - (start + index / rate)) * 1000.0
        for index in range(count)
        if (entry := seen.get(index)) is not None and entry[0] == N
    ]
    # D from the due time, in subruns (two round intervals), so the wait
    # for the origin's next round counts: the user sees it.
    subrun_ms = 2 * ROUND_INTERVAL * 1000.0
    views = membership(
        N,
        set(),
        {int(node.pid) for node in group.live_nodes},
        [node.member for node in group.nodes],
    )
    endpoints = [fabric.attach(ProcessId(i)) for i in range(N)]
    # Spread of the moments the nodes entered each round they all saw.
    skew = [
        (max(t[r] for t in ticks) - min(t[r] for t in ticks)) * 1000.0
        for r in set(ticks[0]).intersection(*ticks[1:])
    ]
    layer = {
        **peaks,
        "udp.dropped": fabric.dropped_count
        + sum(e.dropped_count + e.error_count for e in endpoints),
        "loop.lag_ms_p99": summarize(lag).p99 if lag else 0.0,
        "gen.late_ms_p99": summarize(late).p99,
        "runtime.round_lag": round_lag,
        "runtime.tick_skew_ms_p99": summarize(skew).p99 if skew else 0.0,
        "detect.suspicions": views["declared"],
        "detect.false_leaves": views["false_leaves"],
        "net.datagrams_per_msg": fabric.sent_count / len(latencies) if latencies else 0.0,
    }
    if tracer is not None:
        subruns = max(node.current_round for node in group.nodes) / 2
        sent = tracer.counts
        layer["net.control_per_subrun"] = sum(
            v for k, v in sent.items() if k.startswith("udp.kind.ctrl-")
        ) / max(subruns, 1)
        layer["net.recoveries"] = sent.get("udp.kind.ctrl-recovery-rq", 0)
    return Rep(
        setup_s=setup,
        window_s=end - start,
        msgs=len(latencies),
        deliveries=sum(len(node.delivered) for node in group.nodes),
        latencies_ms=latencies,
        delay_rtd=summarize(x / subrun_ms for x in latencies),
        attempted=count,
        failed=count - len(latencies),
        members_kept=views["kept"],
        members_lost=views["lost"],
        counts=None,
        layer=layer,
        violations=violations,
        setup_ref_ms=setup_ref,
    )


def rep(inputs: LiveInputs, tracer=None) -> Rep:
    return asyncio.run(_run(inputs, NOMINAL_RATE, SUBMIT_S, tracer))


def sustained_rate(inputs: LiveInputs) -> tuple[float, list[dict]]:
    """Climb the rate ladder from nominal; the sustained rate is the
    highest rung with p99 within the limit, nothing failed and no
    member lost.  Stops at the first rung that misses."""
    sustained = 0.0
    rungs = []
    for factor in (1.0, *LADDER):
        rate = NOMINAL_RATE * factor
        result = asyncio.run(_run(inputs, rate, LADDER_SUBMIT_S, None))
        p99 = summarize(result.latencies_ms).p99 if result.latencies_ms else float("inf")
        ok = p99 <= P99_LIMIT_MS and result.failed == 0 and result.members_lost == 0
        rungs.append(
            {"rate": rate, "p99_ms": p99, "failed": result.failed,
             "members_lost": result.members_lost, "ok": ok}
        )
        if not ok:
            break
        sustained = rate
    return sustained, rungs
