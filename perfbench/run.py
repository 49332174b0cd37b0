"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload sim-burst --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (it imports ``repro`` from
``src/``).  A run repeats its workload, with the inputs the seed makes,
until ``--seconds`` have been measured, audits every repetition and
prints, as its last line, one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Any audit
violation, or two repetitions of one seed whose deterministic counts
differ (within the run, or from an earlier run's record of the same
seed on the same source), ends the run with exit code 1 and no result.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}; run from a repository checkout")
    sys.path.insert(0, str(src))


_import_program()

import layers  # noqa: E402
import live_workload  # noqa: E402
import sim_workloads  # noqa: E402
import svc_workload  # noqa: E402
from common import Rep, host_slowness, median, peak_rss_mb, setup_seconds, tail  # noqa: E402
from repro.obs.metrics import summarize  # noqa: E402
from tracer import Tracer  # noqa: E402

#: name -> (make inputs from a seed, run one repetition)
WORKLOADS = {
    "sim-burst": (sim_workloads.burst_inputs, sim_workloads.rep),
    "sim-paper": (sim_workloads.paper_inputs, sim_workloads.rep),
    "live-udp": (live_workload.inputs, live_workload.rep),
    "svc-chat": (svc_workload.inputs, svc_workload.rep),
}

#: Per-layer metrics and their units, reported on every workload (zero
#: where the layer does not run).
PER_LAYER = {
    "codec.encode.calls": "count",
    "codec.encode.self_s": "s",
    "codec.decode.calls": "count",
    "codec.decode.self_s": "s",
    "codec.bytes_per_msg": "B/msg",
    "member.on_message.calls": "count",
    "member.on_message.self_s": "s",
    "member.on_round.self_s": "s",
    "member.useful_ratio": "ratio",
    "waiting.peak": "count",
    "history.peak": "count",
    "decision.calls": "count",
    "decision.self_s": "s",
    "batch.pack.calls": "count",
    "batch.pack.self_s": "s",
    "batch.expand.frames": "count",
    "batch.expand.self_s": "s",
    "batch.msgs_per_frame": "ratio",
    "transport.t_data_rq.self_s": "s",
    "net.datagrams_per_msg": "ratio",
    "net.control_per_subrun": "count",
    "net.recoveries": "count",
    "kernel.events": "count",
    "kernel.self_s": "s",
    "detect.suspicions": "count",
    "detect.false_leaves": "count",
    "udp.sendto.calls": "count",
    "udp.sendto.self_s": "s",
    "udp.dropped": "count",
    "loop.lag_ms_p99": "ms",
    "gen.late_ms_p99": "ms",
    "runtime.round_lag": "rounds",
    "runtime.tick_skew_ms_p99": "ms",
    "sustained_rate": "msg/s",
    "svc.pump.self_s": "s",
    "svc.publish.self_s": "s",
    "svc.frontend.self_s": "s",
    "svc.router.self_s": "s",
    "svc.on_deliver.self_s": "s",
    "svc.bridge.stamps": "count",
    "svc.pdus_per_delivery": "ratio",
    "svc.parked": "count",
    "obs.count.calls": "count",
    "obs.count.self_s": "s",
    "obs.observe.calls": "count",
    "failed_share": "ratio",
    "members_lost": "count",
    "trace.overhead.group_msgs_per_s": "msg/s",
    "trace.overhead.deliveries_per_s": "deliveries/s",
    "host.ref_loop_ms": "ms",
}


class BenchmarkFailure(Exception):
    """An audit violation or an exact-repeat mismatch."""


def measure(
    workload: str, seed: int, seconds: float, trace: bool
) -> tuple[list[Rep], Tracer | None]:
    """Repeat the workload until ``seconds`` are measured.  With
    tracing, untraced and traced repetitions alternate."""
    make_inputs, run_rep = WORKLOADS[workload]
    inputs = make_inputs(seed)
    tracer = Tracer() if trace else None
    reps: list[Rep] = []
    deadline = perf_counter() + seconds
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.reset_aggregates()
            layers.install(tracer)
        try:
            rep = run_rep(inputs, tracer if traced else None)
        finally:
            if traced:
                tracer.unpatch()
        rep.traced = traced
        if traced:
            rep.trace = tracer.snapshot()
        if rep.violations:
            raise BenchmarkFailure(
                f"{workload} seed {seed} repetition {len(reps)}: "
                f"{len(rep.violations)} audit violation(s): "
                + "; ".join(rep.violations[:5])
            )
        if reps and rep.counts != reps[0].counts:
            raise BenchmarkFailure(
                f"{workload} seed {seed}: repetition {len(reps)} counts {rep.counts} "
                f"differ from repetition 0 counts {reps[0].counts}"
            )
        reps.append(rep)
        untraced = sum(1 for r in reps if not r.traced)
        # Two untraced repetitions at least, so every run checks that
        # its deterministic counts repeat.
        enough = untraced >= 2 and (tracer is None or untraced < len(reps))
        if enough and perf_counter() >= deadline:
            return reps, tracer


def throughput(reps: list[Rep], *, corrected: bool = False) -> tuple[float, float]:
    """Messages and deliveries per second over the repetitions' summed
    timed windows: wall clock, or with each window corrected to the
    reference host speed by the reference loop timed inside it."""
    window = sum(
        r.window_s / (host_slowness(r.host_ref_ms) if corrected else 1.0) for r in reps
    )
    return sum(r.msgs for r in reps) / window, sum(r.deliveries for r in reps) / window


def end_to_end(reps: list[Rep]) -> dict[str, tuple[float, str]]:
    untraced = [r for r in reps if not r.traced]
    # Host speed swings by up to 2x on a shared host; rates are corrected
    # to the reference speed by the reference loop timed inside each
    # window, set-up times by the loop timed just before them
    # (perfbench/README.md, "Host speed").
    msgs_per_s, deliveries_per_s = throughput(untraced, corrected=True)
    attempted = sum(r.attempted for r in untraced)
    failed = sum(r.failed for r in untraced)
    # D per repetition, then the least over repetitions.  On sim-* and
    # svc-chat every repetition has the same D.  On live-udp, contention
    # from outside the process delays the shared loop for minutes at a
    # time and raised p99 by up to 30% in whole runs; the least disturbed
    # repetition still slows with the program.
    return {
        "group_msgs_per_s": (msgs_per_s, "msg/s"),
        "deliveries_per_s": (deliveries_per_s, "deliveries/s"),
        "delay_rtd_p50": (min(r.delay_rtd.p50 for r in untraced), "rtd"),
        "delay_rtd_p99": (min(tail(r.delay_rtd) for r in untraced), "rtd"),
        "completed_share": (1.0 - failed / attempted, "ratio"),
        "members_kept": (min(r.members_kept for r in untraced), "count"),
        "setup_s": (setup_seconds(untraced), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def wall_latency(reps: list[Rep]) -> dict[str, tuple[float, str]]:
    """Open-loop wall-clock latency (live-udp only): percentiles per
    untraced repetition, then the least, as for D."""
    untraced = [summarize(r.latencies_ms) for r in reps if not r.traced and r.latencies_ms]
    if not untraced:
        return {}
    return {
        "latency_p50_ms": (min(s.p50 for s in untraced), "ms"),
        "latency_p99_ms": (min(tail(s) for s in untraced), "ms"),
        "latency_samples": (sum(s.count for s in untraced), "count"),
    }


def _layer_of_rep(rep: Rep) -> dict[str, float]:
    spans = rep.trace["spans"]
    counts = rep.trace["counts"]

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        "codec.encode.calls": calls("codec.encode"),
        "codec.encode.self_s": self_s("codec.encode"),
        "codec.decode.calls": calls("codec.decode"),
        "codec.decode.self_s": self_s("codec.decode"),
        "codec.bytes_per_msg": ratio(counts.get("codec.bytes", 0), rep.msgs),
        "member.on_message.calls": calls("member.on_message"),
        "member.on_message.self_s": self_s("member.on_message"),
        "member.on_round.self_s": self_s("member.on_round"),
        "member.useful_ratio": ratio(
            counts.get("member.processed", 0), counts.get("member.user_in", 0)
        ),
        "decision.calls": calls("decision"),
        "decision.self_s": self_s("decision"),
        "batch.pack.calls": calls("batch.pack"),
        "batch.pack.self_s": self_s("batch.pack"),
        "batch.expand.frames": counts.get("batch.frames", 0),
        "batch.expand.self_s": self_s("batch.expand"),
        "batch.msgs_per_frame": ratio(
            counts.get("batch.sends_in", 0), counts.get("batch.sends_out", 0)
        ),
        "transport.t_data_rq.self_s": self_s("transport.t_data_rq"),
        "kernel.events": counts.get("kernel.events", 0),
        "kernel.self_s": self_s("kernel.run"),
        "udp.sendto.calls": calls("udp.sendto"),
        "udp.sendto.self_s": self_s("udp.sendto"),
        "svc.pump.self_s": self_s("svc.pump"),
        "svc.publish.self_s": self_s("svc.publish"),
        "svc.frontend.self_s": self_s("svc.frontend"),
        "svc.router.self_s": self_s("svc.router"),
        "svc.on_deliver.self_s": self_s("svc.on_deliver"),
        "svc.bridge.stamps": calls("svc.bridge.stamp"),
        "obs.count.calls": calls("obs.count"),
        "obs.count.self_s": self_s("obs.count"),
        "obs.observe.calls": calls("obs.observe"),
    }
    values.update(rep.layer)
    return values


def per_layer(reps: list[Rep], sustained: float) -> dict[str, tuple[float, str]]:
    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    per_rep = [_layer_of_rep(r) for r in traced]
    traced_msgs, traced_deliveries = throughput(traced)
    msgs, deliveries = throughput(untraced)
    attempted = sum(r.attempted for r in reps)
    samples = [x for r in reps for x in (*r.host_ref_ms, *r.setup_ref_ms)]
    values = {
        name: median(v.get(name, 0.0) for v in per_rep) for name in PER_LAYER
    }
    values.update(
        {
            "sustained_rate": sustained,
            "failed_share": sum(r.failed for r in reps) / attempted,
            "members_lost": max(r.members_lost for r in reps),
            "trace.overhead.group_msgs_per_s": traced_msgs - msgs,
            "trace.overhead.deliveries_per_s": traced_deliveries - deliveries,
            "host.ref_loop_ms": median(samples) if samples else 0.0,
        }
    )
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def program_digest() -> str:
    """Digest of the program's and the benchmark's source files."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "repro").rglob("*.py"), *OUT.parent.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_earlier_runs(workload: str, seed: int, counts, program: str) -> None:
    """Compare the counts with earlier runs' records of this seed on
    the same source; runs of other versions are not compared."""
    if counts is None:
        return
    for path in sorted(OUT.glob(f"{workload}-seed{seed}-trace*.json")):
        try:
            earlier = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if earlier.get("program") == program and earlier.get("counts") != counts:
            raise BenchmarkFailure(
                f"{workload} seed {seed}: counts {counts} differ from "
                f"{path.name}'s {earlier.get('counts')}"
            )


def _record(workload, seed, trace, reps, metrics, extra) -> Path:
    """Write the run's repetitions (counts, host reference times) next
    to the benchmark, for spotting a slowed-host repetition."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "counts": reps[0].counts,
        "metrics": {k: v[0] for k, v in metrics.items()},
        "repetitions": [
            {
                "traced": r.traced,
                "window_s": r.window_s,
                "setup_s": r.setup_s,
                "msgs": r.msgs,
                "deliveries": r.deliveries,
                "attempted": r.attempted,
                "failed": r.failed,
                "members_lost": r.members_lost,
                "host_ref_ms": r.host_ref_ms,
                "setup_ref_ms": r.setup_ref_ms,
                "counts": r.counts,
                "layer": r.layer,
                "trace": r.trace,
            }
            for r in reps
        ],
        **extra,
    }
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    program = program_digest()
    try:
        reps, tracer = measure(args.workload, args.seed, args.seconds, trace)
        check_earlier_runs(args.workload, args.seed, reps[0].counts, program)
    except BenchmarkFailure as failure:
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)
        return 1

    extra: dict = {"program": program}
    latency: dict[str, tuple[float, str]] = {}
    if trace:
        sustained = 0.0
        if args.workload == "live-udp":
            sustained, extra["ladder"] = live_workload.sustained_rate(
                live_workload.inputs(args.seed)
            )
        metrics = per_layer(reps, sustained)
        OUT.mkdir(exist_ok=True)
        # One span file per workload (the latest traced run's), so
        # repeated runs do not fill the disk.
        spans = OUT / f"{args.workload}-spans.tsv"
        extra["spans_file"] = str(spans.relative_to(ROOT))
        extra["spans_written"] = tracer.write_spans(spans)
    else:
        metrics = end_to_end(reps)
        latency = wall_latency(reps)
        extra["wall_latency"] = {name: value for name, (value, _) in latency.items()}

    record = _record(args.workload, args.seed, trace, reps, metrics, extra)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    untraced = sum(1 for r in reps if not r.traced)
    print(
        f"{args.workload} seed={args.seed} repetitions={len(reps)} "
        f"(untraced {untraced}) attempted={attempted} failed={failed} "
        f"record={record.relative_to(ROOT)}"
    )
    print(f"  counts (every repetition): {reps[0].counts}")
    untraced_reps = [r for r in reps if not r.traced]
    msgs_per_s, deliveries_per_s = throughput(untraced_reps)
    corrected, _ = throughput(untraced_reps, corrected=True)
    print(
        f"  wall clock: {msgs_per_s:.6g} msg/s, {deliveries_per_s:.6g} deliveries/s; "
        f"workload {corrected / msgs_per_s:.3f}x slower than at the reference speed"
    )
    print(
        "  reference loop (ms) per repetition: "
        f"{[round(sum(r.host_ref_ms) / len(r.host_ref_ms), 1) for r in reps if r.host_ref_ms]}"
    )
    for name, (value, unit) in latency.items():
        print(f"  {name:34s} {value:14.6g} {unit} (wall clock, not in the result line)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
