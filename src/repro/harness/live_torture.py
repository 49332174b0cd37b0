"""Randomized chaos runs against the *live* asyncio runtime.

The live analogue of :mod:`repro.harness.torture`: each iteration
draws a seed, a group size, and a fault plan (coordinator crash with
partial broadcast, partition-then-heal, send/receive omission,
duplication, delay jitter), runs an
:class:`~repro.runtime.node.AsyncGroup` over a
:class:`~repro.runtime.chaos.ChaosFabric` until quiescence (or a
wall-clock budget), then audits the per-node delivery logs with the
Definition 3.2 checkers.  A violation reports the seed that reproduces
it; :func:`results_as_json` renders a CI-consumable summary.

``python -m repro chaos`` is the command-line entry point.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..analysis.checkers import (
    check_local_causal_order,
    check_uniform_atomicity,
    check_uniform_ordering,
)
from ..core.config import UrcgcConfig
from ..core.message import UserMessage
from ..core.mid import Mid
from ..net.faults import FaultPlan
from ..runtime.chaos import ChaosFabric
from ..runtime.lan import AsyncLan
from ..runtime.node import AsyncGroup
from ..types import ProcessId

__all__ = [
    "LiveTortureResult",
    "audit_streams",
    "audit_group",
    "live_torture_once",
    "live_torture",
    "results_as_json",
]


@dataclass(frozen=True)
class LiveTortureResult:
    """Outcome of one randomized live run."""

    seed: int
    n: int
    K: int
    crashed: int | None
    partitioned: bool
    omission_rate: float
    duplication: float
    jitter: float
    messages: int
    quiesced: bool
    wall_time: float
    drop_reasons: dict[str, int]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} VIOLATIONS"
        crash = f"crash=p{self.crashed}" if self.crashed is not None else "crash=-"
        return (
            f"seed={self.seed:<6d} n={self.n} K={self.K} {crash} "
            f"partition={'yes' if self.partitioned else 'no '} "
            f"omission={self.omission_rate:.3f} dup={self.duplication:.2f} "
            f"msgs={self.messages:<3d} "
            f"{'quiesced' if self.quiesced else 'timed out'} "
            f"{self.wall_time:5.2f}s  {status}"
        )

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "K": self.K,
            "crashed": self.crashed,
            "partitioned": self.partitioned,
            "omission_rate": self.omission_rate,
            "duplication": self.duplication,
            "jitter": self.jitter,
            "messages": self.messages,
            "quiesced": self.quiesced,
            "wall_time": round(self.wall_time, 3),
            "drop_reasons": dict(self.drop_reasons),
            "violations": list(self.violations),
        }


# ----------------------------------------------------------------------
# auditing
# ----------------------------------------------------------------------


def audit_streams(
    streams: Mapping[ProcessId, Sequence[UserMessage]],
    generated: Iterable[Mid],
    processed_by: Mapping[Mid, set[ProcessId]],
    active: set[ProcessId],
    discarded: set[Mid],
    *,
    converged: bool,
) -> list[str]:
    """Run every Definition 3.2 checker over collected delivery logs.

    ``converged=True`` asserts the quiescent-group clauses (equal
    per-origin subsequences and Uniform Atomicity over the active
    set); ``converged=False`` audits an in-flight group, where only
    prefix consistency and local causal order must hold.  ``discarded``
    mids — orphan discards and crash-void ranges — are exempt from
    atomicity and excised from the ordering comparison (a site may have
    processed a message shortly before the group voided it).
    """
    violations: list[str] = []
    voided = frozenset(discarded)
    for pid, stream in streams.items():
        violations.extend(
            str(v)
            for v in check_local_causal_order(pid, stream, voided=voided).violations
        )
    if streams:
        violations.extend(
            str(v)
            for v in check_uniform_ordering(
                dict(streams), converged=converged, voided=voided
            ).violations
        )
    if converged and active:
        violations.extend(
            str(v)
            for v in check_uniform_atomicity(
                generated,
                {mid: set(by) for mid, by in processed_by.items()},
                active,
                discarded=frozenset(discarded),
            ).violations
        )
    return violations


def audit_group(group: AsyncGroup, *, converged: bool) -> list[str]:
    """Collect a live group's delivery logs and audit them.

    Crashed nodes contribute what they generated, processed, and
    discarded before dying (their history matters for atomicity), but
    only live nodes form the *active* set the guarantees quantify
    over.
    """
    active = {node.pid for node in group.live_nodes}
    streams = {node.pid: list(node.delivered) for node in group.live_nodes}
    generated: list[Mid] = []
    processed_by: dict[Mid, set[ProcessId]] = {}
    discarded: set[Mid] = set()
    for node in group.nodes:
        for message in node.delivered:
            processed_by.setdefault(message.mid, set()).add(node.pid)
            # A member processes its own message as it generates it.
            if message.mid.origin == node.pid:
                generated.append(message.mid)
        discarded.update(node.service.lost_mids)
        discarded.update(node.service.discarded_mids)
    return audit_streams(
        streams, generated, processed_by, active, discarded, converged=converged
    )


# ----------------------------------------------------------------------
# one randomized live scenario
# ----------------------------------------------------------------------


async def _chaos_run(
    seed: int, *, budget: float, round_interval: float
) -> LiveTortureResult:
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    K = rng.randint(2, 3)
    omission_rate = rng.choice([0.0, 0.0, 0.01, 0.02])
    duplication = rng.choice([0.0, 0.0, 0.1, 0.25])
    jitter = rng.choice([0.0, 0.5, 1.5]) * round_interval
    message_count = rng.randint(n, 3 * n)
    do_partition = rng.random() < 0.5
    do_crash = rng.random() < 0.5
    pids = [ProcessId(i) for i in range(n)]
    subrun_seconds = 2 * round_interval

    plan = FaultPlan(rng=random.Random(seed + 1))
    if omission_rate:
        plan.set_uniform_omission(pids, omission_rate)
    fabric = ChaosFabric(
        AsyncLan(),
        plan,
        duplication=duplication,
        jitter=jitter,
        seed=seed + 2,
    )
    group = AsyncGroup(
        UrcgcConfig(n=n, K=K, R=2 * K + 4),
        lan=fabric,
        round_interval=round_interval,
    )
    loop = asyncio.get_running_loop()
    started = loop.time()
    crashed: int | None = None
    group.start()
    try:
        for i in range(message_count):
            origin = ProcessId(rng.randrange(n))
            group.nodes[origin].submit(f"chaos-{seed}-{i}".encode())

        if do_partition:
            await asyncio.sleep(rng.uniform(0.5, 2.0) * subrun_seconds)
            split = list(pids)
            rng.shuffle(split)
            cut = rng.randint(1, n - 1)
            plan.partitions.partition(split[:cut], split[cut:])
            await asyncio.sleep(rng.uniform(0.5, 1.5) * subrun_seconds)
            plan.partitions.heal()

        if do_crash:
            partial = rng.choice([None, rng.randint(0, max(0, n - 2))])
            crashed = await group.crash_coordinator_at_subrun(
                rng.randint(1, 4),
                partial_deliveries=partial,
                timeout=budget / 4,
            )

        quiesced = True
        try:
            remaining = budget - (loop.time() - started)
            await group.wait_until(group.quiescent, timeout=max(0.1, remaining))
        except asyncio.TimeoutError:
            quiesced = False
        violations = audit_group(group, converged=quiesced)
    finally:
        await group.stop()
    return LiveTortureResult(
        seed=seed,
        n=n,
        K=K,
        crashed=None if crashed is None else int(crashed),
        partitioned=do_partition,
        omission_rate=omission_rate,
        duplication=duplication,
        jitter=jitter,
        messages=message_count,
        quiesced=quiesced,
        wall_time=loop.time() - started,
        drop_reasons=dict(fabric.stats.drop_reasons),
        violations=tuple(violations),
    )


def live_torture_once(
    seed: int, *, budget: float = 20.0, round_interval: float = 0.005
) -> LiveTortureResult:
    """One randomized live chaos scenario, fully checked."""
    return asyncio.run(_chaos_run(seed, budget=budget, round_interval=round_interval))


def live_torture(
    iterations: int,
    *,
    start_seed: int = 0,
    budget: float = 20.0,
    round_interval: float = 0.005,
) -> list[LiveTortureResult]:
    """Run ``iterations`` randomized live scenarios; returns all results."""
    return [
        live_torture_once(
            start_seed + i, budget=budget, round_interval=round_interval
        )
        for i in range(iterations)
    ]


def results_as_json(results: Sequence[LiveTortureResult]) -> dict:
    """CI-consumable summary: per-run records plus rollup counters."""
    return {
        "experiment": "chaos",
        "iterations": len(results),
        "clean": sum(1 for r in results if r.ok),
        "quiesced": sum(1 for r in results if r.quiesced),
        "failing_seeds": [r.seed for r in results if not r.ok],
        "results": [r.as_dict() for r in results],
    }
