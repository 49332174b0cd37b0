"""The ``svc-chat`` workload: sharded chat through the service tier.

A :class:`~repro.svc.tier.ShardedService` of 4 shards x 3 members.
500 sessions sampled from a 10^6 client id space each subscribe to 3
Zipf-popular topics (64 topics, s=1.1); 1000 publishes go round-robin
over the sessions, 20% of them naming 2-3 topics (bridged across shards
when their topics live on different shards).  The tier is stepped every
S/2 publishes, as ``repro serve`` does, then driven until it settles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

from repro.obs.metrics import summarize
from repro.svc.serve import audit_tier
from repro.svc.tier import ShardedService
from repro.workloads.generators import ZipfTopics

from common import (
    HostProbe,
    Rep,
    engine_peaks,
    membership,
    network_layer,
    timed_builds,
)

SHARDS, MEMBERS = 4, 3
SESSIONS, PUBLISHES = 500, 1000
ID_SPACE = 1_000_000
#: Tiers built per repetition to time set-up (at least this many, and
#: at least ``SETUP_MIN_S`` of building); the last one runs.
SETUP_SAMPLES = 2
SETUP_MIN_S = 0.25


@dataclass
class SvcInputs:
    clients: list[int]
    subscriptions: list[tuple[bytes, ...]]
    #: (client, topics, payload), in publish order.
    publishes: list[tuple[int, tuple[bytes, ...], bytes]]
    seed: int


def inputs(seed: int) -> SvcInputs:
    rng = random.Random(seed)
    zipf = ZipfTopics(64, s=1.1, rng=rng)
    clients = rng.sample(range(ID_SPACE), SESSIONS)
    subscriptions = [zipf.subscription(3) for _ in clients]
    publishes = []
    for i in range(PUBLISHES):
        if rng.random() < 0.2:
            topics = zipf.draw_set(rng.randint(2, 3))
        else:
            topics = (zipf.draw(),)
        publishes.append((clients[i % SESSIONS], topics, b"m%d" % i + rng.randbytes(24)))
    return SvcInputs(clients, subscriptions, publishes, seed)


def _build(inputs: SvcInputs) -> ShardedService:
    tier = ShardedService(SHARDS, MEMBERS, seed=inputs.seed)
    for client, topics in zip(inputs.clients, inputs.subscriptions):
        tier.connect(client)
        tier.subscribe(client, topics)
    return tier


def _entitled(tier: ShardedService, inputs: SvcInputs) -> int:
    """Deliveries the subscriptions entitle: one per (publish, session,
    shard) where the session subscribes to one of the publish's topics
    on that shard."""
    shard_for = tier.router.shard_for
    by_topic: dict[bytes, list[tuple[int, int]]] = {}
    for session, topics in enumerate(inputs.subscriptions):
        for topic in topics:
            by_topic.setdefault(topic, []).append((session, shard_for(topic)))
    total = 0
    for _, topics, _ in inputs.publishes:
        total += len({hit for topic in set(topics) for hit in by_topic.get(topic, ())})
    return total


def _frontend_delays(tier: ShardedService) -> list[float]:
    """D as the frontends measure it: injection into a shard group ->
    processed there, simulated time, pooled over shards and over
    single-shard and bridged publishes."""
    delays = []
    for family, name, _, histogram in tier.registry.walk():
        if family == "histogram" and name in ("svc.publish.latency", "svc.bridge.latency"):
            # The exact percentile at each rank is that rank's sample.
            last = max(histogram.count - 1, 1)
            delays += [histogram.percentile(i / last) for i in range(histogram.count)]
    return delays


def rep(inputs: SvcInputs, tracer=None) -> Rep:
    setup, setup_ref, tier = timed_builds(
        lambda: _build(inputs), samples=SETUP_SAMPLES, seconds=SETUP_MIN_S
    )

    probe = HostProbe()
    if tracer is None:
        for cluster in tier.clusters:
            cluster.scheduler.subscribe(probe)
    start = perf_counter()
    step_every = max(1, SESSIONS // 2)
    for i, (client, topics, payload) in enumerate(inputs.publishes):
        tier.publish(client, topics, payload)
        if (i + 1) % step_every == 0:
            tier.step()
            tier.refresh_health()
    tier.run()
    end = perf_counter()

    violations = audit_tier(tier, quiesced=True)
    entitled = _entitled(tier, inputs)
    sessions = [tier.sessions[c] for c in inputs.clients]
    deliveries = sum(len(s.delivered) for s in sessions)
    if deliveries > entitled:
        violations.append(f"{deliveries} deliveries exceed the {entitled} entitled")
    published: dict[int, int] = {}
    for client, _, _ in inputs.publishes:
        published[client] = published.get(client, 0) + 1
    unacked = sum(n - tier.sessions[c].acked for c, n in published.items())
    msgs = sum(
        c.delivery_log.report(set(c.active_pids())).complete_messages for c in tier.clusters
    )
    delay = summarize(_frontend_delays(tier))
    views = [
        membership(MEMBERS, set(), {int(p) for p in c.active_pids()}, c.members)
        for c in tier.clusters
    ]
    parked = sum(
        int(metric)
        for family, name, _, metric in tier.registry.walk()
        if family == "counter" and name == "svc.deliver.parked"
    )
    layer = {
        **network_layer(tier.clusters, msgs),
        **engine_peaks(tier.clusters),
        "detect.suspicions": sum(v["declared"] for v in views),
        "detect.false_leaves": sum(v["false_leaves"] for v in views),
        "svc.pdus_per_delivery": tier.pdus_moved / deliveries if deliveries else 0.0,
        "svc.parked": parked,
    }
    counts = {
        "sessions": len(sessions),
        "publishes": len(inputs.publishes),
        "deliveries": deliveries,
        "pdus_moved": tier.pdus_moved,
        "group_msgs": msgs,
        "rounds": sum(c.scheduler.current_round for c in tier.clusters),
        "datagrams": sum(c.network.stats.total().sent for c in tier.clusters),
        "wire_bytes": sum(c.network.stats.total().sent_bytes for c in tier.clusters),
        "delay_mean_rtd": delay.mean,
        "delay_p99_rtd": delay.p99,
        "bridge_stamps": sum(
            int(metric)
            for family, name, _, metric in tier.registry.walk()
            if family == "counter" and name == "svc.bridge.stamped"
        ),
    }
    return Rep(
        setup_s=setup,
        window_s=end - start - probe.spent,
        msgs=msgs,
        deliveries=deliveries,
        delay_rtd=delay,
        attempted=len(inputs.publishes) + entitled,
        failed=unacked + (entitled - deliveries),
        members_kept=sum(v["kept"] for v in views),
        members_lost=sum(v["lost"] for v in views),
        counts=counts,
        layer=layer,
        violations=violations,
        host_ref_ms=probe.samples,
        setup_ref_ms=setup_ref,
    )
