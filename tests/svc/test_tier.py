"""End-to-end service-tier tests: routing, acks, bridge, audits."""

import pytest

from repro.analysis.checkers import check_bridge_ordering, check_uniform_ordering
from repro.core.config import UrcgcConfig
from repro.errors import ConfigError, ProtocolError
from repro.svc.envelope import Envelope
from repro.svc.tier import ShardedService


def build(shards=2, members=3, **kw):
    return ShardedService(shards, members, seed=11, **kw)


class TestSessions:
    def test_connect_activates(self):
        tier = build()
        session = tier.connect(42)
        assert session.window > 0
        assert tier.registry.gauge("svc.sessions.active").__float__() == 1.0

    def test_double_connect_rejected(self):
        tier = build()
        tier.connect(42)
        with pytest.raises(ProtocolError):
            tier.connect(42)

    def test_publish_requires_connection(self):
        tier = build()
        with pytest.raises(ProtocolError):
            tier.publish(7, (b"t",), b"x")

    def test_config_members_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ShardedService(2, 3, config=UrcgcConfig(n=4))


class TestSingleShardDelivery:
    def test_publish_reaches_subscriber(self):
        tier = build()
        tier.connect(1)
        tier.connect(2)
        tier.subscribe(2, (b"news",))
        tier.publish(1, (b"news",), b"hello")
        tier.run()
        got = tier.sessions[2].delivered
        assert [(d.origin, d.payload) for d in got] == [(1, b"hello")]

    def test_publisher_hears_itself_when_subscribed(self):
        tier = build()
        tier.connect(1)
        tier.subscribe(1, (b"loop",))
        tier.publish(1, (b"loop",), b"echo")
        tier.run()
        assert [d.payload for d in tier.sessions[1].delivered] == [b"echo"]

    def test_client_order_preserved_per_topic(self):
        tier = build()
        tier.connect(1)
        tier.connect(2)
        tier.subscribe(2, (b"t",))
        for i in range(12):
            tier.publish(1, (b"t",), b"m%d" % i)
        tier.run()
        payloads = [d.payload for d in tier.sessions[2].delivered]
        assert payloads == [b"m%d" % i for i in range(12)]

    def test_publish_acks_advance_cumulatively(self):
        tier = build()
        session = tier.connect(1)
        for i in range(5):
            tier.publish(1, (b"t",), b"%d" % i)
        tier.run()
        assert session.acked == 5
        assert session.outstanding == 0

    def test_windowed_publishes_release_on_ack(self):
        tier = build()
        session = tier.connect(1, credit=2)
        sent_now = [tier.publish(1, (b"t",), b"%d" % i) for i in range(8)]
        assert sent_now.count(False) > 0  # some queued behind the window
        tier.run()
        assert session.acked == 8 and session.queued == 0


class TestDeliveryWindow:
    def test_parked_burst_unparks_through_batched_acks(self):
        # A window of 4 and a burst of 12 publishes that the group
        # processes within one subrun (generate_burst batches the
        # ingress member's sends): the agent parks 8 deliveries, and
        # only the pump's one cumulative ack per stream and batch can
        # release them.
        tier = build(deliver_window=4, config=UrcgcConfig(n=3, generate_burst=16))
        tier.connect(1)
        tier.connect(2)
        tier.subscribe(2, (b"t",))
        for i in range(12):
            assert tier.publish(1, (b"t",), b"m%d" % i)
        tier.run()
        parked = sum(
            int(metric)
            for family, name, _, metric in tier.registry.walk()
            if family == "counter" and name == "svc.deliver.parked"
        )
        assert parked > 0
        got = tier.sessions[2].delivered
        assert [d.deliver_seq for d in got] == list(range(1, 13))
        assert [d.payload for d in got] == [b"m%d" % i for i in range(12)]
        assert tier.settled()


class TestBridgedDelivery:
    def _two_shard_topics(self, tier, want=2):
        """Find topics spread over `want` distinct shards."""
        by_shard = {}
        i = 0
        while len(by_shard) < want:
            topic = b"probe-%d" % i
            by_shard.setdefault(tier.router.shard_for(topic), topic)
            i += 1
        return tuple(by_shard.values())

    def test_multi_shard_publish_goes_through_bridge(self):
        tier = build()
        tier.connect(1)
        tier.connect(2)
        topics = self._two_shard_topics(tier)
        tier.subscribe(2, topics)
        tier.publish(1, topics, b"wide")
        tier.run()
        assert len(tier.bridge.stamped) == 1
        # Subscriber sees the publish once per shard stream it spans.
        got = {(d.shard, d.payload) for d in tier.sessions[2].delivered}
        assert len(got) == 2
        assert all(payload == b"wide" for _, payload in got)

    def test_bridged_traffic_passes_ordering_audit(self):
        tier = build(shards=3)
        for c in (1, 2, 3):
            tier.connect(c)
        topics = self._two_shard_topics(tier, want=3)
        tier.subscribe(3, topics)
        for i in range(6):
            tier.publish(1, topics[:2], b"a%d" % i)
            tier.publish(2, topics[1:], b"b%d" % i)
        tier.run()
        assert check_bridge_ordering(tier.bridge_logs()).ok

    def test_bridged_ack_waits_for_all_destinations(self):
        tier = build()
        session = tier.connect(1)
        topics = self._two_shard_topics(tier)
        tier.publish(1, topics, b"wide")
        tier.run()
        assert session.acked == 1
        assert not tier._multi_pending


class TestAudits:
    def test_shard_streams_satisfy_uniform_ordering(self):
        tier = build()
        tier.connect(1)
        tier.connect(2)
        tier.subscribe(2, (b"x", b"y"))
        for i in range(6):
            tier.publish(1, (b"x",), b"%d" % i)
            tier.publish(2, (b"y",), b"%d" % i)
        tier.run()
        for shard in range(tier.shards):
            assert check_uniform_ordering(tier.shard_streams(shard)).ok

    def test_refresh_health_all_up(self):
        tier = build()
        assert tier.refresh_health() == tuple(range(tier.shards))

    def test_settled_tracks_pending_work(self):
        tier = build()
        tier.connect(1)
        assert tier.settled()
        tier.publish(1, (b"t",), b"x")
        assert not tier.settled()
        tier.run()
        assert tier.settled()


class TestWirePath:
    def test_pdus_cross_real_codecs(self):
        tier = build()
        tier.connect(1)
        tier.connect(2)
        tier.subscribe(2, (b"t",))
        tier.publish(1, (b"t",), b"x")
        tier.run()
        assert tier.pdus_moved > 0

    def test_envelope_survives_group_transit(self):
        """What members process is the envelope byte format."""
        tier = build()
        tier.connect(1)
        tier.publish(1, (b"t",), b"payload")
        tier.run()
        shard = tier.router.shard_for(b"t")
        delivered = tier.shard_streams(shard)
        messages = next(iter(delivered.values()))
        envelopes = [Envelope.from_bytes(m.payload) for m in messages]
        assert envelopes and all(e is not None for e in envelopes)
        assert envelopes[0].payload == b"payload"
