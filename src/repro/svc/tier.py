"""The sharded service: one publish/subscribe surface over many groups.

:class:`ShardedService` is the tentpole assembly (PROTOCOL §14): it
owns ``S`` independent URCGC groups (one :class:`SimCluster` each), a
:class:`Frontend` per member, a consistent-hash
:class:`~repro.svc.router.ShardRouter`, and the cross-shard
:class:`~repro.svc.bridge.CausalBridge`.  Clients connect through it
and never learn any of this — they see ``connect`` / ``subscribe`` /
``publish`` and a stream of deliveries.

Routing invariants the tier maintains:

* A session homes at one frontend (hash of the client id) — the only
  place its publish sequence is validated and acked.
* A client's single-shard publishes enter each shard through one
  *sticky ingress member* — one origin chain per (client, shard), so
  URCGC's per-origin ordering preserves client publish order.
* Multi-shard publishes are stamped by the bridge and injected through
  every destination shard's *bridge agent* (the lowest live member) in
  stamp order — one origin chain for all bridged traffic per shard, so
  every member of every destination shard agrees with the bridge order.

Both fault paths preserve those invariants by *drain discipline*
(PROTOCOL §14.7–14.8): before any role moves — a dead frontend's
homes, streams, ingress chains, the bridge agency, or a topic's owning
shard — the tier first drains every in-flight envelope to a resolved
state (processed at the live members, or discarded by the orphan
rule).  Post-drain all live members of a shard agree on the processed
set, which is what makes count-free stream re-anchoring, chain
switching, and the salvage triage sound.

All client PDUs cross the tier through the real wire codecs
(:data:`repro.net.wire.global_registry`) — the simulated transport is
in-process, the bytes are not.
"""

from __future__ import annotations

from ..core.config import UrcgcConfig
from ..errors import ConfigError, ProtocolError
from ..harness.cluster import SimCluster
from ..net.wire import global_registry
from ..obs import Registry
from ..types import ProcessId, Time
from .bridge import CausalBridge
from .envelope import Envelope
from .frontend import Frontend
from .router import ShardRouter
from .session import ClientSession
from .wire import ACK_DELIVER, ACK_PUBLISH, ClientAck, ClientDeliver, ClientPublish

__all__ = ["ShardedService", "HANDOFF_ORIGIN"]

#: One subrun of simulated time (2 rounds x 0.5).
_SUBRUN = 1.0

#: Reserved envelope origin of topic-handoff markers: the bridged
#: fence a rebalance pushes through both shards of every move, so the
#: handoff itself is ordered in the cross-shard bridge logs (and
#: audited by ``check_bridge_ordering``).  No client can own it.
HANDOFF_ORIGIN = 0xFFFF_FFFF_FFFF_FFFF


class ShardedService:
    """``S`` URCGC groups behind one client-facing API.

    Parameters
    ----------
    shards, members:
        Topology: ``shards`` independent groups of ``members`` each.
    config:
        Per-shard group configuration (``n`` must equal ``members``);
        defaults to a plain ``UrcgcConfig(n=members)``.
    seed:
        Base determinism seed; shard ``s`` runs under ``seed + s``.
    registry:
        Service-tier metric surface (client/session/delivery counters,
        latency histograms).  Defaults to a fresh :class:`Registry`.
    grant_credit, deliver_window:
        Frontend flow-control defaults (see :class:`Frontend`).
    max_rounds:
        Per-shard round budget — generous, serve runs are long.
    """

    def __init__(
        self,
        shards: int,
        members: int = 3,
        *,
        config: UrcgcConfig | None = None,
        seed: int = 0,
        replicas: int = 64,
        registry: Registry | None = None,
        grant_credit: int = 32,
        deliver_window: int = 256,
        max_rounds: int = 20_000,
    ) -> None:
        if config is None:
            config = UrcgcConfig(n=members)
        if config.n != members:
            raise ConfigError(
                f"config.n={config.n} does not match members={members}"
            )
        self.shards = shards
        self.members = members
        self.config = config
        self.registry = registry if registry is not None else Registry()
        self.router = ShardRouter(shards, replicas=replicas)
        self.bridge = CausalBridge(shards)
        self._seed = seed
        self._grant_credit = grant_credit
        self._deliver_window = deliver_window
        self._max_rounds = max_rounds
        self.clusters: list[SimCluster] = []
        self.frontends: list[list[Frontend]] = []
        for shard in range(shards):
            self._build_shard(shard)
        self.sessions: dict[int, ClientSession] = {}
        #: Home frontend of each connected session.
        self._home: dict[int, tuple[int, int]] = {}
        #: Delivery-agent member per (client, shard) stream.
        self._stream_member: dict[tuple[int, int], int] = {}
        #: Topics each (client, shard) stream carries (the tier-side
        #: record that survives frontend death and feeds handoff).
        self._subscriptions: dict[tuple[int, int], set[bytes]] = {}
        #: Subscribers per topic (the handoff work list).
        self._topic_subs: dict[bytes, set[int]] = {}
        #: Bridged publishes awaiting processing, by destination shard
        #: still outstanding (idempotent per shard, so a salvaged
        #: re-injection and its original copy cannot double-count).
        self._multi_pending: dict[tuple[int, int], set[int]] = {}
        #: Frontends killed by :meth:`fail_frontend`.
        self._dead: set[tuple[int, int]] = set()
        #: Client PDUs lost at dead frontends (failover replays them).
        self.dropped_pdus = 0
        #: Failovers and topic handoffs performed (audit evidence).
        self.failovers = 0
        self.moved_topics = 0
        self._handoff_seq = 0
        #: Client PDUs shuttled through the wire codecs, both ways.
        self.pdus_moved = 0
        self._horizon: Time = Time(0.0)
        self.registry.set_gauge("svc.shards", shards)
        self.registry.set_gauge("svc.members_per_shard", members)

    def _build_shard(self, shard: int) -> None:
        cluster = SimCluster(
            self.config, seed=self._seed + shard, max_rounds=self._max_rounds
        )
        row = [
            Frontend(
                shard,
                member,
                cluster.services[member],
                grant_credit=self._grant_credit,
                deliver_window=self._deliver_window,
                registry=self.registry,
                clock=lambda shard=shard: float(self.clusters[shard].now),
                on_processed=self._on_processed,
            )
            for member in range(self.members)
        ]
        self.clusters.append(cluster)
        self.frontends.append(row)

    # ------------------------------------------------------------------
    # liveness bookkeeping
    # ------------------------------------------------------------------

    def live_members(self, shard: int) -> list[int]:
        """Members of ``shard`` whose frontends are still alive."""
        return [
            m for m in range(self.members) if (shard, m) not in self._dead
        ]

    def _bridge_agent(self, shard: int) -> int:
        """The shard's bridged-traffic injector: lowest live member."""
        live = self.live_members(shard)
        if not live:
            raise ProtocolError(f"shard {shard} has no live frontend")
        return live[0]

    def _ingress_member(self, client_id: int, shard: int) -> int:
        return self.router.ingress_member(
            client_id, self.members, alive=self.live_members(shard)
        )

    def _live_frontends(self):
        for shard, row in enumerate(self.frontends):
            for member, frontend in enumerate(row):
                if (shard, member) not in self._dead:
                    yield frontend

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------

    def connect(self, client_id: int, *, credit: int = 32) -> ClientSession:
        """Open a session: HELLO to the home frontend, absorb its ack."""
        if client_id in self.sessions:
            raise ProtocolError(f"c{client_id} is already connected")
        if client_id == HANDOFF_ORIGIN:
            raise ProtocolError("client id reserved for handoff markers")
        session = ClientSession(client_id, credit=credit)
        shard, member = self.router.home_for(client_id, self.members)
        if (shard, member) in self._dead:
            member = self.router.successor_member(
                client_id, tuple(self.live_members(shard))
            )
        self._home[client_id] = (shard, member)
        self.sessions[client_id] = session
        frontend = self.frontends[shard][member]
        hello = self._wire(session.hello())
        ack = self._wire(frontend.on_hello(hello))
        session.on_ack(ack)
        self.registry.set_gauge("svc.sessions.active", len(self.sessions))
        return session

    def reconnect(self, client_id: int) -> None:
        """Voluntarily re-HELLO at the current home (same negotiated
        resume handshake as failover; replays anything unacked)."""
        session = self._session(client_id)
        shard, member = self._home[client_id]
        if (shard, member) in self._dead:
            raise ProtocolError(
                f"c{client_id}'s home is dead; use fail_frontend-driven failover"
            )
        frontend = self.frontends[shard][member]
        hello = self._wire(session.hello())
        ack = self._wire(frontend.on_hello(hello))
        for pub in session.on_ack(ack):
            self._replay_ingress(self._wire(pub))

    def subscribe(self, client_id: int, topics: tuple[bytes, ...]) -> tuple[int, ...]:
        """Subscribe the session to ``topics``; returns the shards its
        delivery streams now span."""
        session = self._session(client_id)
        by_shard: dict[int, set[bytes]] = {}
        for topic in topics:
            by_shard.setdefault(self.router.shard_for(topic), set()).add(topic)
        for shard, shard_topics in by_shard.items():
            member = self._stream_member.setdefault(
                (client_id, shard), self._ingress_member(client_id, shard)
            )
            self._subscriptions.setdefault((client_id, shard), set()).update(
                shard_topics
            )
            for topic in shard_topics:
                self._topic_subs.setdefault(topic, set()).add(client_id)
            # A fresh stream must open at the session's current epoch
            # for this shard (nonzero if an earlier stream here was
            # re-anchored away and back); widening ignores it.
            self.frontends[shard][member].subscribe(
                client_id, shard_topics, epoch=session.stream_epoch(shard)
            )
        return tuple(sorted(by_shard))

    def publish(self, client_id: int, topics: tuple[bytes, ...], payload: bytes = b"") -> bool:
        """Publish on behalf of a session.

        Returns True when the publish entered the group tier now, False
        when the session queued it behind its window (a later ack
        releases and routes it automatically).
        """
        session = self._session(client_id)
        pdu = session.publish(topics, payload)
        if pdu is None:
            return False
        self._ingress(self._wire(pdu))
        return True

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _ingress(self, pub: ClientPublish) -> None:
        """Home-validate one publish and inject it into its shards."""
        shard, member = self._home[pub.client_id]
        if (shard, member) in self._dead:
            # The PDU raced the crash: lost on the wire.  The client
            # retains it unacked; failover replays it at the successor.
            self.dropped_pdus += 1
            return
        envelope = self.frontends[shard][member].on_publish(pub)
        dests = self.router.shards_for(envelope.topics)
        if len(dests) == 1:
            ingress = self._ingress_member(pub.client_id, dests[0])
            self.frontends[dests[0]][ingress].inject(envelope)
            return
        # Multi-shard: bridge-stamp, then inject through every
        # destination's bridge agent.  Stamping and injecting
        # atomically here IS the stamp-order injection rule: each
        # shard's bridged chain grows in stamp order.
        stamp = self.bridge.stamp(dests)
        bridged = envelope.with_bridge(stamp, dests)
        self._multi_pending[bridged.msg_id] = set(dests)
        for dest in dests:
            self.frontends[dest][self._bridge_agent(dest)].inject(bridged)
        self.registry.count("svc.bridge.stamped")

    def _on_processed(self, envelope: Envelope, shard: int) -> None:
        """A frontend saw one of its injected envelope copies processed
        in ``shard``.

        Bridged envelopes ack only once *every* destination shard has
        processed a copy (publish-level uniformity for the client);
        the per-shard set makes duplicate copies — an original and its
        salvaged re-injection — count once.
        """
        if envelope.bridged:
            awaiting = self._multi_pending.get(envelope.msg_id)
            if awaiting is not None:
                awaiting.discard(shard)
                if awaiting:
                    return
                del self._multi_pending[envelope.msg_id]
        home = self._home.get(envelope.origin)
        if home is None or home in self._dead:
            # A handoff marker (no home), or the ack raced the home's
            # death — the failover replay re-derives it from the
            # shards' processed state.
            return
        self.frontends[home[0]][home[1]].on_processed_elsewhere(envelope)

    # ------------------------------------------------------------------
    # the shuttle: frontends <-> sessions over real wire bytes
    # ------------------------------------------------------------------

    def pump(self) -> int:
        """Shuttle pending client PDUs until none remain.

        Frontends hand over encoded PDUs; every one is decoded through
        the global wire registry, as a socket client would, and the
        client's replies are encoded and decoded again on the way
        back.  Each drained outbox batch earns one cumulative delivery
        ack per (client, shard) stream it touched — sound because acks
        are cumulative and parking is decided when a delivery is
        emitted.  Returns the number of PDUs moved.
        """
        moved = 0
        progress = True
        while progress:
            progress = False
            for frontend in list(self._live_frontends()):
                batch = frontend.drain_outbox()
                if not batch:
                    continue
                progress = True
                moved += len(batch)
                # Streams that got a delivery, in first-delivery order.
                touched: dict[tuple[int, int], None] = {}
                for client_id, data in batch:
                    self._to_client(client_id, global_registry.decode(data), touched)
                for client_id, shard in touched:
                    self._ack_stream(client_id, shard)
        self.pdus_moved += moved
        return moved

    def _to_client(
        self, client_id: int, pdu: object, touched: dict[tuple[int, int], None]
    ) -> None:
        session = self.sessions.get(client_id)
        if session is None:
            return  # session closed while deliveries were in flight
        if isinstance(pdu, ClientDeliver):
            session.on_deliver(pdu)
            touched[(client_id, pdu.shard)] = None
        elif isinstance(pdu, ClientAck) and pdu.kind == ACK_PUBLISH:
            for released in session.on_ack(pdu):
                self._ingress(self._wire(released))
        elif isinstance(pdu, ClientAck) and pdu.kind == ACK_DELIVER:
            raise ProtocolError("delivery ack addressed to a client")
        else:
            raise ProtocolError(f"unroutable client PDU {pdu!r}")

    def _ack_stream(self, client_id: int, shard: int) -> None:
        """Send a session's cumulative delivery ack for one stream to
        the stream's delivery agent (lost if the agent died)."""
        member = self._stream_member[(client_id, shard)]
        if (shard, member) not in self._dead:
            ack = self._wire(self.sessions[client_id].ack_delivers(shard))
            self.frontends[shard][member].on_deliver_ack(ack)

    def _wire(self, pdu: object) -> object:
        """One wire round-trip (encode + decode) through the registry."""
        return global_registry.decode(global_registry.encode(pdu))

    # ------------------------------------------------------------------
    # failover (PROTOCOL §14.7)
    # ------------------------------------------------------------------

    def fail_frontend(self, shard: int, member: int) -> None:
        """Kill one frontend's member and fail all its duties over.

        The sequence is the drain discipline end to end:

        1. Crash the member (mid-run, via the shard's fault plan) and
           discard the dead frontend's outbox — those PDUs are lost on
           the wire, like a real crash loses them.
        2. Drain: every envelope injected anywhere before the crash
           resolves group-wide — processed at the live members, or
           discarded by the orphan rule (the victim's unbroadcast
           chain suffix).
        3. Salvage the victim's doubted envelopes in injection order:
           a copy the live members processed completes its ack path;
           a lost copy is re-injected through the successor chain
           (bridged copies keep their original stamp, and losses are a
           stamp-suffix of the dead agent's chain, so per-shard stamp
           monotonicity survives).
        4. Re-home the victim's sessions at a live successor via the
           negotiated resume handshake, replaying unacked publishes
           (with a triage that never double-injects what the group
           already carries).
        5. Re-anchor the victim's delivery streams at a successor with
           a bumped epoch and a full history replay; the clients'
           per-shard dedupe keeps the streams duplicate-free.
        """
        if (shard, member) in self._dead:
            raise ProtocolError(f"frontend s{shard}/m{member} is already dead")
        live = self.live_members(shard)
        if (len(live) - 1) * 2 <= self.members:
            raise ProtocolError(
                f"killing s{shard}/m{member} would cost shard {shard} its majority"
            )
        victim = self.frontends[shard][member]
        self.clusters[shard].crash(ProcessId(member))
        self._dead.add((shard, member))
        self.failovers += 1
        victim.drain_outbox()  # lost with the crash
        self.registry.count("svc.failover", shard=shard)
        self.drain()
        doubted = victim.doubted()
        victim.forget_pending()
        for envelope in doubted:
            self._salvage(shard, envelope)
        for client_id, home in list(self._home.items()):
            if home == (shard, member):
                self._failover_session(client_id, shard)
        for (client_id, stream_shard), agent in list(self._stream_member.items()):
            if stream_shard == shard and agent == member:
                self._reattach_stream(client_id, shard)

    def _salvage(self, shard: int, envelope: Envelope) -> None:
        """Resolve one doubted envelope of a dead injector (post-drain)."""
        if self._seen_in_shard(shard, envelope.msg_id):
            # Processed before the crash — only the ack path died with
            # the injector.  Complete it.
            self._on_processed(envelope, shard)
            return
        self.registry.count("svc.salvage.reinjected", shard=shard)
        if envelope.bridged:
            target = self._bridge_agent(shard)
        else:
            target = self._ingress_member(envelope.origin, shard)
        self.frontends[shard][target].inject(envelope)

    def _failover_session(self, client_id: int, shard: int) -> None:
        """Re-home one stranded session: negotiated re-HELLO + replay."""
        successor = self.router.successor_member(
            client_id, tuple(self.live_members(shard))
        )
        self._home[client_id] = (shard, successor)
        session = self.sessions[client_id]
        frontend = self.frontends[shard][successor]
        hello = self._wire(session.hello())
        ack = self._wire(frontend.on_hello(hello))
        for pub in session.on_ack(ack):
            self._replay_ingress(self._wire(pub))

    def _replay_ingress(self, pub: ClientPublish) -> None:
        """Route one replayed publish without duplicating group work.

        The new home re-validates and re-wraps it (keeping the
        contiguity chain), then a triage decides per destination:
        already tracked in flight — leave it; processed somewhere in
        the shard — count it (uniform atomicity completes it
        everywhere); pending at a live injector — its notification is
        coming; truly absent — inject.
        """
        shard, member = self._home[pub.client_id]
        envelope = self.frontends[shard][member].on_publish(pub)
        msg_id = envelope.msg_id
        if msg_id in self._multi_pending:
            return  # in flight and tracked; acks will reach the new home
        dests = self.router.shards_for(envelope.topics)
        missing = [d for d in dests if not self._seen_in_shard(d, msg_id)]
        if not missing:
            self.frontends[shard][member].on_processed_elsewhere(envelope)
            return
        if len(dests) == 1:
            dest = dests[0]
            if not self._inflight_in_shard(dest, msg_id):
                self.frontends[dest][self._ingress_member(pub.client_id, dest)].inject(
                    envelope
                )
            return
        self._multi_pending[msg_id] = set(missing)
        to_inject = [d for d in missing if not self._inflight_in_shard(d, msg_id)]
        if to_inject:
            stamp = self.bridge.stamp(dests)
            bridged = envelope.with_bridge(stamp, dests)
            for dest in to_inject:
                self.frontends[dest][self._bridge_agent(dest)].inject(bridged)

    def _reattach_stream(self, client_id: int, shard: int) -> None:
        """Move one delivery stream to a live successor (new epoch,
        full-history replay, client-side dedupe)."""
        topics = self._subscriptions.get((client_id, shard))
        if not topics:
            self._stream_member.pop((client_id, shard), None)
            return
        successor = self.router.successor_member(
            client_id, tuple(self.live_members(shard))
        )
        self._stream_member[(client_id, shard)] = successor
        session = self.sessions[client_id]
        epoch = session.reanchor(shard)
        self.frontends[shard][successor].subscribe(
            client_id, set(topics), epoch=epoch, replay=True
        )

    def _seen_in_shard(self, shard: int, msg_id: tuple[int, int]) -> bool:
        """Was this publish processed by any live member of ``shard``?
        (Processed anywhere ⇒ uniform atomicity completes it at every
        live member; post-drain they already agree.)"""
        return any(
            msg_id in self.frontends[shard][m].seen
            for m in self.live_members(shard)
        )

    def _inflight_in_shard(self, shard: int, msg_id: tuple[int, int]) -> bool:
        """Is a copy still pending at a live injector of ``shard``?"""
        return any(
            msg_id in self.frontends[shard][m]._pending
            for m in self.live_members(shard)
        )

    # ------------------------------------------------------------------
    # rebalancing: ring changes + topic handoff (PROTOCOL §14.8)
    # ------------------------------------------------------------------

    def add_shard(self) -> int:
        """Grow the ring by one shard and hand its topics over.

        Builds the new group + frontends, extends the bridge's clock
        vector, and migrates the ~1/S of the subscribed topic space
        whose ownership moved.  Returns the new shard's index.
        """
        self.drain()
        before = self.router.assignment(self._topic_subs)
        shard = self.router.add_shard()
        self.bridge.grow()
        self._build_shard(shard)
        self.shards += 1
        self.registry.set_gauge("svc.shards", self.shards)
        after = self.router.assignment(before)
        self._migrate(self.router.ownership_delta(before, after))
        return shard

    def remove_shard(self, shard: int) -> None:
        """Retire a shard from the ring and hand its topics over.

        The group itself keeps running (it must: it still drains its
        residual traffic and serves as a bridge destination for the
        handoff fences), but no topic routes to it afterwards.
        """
        self.drain()
        before = self.router.assignment(self._topic_subs)
        self.router.remove_shard(shard)
        after = self.router.assignment(before)
        self._migrate(self.router.ownership_delta(before, after))

    def _migrate(self, moves: dict[bytes, tuple[int, int]]) -> None:
        """Execute one ownership delta: fences first, then the moves.

        The tier is already drained (callers guarantee it), so no
        envelope naming a moving topic is in flight.  A bridged
        *handoff marker* then crosses each (old, new) pair through the
        causal bridge: it anchors the handoff in both shards' bridge
        logs — every bridged message before it belongs to the old
        ownership, everything after to the new — which is what
        ``check_bridge_ordering`` audits across the move.  Finally the
        subscriptions move (a widened or fresh stream on the new
        shard; no replay — pre-move history was delivered from the old
        shard) and the fences drain.
        """
        if not moves:
            return
        pairs = sorted({(old, new) for old, new in moves.values() if old != new})
        for old, new in pairs:
            self._handoff_seq += 1
            dests = tuple(sorted((old, new)))
            marker = Envelope(HANDOFF_ORIGIN, self._handoff_seq, (), b"handoff")
            stamp = self.bridge.stamp(dests)
            bridged = marker.with_bridge(stamp, dests)
            self._multi_pending[bridged.msg_id] = set(dests)
            for dest in dests:
                self.frontends[dest][self._bridge_agent(dest)].inject(bridged)
            self.registry.count("svc.handoff.fences")
        for topic, (old, new) in sorted(moves.items()):
            if old == new:
                continue
            for client_id in sorted(self._topic_subs.get(topic, ())):
                self._move_subscription(client_id, topic, old, new)
            self.moved_topics += 1
            self.registry.count("svc.handoff.topics")
        self.drain()

    def _move_subscription(self, client_id: int, topic: bytes, old: int, new: int) -> None:
        old_key = (client_id, old)
        topics = self._subscriptions.get(old_key)
        if topics is None or topic not in topics:
            return
        topics.discard(topic)
        old_member = self._stream_member.get(old_key)
        if old_member is not None and (old, old_member) not in self._dead:
            self.frontends[old][old_member].unsubscribe_topics(client_id, {topic})
        if not topics:
            del self._subscriptions[old_key]
        new_key = (client_id, new)
        self._subscriptions.setdefault(new_key, set()).add(topic)
        agent = self._stream_member.get(new_key)
        if agent is None:
            agent = self._ingress_member(client_id, new)
            self._stream_member[new_key] = agent
            session = self.sessions[client_id]
            self.frontends[new][agent].subscribe(
                client_id, {topic}, epoch=session.stream_epoch(new)
            )
        else:
            self.frontends[new][agent].subscribe(client_id, {topic})

    # ------------------------------------------------------------------
    # driving the simulations
    # ------------------------------------------------------------------

    def step(self, dt: float = _SUBRUN) -> int:
        """Advance every shard's simulation by ``dt`` and shuttle PDUs."""
        self._horizon = Time(float(self._horizon) + dt)
        for cluster in self.clusters:
            cluster.resume_rounds()
            cluster.kernel.run(until=self._horizon)
        return self.pump()

    def drain(self, *, max_steps: int = 4_000) -> None:
        """Advance until no envelope is in flight at any live frontend
        and every group is quiescent — the fault paths' fence.

        Unlike :meth:`run` this does not wait for client-side
        settlement (sessions stranded at a dead frontend cannot settle
        until failover completes, and failover needs this drain
        first).
        """
        for _ in range(max_steps):
            if not any(f._pending for f in self._live_frontends()) and all(
                c.quiescent() for c in self.clusters
            ):
                return
            self.step()
        raise ProtocolError(f"service tier did not drain in {max_steps} subruns")

    def settled(self) -> bool:
        """No client-tier work in flight anywhere."""
        if self._multi_pending:
            return False
        for frontend in self._live_frontends():
            if frontend._pending:
                return False
            if any(stream.parked for stream in frontend.streams.values()):
                return False
        return all(
            s.outstanding == 0 and s.queued == 0 for s in self.sessions.values()
        )

    def run(self, *, max_steps: int = 10_000, drain_subruns: int = 2) -> None:
        """Drive all shards until the client tier settles, then drain.

        Raises :class:`ProtocolError` if the tier cannot settle within
        ``max_steps`` subruns (wedged flow control, exhausted round
        budget).
        """
        for _ in range(max_steps):
            if self.settled() and all(c.quiescent() for c in self.clusters):
                break
            self.step()
        else:
            raise ProtocolError(f"service tier did not settle in {max_steps} subruns")
        for cluster in self.clusters:
            cluster.run_until_quiescent(drain_subruns=drain_subruns)
        self.pump()

    def refresh_health(self) -> tuple[int, ...]:
        """Fold every shard's failure-detector state into the router.

        A shard's ``suspected`` set is the union of what its live
        members' detectors report (:mod:`repro.detect`) plus members
        already crashed/left; the router drops shards without a live
        majority.  Returns the currently healthy shards.
        """
        for shard, cluster in enumerate(self.clusters):
            active = set(cluster.active_pids())
            down: set[ProcessId] = {
                ProcessId(i) for i in range(self.members) if ProcessId(i) not in active
            }
            for pid in active:
                detector = cluster.members[pid].detector
                if detector.tracks_suspicion:
                    down |= set(detector.suspects())
            self.router.observe_health(
                shard, members=self.members, suspected=len(down)
            )
            self.registry.set_gauge(
                "svc.shard.healthy", 1.0 if self.router.is_healthy(shard) else 0.0,
                shard=shard,
            )
        return self.router.healthy_shards()

    # ------------------------------------------------------------------
    # auditing
    # ------------------------------------------------------------------

    def shard_streams(self, shard: int) -> dict[ProcessId, list]:
        """Per-member processed streams of one shard (checker input)."""
        cluster = self.clusters[shard]
        return {
            pid: cluster.services[pid].delivered for pid in cluster.active_pids()
        }

    def bridge_logs(self) -> dict[int, dict[ProcessId, list[tuple[tuple[int, int], int, tuple[int, ...]]]]]:
        """Bridged-traffic logs, ``shard -> member -> [(msg_id, stamp,
        dests)]`` — the input of ``check_bridge_ordering``."""
        logs: dict[int, dict[ProcessId, list[tuple[tuple[int, int], int, tuple[int, ...]]]]] = {}
        for shard, cluster in enumerate(self.clusters):
            logs[shard] = {
                pid: [
                    (env.msg_id, env.stamp, env.dests)
                    for env in self.frontends[shard][pid].bridge_log
                ]
                for pid in cluster.active_pids()
            }
        return logs

    def _session(self, client_id: int) -> ClientSession:
        session = self.sessions.get(client_id)
        if session is None:
            raise ProtocolError(f"c{client_id} is not connected")
        return session
