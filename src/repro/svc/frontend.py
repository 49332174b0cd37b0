"""The server-side frontend: one URCGC member serving many clients.

Every member of every shard group runs a :class:`Frontend` wrapped
around its :class:`~repro.core.service.UrcgcService`.  A frontend
plays two roles:

* **Home** for the sessions hashed to it: it validates HELLOs and
  sequence-numbered publishes, enforces the per-session publish
  window, wraps accepted publishes into
  :class:`~repro.svc.envelope.Envelope` payloads for the tier to
  route, and emits cumulative publish-acks as the group processes
  them (contiguity tracked across shards, since one session's
  publishes may fan out to many).
* **Delivery agent** for the subscription streams assigned to it: on
  every causal indication whose envelope matches a stream's topics it
  emits a :class:`~repro.svc.wire.ClientDeliver`, flow-controlled by
  the per-stream delivery window (over-window deliveries park until
  the client's cumulative delivery ack).  A topic → streams index
  finds the matching streams, and the ``(topic, payload)`` body is
  encoded once per indication and matched topic, then joined to each
  recipient's small header.

Failover makes both roles transferable (PROTOCOL §14.7): the home
role re-opens at a successor via the *negotiated resume handshake* —
a frontend that has no record of a session adopts the client's acked
frontier (durable by construction: clients only ack what a frontend
reported group-processed) and answers with it, never the client's
claimed ``resume_seq`` — and the delivery role re-anchors via
epoch-tagged streams replayed from the member's processed-envelope
log.  Because failover can re-inject an envelope the group already
carried, every frontend dedupes indications by publish identity: the
group may process a copy twice, the fan-out never does.

Frontends are sans-IO like the engine underneath: outbound PDUs
accumulate, already encoded, in :attr:`Frontend.outbox` for the driver
(the sharded tier, a test, a socket loop) to carry.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..core.message import UserMessage
from ..core.service import UrcgcService
from ..errors import FlowControlBlocked, ProtocolError
from ..net.wire import global_registry
from ..obs import Counter, Registry
from .envelope import Envelope
from .wire import (
    ACK_DELIVER,
    ACK_PUBLISH,
    ClientAck,
    ClientHello,
    ClientPublish,
    deliver_body,
    deliver_frame,
)

__all__ = ["HomeSession", "DeliveryStream", "Frontend"]


class HomeSession:
    """Server-side state of one session homed at this frontend."""

    __slots__ = ("client_id", "credit", "last_seq", "acked", "processed")

    def __init__(self, client_id: int, credit: int, frontier: int) -> None:
        self.client_id = client_id
        self.credit = credit
        #: Highest publish sequence accepted (contiguous).
        self.last_seq = frontier
        #: Highest cumulative ack sent to the client.
        self.acked = frontier
        #: Processed-but-not-yet-contiguous publish seqs (multi-shard
        #: fan-out completes out of seq order).
        self.processed: set[int] = set()

    @property
    def outstanding(self) -> int:
        return self.last_seq - self.acked


class DeliveryStream:
    """One (session, shard) fan-out stream handled by this frontend."""

    __slots__ = ("client_id", "topics", "deliver_seq", "acked", "window", "parked", "epoch")

    def __init__(
        self, client_id: int, topics: set[bytes], window: int, epoch: int = 0
    ) -> None:
        self.client_id = client_id
        self.topics = topics
        #: Last delivery sequence emitted.
        self.deliver_seq = 0
        #: Last delivery sequence the client cumulatively acked.
        self.acked = 0
        self.window = window
        #: Deliveries withheld while the window is full, with their
        #: encoded :func:`~repro.svc.wire.deliver_body`.
        self.parked: deque[tuple[Envelope, bytes]] = deque()
        #: Stream generation; bumps when the stream re-anchors here.
        self.epoch = epoch

    @property
    def unacked(self) -> int:
        return self.deliver_seq - self.acked


class Frontend:
    """Client tier of one URCGC member (see module docstring)."""

    def __init__(
        self,
        shard: int,
        member: int,
        service: UrcgcService,
        *,
        grant_credit: int = 32,
        deliver_window: int = 256,
        registry: Registry | None = None,
        clock: Callable[[], float] | None = None,
        on_processed: Callable[[Envelope, int], None] | None = None,
    ) -> None:
        self.shard = shard
        self.member = member
        self.service = service
        self.grant_credit = grant_credit
        self.deliver_window = deliver_window
        self._registry = registry
        self._clock = clock
        #: Tier hook fired once per envelope copy this frontend
        #: *injected*, when the local member processes it (= globally
        #: ordered in this shard); receives ``(envelope, shard)``.
        self._on_processed = on_processed
        self.homed: dict[int, HomeSession] = {}
        self.streams: dict[int, DeliveryStream] = {}
        #: Fan-out index: topic -> the streams holding it, by client id
        #: in subscription order.
        self._topic_streams: dict[bytes, dict[int, DeliveryStream]] = {}
        #: Outbound encoded PDUs for the driver: ``(client_id, bytes)``.
        self.outbox: list[tuple[int, bytes]] = []
        # Per-delivery counters, bound once (no per-call label sorting).
        if registry is not None:
            self._delivered = registry.counter("svc.deliver", shard=shard)
            self._parked = registry.counter("svc.deliver.parked", shard=shard)
        else:
            self._delivered = Counter()
            self._parked = Counter()
        #: Envelopes this frontend injected and still awaits, by
        #: publish identity, in injection order (= stamp order for
        #: bridged traffic) — the salvage set if this member dies.
        self._pending: dict[tuple[int, int], tuple[float, Envelope]] = {}
        #: Publish identities already processed at this member (the
        #: fan-out dedupe against failover re-injection).
        self.seen: set[tuple[int, int]] = set()
        #: Unique envelopes in processing order — replayed into
        #: re-anchored streams on stream failover.
        self.processed_log: list[Envelope] = []
        #: Bridged envelopes processed here, in processing order — the
        #: cross-shard ordering checker's input.
        self.bridge_log: list[Envelope] = []
        service.add_indication_handler(self._on_indication)

    # ------------------------------------------------------------------
    # home role: hello / publish / ack
    # ------------------------------------------------------------------

    def on_hello(self, hello: ClientHello) -> ClientAck:
        """Open or resume a session; returns the hello-ack.

        The negotiated resume handshake: the client's ``resume_seq``
        (its sent frontier) is *never* adopted.  For a session this
        frontend has no record of, the acked frontier the client
        presents is adopted instead — a client only acks what some
        frontend reported group-processed, so everything past it is
        legitimately in doubt and gets replayed.  Either way the ack's
        ``resume_seq`` answers with the frontier this frontend
        accepts, and the client replays the difference.
        """
        existing = self.homed.get(hello.client_id)
        if existing is None:
            session = HomeSession(
                hello.client_id,
                min(hello.credit, self.grant_credit),
                hello.acked_seq,
            )
            self.homed[hello.client_id] = session
            self._count("svc.sessions.opened")
        else:
            if hello.resume_seq < existing.last_seq:
                raise ProtocolError(
                    f"c{hello.client_id} resumes at {hello.resume_seq} but "
                    f"{existing.last_seq} publishes were already accepted "
                    "(client lost state it cannot replay)"
                )
            if hello.acked_seq > existing.acked:
                raise ProtocolError(
                    f"c{hello.client_id} claims acked {hello.acked_seq} beyond "
                    f"granted {existing.acked}"
                )
            session = existing
        return ClientAck(
            ACK_PUBLISH,
            session.client_id,
            0,
            session.acked,
            session.credit,
            resume_seq=session.last_seq,
        )

    def on_publish(self, pub: ClientPublish) -> Envelope:
        """Validate one publish; returns the envelope for the tier to
        route.  Raises on unknown sessions, sequence gaps/duplicates
        and window overruns (a correct client never sends these)."""
        session = self.homed.get(pub.client_id)
        if session is None:
            raise ProtocolError(f"publish from unknown session c{pub.client_id}")
        if pub.client_seq != session.last_seq + 1:
            raise ProtocolError(
                f"c{pub.client_id} publish seq {pub.client_seq}, expected "
                f"{session.last_seq + 1}"
            )
        if session.outstanding >= session.credit:
            raise FlowControlBlocked(
                f"c{pub.client_id} exceeded its window: "
                f"{session.outstanding}/{session.credit} outstanding"
            )
        session.last_seq = pub.client_seq
        self._count("svc.publish", shard=self.shard)
        return Envelope(pub.client_id, pub.client_seq, pub.topics, pub.payload)

    def inject(self, envelope: Envelope) -> None:
        """Submit a routed envelope to this member's group (fan-in).

        The frontend remembers the envelope; when it comes back as a
        causal indication the publish counts as processed in this
        shard and the origin's home frontend acks it (via the tier's
        ``on_processed`` hook).  If this member dies first, the
        retained envelopes are the tier's salvage set.
        """
        self._pending[envelope.msg_id] = (self._now(), envelope)
        self.service.data_rq(envelope.to_bytes())
        self._count("svc.injected", shard=self.shard)

    def doubted(self) -> list[Envelope]:
        """Injected-but-unresolved envelopes, in injection order."""
        return [envelope for _, envelope in self._pending.values()]

    def forget_pending(self) -> None:
        """Drop the pending set (the tier salvaged it elsewhere)."""
        self._pending.clear()

    def on_processed_elsewhere(self, envelope: Envelope) -> None:
        """Tier relay: one of this home's publishes was processed in
        every destination shard; advance the cumulative ack frontier.
        Idempotent — failover replay can re-announce old publishes."""
        session = self.homed.get(envelope.origin)
        if session is None or envelope.origin_seq <= session.acked:
            return
        session.processed.add(envelope.origin_seq)
        advanced = False
        while session.acked + 1 in session.processed:
            session.processed.remove(session.acked + 1)
            session.acked += 1
            advanced = True
        if advanced:
            ack = ClientAck(
                ACK_PUBLISH,
                session.client_id,
                0,
                session.acked,
                session.credit,
                resume_seq=session.last_seq,
            )
            self.outbox.append((session.client_id, global_registry.encode(ack)))

    # ------------------------------------------------------------------
    # delivery role: subscriptions / fan-out / delivery acks
    # ------------------------------------------------------------------

    def subscribe(
        self,
        client_id: int,
        topics: set[bytes],
        *,
        window: int | None = None,
        epoch: int = 0,
        replay: bool = False,
    ) -> None:
        """Attach (or widen) the client's delivery stream on this shard.

        With ``replay=True`` the stream re-anchors here at generation
        ``epoch``: a fresh stream is built and the member's whole
        processed-envelope log is replayed through it (window rules
        included), so nothing a dead predecessor delivered — or was
        about to deliver — is lost.  The client's per-shard dedupe
        drops what it already has; gap-freedom comes from replaying
        from the start of the log (PROTOCOL §14.7 documents the
        stable-subscription assumption this rests on).
        """
        stream = self.streams.get(client_id)
        if stream is None or replay:
            if stream is not None:
                self._unindex(client_id, stream.topics - topics)
            stream = DeliveryStream(
                client_id, set(topics), window or self.deliver_window, epoch
            )
            self.streams[client_id] = stream
            self._index(stream, stream.topics)
            self._count("svc.streams.opened", shard=self.shard)
            if replay:
                self._count("svc.streams.reanchored", shard=self.shard)
                for envelope in self.processed_log:
                    matched = next(
                        (t for t in envelope.topics if t in stream.topics), None
                    )
                    if matched is not None:
                        self._fan_out(
                            stream, envelope, deliver_body(matched, envelope.payload)
                        )
        else:
            stream.topics |= topics
            self._index(stream, topics)
            if window is not None:
                stream.window = window

    def unsubscribe_topics(self, client_id: int, topics: set[bytes]) -> None:
        """Narrow a stream (topic handoff moved these topics away)."""
        stream = self.streams.get(client_id)
        if stream is not None:
            stream.topics -= topics
            self._unindex(client_id, topics)

    def _index(self, stream: DeliveryStream, topics: set[bytes]) -> None:
        for topic in topics:
            self._topic_streams.setdefault(topic, {})[stream.client_id] = stream

    def _unindex(self, client_id: int, topics: set[bytes]) -> None:
        for topic in topics:
            holders = self._topic_streams.get(topic)
            if holders is not None:
                holders.pop(client_id, None)
                if not holders:
                    del self._topic_streams[topic]

    def on_deliver_ack(self, ack: ClientAck) -> None:
        """Absorb a client's cumulative delivery ack; un-park fan-out.

        Acks from an older stream epoch (in flight when the stream
        re-anchored) are ignored rather than corrupting the new
        stream's window accounting.
        """
        if ack.kind != ACK_DELIVER:
            raise ProtocolError(f"frontend received ack kind {ack.kind}")
        stream = self.streams.get(ack.client_id)
        if stream is None:
            raise ProtocolError(f"delivery ack for unknown stream c{ack.client_id}")
        if ack.epoch != stream.epoch:
            if ack.epoch < stream.epoch:
                return  # straggler from a previous stream life
            raise ProtocolError(
                f"c{ack.client_id} delivery ack from future epoch {ack.epoch} "
                f"(stream at {stream.epoch})"
            )
        if ack.ack_seq > stream.deliver_seq:
            raise ProtocolError(
                f"c{ack.client_id} acked delivery {ack.ack_seq} beyond "
                f"emitted {stream.deliver_seq}"
            )
        stream.acked = max(stream.acked, ack.ack_seq)
        while stream.parked and stream.unacked < stream.window:
            envelope, body = stream.parked.popleft()
            self._emit_deliver(stream, envelope, body)

    # ------------------------------------------------------------------
    # the causal indication path
    # ------------------------------------------------------------------

    def _on_indication(self, message: UserMessage) -> None:
        envelope = Envelope.from_bytes(message.payload)
        if envelope is None:
            return
        entry = self._pending.pop(envelope.msg_id, None)
        if entry is not None:
            injected_at, _ = entry
            if self._registry is not None and self._clock is not None:
                name = "svc.bridge.latency" if envelope.bridged else "svc.publish.latency"
                self._registry.observe(
                    name, self._now() - injected_at, shard=self.shard
                )
            if self._on_processed is not None:
                self._on_processed(envelope, self.shard)
        if envelope.msg_id in self.seen:
            # A failover re-injection of a copy the group already
            # carried: the processing fact above still counts, the
            # fan-out must not repeat.
            self._count("svc.dedup", shard=self.shard)
            return
        self.seen.add(envelope.msg_id)
        self.processed_log.append(envelope)
        if envelope.bridged:
            self.bridge_log.append(envelope)
        # Each stream matches on the first of the envelope's topics it
        # holds: walking the topics in order and skipping streams an
        # earlier topic reached gives exactly that.
        reached: set[int] = set()
        for topic in envelope.topics:
            holders = self._topic_streams.get(topic)
            if not holders:
                continue
            body = deliver_body(topic, envelope.payload)
            for client_id, stream in holders.items():
                if client_id not in reached:
                    reached.add(client_id)
                    self._fan_out(stream, envelope, body)

    def _fan_out(self, stream: DeliveryStream, envelope: Envelope, body: bytes) -> None:
        if stream.unacked >= stream.window:
            stream.parked.append((envelope, body))
            self._parked.add()
        else:
            self._emit_deliver(stream, envelope, body)

    def _emit_deliver(self, stream: DeliveryStream, envelope: Envelope, body: bytes) -> None:
        stream.deliver_seq += 1
        self.outbox.append(
            (
                stream.client_id,
                deliver_frame(
                    body,
                    stream.client_id,
                    self.shard,
                    stream.deliver_seq,
                    envelope.origin,
                    envelope.origin_seq,
                    stream.epoch,
                ),
            )
        )
        self._delivered.add()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def drain_outbox(self) -> list[tuple[int, bytes]]:
        out, self.outbox = self.outbox, []
        return out

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def _count(self, name: str, **labels: object) -> None:
        if self._registry is not None:
            self._registry.count(name, **labels)
