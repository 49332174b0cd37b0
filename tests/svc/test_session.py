"""Client session state machine: lifecycle, windows, stream cursors."""

import pytest

from repro.errors import FlowControlBlocked, ProtocolError
from repro.svc.session import ClientSession, SessionState
from repro.svc.wire import ACK_DELIVER, ACK_PUBLISH, ClientAck, ClientDeliver


def active_session(client_id=7, credit=4):
    session = ClientSession(client_id, credit=credit)
    hello = session.hello()
    session.on_ack(ClientAck(ACK_PUBLISH, client_id, 0, hello.resume_seq, credit))
    assert session.state is SessionState.ACTIVE
    return session


class TestLifecycle:
    def test_hello_moves_to_connecting(self):
        session = ClientSession(1)
        hello = session.hello()
        assert session.state is SessionState.CONNECTING
        assert hello.client_id == 1
        assert hello.resume_seq == 0

    def test_hello_twice_rejected(self):
        session = ClientSession(1)
        session.hello()
        with pytest.raises(ProtocolError):
            session.hello()

    def test_publish_before_active_rejected(self):
        session = ClientSession(1)
        with pytest.raises(ProtocolError):
            session.publish((b"t",), b"x")

    def test_first_ack_activates(self):
        session = ClientSession(1)
        session.hello()
        session.on_ack(ClientAck(ACK_PUBLISH, 1, 0, 0, 8))
        assert session.state is SessionState.ACTIVE
        assert session.window == 8

    def test_close(self):
        session = active_session()
        session.close()
        assert session.state is SessionState.CLOSED


class TestPublishWindow:
    def test_sequences_are_contiguous(self):
        session = active_session()
        pubs = [session.publish((b"t",), b"%d" % i) for i in range(3)]
        assert [p.client_seq for p in pubs] == [1, 2, 3]

    def test_window_full_queues(self):
        session = active_session(credit=2)
        assert session.publish((b"t",), b"1") is not None
        assert session.publish((b"t",), b"2") is not None
        assert session.publish((b"t",), b"3") is None  # queued
        assert session.queued == 1
        assert session.outstanding == 2

    def test_try_publish_raises_when_blocked(self):
        session = active_session(credit=1)
        session.try_publish((b"t",), b"1")
        with pytest.raises(FlowControlBlocked):
            session.try_publish((b"t",), b"2")

    def test_ack_releases_queued_in_order(self):
        session = active_session(credit=1)
        session.publish((b"t",), b"1")
        session.publish((b"t",), b"2")
        session.publish((b"t",), b"3")
        released = session.on_ack(ClientAck(ACK_PUBLISH, 7, 0, 1, 1))
        assert [p.payload for p in released] == [b"2"]
        released = session.on_ack(ClientAck(ACK_PUBLISH, 7, 0, 2, 1))
        assert [p.payload for p in released] == [b"3"]

    def test_ack_beyond_sent_rejected(self):
        session = active_session()
        with pytest.raises(ProtocolError):
            session.on_ack(ClientAck(ACK_PUBLISH, 7, 0, 5, 4))

    def test_forged_oversized_credit_rejected(self):
        # T601 regression: the wire-decoded credit used to flow into
        # self.window unvalidated, so a forged ack could widen the
        # window beyond what the HELLO requested and let the client
        # over-publish past the frontend's admission bound.
        session = active_session(credit=4)
        with pytest.raises(ProtocolError, match="exceeds requested"):
            session.on_ack(ClientAck(ACK_PUBLISH, 7, 0, 0, 4096))
        assert session.window == 4  # the forged grant did not bind

    def test_credit_shrink_honored(self):
        # The frontend may legitimately grant less than requested.
        session = active_session(credit=4)
        session.on_ack(ClientAck(ACK_PUBLISH, 7, 0, 0, 2))
        assert session.window == 2

    def test_queue_preserves_fifo_even_with_window_room(self):
        """A queued backlog keeps new publishes behind it (client FIFO)."""
        session = active_session(credit=1)
        session.publish((b"t",), b"1")
        assert session.publish((b"t",), b"2") is None
        assert session.publish((b"t",), b"3") is None
        assert session.queued == 2


class TestDeliveryStreams:
    def test_contiguous_per_shard_cursors(self):
        session = active_session()
        session.on_deliver(ClientDeliver(7, 3, 1, 9, 1, b"t", b"a"))
        ack = session.ack_delivers(3)
        assert ack.kind == ACK_DELIVER and ack.ack_seq == 1
        session.on_deliver(ClientDeliver(7, 3, 2, 9, 2, b"t", b"b"))
        session.on_deliver(ClientDeliver(7, 8, 1, 9, 3, b"t", b"c"))
        assert session.deliver_cursor(3) == 2
        assert session.deliver_cursor(8) == 1
        assert [d.payload for d in session.delivered] == [b"a", b"b", b"c"]

    def test_gap_rejected(self):
        session = active_session()
        session.on_deliver(ClientDeliver(7, 3, 1, 9, 1, b"t"))
        with pytest.raises(ProtocolError):
            session.on_deliver(ClientDeliver(7, 3, 3, 9, 2, b"t"))

    def test_manual_ack_mode(self):
        # Acks are cumulative: one ack_delivers after a batch covers
        # every delivery of the stream so far.
        session = active_session()
        session.on_deliver(ClientDeliver(7, 3, 1, 9, 1, b"t"))
        session.on_deliver(ClientDeliver(7, 3, 2, 9, 2, b"t"))
        ack = session.ack_delivers(3)
        assert ack.ack_seq == 2 and ack.shard == 3 and ack.epoch == 0
        assert session.ack_delivers(5).ack_seq == 0  # untouched stream

    def test_foreign_pdu_rejected(self):
        session = active_session()
        with pytest.raises(ProtocolError):
            session.on_deliver(ClientDeliver(8, 3, 1, 9, 1, b"t"))
        with pytest.raises(ProtocolError):
            session.on_ack(ClientAck(ACK_PUBLISH, 8, 0, 0, 4))


class TestReopenAndFailover:
    def test_reopen_from_active(self):
        # Regression: hello() used to raise from any non-IDLE state,
        # making a dead frontend unrecoverable; only a HELLO already in
        # flight (CONNECTING) is invalid now.
        session = active_session()
        hello = session.hello()
        assert session.state is SessionState.CONNECTING
        assert hello.resume_seq == 0 and hello.acked_seq == 0

    def test_reopen_from_closed(self):
        session = active_session()
        session.close()
        session.hello()
        assert session.state is SessionState.CONNECTING

    def test_hello_carries_both_frontiers(self):
        session = active_session(credit=8)
        for i in range(3):
            session.publish((b"t",), b"%d" % i)
        session.on_ack(ClientAck(ACK_PUBLISH, 7, 0, 1, 8))
        hello = session.hello()
        assert hello.resume_seq == 3  # sent frontier
        assert hello.acked_seq == 1  # durable frontier

    def test_resume_replays_unacked_past_offer(self):
        session = active_session(credit=8)
        sent = [session.publish((b"t",), b"%d" % i) for i in range(4)]
        session.on_ack(ClientAck(ACK_PUBLISH, 7, 0, 1, 8))
        session.hello()
        # The frontend's offer says it accepted up to seq 1: replay 2-4.
        replay = session.on_ack(ClientAck(ACK_PUBLISH, 7, 0, 1, 8, resume_seq=1))
        assert [p.client_seq for p in replay] == [2, 3, 4]
        assert replay == sent[1:]
        assert session.state is SessionState.ACTIVE

    def test_acked_publishes_are_pruned_from_replay_buffer(self):
        session = active_session(credit=8)
        for i in range(3):
            session.publish((b"t",), b"%d" % i)
        assert session.retained == 3
        session.on_ack(ClientAck(ACK_PUBLISH, 7, 0, 3, 8))
        assert session.retained == 0

    def test_resume_offer_beyond_sent_rejected(self):
        session = active_session(credit=8)
        session.publish((b"t",), b"x")
        session.hello()
        with pytest.raises(ProtocolError):
            session.on_ack(ClientAck(ACK_PUBLISH, 7, 0, 0, 8, resume_seq=5))


class TestConnectingDelivers:
    def test_deliver_during_connecting_accepted(self):
        # Regression: a fan-out deliver racing the hello-ack used to
        # raise and kill the session; it is a legitimate interleaving
        # over any real transport.
        session = ClientSession(7, credit=4)
        session.hello()
        session.on_deliver(ClientDeliver(7, 0, 1, 9, 1, b"t", b"x"))
        assert session.ack_delivers(0).ack_seq == 1
        assert len(session.delivered) == 1
        assert session.state is SessionState.CONNECTING

    def test_deliver_in_idle_still_rejected(self):
        session = ClientSession(7, credit=4)
        with pytest.raises(ProtocolError):
            session.on_deliver(ClientDeliver(7, 0, 1, 9, 1, b"t", b"x"))


class TestStaleAckWindow:
    def test_stale_ack_does_not_shrink_window(self):
        # Regression: a reordered stale ack (lower ack_seq, older credit
        # snapshot) used to unconditionally rebind the window.
        session = active_session(credit=8)
        for i in range(4):
            session.publish((b"t",), b"%d" % i)
        session.on_ack(ClientAck(ACK_PUBLISH, 7, 0, 3, 8))
        assert session.window == 8
        session.on_ack(ClientAck(ACK_PUBLISH, 7, 0, 1, 2))  # stale + tiny credit
        assert session.window == 8  # not rebound
        assert session.acked == 3  # cumulative frontier kept

    def test_fresh_ack_still_rebinds_window(self):
        session = active_session(credit=8)
        session.publish((b"t",), b"x")
        session.on_ack(ClientAck(ACK_PUBLISH, 7, 0, 1, 4))
        assert session.window == 4


class TestStreamEpochs:
    def deliver(self, session, seq, *, shard=0, origin=9, origin_seq=None, epoch=0):
        session.on_deliver(
            ClientDeliver(
                session.client_id, shard, seq, origin,
                origin_seq if origin_seq is not None else seq, b"t", b"p%d" % seq,
                epoch=epoch,
            )
        )

    def test_reanchor_bumps_epoch_and_resets_cursor(self):
        session = active_session()
        self.deliver(session, 1)
        self.deliver(session, 2)
        epoch = session.reanchor(0)
        assert epoch == 1 and session.stream_epoch(0) == 1
        assert session.deliver_cursor(0) == 0

    def test_stale_epoch_straggler_dropped(self):
        session = active_session()
        self.deliver(session, 1)
        session.reanchor(0)
        # A dead frontend's straggler from epoch 0 arrives late.
        self.deliver(session, 2, epoch=0)
        assert len(session.delivered) == 1
        assert session.deliver_cursor(0) == 0

    def test_future_epoch_rejected(self):
        session = active_session()
        with pytest.raises(ProtocolError):
            self.deliver(session, 1, epoch=3)

    def test_replayed_history_deduped_by_content(self):
        session = active_session()
        self.deliver(session, 1, origin_seq=1)
        self.deliver(session, 2, origin_seq=2)
        epoch = session.reanchor(0)
        # The successor replays its whole log: seqs restart at 1, the
        # first two are content the client already has.
        self.deliver(session, 1, origin_seq=1, epoch=epoch)
        self.deliver(session, 2, origin_seq=2, epoch=epoch)
        self.deliver(session, 3, origin_seq=3, epoch=epoch)
        assert session.dup_filtered == 2
        assert [d.origin_seq for d in session.delivered] == [1, 2, 3]

    def test_deliver_ack_carries_epoch(self):
        session = active_session()
        epoch = session.reanchor(0)
        self.deliver(session, 1, epoch=epoch)
        ack = session.ack_delivers(0)
        assert ack.epoch == epoch and ack.ack_seq == 1
