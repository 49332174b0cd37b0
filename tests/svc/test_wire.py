"""Wire round-trips and validation for the client-tier PDUs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.net.wire import decode_message, encode_message, global_registry
from repro.svc.wire import (
    ACK_DELIVER,
    ACK_PUBLISH,
    MAX_TOPIC_LEN,
    MAX_TOPICS,
    ClientAck,
    ClientDeliver,
    ClientHello,
    ClientPublish,
    deliver_body,
    deliver_frame,
)


def roundtrip(pdu):
    decoded = decode_message(encode_message(pdu))
    assert decoded == pdu
    return decoded


class TestRoundtrips:
    def test_hello(self):
        roundtrip(ClientHello(1, credit=32, resume_seq=0))
        roundtrip(ClientHello(2**63, credit=65535, resume_seq=2**31))

    def test_publish(self):
        roundtrip(ClientPublish(9, 1, (b"a",), b""))
        roundtrip(
            ClientPublish(
                2**40, 2**31, tuple(b"t%d" % i for i in range(MAX_TOPICS)), b"x" * 512
            )
        )

    def test_deliver(self):
        roundtrip(ClientDeliver(5, 0, 1, 7, 1, b"topic"))
        roundtrip(ClientDeliver(2**50, 65535, 2**31, 2**50, 2**31, b"t", b"payload"))

    def test_ack_both_kinds(self):
        roundtrip(ClientAck(ACK_PUBLISH, 1, 0, 4, 32))
        roundtrip(ClientAck(ACK_DELIVER, 2**60, 12, 99, 0))


class TestValidation:
    def test_hello_credit_bounds(self):
        with pytest.raises(WireFormatError):
            ClientHello(1, credit=0)
        with pytest.raises(WireFormatError):
            ClientHello(1, credit=65536)

    def test_publish_needs_positive_seq(self):
        with pytest.raises(WireFormatError):
            ClientPublish(1, 0, (b"a",))

    def test_publish_topic_count_bounds(self):
        with pytest.raises(WireFormatError):
            ClientPublish(1, 1, ())
        with pytest.raises(WireFormatError):
            ClientPublish(1, 1, tuple(b"t%d" % i for i in range(MAX_TOPICS + 1)))

    def test_publish_topics_distinct(self):
        with pytest.raises(WireFormatError):
            ClientPublish(1, 1, (b"a", b"a"))

    def test_publish_topic_length_bounds(self):
        with pytest.raises(WireFormatError):
            ClientPublish(1, 1, (b"",))
        with pytest.raises(WireFormatError):
            ClientPublish(1, 1, (b"x" * (MAX_TOPIC_LEN + 1),))

    def test_ack_kind_checked(self):
        with pytest.raises(WireFormatError):
            ClientAck(2, 1, 0, 0, 0)

    def test_truncated_bytes_rejected(self):
        data = encode_message(ClientPublish(1, 1, (b"a",), b"payload"))
        with pytest.raises(WireFormatError):
            decode_message(data[:-3])


U16 = st.integers(0, 0xFFFF)
U32_POSITIVE = st.integers(1, 0xFFFF_FFFF)
U64 = st.integers(0, 0xFFFF_FFFF_FFFF_FFFF)


class TestSharedBodyFrame:
    """The fan-out path (one body, a header per recipient) encodes the
    same bytes as the registry encoding of the equivalent PDU."""

    @settings(max_examples=300, deadline=None)
    @given(
        client_id=U64,
        shard=U16,
        deliver_seq=U32_POSITIVE,
        origin=U64,
        origin_seq=U32_POSITIVE,
        topic=st.binary(min_size=1, max_size=MAX_TOPIC_LEN),
        payload=st.binary(max_size=2048),
        epoch=U16,
    )
    def test_frame_matches_registry_encoding(
        self, client_id, shard, deliver_seq, origin, origin_seq, topic, payload, epoch
    ):
        pdu = ClientDeliver(
            client_id, shard, deliver_seq, origin, origin_seq, topic, payload, epoch
        )
        frame = deliver_frame(
            deliver_body(topic, payload),
            client_id,
            shard,
            deliver_seq,
            origin,
            origin_seq,
            epoch,
        )
        assert frame == global_registry.encode(pdu)
        assert global_registry.decode(frame) == pdu

    def test_one_body_serves_every_recipient(self):
        body = deliver_body(b"room", b"hello")
        for client_id, deliver_seq in ((5, 1), (6, 9), (7, 3)):
            decoded = decode_message(deliver_frame(body, client_id, 2, deliver_seq, 9, 4, 1))
            assert decoded == ClientDeliver(client_id, 2, deliver_seq, 9, 4, b"room", b"hello", 1)
