"""The bulk dependency-list and bitmask codecs against a per-field
reference.

``UserMessage.deps`` and ``GenerateBatch.shared_deps`` encode as one
Struct of (u16 origin, u32 seq) pairs, and decision bitmasks as one
integer conversion.  The references below write the same PDUs one
field at a time, the way the wire format is specified, so any drift in
byte layout shows up as a mismatch.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decision import Decision
from repro.core.message import DecisionMessage, GenerateBatch, UserMessage
from repro.core.mid import Mid
from repro.errors import WireFormatError
from repro.net.wire import decode_message, encode_message
from repro.types import ProcessId, SeqNo, SubrunNo

_TAG_USER = 10
_TAG_DECISION = 12
_TAG_GENERATE_BATCH = 17
_U32_MAX = 0xFFFFFFFF


def _u8(value):
    return struct.pack("!B", value)


def _u16(value):
    return struct.pack("!H", value)


def _u32(value):
    return struct.pack("!I", value)


def _ref_mid(mid):
    return _u16(mid.origin) + _u32(mid.seq)


def _ref_deps(deps):
    return _u8(len(deps)) + b"".join(_ref_mid(dep) for dep in deps)


def _ref_user(message):
    payload = message.payload
    return (
        _u8(_TAG_USER)
        + _ref_mid(message.mid)
        + _ref_deps(message.deps)
        + _u16(len(payload))
        + payload
    )


def _ref_bitmask(flags):
    out = _u16(len(flags))
    byte = 0
    for i, flag in enumerate(flags):
        if flag:
            byte |= 1 << (i % 8)
        if i % 8 == 7:
            out += _u8(byte)
            byte = 0
    if len(flags) % 8:
        out += _u8(byte)
    return out


def _ref_batch(batch):
    out = _u8(_TAG_GENERATE_BATCH) + _u16(batch.origin) + _u32(batch.first_seq)
    out += _ref_deps(batch.shared_deps) + _ref_bitmask(batch.ext_flags)
    for payload in batch.payloads:
        out += _u16(len(payload)) + payload
    return out


def _ref_u32s(values):
    return _u16(len(values)) + b"".join(_u32(v) for v in values)


def _ref_u16s(values):
    return _u16(len(values)) + b"".join(_u16(v) for v in values)


def _ref_decision(decision):
    return (
        _u8(_TAG_DECISION)
        + _u32(decision.number + 1)
        + _u32(decision.chain)
        + _u16(decision.coordinator)
        + _ref_bitmask(decision.alive)
        + _u16(len(decision.attempts))
        + b"".join(_u8(min(v, 0xFF)) for v in decision.attempts)
        + _ref_u32s(decision.stable)
        + _ref_bitmask(decision.contributors)
        + _u8(1 if decision.full_group else 0)
        + _ref_u32s(decision.max_processed)
        + _ref_u16s(decision.most_updated)
        + _ref_u32s(decision.min_waiting)
        + _u32(decision.full_group_count)
        + _ref_u16s(decision.joiners)
        + _ref_u32s(decision.void_from)
        + _ref_u32s(decision.join_boundary)
    )


_origins = st.integers(0, 0xFFFF)
_seqs = st.integers(1, _U32_MAX)


@st.composite
def user_messages(draw, max_deps=255):
    """A valid USER message with 0..max_deps dependencies."""
    mid = Mid(ProcessId(draw(_origins)), SeqNo(draw(_seqs)))
    pairs = draw(
        st.lists(
            st.tuples(_origins.filter(lambda o: o != mid.origin), _seqs),
            max_size=max_deps,
            unique_by=lambda pair: pair[0],
        )
    )
    deps = [Mid(ProcessId(o), SeqNo(s)) for o, s in pairs]
    if mid.seq > 1 and draw(st.booleans()):
        deps.insert(0, Mid(mid.origin, SeqNo(draw(st.integers(1, mid.seq - 1)))))
        deps = deps[:max_deps]
    return UserMessage(mid, tuple(deps), draw(st.binary(max_size=40)))


@settings(max_examples=200, deadline=None)
@given(user_messages())
def test_user_message_matches_per_field_reference(message):
    data = encode_message(message)
    assert data == _ref_user(message)
    decoded = decode_message(data)
    assert decoded == message
    assert all(type(dep) is Mid for dep in decoded.deps)


@settings(max_examples=200, deadline=None)
@given(user_messages(max_deps=12), st.data())
def test_zero_dependency_seq_is_rejected(message, data):
    if not message.deps:
        return
    index = data.draw(st.integers(0, len(message.deps) - 1))
    wire = bytearray(_ref_user(message))
    # tag (1) + mid (6) + count (1), then 6 bytes per dep: origin, seq.
    seq_at = 1 + 6 + 1 + 6 * index + 2
    wire[seq_at : seq_at + 4] = _u32(0)
    with pytest.raises(WireFormatError):
        decode_message(bytes(wire))


@settings(max_examples=200, deadline=None)
@given(user_messages(max_deps=12), st.data())
def test_truncated_dependency_list_is_rejected(message, data):
    wire = _ref_user(message)
    deps_end = 1 + 6 + 1 + 6 * len(message.deps)
    cut = data.draw(st.integers(0, deps_end - 1))
    with pytest.raises(WireFormatError):
        decode_message(wire[:cut])


def test_more_than_255_deps_is_rejected():
    deps = tuple(Mid(ProcessId(o), SeqNo(1)) for o in range(1, 257))
    with pytest.raises(WireFormatError):
        encode_message(UserMessage(Mid(ProcessId(0), SeqNo(1)), deps))
    with pytest.raises(WireFormatError):
        encode_message(GenerateBatch(ProcessId(0), SeqNo(1), deps, (True,), (b"",)))


@st.composite
def batches(draw):
    origin = draw(_origins)
    pairs = draw(
        st.lists(
            st.tuples(_origins.filter(lambda o: o != origin), _seqs),
            max_size=255,
            unique_by=lambda pair: pair[0],
        )
    )
    flags = draw(st.lists(st.booleans(), min_size=1, max_size=40))
    return GenerateBatch(
        ProcessId(origin),
        SeqNo(draw(st.integers(1, 1 << 20))),
        tuple(Mid(ProcessId(o), SeqNo(s)) for o, s in pairs),
        tuple(flags),
        tuple(draw(st.binary(max_size=8)) for _ in flags),
    )


@settings(max_examples=200, deadline=None)
@given(batches())
def test_generate_batch_matches_per_field_reference(batch):
    data = encode_message(batch)
    assert data == _ref_batch(batch)
    assert decode_message(data) == batch


@st.composite
def decisions(draw):
    # The codec does not tie the bitmask lengths to the vector length,
    # so the bitmasks range wider than the (slower to draw) vectors.
    n = draw(st.integers(0, 24))
    flags = st.lists(st.booleans(), max_size=200)
    seqs = st.lists(st.integers(0, _U32_MAX), min_size=n, max_size=n)
    pids = st.lists(st.integers(0, 0xFFFF), max_size=n)
    rejoin = draw(st.booleans())
    return Decision(
        number=SubrunNo(draw(st.integers(-1, 1000))),
        chain=draw(st.integers(0, _U32_MAX)),
        coordinator=ProcessId(draw(_origins)),
        alive=tuple(draw(flags)),
        attempts=tuple(draw(st.lists(st.integers(0, 0xFF), min_size=n, max_size=n))),
        stable=tuple(draw(seqs)),
        contributors=tuple(draw(flags)),
        full_group=draw(st.booleans()),
        max_processed=tuple(draw(seqs)),
        most_updated=tuple(draw(pids)),
        min_waiting=tuple(draw(seqs)),
        full_group_count=draw(st.integers(0, _U32_MAX)),
        joiners=tuple(draw(pids)) if rejoin else (),
        void_from=tuple(draw(seqs)) if rejoin else (),
        join_boundary=tuple(draw(seqs)) if rejoin else (),
    )


@settings(max_examples=150, deadline=None)
@given(decisions())
def test_decision_matches_per_field_reference(decision):
    message = DecisionMessage(decision)
    data = encode_message(message)
    assert data == _ref_decision(decision)
    assert decode_message(data) == message


def test_bitmask_padding_bits_are_ignored():
    decision = Decision(
        number=SubrunNo(0),
        chain=0,
        coordinator=ProcessId(0),
        alive=(True, False, True),
        attempts=(0, 0, 0),
        stable=(0, 0, 0),
        contributors=(False, False, False),
        full_group=False,
        max_processed=(0, 0, 0),
        most_updated=(),
        min_waiting=(0, 0, 0),
    )
    wire = bytearray(encode_message(DecisionMessage(decision)))
    alive_byte = 1 + 4 + 4 + 2 + 2  # tag, number, chain, coordinator, count
    assert wire[alive_byte] == 0b101
    wire[alive_byte] |= 0b1111_1000
    assert decode_message(bytes(wire)).decision.alive == (True, False, True)
