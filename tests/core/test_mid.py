"""Unit tests for message identifiers."""

import copy
import pickle

import pytest

from repro.core.message import UserMessage
from repro.core.mid import NO_MESSAGE, Mid
from repro.errors import CausalityViolationError
from repro.net.wire import decode_message, encode_message
from repro.obs.events import mid_label
from repro.types import ProcessId, SeqNo


def test_ordering_within_origin():
    assert Mid(ProcessId(0), SeqNo(1)) < Mid(ProcessId(0), SeqNo(2))


def test_equality_and_hash():
    a = Mid(ProcessId(1), SeqNo(3))
    b = Mid(ProcessId(1), SeqNo(3))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_predecessor():
    assert Mid(ProcessId(0), SeqNo(2)).predecessor == Mid(ProcessId(0), SeqNo(1))
    assert Mid(ProcessId(0), SeqNo(1)).predecessor is None


def test_seq_must_be_positive():
    with pytest.raises(CausalityViolationError):
        Mid(ProcessId(0), SeqNo(0))


def test_origin_must_be_nonnegative():
    with pytest.raises(CausalityViolationError):
        Mid(ProcessId(-1), SeqNo(1))


def test_no_message_sentinel_below_all_seqs():
    assert NO_MESSAGE == 0
    assert Mid(ProcessId(0), SeqNo(1)).seq > NO_MESSAGE


def test_str():
    assert str(Mid(ProcessId(2), SeqNo(5))) == "m(2,5)"


def test_ordering_across_origins():
    # Origin first, then seq: a low seq of a later origin sorts last.
    mids = [
        Mid(ProcessId(2), SeqNo(1)),
        Mid(ProcessId(0), SeqNo(9)),
        Mid(ProcessId(1), SeqNo(4)),
        Mid(ProcessId(0), SeqNo(2)),
    ]
    assert sorted(mids) == [
        Mid(ProcessId(0), SeqNo(2)),
        Mid(ProcessId(0), SeqNo(9)),
        Mid(ProcessId(1), SeqNo(4)),
        Mid(ProcessId(2), SeqNo(1)),
    ]
    assert Mid(ProcessId(0), SeqNo(9)) < Mid(ProcessId(1), SeqNo(1))
    assert Mid(ProcessId(1), SeqNo(1)) >= Mid(ProcessId(0), SeqNo(9))


def test_distinct_mids_differ():
    a = Mid(ProcessId(1), SeqNo(3))
    assert a != Mid(ProcessId(1), SeqNo(4))
    assert a != Mid(ProcessId(2), SeqNo(3))
    assert len({a, Mid(ProcessId(1), SeqNo(4)), Mid(ProcessId(2), SeqNo(3))}) == 3
    assert {a: "x"}[Mid(ProcessId(1), SeqNo(3))] == "x"


def test_fields():
    mid = Mid(origin=ProcessId(4), seq=SeqNo(7))
    assert (mid.origin, mid.seq) == (4, 7)


def test_repr():
    assert repr(Mid(ProcessId(1), SeqNo(3))) == "Mid(origin=1, seq=3)"
    assert str(Mid(ProcessId(1), SeqNo(3))) == "m(1,3)"


def test_predecessor_chain_reaches_root():
    mid = Mid(ProcessId(3), SeqNo(3))
    chain = []
    while mid is not None:
        chain.append(mid)
        mid = mid.predecessor
    assert chain == [Mid(ProcessId(3), SeqNo(s)) for s in (3, 2, 1)]
    assert all(type(m) is Mid for m in chain)


@pytest.mark.parametrize("field", ["origin", "seq", "other"])
def test_immutable(field):
    mid = Mid(ProcessId(1), SeqNo(3))
    with pytest.raises(AttributeError):
        setattr(mid, field, 5)
    assert mid == Mid(ProcessId(1), SeqNo(3))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    mid = Mid(ProcessId(2), SeqNo(11))
    restored = pickle.loads(pickle.dumps(mid, protocol))
    assert restored == mid
    assert type(restored) is Mid
    assert restored.predecessor == Mid(ProcessId(2), SeqNo(10))


def test_copy_round_trip():
    mid = Mid(ProcessId(2), SeqNo(11))
    for clone in (copy.copy(mid), copy.deepcopy(mid), copy.deepcopy([mid])[0]):
        assert clone == mid
        assert type(clone) is Mid
        assert str(clone) == "m(2,11)"


@pytest.mark.parametrize("origin, seq", [(0, 0), (5, -1), (-1, 1), (-3, 0)])
def test_constructor_rejections(origin, seq):
    with pytest.raises(CausalityViolationError):
        Mid(ProcessId(origin), SeqNo(seq))


def test_mid_label_unchanged():
    assert mid_label(Mid(ProcessId(0), SeqNo(3))) == "p0:3"
    assert mid_label(Mid(ProcessId(12), SeqNo(1))) == "p12:1"
    assert mid_label("not-a-mid") == "not-a-mid"


def test_decoded_dependencies_are_mids():
    deps = (Mid(ProcessId(1), SeqNo(3)), Mid(ProcessId(2), SeqNo(8)))
    message = decode_message(
        encode_message(UserMessage(Mid(ProcessId(0), SeqNo(1)), deps))
    )
    assert message.deps == deps
    assert all(type(dep) is Mid for dep in (message.mid, *message.deps))
    assert [str(dep) for dep in message.deps] == ["m(1,3)", "m(2,8)"]
