"""Hardened receive path: malformed or out-of-range datagrams are
losses, never crashes (PROTOCOL §13).

Three layers are pinned down:

* :func:`repro.net.wire.decode_message` raises nothing but
  :class:`WireFormatError` on arbitrary garbage and on truncations or
  single-byte corruptions of every golden specimen;
* the sim driver's receive hook counts both failure modes under
  ``decode_errors`` and keeps running;
* mutated-in-flight packets (the :class:`FaultPlan` mutator axis) are
  dropped by the same path during a live simulated run.
"""

import random
import struct

import pytest

from repro.core.config import UrcgcConfig
from repro.core.message import KIND_DATA, GenerateBatch, UserMessage
from repro.core.mid import Mid
from repro.errors import WireFormatError
from repro.harness.cluster import SimCluster
from repro.net import wire
from repro.net.faults import FaultPlan
from repro.net.wire import decode_message, encode_message
from repro.types import ProcessId, SeqNo
from repro.workloads.generators import ScriptedWorkload

from .golden_specimens import specimens


def test_decode_raises_only_wire_format_error_on_garbage():
    rng = random.Random(0)
    for _ in range(500):
        blob = rng.randbytes(rng.randint(0, 64))
        try:
            decode_message(blob)
        except WireFormatError:
            pass  # the one allowed failure mode


def test_decode_survives_truncations_and_bit_flips_of_every_tag():
    rng = random.Random(1)
    for tag, message in specimens().items():
        data = encode_message(message)
        for cut in range(len(data)):
            try:
                decode_message(data[:cut])
            except WireFormatError:
                pass
        for _ in range(50):
            corrupted = bytearray(data)
            corrupted[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                decode_message(bytes(corrupted))
            except WireFormatError:
                pass


def _cluster(n: int = 3) -> SimCluster:
    return SimCluster(
        UrcgcConfig(n=n, K=2),
        workload=ScriptedWorkload({0: [(ProcessId(0), b"x")]}),
        max_rounds=30,
    )


def test_sim_driver_counts_malformed_datagrams_as_parse_errors():
    cluster = _cluster()
    cluster._on_data(ProcessId(0), ProcessId(1), b"\xff\x00garbage")
    assert cluster.decode_errors == 1
    cluster.run_until_quiescent()  # the group is unharmed
    assert cluster.quiescent()


def test_sim_driver_drops_semantically_out_of_range_pdus():
    cluster = _cluster()
    forged = UserMessage(
        Mid(ProcessId(1), SeqNo(1)),
        (Mid(ProcessId(0xFFFF), SeqNo(1)),),  # origin no group can hold
    )
    cluster._on_data(ProcessId(0), ProcessId(1), encode_message(forged))
    assert cluster.decode_errors == 1
    assert not cluster.members[0].already_seen(forged.mid)


def duplicate_origin_batch() -> bytes:
    """A tag-17 GENERATE whose shared dependencies name origin 1 twice.

    ``GenerateBatch`` refuses to build one, so a valid batch's second
    shared dependency is re-pointed at origin 1 on the wire.
    """
    valid = encode_message(
        GenerateBatch(
            ProcessId(0),
            SeqNo(5),
            (Mid(ProcessId(1), SeqNo(3)), Mid(ProcessId(2), SeqNo(4))),
            (True,),
            (b"x",),
        )
    )
    # tag, origin (u16), first seq (u32), dep count (u8), first dep (6).
    second_origin = 1 + 2 + 4 + 1 + 6
    return valid[:second_origin] + b"\x00\x01" + valid[second_origin + 2 :]


def test_duplicate_shared_dep_origin_is_a_wire_format_error():
    with pytest.raises(WireFormatError):
        decode_message(duplicate_origin_batch())
    with pytest.raises(WireFormatError):
        GenerateBatch(
            ProcessId(0),
            SeqNo(5),
            (Mid(ProcessId(1), SeqNo(3)), Mid(ProcessId(1), SeqNo(4))),
            (True,),
            (b"x",),
        )


def test_sim_driver_drops_a_batch_naming_an_origin_twice():
    cluster = _cluster()
    cluster._on_data(ProcessId(0), ProcessId(1), duplicate_origin_batch())
    assert cluster.decode_errors == 1
    cluster.run_until_quiescent()  # the run continues
    assert cluster.quiescent()
    assert not cluster.members[0].already_seen(Mid(ProcessId(0), SeqNo(5)))


@pytest.mark.parametrize("count", [9, 4096, 0xFFFF])
def test_forged_vector_count_builds_no_row_codec(monkeypatch, count):
    """A 17-byte DECISION whose ``stable`` vector claims ``count`` u32
    entries is a truncation, rejected before a row codec for that
    length is built (and cached for the life of the process)."""
    built = []
    real = wire._vector_struct

    def spy(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(wire, "_vector_struct", spy)
    # tag 12, number, chain, coordinator, empty alive bitmask, empty
    # attempts, then the stable vector's count and no entries.
    forged = bytes([12]) + struct.pack("!IIHHHH", 0, 0, 0, 0, 0, count)
    assert len(forged) == 17
    with pytest.raises(WireFormatError, match="truncated"):
        decode_message(forged)
    assert built == []


def test_mutated_packets_are_shed_during_a_live_sim_run():
    plan = FaultPlan()

    def corrupt_some_data(packet, dst, now):
        if packet.kind == KIND_DATA and int(dst) == 2:
            return packet.payload[: max(1, len(packet.payload) - 4)]
        return None

    plan.add_mutator(corrupt_some_data)
    cluster = SimCluster(
        UrcgcConfig(n=3, K=2),
        workload=ScriptedWorkload(
            {0: [(ProcessId(0), b"a")], 2: [(ProcessId(1), b"b")]}
        ),
        faults=plan,
        max_rounds=80,
    )
    cluster.run_until_quiescent()
    assert cluster.decode_errors > 0
    # The protocol recovered the shed copies: the group still agreed.
    assert cluster.quiescent()
    vectors = {m.last_processed_vector() for m in cluster.members}
    assert len(vectors) == 1
