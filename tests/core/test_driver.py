"""Unit tests for the shared per-member effect pipeline.

A scripted engine stands in for :class:`~repro.core.member.Member`, so
each test controls exactly which effects the driver executes: a
generation (Send + Deliver + Confirm), a foreign delivery, an orphan
discard, a coordinated decision and a suspicion.  A fake clock and a
recording ``transmit`` replace the simulator and the socket.
"""

from repro.core.batcher import expand_message
from repro.core.config import BatchingConfig, UrcgcConfig
from repro.core.decision import Decision
from repro.core.driver import MemberDriver
from repro.core.effects import (
    Confirm,
    DecisionApplied,
    Deliver,
    Discarded,
    Send,
    SuspicionChange,
)
from repro.core.message import (
    KIND_DATA,
    KIND_DECISION,
    DecisionMessage,
    UserMessage,
)
from repro.core.mid import Mid
from repro.net.addressing import BROADCAST_GROUP
from repro.net.wire import decode_message, encode_message
from repro.obs import Recorder
from repro.storage import MemoryBackend, NodeStorage
from repro.types import ProcessId, SeqNo

ME = ProcessId(0)


def msg(origin, seq, deps=(), payload=b"x"):
    return UserMessage(Mid(ProcessId(origin), SeqNo(seq)), tuple(deps), payload)


def decision(number=1):
    zeros = (SeqNo(0), SeqNo(0), SeqNo(0))
    return Decision(
        number=number,
        chain=1,
        coordinator=ME,
        alive=(True, True, True),
        attempts=(0, 0, 0),
        stable=zeros,
        contributors=(True, True, True),
        full_group=True,
        max_processed=zeros,
        most_updated=(ME,),
        min_waiting=zeros,
        full_group_count=1,
    )


OWN = msg(0, 1, payload=b"own")
FOREIGN = msg(1, 1, payload=b"foreign")
DECISION = decision()

#: One round of a coordinator that generates, then decides.
ROUND_SCRIPT = [
    Send(BROADCAST_GROUP, OWN, KIND_DATA),
    Deliver(OWN),
    Confirm(OWN.mid),
    Send(BROADCAST_GROUP, DecisionMessage(DECISION), KIND_DECISION),
    DecisionApplied(DECISION),
    SuspicionChange(2, True, "k-consecutive"),
]

#: What the engine answers to the foreign message.
RECEIVE_SCRIPT = [
    Deliver(FOREIGN),
    Discarded(Mid(ProcessId(2), SeqNo(1)), (Mid(ProcessId(2), SeqNo(2)),)),
]


class ScriptedMember:
    """Answers each engine call with the next scripted effect list."""

    def __init__(self, config):
        self.config = config
        self.has_left = False
        self.rounds = [list(ROUND_SCRIPT)]
        self.replies = [list(RECEIVE_SCRIPT)]

    def on_round(self, round_no):
        return self.rounds.pop(0)

    def on_message(self, message):
        return self.replies.pop(0)

    def already_seen(self, mid):
        return False

    def consume_realignment(self):
        return None


class RecordingStorage(NodeStorage):
    def __init__(self, journal):
        super().__init__(MemoryBackend(), ME, snapshot_interval=1000)
        self.journal = journal

    def log_generated(self, message):
        self.journal.append(("wal", "generated"))
        super().log_generated(message)

    def log_processed(self, message):
        self.journal.append(("wal", "processed"))
        super().log_processed(message)

    def log_decision(self, decision):
        self.journal.append(("wal", "decision"))
        super().log_decision(decision)


def scripted_driver(*, batching=None):
    config = UrcgcConfig(n=3, batching=batching)
    journal = []
    wire = []
    now = [5.0]  # a frozen clock

    def transmit(dst, data, kind):
        journal.append(("transmit", kind))
        wire.append(data)

    driver = MemberDriver(
        ME,
        config,
        transmit=transmit,
        clock=lambda: now[0],
        recorder=Recorder(clock=lambda: now[0], clock_kind="sim"),
        storage=RecordingStorage(journal),
    )
    driver.member = ScriptedMember(config)
    driver.service.set_indication_handler(
        lambda message: journal.append(("indicate", message.mid))
    )
    driver.service.set_confirm_handler(lambda handle: journal.append(("confirm", handle.mid)))
    return driver, journal, wire


def run_script(driver, journal=None):
    driver.service.data_rq(b"own")
    driver.tick(0)
    if journal is not None:
        journal.append(("tick", "done"))
    driver.receive(FOREIGN, [FOREIGN])


def test_wal_records_precede_indications_and_transmits():
    driver, journal, _ = scripted_driver()
    run_script(driver, journal)
    assert journal == [
        # tick: both appends, then the SAP, then the wire
        ("wal", "generated"),
        ("wal", "decision"),
        ("indicate", OWN.mid),
        ("confirm", OWN.mid),
        ("transmit", KIND_DATA),
        ("transmit", KIND_DECISION),
        ("tick", "done"),
        # receive: a foreign delivery is logged before it is indicated
        ("wal", "processed"),
        ("indicate", FOREIGN.mid),
    ]
    assert driver.storage.records_since_snapshot == 3


def test_service_and_driver_bookkeeping():
    driver, _, _ = scripted_driver()
    run_script(driver)
    service = driver.service
    assert [m.mid for m in service.delivered] == [OWN.mid, FOREIGN.mid]
    assert [handle.mid for handle in service.confirmed] == [OWN.mid]
    assert service.lost_mids == [Mid(ProcessId(2), SeqNo(1))]
    assert service.discarded_mids == [Mid(ProcessId(2), SeqNo(2))]
    assert [e.pid for e in driver.suspicion_events] == [2]
    assert driver.round == 1  # the next round between ticks


def test_recorder_span_kinds():
    driver, _, _ = scripted_driver()
    run_script(driver)
    kinds = [(e.kind, e.extra.get("applied")) for e in driver.recorder.events]
    assert kinds == [
        ("generated", None),
        ("processed", None),
        ("decision", False),
        ("decision", True),
        ("suspect", None),
        ("processed", None),
        ("discarded", None),
    ]
    assert all(e.time == 5.0 and e.node == ME for e in driver.recorder.events)
    assert driver.recorder.registry.counter("fd.suspect", node=0).value == 1


def test_wire_bytes_identical_with_and_without_batching():
    plain_driver, _, plain = scripted_driver()
    run_script(plain_driver)
    batched_driver, _, batched = scripted_driver(batching=BatchingConfig())
    run_script(batched_driver)
    # The batcher coalesced the round's two sends into one frame ...
    assert len(batched) < len(plain)
    # ... which expands back into the byte-identical PDUs.
    expanded = [
        encode_message(message)
        for frame in batched
        for message in expand_message(decode_message(frame))
    ]
    assert expanded == plain
    assert plain == [encode_message(OWN), encode_message(DecisionMessage(DECISION))]


def test_decode_error_and_range_counters():
    driver, journal, _ = scripted_driver()
    driver.decode_error("parse")
    forged = msg(7, 1)  # member index out of range for n=3
    driver.receive(forged, [forged])
    assert driver.decode_errors == 2
    assert journal == []
    registry = driver.recorder.registry
    for reason in ("parse", "range"):
        assert registry.counter("net.decode_error", node=0, reason=reason).value == 1
