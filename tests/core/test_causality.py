"""Unit tests for the causal-relation bookkeeping (Definition 3.1)."""

import random

import pytest

from repro.core.causality import (
    CausalContext,
    ContiguousDependencyTracker,
    FullCausalContext,
    SetDependencyTracker,
    validate_deps,
)
from repro.core.mid import Mid
from repro.errors import CausalityViolationError
from repro.types import ProcessId, SeqNo


def m(origin, seq):
    return Mid(ProcessId(origin), SeqNo(seq))


class TestValidateDeps:
    def test_self_dependency_rejected(self):
        with pytest.raises(CausalityViolationError):
            validate_deps(m(0, 2), [m(0, 2)])

    def test_forward_own_dependency_rejected(self):
        with pytest.raises(CausalityViolationError):
            validate_deps(m(0, 2), [m(0, 3)])

    def test_duplicate_origin_rejected(self):
        with pytest.raises(CausalityViolationError):
            validate_deps(m(0, 3), [m(1, 1), m(1, 2)])

    def test_valid_deps_pass(self):
        deps = validate_deps(m(0, 3), [m(0, 2), m(1, 5)])
        assert deps == (m(0, 2), m(1, 5))

    def test_empty_deps_pass(self):
        assert validate_deps(m(0, 1), []) == ()

    def test_accepts_exactly_the_valid_lists(self):
        # The one-pass acceptance must agree with the rules stated per
        # dependency: no repeated origin, own-origin deps strictly older.
        rng = random.Random(7)
        for _ in range(2000):
            mid = m(rng.randrange(4), rng.randint(1, 6))
            deps = [
                m(rng.randrange(4), rng.randint(1, 6))
                for _ in range(rng.randint(0, 5))
            ]
            origins = [dep.origin for dep in deps]
            valid = len(set(origins)) == len(origins) and all(
                dep.seq < mid.seq for dep in deps if dep.origin == mid.origin
            )
            if valid:
                assert validate_deps(mid, deps) == tuple(deps)
            else:
                with pytest.raises(CausalityViolationError):
                    validate_deps(mid, deps)


class TestCausalContext:
    def test_first_message_has_no_deps(self):
        context = CausalContext(ProcessId(0))
        mid, deps = context.next_message()
        assert mid == m(0, 1)
        assert deps == ()

    def test_own_sequence_chains(self):
        context = CausalContext(ProcessId(0))
        context.next_message()
        mid, deps = context.next_message()
        assert mid == m(0, 2)
        assert m(0, 1) in deps

    def test_auto_significant_includes_received(self):
        context = CausalContext(ProcessId(0))
        context.note_processed(m(1, 4))
        mid, deps = context.next_message()
        assert deps == (m(1, 4),)

    def test_latest_processed_wins(self):
        context = CausalContext(ProcessId(0))
        context.note_processed(m(1, 2))
        context.note_processed(m(1, 5))
        _, deps = context.next_message()
        assert m(1, 5) in deps
        assert m(1, 2) not in deps

    def test_stale_note_ignored(self):
        context = CausalContext(ProcessId(0))
        context.note_processed(m(1, 5))
        context.note_processed(m(1, 2))
        _, deps = context.next_message()
        assert m(1, 5) in deps

    def test_own_messages_not_noted(self):
        context = CausalContext(ProcessId(0))
        context.note_processed(m(0, 9))  # no-op: own sequence is implicit
        mid, deps = context.next_message()
        assert deps == ()

    def test_manual_significance(self):
        context = CausalContext(ProcessId(0), auto_significant=False)
        context.note_processed(m(1, 1))
        context.note_processed(m(2, 1))
        context.mark_significant(ProcessId(2))
        _, deps = context.next_message()
        assert deps == (m(2, 1),)
        # Significance is consumed: next message depends only on own chain.
        _, deps2 = context.next_message()
        assert deps2 == (m(0, 1),)

    def test_mark_significant_own_rejected(self):
        context = CausalContext(ProcessId(0))
        with pytest.raises(CausalityViolationError):
            context.mark_significant(ProcessId(0))

    def test_deps_bounded_by_n(self):
        """Intermediate interpretation: at most n dependencies."""
        context = CausalContext(ProcessId(0))
        for origin in range(1, 10):
            context.note_processed(m(origin, 1))
        context.next_message()
        _, deps = context.next_message()
        assert len(deps) <= 10


class TestFullCausalContext:
    def test_multiple_roots(self):
        context = FullCausalContext(ProcessId(0))
        mid_a, deps_a = context.next_message(sequence="a")
        mid_b, deps_b = context.next_message(sequence="b")
        assert deps_a == ()
        assert deps_b == ()  # independent root: no chain between a and b
        assert mid_a != mid_b

    def test_sequences_chain_independently(self):
        context = FullCausalContext(ProcessId(0))
        a1, _ = context.next_message(sequence="a")
        b1, _ = context.next_message(sequence="b")
        a2, deps = context.next_message(sequence="a")
        assert deps == (a1,)

    def test_new_root_restarts_chain(self):
        context = FullCausalContext(ProcessId(0))
        context.next_message(sequence="a")
        _, deps = context.next_message(sequence="a", new_root=True)
        assert deps == ()

    def test_significant_external_deps(self):
        context = FullCausalContext(ProcessId(0))
        context.note_processed(m(1, 7))
        _, deps = context.next_message(significant=[ProcessId(1)])
        assert m(1, 7) in deps


class TestContiguousTracker:
    def test_in_order_processing(self):
        tracker = ContiguousDependencyTracker()
        tracker.mark_processed(m(0, 1))
        tracker.mark_processed(m(0, 2))
        assert tracker.is_processed(m(0, 1))
        assert tracker.is_processed(m(0, 2))
        assert not tracker.is_processed(m(0, 3))
        assert tracker.last_processed(ProcessId(0)) == 2

    def test_out_of_order_rejected(self):
        tracker = ContiguousDependencyTracker()
        with pytest.raises(CausalityViolationError):
            tracker.mark_processed(m(0, 2))

    def test_double_processing_rejected(self):
        tracker = ContiguousDependencyTracker()
        tracker.mark_processed(m(0, 1))
        with pytest.raises(CausalityViolationError):
            tracker.mark_processed(m(0, 1))

    def test_snapshot(self):
        tracker = ContiguousDependencyTracker()
        tracker.mark_processed(m(0, 1))
        tracker.mark_processed(m(2, 1))
        assert tracker.snapshot() == {ProcessId(0): 1, ProcessId(2): 1}

    @pytest.mark.parametrize("seed", range(4))
    def test_missing_matches_is_processed(self, seed):
        rng = random.Random(seed)
        for trial in range(200):
            tracker = ContiguousDependencyTracker()
            for origin in range(4):
                for seq in range(1, rng.randint(0, 6) + 1):
                    tracker.mark_processed(m(origin, seq))
            # Half the trials register void gaps: some reachable from
            # the frontier (credited), some beyond a hole (not yet).
            if trial % 2:
                for _ in range(rng.randint(1, 4)):
                    origin = ProcessId(rng.randrange(4))
                    first = SeqNo(rng.randint(1, 12))
                    tracker.add_gap(origin, first, SeqNo(first + rng.randint(0, 3)))
                origin = ProcessId(rng.randrange(4))
                tracker.mark_processed(m(origin, tracker.last_processed(origin) + 1))
            for _ in range(10):
                deps = [
                    m(rng.randrange(5), rng.randint(1, 18))
                    for _ in range(rng.randint(0, 6))
                ]
                expected = {d for d in deps if not tracker.is_processed(d)}
                assert tracker.missing(deps) == expected


class TestSetTracker:
    def test_arbitrary_order(self):
        tracker = SetDependencyTracker()
        tracker.mark_processed(m(0, 5))
        assert tracker.is_processed(m(0, 5))
        assert not tracker.is_processed(m(0, 1))
        tracker.mark_processed(m(0, 1))
        assert len(tracker) == 2

    def test_double_processing_rejected(self):
        tracker = SetDependencyTracker()
        tracker.mark_processed(m(0, 1))
        with pytest.raises(CausalityViolationError):
            tracker.mark_processed(m(0, 1))
