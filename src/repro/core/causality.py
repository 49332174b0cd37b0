"""Causal-relation bookkeeping (Definition 3.1 of the paper).

The paper's causality is *application declared*: a message carries the
list of mids it causally depends on, and only dependencies "significant
for p" are published.  This module provides:

* :class:`CausalContext` — sender-side helper implementing the paper's
  *intermediate interpretation*: a process roots at most one sequence
  (each of its messages depends on its previous one) and may declare a
  dependency on the last processed message of any other process.
  Consequently a message depends on at most ``n`` others.
* :class:`FullCausalContext` — the unrestricted Definition 3.1: a
  process may root several concurrent sequences.  Used by the
  causality-interpretation ablation.
* :func:`validate_deps` — structural checks shared by both.
* :class:`SetDependencyTracker` / :class:`ContiguousDependencyTracker`
  — receiver-side "is every dependency processed?" predicates; the
  contiguous one exploits the intermediate interpretation (per-origin
  processing is in seq order), the set one handles arbitrary DAGs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Protocol

from ..errors import CausalityViolationError
from ..types import ProcessId, SeqNo
from .mid import NO_MESSAGE, Mid

__all__ = [
    "validate_deps",
    "CausalContext",
    "FullCausalContext",
    "DependencyTracker",
    "ContiguousDependencyTracker",
    "SetDependencyTracker",
]

_ORIGIN = itemgetter(0)


def validate_deps(mid: Mid, deps: Iterable[Mid]) -> tuple[Mid, ...]:
    """Check structural sanity of a dependency list.

    Rules derived from Definition 3.1: a message cannot depend on
    itself; it cannot depend on a *later* message of its own origin
    (acyclicity within a sequence); and it may name each origin at most
    once (the intermediate interpretation bounds the list by ``n``).

    A valid list is accepted in one pass: the set of named origins is
    as long as the list exactly when no origin repeats, and then at
    most one dependency shares ``mid``'s origin (in a generated list,
    the first).  The per-dependency loop runs only to name a violation.
    """
    deps = tuple(deps)
    origin, seq = mid
    origins = set(map(_ORIGIN, deps))
    if len(origins) == len(deps) and (
        origin not in origins
        or next(dep[1] for dep in deps if dep[0] == origin) < seq
    ):
        return deps
    seen_origins: set[ProcessId] = set()
    for dep in deps:
        if dep == mid:
            raise CausalityViolationError(f"{mid} depends on itself")
        if dep.origin == mid.origin and dep.seq >= mid.seq:
            raise CausalityViolationError(
                f"{mid} depends on later own message {dep}: cycle in sequence"
            )
        if dep.origin in seen_origins:
            raise CausalityViolationError(
                f"{mid} names origin {dep.origin} twice in its dependency list"
            )
        seen_origins.add(dep.origin)
    return deps


class CausalContext:
    """Sender-side dependency construction, intermediate interpretation.

    The process's own messages form one chain; calls to
    :meth:`note_processed` record the latest processed message of other
    origins; :meth:`mark_significant` flags the origins whose latest
    message the *next* generated message should causally follow
    (the paper: the causal relationship must be "significant for p" —
    not every reception creates a dependency).

    By default every noted origin is significant, which matches the
    conservative usage in the paper's simulations.
    """

    def __init__(self, pid: ProcessId, *, auto_significant: bool = True) -> None:
        self.pid = pid
        self.auto_significant = auto_significant
        self._own_last: SeqNo = NO_MESSAGE
        self._last_processed: dict[ProcessId, Mid] = {}
        self._significant: set[ProcessId] = set()

    @property
    def own_last_seq(self) -> SeqNo:
        return self._own_last

    def restore_own_seq(self, seq: SeqNo) -> None:
        """Fast-forward the own counter to at least ``seq``.

        Used when rebuilding a context after a crash: the new
        incarnation must never reuse a sequence number the previous one
        may have emitted (PROTOCOL §12).
        """
        if seq > self._own_last:
            self._own_last = seq

    def note_processed(self, mid: Mid) -> None:
        """Record that ``mid`` was processed (candidate dependency)."""
        if mid.origin == self.pid:
            return
        current = self._last_processed.get(mid.origin)
        if current is None or mid.seq > current.seq:
            self._last_processed[mid.origin] = mid
        if self.auto_significant:
            self._significant.add(mid.origin)

    def mark_significant(self, origin: ProcessId) -> None:
        """Declare the latest processed message of ``origin`` causally
        significant for the next generated message."""
        if origin == self.pid:
            raise CausalityViolationError("own sequence is implicitly significant")
        self._significant.add(origin)

    def clear_significant(self) -> None:
        """Drop all pending significance marks (fresh causal cut)."""
        self._significant.clear()

    def next_message(self) -> tuple[Mid, tuple[Mid, ...]]:
        """Allocate the next mid and its dependency list.

        The dependency list is the previous own message (if any) plus
        the latest processed message of every currently-significant
        origin.  Significance marks are consumed: the *next* message
        starts from a clean set unless ``auto_significant`` repopulates
        it.
        """
        self._own_last = SeqNo(self._own_last + 1)
        mid = Mid(self.pid, self._own_last)
        deps: list[Mid] = []
        if mid.predecessor is not None:
            deps.append(mid.predecessor)
        for origin in sorted(self._significant):
            dep = self._last_processed.get(origin)
            if dep is not None:
                deps.append(dep)
        if not self.auto_significant:
            self._significant.clear()
        return mid, validate_deps(mid, deps)


class FullCausalContext:
    """Unrestricted Definition 3.1: several concurrent own sequences.

    Each generated message either extends one of the process's existing
    sequences or roots a new one.  Mids stay ``(origin, seq)`` with a
    single per-origin counter (uniqueness), but the chain structure is
    explicit in the dependency lists rather than implied by ``seq``.
    """

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self._counter: SeqNo = NO_MESSAGE
        self._sequence_heads: dict[str, Mid] = {}
        self._last_processed: dict[ProcessId, Mid] = {}

    @property
    def sequences(self) -> list[str]:
        return sorted(self._sequence_heads)

    def note_processed(self, mid: Mid) -> None:
        if mid.origin == self.pid:
            return
        current = self._last_processed.get(mid.origin)
        if current is None or mid.seq > current.seq:
            self._last_processed[mid.origin] = mid

    def next_message(
        self,
        *,
        sequence: str = "main",
        new_root: bool = False,
        significant: Iterable[ProcessId] = (),
    ) -> tuple[Mid, tuple[Mid, ...]]:
        """Allocate the next mid on ``sequence``.

        ``new_root=True`` starts the sequence afresh (no dependency on
        its previous head), realizing point (i) of Definition 3.1 where
        a process roots several concurrent chains.
        """
        self._counter = SeqNo(self._counter + 1)
        mid = Mid(self.pid, self._counter)
        deps: list[Mid] = []
        head = self._sequence_heads.get(sequence)
        if head is not None and not new_root:
            deps.append(head)
        for origin in sorted(set(significant)):
            dep = self._last_processed.get(origin)
            if dep is not None:
                deps.append(dep)
        self._sequence_heads[sequence] = mid
        return mid, validate_deps(mid, deps)


class DependencyTracker(Protocol):
    """Receiver-side predicate: has a mid been processed yet?"""

    def is_processed(self, mid: Mid) -> bool: ...

    def mark_processed(self, mid: Mid) -> None: ...


class ContiguousDependencyTracker:
    """Tracker exploiting per-origin in-order processing.

    Under the intermediate interpretation message ``(o, s)`` depends on
    ``(o, s-1)``, so processing within an origin is contiguous and a
    single counter per origin suffices.  ``mark_processed`` enforces
    the contiguity invariant.

    Void gaps (rejoin extension, PROTOCOL §12): a JOIN decision can
    declare a closed seq range of an origin lost forever — discarded by
    the orphan rule and bounded by the rejoining incarnation's last own
    seq.  Such a range is registered with :meth:`add_gap`; seqs inside
    it count as processed once the frontier reaches the gap, and the
    contiguity check jumps over it.
    """

    def __init__(self) -> None:
        self._last: dict[ProcessId, SeqNo] = {}
        self._gaps: dict[ProcessId, list[tuple[SeqNo, SeqNo]]] = {}
        #: Bumped on every mutation; lets callers cache derived views
        #: (the member's last-processed vector) and invalidate exactly
        #: when the tracker changed — including out-of-band mutation by
        #: the storage layer's ``restore``.
        self.version = 0

    def add_gap(self, origin: ProcessId, first: SeqNo, last: SeqNo) -> None:
        """Declare ``[first, last]`` of ``origin`` void (never arriving)."""
        if last < first:
            return
        self.version += 1
        gaps = self._gaps.setdefault(origin, [])
        merged = (first, last)
        kept: list[tuple[SeqNo, SeqNo]] = []
        for gap in gaps:
            if gap[1] + 1 < merged[0] or merged[1] + 1 < gap[0]:
                kept.append(gap)
            else:
                merged = (min(gap[0], merged[0]), max(gap[1], merged[1]))
        kept.append(merged)
        kept.sort()
        self._gaps[origin] = kept

    @property
    def has_gaps(self) -> bool:
        """Is any void range registered?  Without one, every origin's
        frontier is its raw last-processed seq."""
        return bool(self._gaps)

    def gaps(self) -> dict[ProcessId, tuple[tuple[SeqNo, SeqNo], ...]]:
        """Copy of the registered void ranges, for snapshotting."""
        return {origin: tuple(gaps) for origin, gaps in self._gaps.items() if gaps}

    def raw_last(self, origin: ProcessId) -> SeqNo:
        """Highest seq actually processed (gaps not credited)."""
        return self._last.get(origin, NO_MESSAGE)

    def last_processed(self, origin: ProcessId) -> SeqNo:
        """Processing frontier: last seq processed *or agreed void*."""
        return self._frontier(origin)

    def is_processed(self, mid: Mid) -> bool:
        return mid.seq <= self._frontier(mid.origin)

    def missing(self, deps: Iterable[Mid]) -> set[Mid]:
        """The members of ``deps`` not processed yet.

        Without void gaps the frontier of an origin is its raw counter,
        so the check reads ``_last`` directly.
        """
        if self._gaps:
            return {dep for dep in deps if not self.is_processed(dep)}
        last = self._last.get
        return {dep for dep in deps if dep[1] > last(dep[0], NO_MESSAGE)}

    def mark_processed(self, mid: Mid) -> None:
        expected = self._frontier(mid.origin) + 1
        if mid.seq != expected:
            raise CausalityViolationError(
                f"out-of-order processing: {mid} after seq "
                f"{self._last.get(mid.origin, NO_MESSAGE)} of origin {mid.origin}"
            )
        self._last[mid.origin] = mid.seq
        self.version += 1

    def restore(
        self,
        last: dict[ProcessId, SeqNo],
        gaps: dict[ProcessId, tuple[tuple[SeqNo, SeqNo], ...]] | None = None,
    ) -> None:
        """Rebuild tracker state from a snapshot."""
        self.version += 1
        self._last = {o: s for o, s in last.items() if s > NO_MESSAGE}
        self._gaps = {}
        if gaps:
            for origin, ranges in gaps.items():
                for first, end in ranges:
                    self.add_gap(origin, first, end)

    def snapshot(self) -> dict[ProcessId, SeqNo]:
        """Copy of the per-origin last-processed vector (raw)."""
        return dict(self._last)

    def _frontier(self, origin: ProcessId) -> SeqNo:
        frontier = self._last.get(origin, NO_MESSAGE)
        for first, end in self._gaps.get(origin, ()):
            if first <= frontier + 1:
                if end > frontier:
                    frontier = end
            else:
                break
        return frontier


class SetDependencyTracker:
    """Tracker for arbitrary dependency DAGs (full Definition 3.1)."""

    def __init__(self) -> None:
        self._processed: set[Mid] = set()

    def is_processed(self, mid: Mid) -> bool:
        return mid in self._processed

    def mark_processed(self, mid: Mid) -> None:
        if mid in self._processed:
            raise CausalityViolationError(f"{mid} processed twice")
        self._processed.add(mid)

    def __len__(self) -> int:
        return len(self._processed)
