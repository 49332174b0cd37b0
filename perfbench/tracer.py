"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of each layer at the binding its
caller uses (a class attribute, or a module-level name imported by the
caller) for the duration of one traced repetition, then restores them.
Every wrapped call becomes a span: name, start, end and parent span.
Self time is the span's duration minus the time its child spans cover,
accumulated per span name as the spans close.

Spans are kept in memory, up to a cap, and written out when the
benchmark ends; counts and self times cover every span, kept or not.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter
from typing import Callable

#: Spans kept in memory for the span file (per run, about 50 bytes a
#: span on disk); aggregates cover every span.
SPAN_CAP = 100_000

Observer = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Collects spans and per-name aggregates for wrapped calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        #: Free-form counts recorded at the span boundaries.
        self.counts: dict[str, float] = {}
        self._next_span = 0
        # [span id, time covered by child spans]
        self._stack: list[list] = []
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patched: list[tuple[object, str, object]] = []

    # -- aggregates ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-name calls and self seconds, plus the boundary counts."""
        spans = {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
        }
        return {"spans": spans, "counts": dict(self.counts)}

    def reset_aggregates(self) -> None:
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = {}

    # -- wrapping --------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Observer | None = None,
        *,
        materialize: bool = False,
    ) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``observe(tracer, args, kwargs, result)`` runs after the span closes;
        its cost is charged to no layer.  ``materialize`` drains a
        generator result inside the span (the caller gets a list).
        """
        nid = self._name_id(name)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._next_span
            tracer._next_span = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[nid] += duration - frame[1]
                tracer.calls[nid] += 1
                if span < SPAN_CAP:
                    tracer.span_id.append(span)
                    tracer.span_name.append(nid)
                    tracer.span_parent.append(parent)
                    tracer.span_start.append(start)
                    tracer.span_end.append(end)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            if stack:
                # The parent's child time covers this span and the
                # bookkeeping after it, so tracing cost is not charged
                # to the parent's self time.
                stack[-1][1] += perf_counter() - start
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(
        self,
        target: str,
        name: str,
        observe: Observer | None = None,
        *,
        materialize: bool = False,
    ) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` until :meth:`unpatch`."""
        module_name, _, path = target.partition(":")
        owner: object = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, observe, materialize=materialize))
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write kept spans as TSV (id, name, parent, start, end)."""
        base = min(self.span_start) if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tparent\tstart_s\tend_s\n")
            # Spans are appended as they close; ids follow entry order.
            order = sorted(range(len(self.span_id)), key=self.span_id.__getitem__)
            for i in order:
                out.write(
                    f"{self.span_id[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_parent[i]}\t"
                    f"{self.span_start[i] - base:.9f}\t{self.span_end[i] - base:.9f}\n"
                )
        return len(self.span_start)
