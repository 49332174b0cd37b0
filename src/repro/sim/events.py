"""Event objects and the priority queue driving the simulation kernel.

Events are ordered by ``(time, priority, sequence)``.  The sequence
number makes ordering total and deterministic: two events scheduled for
the same instant with the same priority fire in scheduling order, which
keeps every simulation reproducible for a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ScheduleInPastError
from ..types import Time

__all__ = ["Event", "EventQueue", "PRIORITY_NETWORK", "PRIORITY_ROUND", "PRIORITY_DEFAULT"]

#: Packet deliveries fire before round ticks scheduled at the same
#: instant, so a round handler sees everything "already on the wire".
PRIORITY_NETWORK = 0
PRIORITY_ROUND = 10
PRIORITY_DEFAULT = 20


@dataclass
class Event:
    """A scheduled callback.

    The queue orders events by ``(time, priority, seq)`` through the
    heap entries it keeps; the callback and its payload are excluded
    from equality.
    """

    time: Time
    priority: int
    seq: int
    action: Callable[[], Any] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        #: ``(time, priority, seq, event)`` entries: ``seq`` is unique,
        #: so tuple comparison never reaches the event itself.
        self._heap: list[tuple[Time, int, int, Event]] = []
        self._counter = itertools.count()
        self._now: Time = 0.0

    @property
    def now(self) -> Time:
        """Time of the most recently popped event (0.0 initially)."""
        return self._now

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def push(
        self,
        time: Time,
        action: Callable[[], Any],
        *,
        priority: int = PRIORITY_DEFAULT,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at ``time``; returns a cancellable handle."""
        if time < self._now:
            raise ScheduleInPastError(
                f"cannot schedule {label or action!r} at t={time} < now={self._now}"
            )
        seq = next(self._counter)
        event = Event(time, priority, seq, action, label)
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def pop(self) -> Event | None:
        """Pop the next non-cancelled event, advancing the clock.

        Returns ``None`` when the queue is exhausted.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                continue
            self._now = event.time
            return event
        return None

    def peek_time(self) -> Time | None:
        """Return the time of the next pending event without popping."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def clear(self) -> None:
        """Drop every pending event (the clock is left untouched)."""
        self._heap.clear()
