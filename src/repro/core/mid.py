"""Message identifiers.

Every urcgc message carries a *mid* that uniquely identifies it: the
generating process and the progressive order the process assigned
(Section 4: "it assigns to msg a progressive order").  Under the
paper's intermediate causality interpretation each process roots one
sequence, so ``(origin, seq)`` totally orders messages within an
origin, and ``seq`` starts at 1 (0 is the "nothing yet" sentinel used
in ``last_processed``-style vectors).

A message names up to ``n`` mids as dependencies, and every layer
(wire codec, dependency checks, waiting list, history) hashes, compares
and builds them, so :class:`Mid` is a plain ``tuple`` subclass: hash,
equality and ordering are the tuple's own C implementations.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING

from ..errors import CausalityViolationError
from ..types import ProcessId, SeqNo

__all__ = ["Mid", "NO_MESSAGE"]

#: Sentinel sequence number meaning "no message of this origin yet".
NO_MESSAGE: SeqNo = SeqNo(0)

_new_pair = tuple.__new__


class Mid(tuple):
    """Unique message id: ``(origin process, progressive order)``.

    Immutable; ordered by origin, then seq.  A ``Mid`` equals and hashes
    like the plain ``(origin, seq)`` tuple.
    """

    __slots__ = ()

    if TYPE_CHECKING:
        origin: ProcessId
        seq: SeqNo
    else:
        origin = property(itemgetter(0), doc="The generating process.")
        seq = property(itemgetter(1), doc="Progressive order within the origin.")

    def __new__(cls, origin: ProcessId, seq: SeqNo) -> "Mid":
        if seq < 1:
            raise CausalityViolationError(
                f"message sequence numbers start at 1, got {seq}"
            )
        if origin < 0:
            raise CausalityViolationError(f"negative origin {origin}")
        return _new_pair(cls, (origin, seq))

    def __getnewargs__(self) -> tuple[ProcessId, SeqNo]:  # type: ignore[override]
        return (self[0], self[1])

    @property
    def predecessor(self) -> "Mid | None":
        """The previous message of the same sequence (None for the root)."""
        origin, seq = self
        if seq == 1:
            return None
        return _new_pair(Mid, (origin, seq - 1))

    def __repr__(self) -> str:
        return f"Mid(origin={self[0]!r}, seq={self[1]!r})"

    def __str__(self) -> str:
        return f"m({self[0]},{self[1]})"
