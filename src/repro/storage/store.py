"""Node-level storage: one WAL + one snapshot per node, with cadence.

:class:`NodeStorage` is what a driver (:class:`~repro.runtime.node.
AsyncNode` or the simulator) talks to: it logs generated/processed
messages and adopted decisions into the WAL, takes a snapshot every
``snapshot_interval`` records — truncating the WAL behind it, which
bounds recovery-replay cost — and on :meth:`load` returns the snapshot
plus the WAL suffix for :func:`~repro.storage.snapshot.restore_member`.

:class:`GroupStorage` hands out per-pid ``NodeStorage`` instances over
one shared backend, which is how a whole :class:`AsyncGroup` or
``SimCluster`` is made durable with a single object.
"""

from __future__ import annotations

from ..core.decision import Decision
from ..core.message import UserMessage
from ..net.stats import MetricSink
from ..types import ProcessId
from .backend import MemoryBackend, StorageBackend
from .snapshot import MemberSnapshot, decode_snapshot, encode_snapshot
from .wal import WalRecord, WriteAheadLog

__all__ = ["NodeStorage", "GroupStorage", "SnapshotJob"]

#: Default records-between-snapshots (tuned low enough that tests and
#: torture runs actually exercise the compaction path).
DEFAULT_SNAPSHOT_INTERVAL = 64


class SnapshotJob:
    """A captured snapshot awaiting persistence.

    Produced by :meth:`NodeStorage.begin_snapshot`.  :meth:`persist` is
    the only blocking step and is safe to run on an executor thread: it
    writes the snapshot blob only and never touches the WAL, which the
    owning thread keeps appending to (and buffering) meanwhile.
    """

    __slots__ = ("_storage", "_blob")

    def __init__(self, storage: "NodeStorage", blob: bytes) -> None:
        self._storage = storage
        self._blob = blob

    def persist(self) -> None:
        """Write the captured snapshot blob (blocking; any thread)."""
        self._storage.backend.write(self._storage._snapshot_name, self._blob)


class NodeStorage:
    """Durable state of one node: WAL + latest snapshot."""

    def __init__(
        self,
        backend: StorageBackend,
        pid: ProcessId,
        *,
        snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
    ) -> None:
        if snapshot_interval < 1:
            raise ValueError(f"snapshot_interval must be >= 1, got {snapshot_interval}")
        self.backend = backend
        self.pid = pid
        self.snapshot_interval = snapshot_interval
        self.wal = WriteAheadLog(backend, f"node-{int(pid):05d}.wal")
        self._snapshot_name = f"node-{int(pid):05d}.snap"
        #: WAL records appended since the last snapshot.
        self.records_since_snapshot = 0
        #: Snapshots taken over this instance's lifetime.
        self.snapshots_taken = 0
        #: Framed WAL records appended while a snapshot persists
        #: asynchronously (None when no snapshot is in flight).
        self._flight_tail: list[bytes] | None = None
        self._registry: MetricSink | None = None

    def bind_registry(self, registry: MetricSink) -> None:
        """Mirror WAL/snapshot activity into a shared observability
        registry as ``storage.wal_records`` (labelled by record kind)
        and ``storage.snapshots`` counters."""
        self._registry = registry

    def _count_record(self, kind: str) -> None:
        self.records_since_snapshot += 1
        if self._registry is not None:
            self._registry.count(
                "storage.wal_records", kind=kind, node=int(self.pid)
            )

    # -- logging -------------------------------------------------------

    def _absorb(self, record: bytes, kind: str) -> None:
        if self._flight_tail is not None:
            self._flight_tail.append(record)
        self._count_record(kind)

    def log_generated(self, message: UserMessage) -> None:
        self._absorb(self.wal.append_generated(message), "generated")

    def log_processed(self, message: UserMessage) -> None:
        self._absorb(self.wal.append_processed(message), "processed")

    def log_decision(self, decision: Decision) -> None:
        self._absorb(self.wal.append_decision(decision), "decision")

    # -- snapshots -----------------------------------------------------

    def should_snapshot(self) -> bool:
        return (
            self._flight_tail is None
            and self.records_since_snapshot >= self.snapshot_interval
        )

    def begin_snapshot(self, snapshot: MemberSnapshot) -> SnapshotJob:
        """Capture ``snapshot`` for persistence.

        Pure CPU: encodes the blob and starts buffering every WAL
        record appended while the write is in flight.  Run the returned
        job's :meth:`SnapshotJob.persist` on any thread (the simulator
        runs it inline, the asyncio runtime on an executor), then call
        :meth:`finish_snapshot` from the owning thread to compact the
        WAL.  While a snapshot is in flight :meth:`should_snapshot` is
        False, so the cadence cannot start a second one.
        """
        if self._flight_tail is not None:
            raise RuntimeError("a snapshot is already in flight")
        blob = encode_snapshot(snapshot)
        self._flight_tail = []
        return SnapshotJob(self, blob)

    def finish_snapshot(self) -> None:
        """Compact the WAL behind a persisted snapshot.

        The log becomes exactly the records appended while the write
        was in flight — one atomic rewrite, so no record is ever
        dropped before a durable snapshot covers it.
        """
        tail = self._flight_tail
        if tail is None:
            raise RuntimeError("no snapshot in flight")
        self._flight_tail = None
        self.wal.rewrite(tail)
        self.records_since_snapshot = len(tail)
        self.snapshots_taken += 1
        if self._registry is not None:
            self._registry.count("storage.snapshots", node=int(self.pid))

    # -- recovery ------------------------------------------------------

    def load(self) -> tuple[MemberSnapshot | None, list[WalRecord]]:
        """Read back the snapshot (None if never taken) and the WAL
        suffix, torn tail already truncated."""
        blob = self.backend.read(self._snapshot_name)
        snapshot = decode_snapshot(blob) if blob is not None else None
        records = self.wal.open()
        self.records_since_snapshot = len(records)
        return snapshot, records


class GroupStorage:
    """Per-pid :class:`NodeStorage` family over one backend."""

    def __init__(
        self,
        backend: StorageBackend | None = None,
        *,
        snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
    ) -> None:
        self.backend = backend if backend is not None else MemoryBackend()
        self.snapshot_interval = snapshot_interval
        self._nodes: dict[ProcessId, NodeStorage] = {}

    def node(self, pid: ProcessId) -> NodeStorage:
        storage = self._nodes.get(pid)
        if storage is None:
            storage = NodeStorage(
                self.backend, pid, snapshot_interval=self.snapshot_interval
            )
            self._nodes[pid] = storage
        return storage
