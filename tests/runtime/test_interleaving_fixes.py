"""Regression tests for the races the interleaving analyzer surfaced.

Each test here pins a finding from ``python -m repro lint --rules I,T``
(see docs/ANALYSIS.md): the stale-task-list read across ``stop()``'s
gather (I501), the shared node list iterated across suspension in
``AsyncGroup.stop`` (I503), and the blocking snapshot write that used
to run inline on the event loop (I502), now offloaded to the default
executor via ``NodeStorage.begin_snapshot`` / ``finish_snapshot``.
"""

import asyncio
import threading

from repro.core.config import UrcgcConfig
from repro.core.rejoin import (
    RECORD_DECISION,
    RECORD_GENERATED,
    RECORD_PROCESSED,
)
from repro.runtime.node import AsyncGroup
from repro.storage import GroupStorage, MemoryBackend
from repro.types import ProcessId


def _run(coro):
    return asyncio.run(coro)


FAST = 0.004


class ThreadRecordingBackend(MemoryBackend):
    """Records which thread performed each full-blob write."""

    def __init__(self) -> None:
        super().__init__()
        self.write_threads: dict[str, set[int]] = {}

    def write(self, name: str, data: bytes) -> None:
        self.write_threads.setdefault(name, set()).add(threading.get_ident())
        super().write(name, data)


def test_stop_detaches_tasks_before_suspending():
    # I501 regression: stop() used to clear self._tasks only *after*
    # awaiting the gather, so anything running while it was suspended
    # saw a half-stopped node and start() raised "already started".
    async def main() -> None:
        group = AsyncGroup(UrcgcConfig(n=3), round_interval=FAST)
        group.start()
        node = group.nodes[0]
        stopper = asyncio.create_task(node.stop())
        await asyncio.sleep(0)  # stopper is now suspended at its gather
        node.start()  # must observe an already-stopped node
        await stopper
        await group.stop()

    _run(main())


def test_group_stop_survives_membership_mutation():
    # I503 regression: AsyncGroup.stop iterated self.nodes directly,
    # so a membership change during the per-node await skipped nodes.
    async def main() -> None:
        group = AsyncGroup(UrcgcConfig(n=3), round_interval=FAST)
        group.start()
        last = group.nodes[-1]
        real_stop = group.nodes[0].stop

        async def stop_and_shrink() -> None:
            await real_stop()
            group.nodes.pop()

        group.nodes[0].stop = stop_and_shrink
        await group.stop()
        assert not last._tasks  # the popped node was still stopped

    _run(main())


def test_snapshot_blob_writes_happen_off_the_loop_thread():
    # I502 regression: a synchronous snapshot save ran its backend write
    # inline in the effect pipeline; with a FileBackend that is fsync +
    # rename on the one thread every node shares.  The write must land
    # on an executor thread, with no WAL record lost around the
    # compaction.
    async def main() -> None:
        loop_thread = threading.get_ident()
        backend = ThreadRecordingBackend()
        storage = GroupStorage(backend, snapshot_interval=8)
        group = AsyncGroup(
            UrcgcConfig(n=3, K=3), round_interval=FAST, storage=storage
        )
        group.start()
        try:
            for i in range(12):
                group.nodes[ProcessId(0)].submit(b"m%d" % i)
            await group.wait_until(group.quiescent, timeout=10.0)
            await group.wait_until(
                lambda: storage.node(ProcessId(0)).snapshots_taken >= 1,
                timeout=10.0,
            )
        finally:
            await group.stop()
        snap_threads = backend.write_threads["node-00000.snap"]
        assert loop_thread not in snap_threads
        # Durable state is still a consistent cut: snapshot + WAL
        # suffix replay to the node's delivered log.
        snapshot, records = storage.node(ProcessId(0)).load()
        assert snapshot is not None
        kinds = {RECORD_GENERATED, RECORD_PROCESSED, RECORD_DECISION}
        assert all(r.kind in kinds for r in records)

    _run(main())
