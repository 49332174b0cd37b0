"""Integration tests for the asyncio urcgc runtime."""

import asyncio

import pytest

from repro.core.config import UrcgcConfig
from repro.runtime.lan import AsyncLan
from repro.runtime.node import AsyncGroup
from repro.types import ProcessId


def run(coro):
    return asyncio.run(coro)


FAST = 0.004  # round interval: keep the tests quick


def test_reliable_group_processes_everything():
    async def main():
        group = AsyncGroup(UrcgcConfig(n=3), round_interval=FAST)
        group.start()
        try:
            submissions = [(ProcessId(i % 3), f"m{i}".encode()) for i in range(9)]
            await group.run_workload(submissions, timeout=15)
            for node in group.nodes:
                assert len(node.delivered) == 9
            vectors = {n.member.last_processed_vector() for n in group.nodes}
            assert vectors == {(3, 3, 3)}
        finally:
            await group.stop()

    run(main())


def test_causal_order_preserved_at_every_node():
    async def main():
        group = AsyncGroup(UrcgcConfig(n=3), round_interval=FAST)
        group.start()
        try:
            submissions = [(ProcessId(i % 3), f"m{i}".encode()) for i in range(12)]
            await group.run_workload(submissions, timeout=15)
            for node in group.nodes:
                seen = set()
                for message in node.delivered:
                    for dep in message.deps:
                        assert dep in seen
                    seen.add(message.mid)
        finally:
            await group.stop()

    run(main())


def test_lossy_lan_heals_via_recovery():
    async def main():
        lan = AsyncLan(loss=0.05, seed=7)
        group = AsyncGroup(UrcgcConfig(n=4), lan=lan, round_interval=FAST)
        group.start()
        try:
            submissions = [(ProcessId(i % 4), f"m{i}".encode()) for i in range(16)]
            await group.run_workload(submissions, timeout=30)
            assert lan.dropped_count > 0  # losses actually happened
            for node in group.nodes:
                assert len(node.delivered) == 16
        finally:
            await group.stop()

    run(main())


def test_indication_callback_fires():
    async def main():
        indications = []
        group = AsyncGroup(
            UrcgcConfig(n=3),
            round_interval=FAST,
            on_indication=lambda pid, m: indications.append((pid, m.mid)),
        )
        group.start()
        try:
            await group.run_workload([(ProcessId(0), b"x")], timeout=10)
            pids = {pid for pid, _ in indications}
            assert pids == {0, 1, 2}
        finally:
            await group.stop()

    run(main())


def test_confirms_recorded():
    async def main():
        group = AsyncGroup(UrcgcConfig(n=3), round_interval=FAST)
        group.start()
        try:
            await group.run_workload([(ProcessId(1), b"a"), (ProcessId(1), b"b")], timeout=10)
            assert len(group.nodes[1].service.confirmed) == 2
        finally:
            await group.stop()

    run(main())


def test_node_double_start_rejected():
    async def main():
        group = AsyncGroup(UrcgcConfig(n=2), round_interval=FAST)
        group.start()
        try:
            with pytest.raises(RuntimeError):
                group.nodes[0].start()
        finally:
            await group.stop()

    run(main())


def test_wait_until_times_out():
    async def main():
        group = AsyncGroup(UrcgcConfig(n=2), round_interval=FAST)
        group.start()
        try:
            with pytest.raises(asyncio.TimeoutError):
                await group.wait_until(lambda: False, timeout=0.05)
        finally:
            await group.stop()

    run(main())
