"""Live receive-path hardening and suspicion surfacing in AsyncNode."""

import asyncio

from repro.core.config import FailureDetectorConfig, UrcgcConfig
from repro.core.message import UserMessage
from repro.core.mid import Mid
from repro.net.addressing import UnicastAddress
from repro.net.wire import encode_message
from repro.runtime.lan import AsyncLan
from repro.runtime.node import AsyncGroup
from repro.types import ProcessId, SeqNo

from ..net.test_decode_hardening import duplicate_origin_batch


def _run(coro):
    return asyncio.run(coro)


def test_garbage_and_forged_datagrams_do_not_kill_the_receiver():
    async def main() -> None:
        lan = AsyncLan()
        group = AsyncGroup(UrcgcConfig(n=3, K=2), lan=lan, round_interval=0.005)
        group.start()
        try:
            target = ProcessId(0)
            lan.sendto(ProcessId(1), UnicastAddress(target), b"\x07not-a-pdu")
            forged = UserMessage(
                Mid(ProcessId(1), SeqNo(1)),
                (Mid(ProcessId(0xFFFF), SeqNo(1)),),
            )
            lan.sendto(
                ProcessId(1), UnicastAddress(target), encode_message(forged)
            )
            await group.wait_until(
                lambda: group.nodes[target].decode_errors >= 2, timeout=5.0
            )
            # The node survived both and the group still makes progress.
            group.nodes[ProcessId(1)].submit(b"after")
            await group.wait_until(group.quiescent, timeout=10.0)
            delivered = [m.payload for m in group.nodes[target].delivered]
            assert b"after" in delivered
        finally:
            await group.stop()

    _run(main())


def test_batch_naming_an_origin_twice_does_not_kill_the_receiver():
    async def main() -> None:
        lan = AsyncLan()
        group = AsyncGroup(UrcgcConfig(n=3, K=2), lan=lan, round_interval=0.005)
        group.start()
        try:
            target = ProcessId(0)
            lan.sendto(
                ProcessId(1), UnicastAddress(target), duplicate_origin_batch()
            )
            await group.wait_until(
                lambda: group.nodes[target].decode_errors >= 1, timeout=5.0
            )
            # The receive loop is still running: later traffic arrives.
            group.nodes[ProcessId(1)].submit(b"after")
            await group.wait_until(group.quiescent, timeout=10.0)
            delivered = [m.payload for m in group.nodes[target].delivered]
            assert b"after" in delivered
        finally:
            await group.stop()

    _run(main())


def test_live_crash_surfaces_suspicion_events():
    async def main() -> None:
        group = AsyncGroup(
            UrcgcConfig(
                n=3,
                K=2,
                failure_detector=FailureDetectorConfig(kind="heartbeat"),
            ),
            round_interval=0.005,
        )
        group.start()
        try:
            for i in range(3):
                group.nodes[ProcessId(i)].submit(f"s{i}".encode())
            await group.wait_until(group.quiescent, timeout=10.0)
            victim = ProcessId(2)
            await group.crash(victim)
            await group.wait_until(
                lambda: any(
                    event.pid == int(victim) and event.suspected
                    for node in group.live_nodes
                    for event in node.suspicion_events
                ),
                timeout=10.0,
            )
        finally:
            await group.stop()

    _run(main())
