"""Where the traced run cuts the program into layers.

Each entry wraps one public function at the binding its caller uses.
Functions imported by name into a caller's module (``compute_decision``
in ``repro.core.member``, ``expand_message`` in the two drivers) are
wrapped in that module, so the caller's lookup finds the span.
"""

from __future__ import annotations

from repro.core.effects import Deliver
from repro.core.message import GenerateBatch, RecoveryResponse, UserMessage
from repro.net.wire import BatchFrame

from tracer import Tracer


def _encoded(tracer: Tracer, args: tuple, kwargs: dict, result: object) -> None:
    tracer.count("codec.bytes", len(result))


def _handed_in(tracer: Tracer, args: tuple, kwargs: dict, result: object) -> None:
    message = args[1]
    if isinstance(message, UserMessage):
        handed = 1
    elif isinstance(message, GenerateBatch):
        handed = len(message.payloads)
    elif isinstance(message, RecoveryResponse):
        handed = len(message.messages)
    else:
        handed = 0
    if handed:
        tracer.count("member.user_in", handed)
    tracer.count("member.processed", sum(1 for e in result if type(e) is Deliver))


def _packed(tracer: Tracer, args: tuple, kwargs: dict, result: object) -> None:
    tracer.count("batch.sends_in", len(args[1]))
    tracer.count("batch.sends_out", len(result))


def _expanded(tracer: Tracer, args: tuple, kwargs: dict, result: object) -> None:
    if isinstance(args[0], (BatchFrame, GenerateBatch)):
        tracer.count("batch.frames")


def _kernel_events(tracer: Tracer, args: tuple, kwargs: dict, result: object) -> None:
    tracer.count("kernel.events", result)


def _udp_sent(tracer: Tracer, args: tuple, kwargs: dict, result: object) -> None:
    tracer.count("udp.kind." + kwargs.get("kind", "data"))


#: (binding, span name, observer, drain a generator inside the span)
PATCHES = (
    ("repro.net.wire:CodecRegistry.encode", "codec.encode", _encoded, False),
    ("repro.net.wire:CodecRegistry.decode", "codec.decode", None, False),
    ("repro.core.member:Member.on_message", "member.on_message", _handed_in, False),
    ("repro.core.member:Member.on_round", "member.on_round", None, False),
    ("repro.core.member:compute_decision", "decision", None, False),
    ("repro.core.batcher:Batcher.pack", "batch.pack", _packed, False),
    ("repro.harness.cluster:expand_message", "batch.expand", _expanded, True),
    ("repro.runtime.node:expand_message", "batch.expand", _expanded, True),
    ("repro.net.transport:MulticastTransport.t_data_rq", "transport.t_data_rq", None, False),
    ("repro.sim.kernel:Kernel.run", "kernel.run", _kernel_events, False),
    ("repro.runtime.udp:UdpFabric.sendto", "udp.sendto", _udp_sent, False),
    ("repro.svc.tier:ShardedService.publish", "svc.publish", None, False),
    ("repro.svc.tier:ShardedService.pump", "svc.pump", None, False),
    ("repro.svc.frontend:Frontend.on_publish", "svc.frontend", None, False),
    ("repro.svc.frontend:Frontend.inject", "svc.frontend", None, False),
    ("repro.svc.frontend:Frontend.drain_outbox", "svc.frontend", None, False),
    ("repro.svc.session:ClientSession.on_deliver", "svc.on_deliver", None, False),
    ("repro.svc.bridge:CausalBridge.stamp", "svc.bridge.stamp", None, False),
    ("repro.svc.router:ShardRouter.shards_for", "svc.router", None, False),
    ("repro.obs.metrics:Registry.count", "obs.count", None, False),
    ("repro.obs.metrics:Registry.observe", "obs.observe", None, False),
)


def install(tracer: Tracer) -> None:
    for target, name, observe, materialize in PATCHES:
        tracer.patch(target, name, observe, materialize=materialize)
