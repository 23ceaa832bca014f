"""Wall-clock spans around the public entry points of each layer.

The program is not edited: :class:`Tracer` wraps the functions named in
``install`` from the outside (class attributes, two ``from``-imported
module globals, and per-world instance hooks) and restores them on
``uninstall``.  Each wrapper records one span — layer, start, end, the
span that caused it, the operation it belongs to — nested under one root
span per operation opened by the driver.  A layer's *self time* is its
span's duration minus the time covered by its child spans, so the
per-layer figures sum to the traced wall clock; whatever the root span
does not hand to a layer is ``trace.unattributed_share``.

Aggregates (calls, self time) are kept for every operation; raw spans
only for the first ``RAW_OPS`` operations.  ``repro.telemetry.Tracer`` is
simulated-clock and has three span sites, so it is not used here; moving
these spans inside ``src/`` is a later issue.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns
from typing import Callable, Optional

RAW_OPS = 2000          # raw spans are kept for the first operations ...
RAW_SPANS = 200_000     # ... up to this many spans (one late join is 30k)

# Layers, named after the modules they live in.  ``driver`` is the root
# span's own time (the benchmark loop), ``driver.sink`` the benchmark's
# sinks, ``driver.idle`` the open-loop generator waiting for the next due
# time with nothing in flight; none of them is part of the program.
CONTROL_LAYERS = (
    "sim.scheduler",
    "bgp.transport.rx",
    "bgp.transport.tx",
    "bgp.session.rx",
    "bgp.session.tx",
    "bgp.messages.decode",
    "bgp.messages.encode",
    "vbgp.node.upstream",
    "vbgp.node.experiment",
    "vbgp.communities",
    "security.control",
    "netsim.stack.route",
    "netsim.lpm.write",
    "bgp.speaker",
    "bgp.rib",
    "bgp.decision",
)
DATA_LAYERS = (
    "netsim.link",
    "netsim.stack.rx",
    "vbgp.node.intercept",
    "security.data",
    "netsim.stack.lookup",
    "netsim.lpm.read",
    "netsim.stack.tx",
)
LAYERS = CONTROL_LAYERS + DATA_LAYERS
_ALL = ("driver", "driver.sink", "driver.idle") + LAYERS


class Tracer:
    def __init__(self) -> None:
        self.index = {name: i for i, name in enumerate(_ALL)}
        self.calls = [0] * len(_ALL)
        self.self_ns = [0] * len(_ALL)
        self.ops = 0
        self.wall_ns = 0
        self.spans: list[tuple[int, int, int, int, int]] = []
        # Child-time accumulators / ids of the open spans, root first.
        self._stack: list[list[int]] = []
        self._open: list[int] = []
        self._op = -1
        self._in_op = False
        self._raw = False
        self._root_start = 0
        self._undo: list[Callable[[], None]] = []
        # id(port) -> layer index, filled per world by ``bind_world``.
        self._port_layer: dict[int, int] = {}
        # Mux-side arrival of injected bytes (bgp.transport.queue_wait_us).
        self.queue_waits_ns: list[int] = []
        # Collector pauses inside operations.  They also sit inside
        # whichever layer was running, so this share overlaps the others.
        self.gc_ns = 0
        self.gc_runs = 0
        self._gc_start = 0

    # -- root span (one per operation) ------------------------------------

    def begin(self) -> None:
        self._op += 1
        self._in_op = True
        self._stack.append([0])
        self._raw = self._op < RAW_OPS and len(self.spans) < RAW_SPANS
        if self._raw:
            self._open.append(len(self.spans))
            self.spans.append((0, 0, 0, -1, self._op))
        self._root_start = perf_counter_ns()

    def end(self, ops: int = 1) -> None:
        """Close the root span; ``ops`` is how many operations it covered
        (a late join or a loopback window is one span over many)."""
        duration = perf_counter_ns() - self._root_start
        self._in_op = False
        children = self._stack.pop()[0]
        self.calls[0] += 1
        self.self_ns[0] += duration - children
        self.ops += ops
        self.wall_ns += duration
        if self._raw:
            span = self._open.pop()
            self.spans[span] = (
                0, self._root_start, self._root_start + duration, -1, self._op
            )

    def idle(self, duration_ns: int) -> None:
        """The driver waited ``duration_ns`` with nothing in flight."""
        index = self.index["driver.idle"]
        self.calls[index] += 1
        self.self_ns[index] += duration_ns
        self._stack[-1][0] += duration_ns

    def _gc_event(self, phase: str, _info: dict) -> None:
        if not self._in_op:
            return
        if phase == "start":
            self._gc_start = perf_counter_ns()
        elif self._gc_start:
            self.gc_ns += perf_counter_ns() - self._gc_start
            self.gc_runs += 1
            self._gc_start = 0

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn: Callable, layer: str,
             select: Optional[Callable[[tuple], int]] = None,
             count: int = 1):
        """``fn`` timed as ``layer``; ``select(args)`` may pick another
        layer index per call; ``count=0`` adds time but no call.  Calls
        outside an operation (set-up, input generation, verification)
        run untraced."""
        fixed = self.index[layer]
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        spans, open_spans = self.spans, self._open
        now = perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._in_op:
                return fn(*args, **kwargs)
            layer_index = fixed if select is None else select(args)
            frame = [0]
            stack.append(frame)
            raw = tracer._raw
            if raw:
                span = len(spans)
                spans.append((layer_index, 0, 0, open_spans[-1], tracer._op))
                open_spans.append(span)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = now() - start
                stack.pop()
                calls[layer_index] += count
                self_ns[layer_index] += duration - frame[0]
                stack[-1][0] += duration
                if raw:
                    open_spans.pop()
                    parent, op = spans[span][3], spans[span][4]
                    spans[span] = (
                        layer_index, start, start + duration, parent, op
                    )

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, name: str, layer: str, select=None,
               count: int = 1) -> None:
        original = getattr(owner, name)
        setattr(owner, name, self.wrap(original, layer, select, count))
        self._undo.append(lambda: setattr(owner, name, original))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the class-level entry points (all worlds, all sessions)."""
        from repro.bgp import decision, rib, session, speaker, transport
        from repro.bgp import messages
        from repro.netsim import link, lpm, stack
        from repro.security import control, data
        from repro.sim import scheduler
        from repro.vbgp import node

        index = self.index
        gc.callbacks.append(self._gc_event)
        self._undo.append(lambda: gc.callbacks.remove(self._gc_event))
        # run_until is the loop the driver calls (timed, not counted);
        # step is one event.
        self._patch(scheduler.Scheduler, "run_until", "sim.scheduler",
                    count=0)
        self._patch(scheduler.Scheduler, "step", "sim.scheduler")
        self._patch(transport.Channel, "send", "bgp.transport.tx")
        self._patch(transport.SocketChannel, "send", "bgp.transport.tx")
        self._patch(transport.SocketPoller, "pump", "bgp.transport.rx")
        self._patch(messages.MessageDecoder, "next_message",
                    "bgp.messages.decode")
        self._patch(messages.UpdateMessage, "encode", "bgp.messages.encode")
        self._patch(session.BgpSession, "send_update", "bgp.session.tx")

        upstream = index["vbgp.node.upstream"]
        experiment = index["vbgp.node.experiment"]
        speaker_layer = index["bgp.speaker"]

        def owner_of(args):
            # deliver_update hands the UPDATE to whoever owns the session:
            # the mux's experiment side ("exp:<name>"), a real client
            # speaker (its neighbor is named "mux"), else the mux's
            # upstream side.
            key = args[0].peer_key
            if key.startswith("exp:"):
                return experiment
            if key == "mux":
                return speaker_layer
            return upstream

        self._patch(session.BgpSession, "deliver_update",
                    "vbgp.node.upstream", owner_of)
        self._patch(control.ControlPlaneEnforcer, "filter_routes",
                    "security.control")
        # ``from``-imported into vbgp.node, so patched where they are used.
        self._patch(node, "select_targets", "vbgp.communities")
        self._patch(node, "strip_control", "vbgp.communities")
        self._patch(stack.NetworkStack, "add_route", "netsim.stack.route")
        self._patch(stack.NetworkStack, "remove_route", "netsim.stack.route")
        self._patch(stack.NetworkStack, "lookup_route", "netsim.stack.lookup")
        self._patch(lpm.LpmTable, "insert", "netsim.lpm.write")
        self._patch(lpm.LpmTable, "remove", "netsim.lpm.write")
        self._patch(lpm.LpmTable, "lookup", "netsim.lpm.read")
        self._patch(data.DataPlaneEnforcer, "ingress", "security.data")
        self._patch(stack.Interface, "send_frame", "netsim.stack.tx")
        port_layer = self._port_layer
        link_layer = index["netsim.link"]
        self._patch(link.Port, "deliver", "netsim.link",
                    lambda args: port_layer.get(id(args[0]), link_layer))
        self._patch(link.Port, "transmit", "netsim.link")
        self._patch(rib._LocRibBase, "replace", "bgp.rib")
        self._patch(rib._LocRibBase, "remove", "bgp.rib")
        self._patch(decision, "best_path", "bgp.decision")
        self._patch(speaker, "best_path", "bgp.decision")

    def bind_world(self, world, injected: Optional[dict] = None) -> None:
        """Wrap the per-instance hooks of one built world.

        ``injected`` maps a mux-side channel to the driver's list of
        ``(byte offset, due ns)`` for what it sends toward that channel
        (see ``bind_channel``).
        """
        injected = injected or {}
        stack_rx = self.index["netsim.stack.rx"]
        sink = self.index["driver.sink"]
        for iface in world.pop.stack.interfaces.values():
            self._port_layer[id(iface.port)] = stack_rx
        for device in world.neighbor_devices + (
            [world.tunnel_device] if world.tunnel_device else []
        ):
            self._port_layer[id(device.port)] = sink
        hooks = world.pop.stack.ingress_hooks
        originals = list(hooks)
        hooks[:] = [self.wrap(hook, "vbgp.node.intercept") for hook in hooks]
        self._undo.append(lambda: hooks.__setitem__(slice(None), originals))
        node = world.pop.node
        sessions = [n.session for n in node.upstreams.values()] + [
            e.session for e in node.experiments.values()
        ]
        for session in sessions:
            self.bind_channel(session.channel,
                              arrivals=injected.get(session.channel))
        for endpoint in world.upstreams + world.experiments:
            self.bind_channel(endpoint.channel, "driver.sink")

    def bind_channel(self, channel, layer: str = "bgp.session.rx",
                     arrivals: Optional[list] = None) -> None:
        """Wrap a channel's ``on_data`` (the session's byte entry point).

        With ``arrivals`` (the driver's list of ``(byte offset, due ns)``
        for what it injected toward this channel) the wrapper also
        records how long each injected message waited before the mux saw
        it: ``bgp.transport.queue_wait_us``.
        """
        original = channel.on_data
        traced = self.wrap(original, layer)
        if arrivals is None:
            channel.on_data = traced
        else:
            waits = self.queue_waits_ns
            seen = [0, 0]       # bytes received, next arrival index

            def timed(data: bytes) -> None:
                now = perf_counter_ns()
                seen[0] += len(data)
                at = seen[1]
                while at < len(arrivals) and arrivals[at][0] <= seen[0]:
                    waits.append(now - arrivals[at][1])
                    at += 1
                seen[1] = at
                traced(data)

            channel.on_data = timed
        self._undo.append(lambda: setattr(channel, "on_data", original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self._port_layer.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.self_us_per_op``, ``.calls_per_op``, ``.share``."""
        ops = max(self.ops, 1)
        wall = max(self.wall_ns, 1)
        out = {}
        for name in LAYERS:
            i = self.index[name]
            out[f"{name}.self_us_per_op"] = self.self_ns[i] / ops / 1e3
            out[f"{name}.calls_per_op"] = self.calls[i] / ops
            out[f"{name}.share"] = self.self_ns[i] / wall
        out["trace.unattributed_share"] = self.self_ns[0] / wall
        out["runtime.gc.share"] = self.gc_ns / wall
        out["runtime.gc.runs_per_kop"] = 1000.0 * self.gc_runs / ops
        for name in ("driver.sink", "driver.idle"):
            out[f"{name}.share"] = self.self_ns[self.index[name]] / wall
        return out

    def dump(self) -> dict:
        """Everything written to ``out/`` when the run ends."""
        return {
            "layers": list(_ALL),
            "ops": self.ops,
            "wall_ns": self.wall_ns,
            "calls": self.calls,
            "self_ns": self.self_ns,
            "span_fields": ["layer", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
        }
