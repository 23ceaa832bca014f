"""The per-PoP OS process: ``python -m repro.fleet.runpop <artifact>``.

One fleet PoP process owns exactly its own world slice: a frozen-time
scheduler, the PoP built by :func:`repro.fleet.runtime.build_fleet_pop`
from its compiled artifact, and a :class:`~repro.bgp.transport.SocketPoller`
driving real loopback TCP for every session the artifact names:

* one **listener per upstream and per experiment** — the driver dials in
  and the accepted socket becomes that session's channel;
* a **backbone listener + dial plan** — between two members the lower
  ``pop_id`` listens and the higher dials, sending a one-line
  ``bb <name>\\n`` preamble so the listener knows which mesh peer
  arrived; dials are retried from the main loop until the sibling is up;
* a **federation uplink** — the PoP's BMP station feed, serialized as
  JSON lines to the controller's central station (fault-tolerant: a
  missing or dead controller never blocks the datapath);
* a **control socket** speaking newline-delimited JSON RPC
  (``hello``/``step``/``snapshot``/``invariants``/``expectations``/
  ``summary``/``stop``).

Scheduler time stays frozen at 0: every timer (hold, keepalive,
GR-stale, supervisor backoff) is armed but never fires, exactly as in
the in-process reference leg, so no timer can make the legs diverge.
``step`` pumps the poller without blocking and drains same-time
scheduler events until nothing is ready, then replies with the PoP's
:func:`channel_traffic` — bytes sent, bytes read and open channels over
its BGP sessions and federation uplink — which the driver's counting
barrier (:meth:`repro.fleet.differential.SocketFleetLeg.settle`) sums
across the fleet.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from collections import deque
from typing import Dict, Iterable, List, Optional

from repro.bgp.transport import (
    SocketChannel,
    SocketListener,
    SocketPoller,
)
from repro.fleet.compiler import load_artifact
from repro.fleet.runtime import FleetPop, build_fleet_pop
from repro.sim.scheduler import Scheduler
from repro.telemetry import TelemetryHub
from repro.telemetry.station import (
    BmpMessage,
    HealthEvent,
    IntentEvent,
    PeerDown,
    PeerUp,
    ResilienceEvent,
    RouteMonitoring,
    StatsReport,
)

__all__ = ["PopProcess", "channel_traffic", "main", "serialize_event"]

# One ``step`` drains at most this many pump+drain rounds — a safety
# bound so a pathological event loop cannot wedge the control RPC.
MAX_STEP_ROUNDS = 10_000
# Wall-clock throttle between backbone/federation dial attempts.
REDIAL_INTERVAL = 0.2


def channel_traffic(channels: Iterable) -> List[int]:
    """``[bytes sent, bytes read, open channels]`` over the open ones.

    A closed channel drops out: its peer either drops out too or reads
    EOF on its next pump, so no count is left waiting for a partner.
    """
    sent = read = count = 0
    for channel in channels:
        if channel is not None and not channel.closed:
            sent += channel.tx_bytes
            read += channel.rx_bytes
            count += 1
    return [sent, read, count]


def serialize_event(pop: str, event: BmpMessage) -> dict:
    """One station event as JSON-safe primitives.

    Route contents are federated as *counts*: the central station needs
    the peer lifecycle and activity feed, while byte-level state lives
    in the differential snapshot protocol, not the telemetry plane.
    """
    payload = {"pop": pop, "kind": event.kind, "peer": event.peer,
               "time": event.time}
    if isinstance(event, PeerUp):
        payload.update(
            local_asn=event.local_asn, peer_asn=event.peer_asn,
            local_id=event.local_id, addpath=event.addpath,
            hold_time=event.hold_time,
        )
    elif isinstance(event, PeerDown):
        payload.update(reason=event.reason)
    elif isinstance(event, RouteMonitoring):
        payload.update(
            announced=len(event.announced), withdrawn=len(event.withdrawn),
        )
    elif isinstance(event, ResilienceEvent):
        payload.update(event=event.event, detail=event.detail)
    elif isinstance(event, IntentEvent):
        payload.update(phase=event.phase, digest=event.digest,
                       detail=event.detail)
    elif isinstance(event, HealthEvent):
        payload.update(state=event.state, previous=event.previous,
                       detail=event.detail)
    elif isinstance(event, StatsReport):
        payload.update(stats=dict(event.stats))
    return payload


class _LineReader:
    """Accumulates a channel's bytes and yields newline-delimited lines."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        self._buffer.extend(data)
        lines = []
        while True:
            index = self._buffer.find(b"\n")
            if index < 0:
                return lines
            lines.append(bytes(self._buffer[:index]))
            del self._buffer[:index + 1]


class PopProcess:
    """The long-running per-PoP server (one per OS process)."""

    def __init__(self, artifact: dict) -> None:
        self.artifact = artifact
        self.name = artifact["pop"]
        self.scheduler = Scheduler()
        self.poller = SocketPoller()
        self.telemetry = TelemetryHub(self.scheduler,
                                      name=f"fleet-{self.name}")
        self.fleet_pop: FleetPop = build_fleet_pop(
            self.scheduler, artifact, telemetry=self.telemetry
        )
        self.running = True
        self.listeners: list[SocketListener] = []
        # Control commands are only *enqueued* inside poller callbacks
        # and executed from the main loop — a snapshot RPC must never
        # run reentrantly inside a pump that is mid-delivery.
        self._control_queue: deque = deque()
        self._control_channels: list[SocketChannel] = []
        # Backbone dial state: peer name -> (channel | None, last attempt).
        self._dials: Dict[str, list] = {}
        self._federation: Optional[SocketChannel] = None
        self._federation_last_attempt = 0.0
        self._federation_dropped = 0
        self._my_ports = artifact["ports"]["pops"][self.name]
        self._federation_port = artifact["ports"]["federation"]
        self.telemetry.station.subscribe(self._federate)

    # -- wiring ------------------------------------------------------------

    def start(self) -> None:
        ports = self._my_ports
        self.listeners.append(SocketListener(
            self.poller, port=ports["control"],
            on_accept=self._accept_control,
        ))
        for upstream_name, port in ports["upstreams"].items():
            self.listeners.append(SocketListener(
                self.poller, port=port,
                on_accept=lambda ch, n=upstream_name: (
                    self.fleet_pop.attach_upstream_channel(n, ch)
                ),
            ))
        for exp_name, port in ports["experiments"].items():
            self.listeners.append(SocketListener(
                self.poller, port=port,
                on_accept=lambda ch, n=exp_name: (
                    self.fleet_pop.attach_experiment_channel(n, ch)
                ),
            ))
        backbone = self.artifact["backbone"]
        if backbone["address"] is not None and ports["backbone"] is not None:
            self.listeners.append(SocketListener(
                self.poller, port=ports["backbone"],
                on_accept=self._accept_backbone,
            ))
            for peer in backbone["peers"]:
                if peer["mode"] == "dial":
                    self._dials[peer["name"]] = [None, 0.0, peer["port"]]

    # -- backbone mesh -----------------------------------------------------

    def _accept_backbone(self, channel: SocketChannel) -> None:
        """Read the ``bb <name>\\n`` preamble, then hand the channel to
        the mesh; bytes that arrived after the newline (the peer's OPEN)
        are replayed into the session's handler."""
        buffer = bytearray()

        def on_preamble(data: bytes) -> None:
            # Everything after the first newline is binary BGP (the
            # peer's OPEN may already be coalesced into this read), so
            # only the preamble line is text-split.
            buffer.extend(data)
            index = buffer.find(b"\n")
            if index < 0:
                return
            words = bytes(buffer[:index]).decode("ascii", "replace").split()
            leftover = bytes(buffer[index + 1:])
            if len(words) != 2 or words[0] != "bb":
                channel.close()
                return
            self.fleet_pop.attach_backbone_channel(words[1], channel)
            if leftover and channel.on_data is not None:
                channel.on_data(leftover)

        channel.on_data = on_preamble

    def _maintain_backbone(self) -> None:
        now = time.monotonic()
        for peer, state in self._dials.items():
            channel, last_attempt, port = state
            if channel is not None and not channel.closed:
                continue
            if now - last_attempt < REDIAL_INTERVAL:
                continue
            state[1] = now
            try:
                channel = SocketChannel.connect(
                    self.poller, "127.0.0.1", port
                )
            except OSError:
                continue
            state[0] = channel
            channel.send(f"bb {self.name}\n".encode("ascii"))
            self.fleet_pop.attach_backbone_channel(peer, channel)

    # -- federation --------------------------------------------------------

    def _maintain_federation(self) -> None:
        if self._federation is not None and not self._federation.closed:
            return
        now = time.monotonic()
        if now - self._federation_last_attempt < REDIAL_INTERVAL:
            return
        self._federation_last_attempt = now
        try:
            channel = SocketChannel.connect(
                self.poller, "127.0.0.1", self._federation_port
            )
        except OSError:
            self._federation = None
            return
        channel.send(
            json.dumps({"pop": self.name, "kind": "hello"}).encode()
            + b"\n"
        )
        self._federation = channel

    def _federate(self, event: BmpMessage) -> None:
        channel = self._federation
        if channel is None or channel.closed:
            self._federation_dropped += 1
            return
        channel.send(
            json.dumps(serialize_event(self.name, event),
                       sort_keys=True).encode() + b"\n"
        )

    # -- control RPC -------------------------------------------------------

    def _accept_control(self, channel: SocketChannel) -> None:
        reader = _LineReader()
        self._control_channels.append(channel)

        def on_data(data: bytes) -> None:
            self._control_queue.extend(
                (line, channel) for line in reader.feed(data)
            )

        channel.on_data = on_data

    def _reply(self, channel: SocketChannel, payload: dict) -> None:
        if not channel.closed:
            channel.send(
                json.dumps(payload, sort_keys=True).encode() + b"\n"
            )

    def _drain_control(self) -> None:
        while self._control_queue:
            line, channel = self._control_queue.popleft()
            try:
                request = json.loads(line)
                response = self._dispatch(request)
            except Exception as exc:  # a bad command must not kill the PoP
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            self._reply(channel, response)

    def _dispatch(self, request: dict) -> dict:
        command = request.get("cmd")
        if command == "hello":
            return {"ok": True, "pop": self.name,
                    "digest": self.artifact["spec_digest"]}
        if command == "step":
            return {"ok": True, "traffic": self.step()}
        if command == "snapshot":
            return {"ok": True,
                    "snapshot": self.fleet_pop.structural_snapshot()}
        if command == "invariants":
            return {"ok": True,
                    "invariants": self.fleet_pop.local_invariants()}
        if command == "expectations":
            return {"ok": True,
                    "expectations": self.fleet_pop.community_expectations()}
        if command == "summary":
            summary = self.fleet_pop.summary()
            summary["federation_dropped"] = self._federation_dropped
            summary["cpu_s"] = time.process_time()
            return {"ok": True, "summary": summary}
        if command == "stop":
            self.running = False
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": f"unknown command {command!r}"}

    # -- event loop --------------------------------------------------------

    def step(self) -> List[int]:
        """Pump without blocking and drain same-time events until nothing
        is ready, then report :func:`channel_traffic` over this PoP's
        data channels (its BGP sessions and federation uplink; control
        channels are the driver's own and never counted)."""
        for _ in range(MAX_STEP_ROUNDS):
            if not (self.poller.pump(0)
                    + self.scheduler.run_until(self.scheduler.now)):
                break
        sessions = [getattr(session, "channel", None)
                    for session in self.node_sessions()]
        return channel_traffic([*sessions, self._federation])

    def run(self) -> None:
        self.start()
        signal.signal(signal.SIGTERM, lambda *_: setattr(
            self, "running", False
        ))
        while self.running:
            self.poller.pump(0.05)
            self.scheduler.run_until(self.scheduler.now)
            self._drain_control()
            self._maintain_backbone()
            self._maintain_federation()
        self.close()

    def close(self) -> None:
        for listener in self.listeners:
            listener.close()
        for channel in self._control_channels:
            channel.close()
        for state in self._dials.values():
            if state[0] is not None:
                state[0].close()
        if self._federation is not None:
            self._federation.close()
        for session in list(self.node_sessions()):
            channel = getattr(session, "channel", None)
            if channel is not None:
                channel.close()
        self.poller.close()

    def node_sessions(self):
        node = self.fleet_pop.node
        for upstream in node.upstreams.values():
            if upstream.session is not None:
                yield upstream.session
        for exp in node.experiments.values():
            if exp.session is not None:
                yield exp.session
        yield from node.backbone_peers.values()


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.fleet.runpop <pop-artifact.json>",
              file=sys.stderr)
        return 2
    artifact = load_artifact(argv[0])
    if artifact.get("artifact") != "pop":
        print(f"error: {argv[0]} is not a PoP artifact", file=sys.stderr)
        return 2
    process = PopProcess(artifact)
    process.run()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entrypoint
    sys.exit(main())
