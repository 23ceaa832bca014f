"""Links, ports, and learning switches.

A :class:`Port` is a device's attachment point; a :class:`Link` joins two
ports with latency, bandwidth, a drop-tail queue, and optional random loss;
a :class:`Switch` is a VLAN-aware learning L2 switch used to model IXP LANs
(where a PEERING vBGP router exchanges frames with hundreds of members).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Optional

from repro.netsim.frames import EthernetFrame
from repro.sim.scheduler import Scheduler

FrameHandler = Callable[[EthernetFrame, "Port"], None]


class Port:
    """An Ethernet attachment point.

    Devices call :meth:`transmit` to send and install a handler with
    :meth:`attach` to receive. The connected :class:`Link` or
    :class:`Switch` installs ``_send`` when the port is plugged in.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._handler: Optional[FrameHandler] = None
        self._send: Optional[Callable[[EthernetFrame], None]] = None
        self.tx_frames = 0
        self.rx_frames = 0
        self.tx_bytes = 0
        self.rx_bytes = 0

    @property
    def connected(self) -> bool:
        return self._send is not None

    def attach(self, handler: FrameHandler) -> None:
        """Register the device-side receive callback."""
        self._handler = handler

    def transmit(self, frame: EthernetFrame) -> None:
        """Send a frame out this port (silently dropped if unplugged)."""
        if self._send is None:
            return
        self.tx_frames += 1
        self.tx_bytes += frame.size
        self._send(frame)

    def deliver(self, frame: EthernetFrame) -> None:
        """Called by the wire when a frame arrives at this port."""
        self.rx_frames += 1
        self.rx_bytes += frame.size
        if self._handler is not None:
            self._handler(frame, self)


class Link:
    """A full-duplex point-to-point link.

    Models serialization (``size / bandwidth``), propagation (``latency``),
    a drop-tail queue per direction (``queue_limit`` frames beyond the one
    in service), and Bernoulli loss (``loss``).
    """

    def __init__(
        self,
        scheduler: Scheduler,
        a: Port,
        b: Port,
        latency: float = 0.0,
        bandwidth_bps: Optional[float] = None,
        queue_limit: int = 128,
        loss: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.a = a
        self.b = b
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.queue_limit = queue_limit
        self.loss = loss
        self._rng = random.Random(seed)
        self._busy_until = {id(a): 0.0, id(b): 0.0}
        self._queued = {id(a): 0, id(b): 0}
        self.drops = 0
        a._send = partial(self._forward, a, b)
        b._send = partial(self._forward, b, a)

    def _forward(self, src: Port, dst: Port, frame: EthernetFrame) -> None:
        if self.loss and self._rng.random() < self.loss:
            self.drops += 1
            return
        now = self.scheduler.now
        if self.bandwidth_bps:
            serialization = frame.size * 8 / self.bandwidth_bps
            start = max(now, self._busy_until[id(src)])
            backlog = (start - now) / serialization if serialization > 0 else 0
            if backlog > self.queue_limit:
                self.drops += 1
                return
            self._busy_until[id(src)] = start + serialization
            arrival = start + serialization + self.latency
        else:
            arrival = now + self.latency
        # Always a scheduled event, even at zero latency: a stack sends its
        # ARP request before it queues the packet that waits for the reply,
        # so delivering inline would answer before the waiter holds it.
        self.scheduler.call_at(arrival, dst.deliver, frame)


class Switch:
    """A VLAN-aware learning Ethernet switch.

    Each member device gets a dedicated :class:`Port` via :meth:`add_port`;
    the switch learns source MACs and floods unknown/broadcast destinations
    within the frame's VLAN (untagged traffic uses VLAN ``None``).
    """

    def __init__(self, scheduler: Scheduler, name: str = "switch",
                 latency: float = 0.0) -> None:
        self.scheduler = scheduler
        self.name = name
        self.latency = latency
        self._ports: list[Port] = []
        self._fdb: dict[tuple[Optional[int], int], Port] = {}
        self.flooded = 0

    def add_port(self, name: str = "") -> Port:
        """Create a new member port.

        The port is the switch's side of the wire: a :class:`Link` joins
        it to the member device's port. Frames from the member arrive via
        the port's receive handler; frames toward the member are
        transmitted back over the link.
        """
        port = Port(name or f"{self.name}-p{len(self._ports)}")
        port.attach(self._switch)
        self._ports.append(port)
        return port

    @property
    def ports(self) -> list[Port]:
        return list(self._ports)

    def _switch(self, frame: EthernetFrame, ingress: Port) -> None:
        key = (frame.vlan, frame.src.value)
        self._fdb[key] = ingress
        dst_key = (frame.vlan, frame.dst.value)
        if frame.dst.is_broadcast or frame.dst.is_multicast:
            self._flood(frame, ingress)
            return
        out = self._fdb.get(dst_key)
        if out is None:
            self._flood(frame, ingress)
            return
        if out is ingress:
            return
        self._emit(out, frame)

    def _flood(self, frame: EthernetFrame, ingress: Port) -> None:
        self.flooded += 1
        for port in self._ports:
            if port is not ingress:
                self._emit(port, frame)

    def _emit(self, out: Port, frame: EthernetFrame) -> None:
        """A hop that takes no time costs no event: the egress port's
        ``Link`` schedules the delivery, so this never re-enters a device."""
        if self.latency:
            self.scheduler.call_later(self.latency, out.transmit, frame)
        else:
            out.transmit(frame)
