"""Worlds the workloads run in: one real ``PointOfPresence`` plus raw peers.

Everything the PoP talks to is a benchmark-owned endpoint that sees
*bytes* (control plane) or *frames* (data plane) and nothing decoded:

* :class:`Endpoint` — a BGP peer that is a raw byte source and sink.  A
  real ``BgpSession`` runs behind it for the OPEN / KEEPALIVE state
  machine only; UPDATE frames are logged undecoded with their arrival
  time.  Non-UPDATE frames **must** be handed on to that session:
  hold timers are on (as in production), so a sink that swallows
  KEEPALIVEs gets its session torn down after the hold time and output
  silently stops.
* :class:`FramePort` — a device on the IXP LAN or the experiment's end
  of the tunnel: transmits pre-built frames, logs what arrives.

Only public entry points of the program are used: ``PointOfPresence``,
``provision_neighbor``, ``node.attach_upstream`` / ``attach_experiment``,
``tunnels.open``, the enforcers' ``register_experiment``, ``Channel`` /
``SocketChannel`` ``send`` and ``on_data``, ``Port.transmit`` / ``attach``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional

from repro.bgp.session import BgpSession, SessionConfig
from repro.bgp.transport import (
    FrameReassembler,
    SocketChannel,
    SocketListener,
    SocketPoller,
    connect_pair,
)
from repro.netsim.addr import IPv4Prefix
from repro.netsim.link import Link, Port
from repro.netsim.stack import NetworkStack
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.capabilities import ExperimentProfile
from repro.security.state import EnforcerState
from repro.sim.scheduler import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry

from benchmarks.e2e.oracle import MSG_UPDATE

PLATFORM_ASN = 47065
POP_ID = 0
# Simulated seconds the scheduler runs after each injected operation: one
# LAN hop (1 ms) plus one tunnel hop (10 ms) with margin, so everything an
# operation causes has reached a sink before the next one is sent.
SETTLE = 0.025


class Endpoint:
    """A BGP peer of the PoP that is a raw byte source and sink."""

    def __init__(self, scheduler: Scheduler, channel, log: list, index: int,
                 config: SessionConfig, plug=None) -> None:
        self.channel = channel
        self.log = log          # the world's arrival log
        self.index = index
        self.plug = plug        # the PoP's NeighborPort, for upstream peers
        self.session = BgpSession(
            scheduler, config, channel, on_update=lambda _s, _u: None
        )
        # The session installed its byte entry point on the channel; the
        # tap goes in front of it.
        self._fsm: Callable[[bytes], None] = channel.on_data
        self._reassembler = FrameReassembler()
        channel.on_data = self.on_data
        self.session.start()

    def on_data(self, data: bytes) -> None:
        for frame in self._reassembler.feed(data):
            if frame[18] == MSG_UPDATE:
                self.log.append((self.index, frame, perf_counter()))
            else:
                self._fsm(frame)

    def send(self, wire: bytes) -> None:
        self.channel.send(wire)


class FramePort:
    """A raw L2 device: pre-built frames out, arriving frames logged."""

    def __init__(self, port: Port, log: list, index: int) -> None:
        self.port = port
        self.log = log
        self.index = index
        port.attach(self._arrived)

    def _arrived(self, frame, _port: Port) -> None:
        self.log.append((self.index, frame, perf_counter()))

    def send(self, frame) -> None:
        self.port.transmit(frame)


class World:
    """A built PoP with its peers.

    ``log`` is the arrival log every sink appends to: ``(sink index,
    frame, perf_counter at arrival)`` in arrival order.
    """

    def __init__(self, per_pop_limit: Optional[int] = None,
                 endpoint_cls=Endpoint, client_hold_time: int = 90) -> None:
        self.scheduler = Scheduler()
        self.log: list[tuple[int, object, float]] = []
        self.poller: Optional[SocketPoller] = None
        state = (
            EnforcerState() if per_pop_limit is None
            else EnforcerState(per_pop_limit=per_pop_limit)
        )
        self.pop = PointOfPresence(
            self.scheduler,
            PopConfig(name="ams", pop_id=POP_ID, kind="ixp"),
            platform_asn=PLATFORM_ASN,
            platform_asns=frozenset({PLATFORM_ASN}),
            registry=GlobalNeighborRegistry(),
            enforcer_state=state,
        )
        self.upstreams: list[Endpoint] = []
        self.experiments: list[Endpoint] = []
        self.neighbor_devices: list[FramePort] = []
        self.tunnel_device: Optional[FramePort] = None
        self.allocations: list[IPv4Prefix] = []
        self.tunnels = []
        self.sinks = 0
        self.endpoint_cls = endpoint_cls
        self.client_hold_time = client_hold_time

    # -- construction ---------------------------------------------------

    def _next_sink(self) -> int:
        self.sinks += 1
        return self.sinks - 1

    def add_upstream(self, with_device: bool = False) -> Endpoint:
        index = len(self.upstreams)
        port = self.pop.provision_neighbor(
            f"up{index}", 65000 + index, kind="peer"
        )
        endpoint = self.endpoint_cls(
            self.scheduler, port.channel, self.log, self._next_sink(),
            SessionConfig(local_asn=port.asn, local_id=port.address,
                          peer_asn=PLATFORM_ASN,
                          hold_time=self.client_hold_time),
            plug=port,
        )
        self.upstreams.append(endpoint)
        if with_device:
            device_port = Port(f"dev-up{index}")
            Link(self.scheduler, device_port, port.lan_port,
                 latency=self.pop.config.lan_latency)
            self.neighbor_devices.append(
                FramePort(device_port, self.log, self._next_sink())
            )
        return endpoint

    def open_tunnel(self, name: str, prefix: IPv4Prefix):
        """Approve an experiment at this PoP and open its tunnel."""
        self.pop.control_enforcer.register_experiment(ExperimentProfile(
            name=name, asns=frozenset({PLATFORM_ASN}), prefixes=(prefix,),
        ))
        stack = NetworkStack(self.scheduler, name=f"exp-{name}")
        tunnel = self.pop.tunnels.open(name, stack)
        self.pop.data_enforcer.register_experiment(
            tunnel.client_mac, (prefix,)
        )
        return tunnel

    def attach_experiment(self, name: str, prefix: IPv4Prefix, tunnel,
                          channel) -> None:
        self.pop.node.attach_experiment(
            name=name, asn=PLATFORM_ASN, prefixes=(prefix,),
            tunnel_ip=tunnel.client_ip, tunnel_mac=tunnel.client_mac,
            channel=channel,
        )

    def client_config(self, tunnel) -> SessionConfig:
        return SessionConfig(
            local_asn=PLATFORM_ASN, local_id=tunnel.client_ip,
            peer_asn=PLATFORM_ASN, addpath=True,
            hold_time=self.client_hold_time,
        )

    def add_experiment(self, raw_tunnel: bool = False,
                       channels=None) -> Endpoint:
        """One experiment: tunnel, enforcer profiles, ADD-PATH session
        over ``channels`` (mux end, client end) or a fresh simulated pair."""
        index = len(self.experiments)
        name = f"x{index}"
        prefix = experiment_prefix(index)
        tunnel = self.open_tunnel(name, prefix)
        ours, theirs = channels or connect_pair(
            self.scheduler, rtt=2 * tunnel.link.latency
        )
        self.attach_experiment(name, prefix, tunnel, ours)
        endpoint = self.endpoint_cls(
            self.scheduler, theirs, self.log, self._next_sink(),
            self.client_config(tunnel),
        )
        self.experiments.append(endpoint)
        self.allocations.append(prefix)
        self.tunnels.append(tunnel)
        if raw_tunnel:
            # The experiment's end of the tunnel as a raw frame device
            # (replaces the client stack's receive handler).
            client_port = tunnel.client_stack.interfaces[
                tunnel.client_iface
            ].port
            self.tunnel_device = FramePort(
                client_port, self.log, self._next_sink()
            )
        return endpoint

    def establish(self) -> None:
        """Run the OPEN/KEEPALIVE exchanges; fail loudly if any stalls."""
        self.scheduler.run_for(1.0)
        if not self.all_established():
            raise RuntimeError("sessions did not establish")

    # -- introspection used to configure the oracle ----------------------

    def upstream_virtual(self, index: int):
        return self.pop.node.upstreams[f"up{index}"].virtual

    def all_established(self) -> bool:
        return all(
            endpoint.session.established
            for endpoint in self.upstreams + self.experiments
        )

    def close(self) -> None:
        if self.poller is not None:
            for endpoint in self.upstreams + self.experiments:
                endpoint.channel.close()
            for neighbor in self.pop.node.upstreams.values():
                neighbor.session.channel.close()
            for experiment in self.pop.node.experiments.values():
                experiment.session.channel.close()
            self.poller.close()
            self.poller = None


def experiment_prefix(index: int) -> IPv4Prefix:
    """The /22 allocated to experiment ``index`` (184.164.224.0/19 pool)."""
    return IPv4Prefix.parse(f"184.164.{224 + 4 * index}.0/22")


def control_world(upstreams: int, experiments: int,
                  per_pop_limit: Optional[int] = None,
                  endpoint_cls=Endpoint,
                  client_hold_time: int = 90) -> World:
    """U upstream peers and E experiments over the simulated transport."""
    world = World(per_pop_limit, endpoint_cls, client_hold_time)
    for _ in range(upstreams):
        world.add_upstream()
    for _ in range(experiments):
        world.add_experiment()
    world.establish()
    return world


def dataplane_world(upstreams: int) -> World:
    """U neighbors, each a BGP peer *and* a LAN device, and one
    tunnel-attached experiment reachable as a raw frame device."""
    world = World()
    for _ in range(upstreams):
        world.add_upstream(with_device=True)
    world.add_experiment(raw_tunnel=True)
    world.establish()
    return world


def loopback_world() -> World:
    """One upstream feeder and one experiment sink over real loopback TCP.

    Four sockets (two connections) on one ``SocketPoller``, same thread;
    the simulated scheduler only runs the sessions' timers.
    """
    world = World()
    poller = world.poller = SocketPoller()
    pop = world.pop
    accepted: dict[str, SocketChannel] = {}
    listeners = {
        role: SocketListener(
            poller, on_accept=lambda channel, r=role: accepted.setdefault(
                r, channel
            ),
        )
        for role in ("upstream", "experiment")
    }
    dialed = {
        role: SocketChannel.connect(poller, "127.0.0.1", listener.port)
        for role, listener in listeners.items()
    }
    deadline = perf_counter() + 5.0
    while len(accepted) < 2 and perf_counter() < deadline:
        poller.pump(0.05)
    for listener in listeners.values():
        listener.close()
    if len(accepted) < 2:
        raise RuntimeError("loopback connections were not accepted")

    address, mac, _lan_port = pop.provision_lan_host("up0")
    pop.node.attach_upstream(
        name="up0", peer_asn=65000, peer_address=address, peer_mac=mac,
        channel=accepted["upstream"],
    )
    world.upstreams.append(Endpoint(
        world.scheduler, dialed["upstream"], world.log, world._next_sink(),
        SessionConfig(local_asn=65000, local_id=address,
                      peer_asn=PLATFORM_ASN),
    ))
    world.add_experiment(
        channels=(accepted["experiment"], dialed["experiment"])
    )
    deadline = perf_counter() + 5.0
    while not world.all_established() and perf_counter() < deadline:
        poller.pump(0.01)
        world.scheduler.run_for(0.0)
    if not world.all_established():
        raise RuntimeError("loopback sessions did not establish")
    return world
