"""A PEERING Point of Presence (§4.2).

One PoP is a commodity server running vBGP, attached to either an IXP LAN
(with tens-to-hundreds of members and route servers) or a university
network (with a single transit interconnection). The PoP owns the
experiment-facing switch, the tunnel manager, and its security enforcers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.bgp.supervisor import SupervisorConfig
from repro.bgp.transport import Channel, connect_pair
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.netsim.link import Link, Port, Switch
from repro.netsim.stack import NetworkStack
from repro.security.control import ControlPlaneEnforcer
from repro.security.data import DataPlaneEnforcer
from repro.security.state import EnforcerState
from repro.sim.scheduler import Scheduler
from repro.platform.tunnels import TunnelManager
from repro.vbgp.allocator import GlobalNeighborRegistry
from repro.vbgp.node import VbgpNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import TelemetryHub


@dataclass
class PopConfig:
    """Static description of one PoP."""

    name: str
    pop_id: int
    kind: str = "university"  # "ixp" | "university"
    region: str = "us"
    backbone: bool = False
    lan_latency: float = 0.0005
    tunnel_latency: float = 0.010
    bandwidth_limit_bps: Optional[float] = None  # §4.7: two sites have caps
    # Overload-resilience policy (None ⇒ unbounded ingress, the
    # pre-§6i behavior).  An ``repro.overload.OverloadPolicy`` here
    # builds the governor + watchdog at construction time.
    overload: Optional[object] = None


@dataclass
class NeighborPort:
    """Everything an external AS needs to plug into this PoP."""

    pop: str
    name: str
    asn: int
    kind: str
    address: IPv4Address
    mac: MacAddress
    lan_port: Port
    channel: Channel  # the neighbor's end of the BGP transport
    subnet_length: int
    global_id: int
    # Resilient provisioning: when the PoP's supervisor re-dials, a fresh
    # channel pair replaces ``channel`` and ``on_redial`` (set by the
    # neighbor's operator) is invoked with the new neighbor-side end.
    resilient: bool = False
    on_redial: Optional[Callable[[Channel], None]] = field(
        default=None, repr=False
    )


class PointOfPresence:
    """A built, running PoP."""

    _mac_counter = itertools.count(0x02CC00000000)

    def __init__(
        self,
        scheduler: Scheduler,
        config: PopConfig,
        platform_asn: int,
        platform_asns: frozenset[int],
        registry: GlobalNeighborRegistry,
        enforcer_state: EnforcerState,
        telemetry: Optional["TelemetryHub"] = None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config
        self.platform_asn = platform_asn
        # LAN addressing: one /24 per PoP.
        self.lan_subnet = IPv4Prefix.parse(f"100.{64 + config.pop_id}.0.0/24")
        self._lan_hosts = itertools.count(10)
        self.lan_switch = Switch(
            scheduler, name=f"{config.name}-lan", latency=config.lan_latency
        )
        self.exp_switch = Switch(scheduler, name=f"{config.name}-exp")
        self.stack = NetworkStack(scheduler, name=f"pop-{config.name}")
        # Server interfaces: upstream (IXP/LAN) and experiment-facing.
        self.server_lan_mac = MacAddress(next(self._mac_counter))
        lan_port = Port(f"ixp0@{config.name}")
        lan_switch_port = self.lan_switch.add_port(f"server-{config.name}")
        Link(scheduler, lan_port, lan_switch_port, latency=config.lan_latency)
        self.stack.add_interface("ixp0", self.server_lan_mac, lan_port)
        self.server_address = self.lan_subnet.address_at(1)
        self.stack.add_address("ixp0", self.server_address, 24)

        self.server_exp_mac = MacAddress(next(self._mac_counter))
        exp_port = Port(f"exp0@{config.name}")
        exp_switch_port = self.exp_switch.add_port(f"server-{config.name}")
        Link(scheduler, exp_port, exp_switch_port)
        self.stack.add_interface("exp0", self.server_exp_mac, exp_port)

        self.tunnels = TunnelManager(
            scheduler,
            pop_name=config.name,
            pop_id=config.pop_id,
            exp_switch=self.exp_switch,
            server_mac=self.server_exp_mac,
            latency=config.tunnel_latency,
        )
        self.stack.add_address("exp0", self.tunnels.server_ip, 24)

        self.telemetry = telemetry
        self.control_enforcer = ControlPlaneEnforcer(
            scheduler, platform_asns=platform_asns, state=enforcer_state,
            telemetry=telemetry,
        )
        self.data_enforcer = DataPlaneEnforcer(
            scheduler, pop=config.name, telemetry=telemetry
        )
        self.node = VbgpNode(
            scheduler,
            name=config.name,
            pop_id=config.pop_id,
            platform_asn=platform_asn,
            router_id=self.server_address,
            stack=self.stack,
            registry=registry,
            upstream_iface="ixp0",
            exp_iface="exp0",
            control_enforcer=self.control_enforcer,
            data_enforcer=self.data_enforcer,
            telemetry=telemetry,
        )
        self.neighbor_ports: dict[str, NeighborPort] = {}
        # Overload resilience (repro.overload, §6i): opt-in via
        # PopConfig.overload or a later enable_overload() call.
        self.overload = None
        self.watchdog = None
        if config.overload is not None:
            self.enable_overload(config.overload)

    # ------------------------------------------------------------------

    def enable_overload(self, policy=None):
        """Install the §6i overload layer on this PoP (idempotent).

        Builds an :class:`~repro.overload.OverloadGovernor` scoped to
        this PoP, wires it through the vBGP node (bounded ingress
        queues, breaker-quarantine coupling), and starts the health
        watchdog.  Returns the governor.
        """
        if self.overload is not None:
            return self.overload
        from repro.overload import HealthWatchdog, OverloadGovernor

        governor = OverloadGovernor(
            self.scheduler,
            scope=self.config.name,
            policy=policy,
            telemetry=self.telemetry,
        )
        self.node.enable_overload(governor)
        self.overload = governor
        self.watchdog = HealthWatchdog(
            self.scheduler,
            pop_name=self.config.name,
            governor=governor,
            telemetry=self.telemetry,
            config=governor.policy.watchdog,
        )
        self.watchdog.start()
        return governor

    def provision_neighbor(
        self,
        name: str,
        asn: int,
        kind: str = "peer",
        resilient: bool = False,
        graceful_restart: bool = False,
        restart_time: int = 120,
        supervisor_config: Optional[SupervisorConfig] = None,
    ) -> NeighborPort:
        """Provision LAN presence + a BGP session slot for a neighbor AS.

        Returns the neighbor-side plug (address, MAC, switch port, BGP
        channel end). The vBGP side is attached immediately.

        With ``resilient=True`` the vBGP side supervises the session:
        after a non-administrative loss it re-dials through a fresh
        channel pair; the returned port's ``channel`` is updated and its
        ``on_redial`` hook (if the neighbor's operator set one) receives
        the new neighbor-side end so the remote speaker can re-attach.
        With ``graceful_restart=True`` the session offers RFC 4724 and
        resets retain routes instead of storming withdrawals.
        """
        if name in self.neighbor_ports:
            raise ValueError(f"neighbor {name!r} already at {self.config.name}")
        address = self.lan_subnet.address_at(next(self._lan_hosts))
        mac = MacAddress(next(self._mac_counter))
        lan_port = self.lan_switch.add_port(f"{name}@{self.config.name}")
        ours, theirs = connect_pair(
            self.scheduler, rtt=4 * self.config.lan_latency
        )
        port = NeighborPort(
            pop=self.config.name,
            name=name,
            asn=asn,
            kind=kind,
            address=address,
            mac=mac,
            lan_port=lan_port,
            channel=theirs,
            subnet_length=24,
            global_id=0,
            resilient=resilient,
        )

        channel_factory = None
        if resilient:
            def channel_factory() -> Channel:
                new_ours, new_theirs = connect_pair(
                    self.scheduler, rtt=4 * self.config.lan_latency
                )
                port.channel = new_theirs
                if port.on_redial is not None:
                    port.on_redial(new_theirs)
                return new_ours

        self.node.attach_upstream(
            name=name,
            peer_asn=asn,
            peer_address=address,
            peer_mac=mac,
            channel=ours,
            kind=kind,
            graceful_restart=graceful_restart,
            restart_time=restart_time,
            channel_factory=channel_factory,
            supervisor_config=supervisor_config,
        )
        port.global_id = self.node.upstreams[name].virtual.global_id
        self.neighbor_ports[name] = port
        return port

    def provision_lan_host(
        self, name: str
    ) -> tuple[IPv4Address, MacAddress, Port]:
        """LAN presence without a bilateral vBGP session.

        Used for IXP members that are reachable only via the route server
        (§4.2: 129 bilateral peers, the rest via route servers) — they
        still exchange *traffic* with the platform over the shared fabric.
        """
        address = self.lan_subnet.address_at(next(self._lan_hosts))
        mac = MacAddress(next(self._mac_counter))
        lan_port = self.lan_switch.add_port(f"{name}@{self.config.name}")
        return address, mac, lan_port

    def enable_backbone(self, backbone, spec=None,
                        address: Optional[IPv4Address] = None) -> IPv4Address:
        """Attach this PoP to the backbone fabric (creates ``bb0``).

        ``address`` pins the backbone address (fleet compiler, §6k)
        instead of drawing from the fabric's allocation counter.
        """
        address = backbone.attach(
            self.config.name, self.stack, spec, address=address
        )
        self.node.enable_backbone("bb0", address)
        return address

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def neighbor_count(self) -> int:
        return len(self.node.upstreams)
