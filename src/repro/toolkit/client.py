"""The experiment-side controller (the ``peering`` scripts + client BIRD).

An :class:`ExperimentClient` owns the experiment's network stack, opens
tunnels to PoPs, runs a BIRD-like BGP endpoint per PoP (ADD-PATH), and
exposes the Table 1 surface:

=================  =====================================================
Category           Functionality
=================  =====================================================
OpenVPN            Open/close/check status of tunnels
BGP/BIRD           Start/stop sessions; status; CLI access
Prefix management  Announce/withdraw; communities; AS-path manipulation
=================  =====================================================

It also implements the data-plane side of §3.2.2: looking up the routes
vBGP exported (next hop = per-neighbor virtual IP) and sending packets via
a chosen neighbor, exactly as a router or an Espresso-style controller
would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.bgp.attributes import (
    AsPath,
    Community,
    PathAttributes,
    Origin,
    Route,
)
from repro.bgp.messages import UpdateMessage
from repro.bgp.session import BgpSession, SessionConfig
from repro.netsim.addr import IPv4Address, Prefix
from repro.netsim.frames import IcmpMessage, IcmpType, IpProto, IPv4Packet
from repro.netsim.stack import NetworkStack
from repro.platform.peering import ExperimentConnection, PeeringPlatform
from repro.sim.scheduler import Scheduler


def build_announcement(
    prefix: Prefix,
    origin: int,
    platform_asn: int,
    communities: Iterable[Community] = (),
    prepend: int = 0,
    poison: Sequence[int] = (),
) -> Route:
    """The client-side route for one announcement, before localization.

    Pure: given the same arguments it always builds the same route (the
    next hop is a placeholder; :meth:`ExperimentClient.announce` swaps
    in the per-PoP tunnel address).  Shared by the live announce path
    and the intent layer's dry-run evaluator so a planned ChangeSet
    stages exactly the route the plan predicted.
    """
    asns: list[int] = []
    if poison:
        # Classic poisoning: sandwich the poisoned ASNs in our own.
        asns = [origin] + list(poison) + [origin]
    elif origin != platform_asn:
        asns = [origin]
    if prepend:
        # ``prepend`` counts the copies of our ASN in the client-side
        # path (the mux prepends the platform ASN again on export).
        pad = max(prepend - (1 if asns and asns[0] == origin else 0), 0)
        asns = [origin] * pad + asns
    return Route(
        prefix=prefix,
        attributes=PathAttributes(
            origin=Origin.IGP,
            as_path=AsPath.from_asns(*asns),
            next_hop=IPv4Address(0),  # placeholder, localized per PoP
            communities=frozenset(communities),
        ),
    )


@dataclass
class PopView:
    """Everything the client tracks about one connected PoP."""

    pop: str
    connection: ExperimentConnection
    session: Optional[BgpSession] = None
    # Routes received over ADD-PATH: path id -> route.
    routes: dict[int, Route] = field(default_factory=dict)
    announced: dict[Prefix, Route] = field(default_factory=dict)

    @property
    def iface(self) -> str:
        return self.connection.tunnel.client_iface

    def routes_for(self, prefix: Prefix) -> list[Route]:
        return [r for r in self.routes.values() if r.prefix == prefix]

    def all_routes(self) -> list[Route]:
        return list(self.routes.values())


class ExperimentClient:
    """A connected experiment."""

    def __init__(self, scheduler: Scheduler, name: str,
                 platform: PeeringPlatform) -> None:
        self.scheduler = scheduler
        self.name = name
        self.platform = platform
        self.stack = NetworkStack(scheduler, name=f"exp-{name}")
        self.pops: dict[str, PopView] = {}
        experiment = platform.experiments.get(name)
        if experiment is None:
            raise KeyError(f"experiment {name!r} is not approved")
        self.profile = experiment.profile
        lease = platform.resources.lease_for(name)
        self.asn = lease.asn if lease is not None else platform.platform_asn
        self._received_packets: list[IPv4Packet] = []
        self._received_icmp: list[tuple[IPv4Packet, IcmpMessage]] = []
        # (packet, delivering source MAC, iface) — the source MAC is the
        # virtual MAC of the neighbor that delivered the traffic (§3.2.2).
        self.delivered: list[tuple[IPv4Packet, object, str]] = []
        self.echo_responder = True
        # Listeners called as fn(packet, icmp, now) on inbound ICMP — used
        # by controllers that need arrival timestamps (RTT measurement).
        self.icmp_listeners: list = []
        self.stack.ingress_hooks.append(self._experiment_ingress)

    def _experiment_ingress(self, frame, iface):
        """Terminate traffic addressed to the experiment's prefixes.

        A real experiment assigns allocation addresses to an interface (or
        runs a server); the client does the equivalent in one hook, and
        additionally records the delivering neighbor's virtual MAC.
        """
        from repro.netsim.frames import EtherType

        if frame.ethertype != EtherType.IPV4 or not isinstance(
            frame.payload, IPv4Packet
        ):
            return frame
        packet = frame.payload
        if not any(
            p.contains_address(packet.dst) for p in self.profile.prefixes
        ):
            return frame
        self.delivered.append((packet, frame.src, iface.name))
        if packet.proto == IpProto.ICMP and isinstance(
            packet.payload, IcmpMessage
        ):
            icmp = packet.payload
            if (
                icmp.icmp_type == IcmpType.ECHO_REQUEST
                and self.echo_responder
            ):
                self._auto_reply(packet, icmp, iface.name)
            else:
                self._received_icmp.append((packet, icmp))
                for listener in self.icmp_listeners:
                    listener(packet, icmp, self.scheduler.now)
        else:
            self._received_packets.append(packet)
        return None

    def _auto_reply(self, packet: IPv4Packet, icmp: IcmpMessage,
                    iface_name: str) -> None:
        """Answer an inbound echo request via a vBGP route (services are
        reachable from the Internet — §2.1's hosting goal)."""
        reply = IPv4Packet(
            src=packet.dst,
            dst=packet.src,
            proto=IpProto.ICMP,
            payload=IcmpMessage(
                icmp_type=IcmpType.ECHO_REPLY,
                identifier=icmp.identifier,
                sequence=icmp.sequence,
                payload=icmp.payload,
            ),
        )
        pop_name = self._pop_for_iface(iface_name)
        candidates = self.lookup(reply.dst, pop_name)
        if not candidates and pop_name is not None:
            candidates = self.lookup(reply.dst)
        if candidates:
            target_pop = pop_name or next(iter(self.pops))
            for pop, view in self.pops.items():
                if candidates[0] in view.routes.values():
                    target_pop = pop
                    break
            self.send_via(target_pop, candidates[0], reply)

    def _pop_for_iface(self, iface_name: str) -> Optional[str]:
        for pop, view in self.pops.items():
            if view.iface == iface_name:
                return pop
        return None

    # ------------------------------------------------------------------
    # OpenVPN category
    # ------------------------------------------------------------------

    # One-way latency when the experiment runs in a container directly on
    # the PEERING server (the §7.4 extension) instead of over OpenVPN.
    CONTAINER_LATENCY = 0.00005

    def openvpn_up(self, pop_name: str,
                   latency: Optional[float] = None,
                   container: bool = False) -> PopView:
        """Open the tunnel to a PoP (``peering openvpn up <pop>``).

        ``container=True`` models the paper's §7.4 extension — a
        lightweight experiment container running *on* the PEERING server,
        attached over the local bridge instead of an Internet VPN tunnel
        (for latency-sensitive experiments).
        """
        if pop_name in self.pops:
            raise ValueError(f"tunnel to {pop_name} already up")
        if container:
            latency = self.CONTAINER_LATENCY
        connection = self.platform.connect_experiment(
            self.name, pop_name, self.stack, tunnel_latency=latency
        )
        view = PopView(pop=pop_name, connection=connection)
        self.pops[pop_name] = view
        return view

    def openvpn_down(self, pop_name: str) -> None:
        view = self.pops.pop(pop_name, None)
        if view is None:
            return
        if view.session is not None:
            view.session.shutdown()
        self.platform.disconnect_experiment(self.name, pop_name)

    def openvpn_status(self) -> dict[str, dict]:
        return {
            pop: view.connection.tunnel.status()
            for pop, view in self.pops.items()
        }

    # ------------------------------------------------------------------
    # BGP/BIRD category
    # ------------------------------------------------------------------

    def bird_start(self, pop_name: str) -> BgpSession:
        """Start the BGP session with a PoP (``peering bgp start``)."""
        view = self.pops[pop_name]
        if view.session is not None and view.session.established:
            return view.session
        if view.connection.channel.closed:
            # BIRD restart: new transport over the existing tunnel.
            view.connection.channel = self.platform.reconnect_bgp(
                self.name, pop_name
            )
        session = BgpSession(
            self.scheduler,
            SessionConfig(
                local_asn=self.asn,
                local_id=view.connection.tunnel.client_ip,
                peer_asn=self.platform.platform_asn,
                addpath=True,
                description=f"client:{self.name}:{pop_name}",
            ),
            view.connection.channel,
            on_update=lambda _s, update, pop=pop_name: (
                self._update_received(pop, update)
            ),
            on_close=lambda closed, _reason, pop=pop_name: (
                self._session_closed(pop, closed)
            ),
            telemetry=getattr(self.platform, "telemetry", None),
        )
        view.session = session
        session.start()
        return session

    def bird_refresh(self, pop_name: str) -> None:
        """Soft reset: ask vBGP to resend the full table (RFC 2918)."""
        view = self.pops[pop_name]
        if view.session is None or not view.session.established:
            raise RuntimeError(f"BGP session to {pop_name} is not up")
        view.session.send_route_refresh()

    def bird_stop(self, pop_name: str) -> None:
        view = self.pops.get(pop_name)
        if view is not None and view.session is not None:
            view.session.shutdown()
            view.session = None
            view.routes.clear()

    def bird_status(self) -> dict[str, str]:
        return {
            pop: (view.session.state.value if view.session else "down")
            for pop, view in self.pops.items()
        }

    def bird_cli(self, pop_name: str, command: str) -> str:
        """A birdc-flavoured read-only CLI over the client's RIB."""
        view = self.pops.get(pop_name)
        if view is None:
            return f"no such PoP: {pop_name}"
        words = command.strip().split()
        if words[:2] == ["show", "route"]:
            lines = []
            for path_id, route in sorted(view.routes.items()):
                lines.append(f"{route} [pop {pop_name}]")
            return "\n".join(lines) or "Network is empty"
        if words[:2] == ["show", "protocols"]:
            state = view.session.state.value if view.session else "down"
            return f"{pop_name} bgp {state}"
        return f"unknown command: {command}"

    def _update_received(self, pop_name: str, update: UpdateMessage) -> None:
        view = self.pops.get(pop_name)
        if view is None:
            return
        for prefix, path_id in update.withdrawn:
            if path_id is not None:
                view.routes.pop(path_id, None)
        for route in update.routes():
            if route.path_id is not None:
                view.routes[route.path_id] = route

    def _session_closed(self, pop_name: str, session: BgpSession) -> None:
        """A dead session's routes go with it (RFC 4271, no GR here)."""
        view = self.pops.get(pop_name)
        if view is not None and view.session is session:
            view.routes.clear()

    # ------------------------------------------------------------------
    # Prefix management category
    # ------------------------------------------------------------------

    def announce(
        self,
        prefix: Prefix,
        pops: Optional[Sequence[str]] = None,
        communities: Iterable[Community] = (),
        prepend: int = 0,
        poison: Sequence[int] = (),
        origin_asn: Optional[int] = None,
    ) -> list[Route]:
        """Announce a prefix (``peering prefix announce``).

        ``prepend`` adds copies of the experiment ASN; ``poison`` inserts
        foreign ASNs sandwiched by the experiment ASN (requires the
        poisoning capability to clear the security enforcer).
        """
        origin = origin_asn if origin_asn is not None else self.asn
        route = build_announcement(
            prefix,
            origin=origin,
            platform_asn=self.platform.platform_asn,
            communities=communities,
            prepend=prepend,
            poison=poison,
        )
        sent = []
        for pop_name in pops if pops is not None else list(self.pops):
            view = self.pops[pop_name]
            if view.session is None or not view.session.established:
                raise RuntimeError(f"BGP session to {pop_name} is not up")
            localized = route.with_next_hop(view.connection.tunnel.client_ip)
            view.session.send_update(UpdateMessage.announce([localized]))
            view.announced[prefix] = localized
            sent.append(localized)
        return sent

    def replay_route(self, pop_name: str, route: Route) -> None:
        """Re-send one previously announced route verbatim.

        The intent layer's auto-revert uses this to restore a recorded
        snapshot exactly: the route (next hop already localized) is
        replayed without rebuilding it, so the restored state is
        byte-identical to what the snapshot captured.
        """
        view = self.pops[pop_name]
        if view.session is None or not view.session.established:
            raise RuntimeError(f"BGP session to {pop_name} is not up")
        view.session.send_update(UpdateMessage.announce([route]))
        view.announced[route.prefix] = route

    def withdraw(self, prefix: Prefix,
                 pops: Optional[Sequence[str]] = None) -> None:
        """Withdraw a prefix (``peering prefix withdraw``)."""
        for pop_name in pops if pops is not None else list(self.pops):
            view = self.pops[pop_name]
            if view.session is None or not view.session.established:
                continue
            route = view.announced.pop(prefix, None)
            if route is None:
                route = Route(prefix=prefix, attributes=PathAttributes())
            view.session.send_update(UpdateMessage.withdraw([route]))

    # ------------------------------------------------------------------
    # Data plane: per-packet egress selection (§3.2.2)
    # ------------------------------------------------------------------

    def routes(self, prefix: Prefix,
               pop_name: Optional[str] = None) -> list[Route]:
        """All routes vBGP exported for ``prefix`` (ADD-PATH visibility)."""
        views = (
            [self.pops[pop_name]] if pop_name is not None
            else list(self.pops.values())
        )
        result = []
        for view in views:
            result.extend(
                route for route in view.routes.values()
                if route.prefix.contains_address(prefix.network)
                or route.prefix == prefix
            )
        return result

    def lookup(self, destination: IPv4Address,
               pop_name: Optional[str] = None) -> list[Route]:
        """Candidate routes for a destination address."""
        views = (
            [self.pops[pop_name]] if pop_name is not None
            else list(self.pops.values())
        )
        result = []
        for view in views:
            best_len = -1
            matches: list[Route] = []
            for route in view.routes.values():
                if route.prefix.contains_address(destination):
                    if route.prefix.length > best_len:
                        best_len = route.prefix.length
                        matches = [route]
                    elif route.prefix.length == best_len:
                        matches.append(route)
            result.extend(matches)
        return result

    def send_via(self, pop_name: str, route: Route,
                 packet: IPv4Packet) -> None:
        """Send a packet using a specific vBGP route.

        Resolves the route's (virtual) next hop over the tunnel — exactly
        the ARP-then-frame sequence of Figure 2b — so the destination MAC
        encodes the chosen neighbor.
        """
        view = self.pops[pop_name]
        if route.next_hop is None:
            raise ValueError("route has no next hop")
        self.stack.send_ip_via(packet, route.next_hop, view.iface)

    def ping(self, pop_name: str, route: Route, dst: IPv4Address,
             src: Optional[IPv4Address] = None,
             sequence: int = 1) -> None:
        source = src if src is not None else self._default_source()
        packet = IPv4Packet(
            src=source,
            dst=dst,
            proto=IpProto.ICMP,
            payload=IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST,
                                sequence=sequence),
        )
        self.send_via(pop_name, route, packet)

    def received_packets(self) -> list[IPv4Packet]:
        return list(self._received_packets)

    def received_icmp(self) -> list[tuple[IPv4Packet, IcmpMessage]]:
        return list(self._received_icmp)

    def _default_source(self) -> IPv4Address:
        if self.profile.prefixes:
            return self.profile.prefixes[0].address_at(1)
        raise RuntimeError("experiment has no allocated prefixes")
