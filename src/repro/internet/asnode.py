"""A synthetic Internet AS: full BGP speaker + Gao–Rexford policies +
AS-level forwarding + optional physical presence at PEERING PoPs.

Policies follow the standard valley-free model: routes are tagged on
import with the relationship they were learned over (community tags in
the reserved 65535:* space, stripped on export) and local preference
customer > peer > provider; customer routes are exported to everyone,
peer/provider routes only to customers. PEERING itself attaches either as
a *customer* (transit interconnections at universities) or as a *peer*
(bilateral/route-server sessions at IXPs) — which is exactly what gives
experiment announcements the propagation behaviour the paper describes
(§4.2 "customer cones", reachability via transits vs peers).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.bgp.attributes import Community, local_route
from repro.bgp.policy import (
    Match,
    PolicyAction,
    PolicyResult,
    PolicyRule,
    RouteMap,
)
from repro.bgp.rib import RibEntry
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.transport import connect_pair
from repro.internet.overlay import AsOverlay
from repro.netsim.addr import IPv4Address, IPv4Prefix, Prefix
from repro.netsim.frames import (
    EtherType,
    IcmpMessage,
    IcmpType,
    IpProto,
    IPv4Packet,
)
from repro.netsim.lpm import LpmTable
from repro.netsim.stack import NetworkStack
from repro.platform.pop import NeighborPort
from repro.sim.scheduler import Scheduler


class Relationship(enum.Enum):
    """The neighbor's role from this AS's perspective."""

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"


TAG_CUSTOMER = Community(65535, 64001)
TAG_PEER = Community(65535, 64002)
TAG_PROVIDER = Community(65535, 64003)
ALL_TAGS = (TAG_CUSTOMER, TAG_PEER, TAG_PROVIDER)

_PREF = {
    Relationship.CUSTOMER: 200,
    Relationship.PEER: 100,
    Relationship.PROVIDER: 50,
}
_TAG = {
    Relationship.CUSTOMER: TAG_CUSTOMER,
    Relationship.PEER: TAG_PEER,
    Relationship.PROVIDER: TAG_PROVIDER,
}


def import_policy(relationship: Relationship) -> RouteMap:
    """Tag + prefer according to the relationship (Gao–Rexford)."""
    return RouteMap(
        rules=[
            PolicyRule(
                match=Match(),
                action=PolicyAction(
                    add_communities=(_TAG[relationship],),
                    set_local_pref=_PREF[relationship],
                ),
                result=PolicyResult.ACCEPT,
            )
        ],
        name=f"gr-import-{relationship.value}",
    )


def export_policy(relationship: Relationship) -> RouteMap:
    """Valley-free export: only customer routes go to peers/providers."""
    rules = []
    if relationship in (Relationship.PEER, Relationship.PROVIDER):
        rules.append(
            PolicyRule(
                match=Match(any_community_of=(TAG_PEER, TAG_PROVIDER)),
                result=PolicyResult.REJECT,
                name="no-valley",
            )
        )
    rules.append(
        PolicyRule(
            match=Match(),
            action=PolicyAction(remove_communities=ALL_TAGS),
            result=PolicyResult.ACCEPT,
            name="strip-tags",
        )
    )
    return RouteMap(rules=rules, name=f"gr-export-{relationship.value}")


@dataclass
class PopAttachment:
    """Physical presence of this AS at a PEERING PoP."""

    pop: str
    iface: str
    address: IPv4Address
    pop_server_ip: IPv4Address
    peer_name: str  # speaker neighbor name for the PEERING session


class InternetAS:
    """One synthetic AS."""

    def __init__(
        self,
        scheduler: Scheduler,
        overlay: AsOverlay,
        asn: int,
        name: str,
        prefixes: tuple[IPv4Prefix, ...],
        kind: str = "transit",  # PeeringDB-ish class, see peeringdb.py
    ) -> None:
        self.scheduler = scheduler
        self.overlay = overlay
        self.asn = asn
        self.name = name
        self.prefixes = prefixes
        self.kind = kind
        router_id = (
            prefixes[0].address_at(1) if prefixes else IPv4Address(asn & 0xFFFFFFFF)
        )
        self.speaker = BgpSpeaker(
            scheduler, SpeakerConfig(asn=asn, router_id=router_id)
        )
        # AS-level FIB mirror for overlay forwarding: prefix -> peer name.
        self.fib: LpmTable[str] = LpmTable()
        self.speaker.on_best_change.append(self._best_changed)
        self.neighbor_asns: dict[str, int] = {}
        self.relationships: dict[str, Relationship] = {}
        self.attachments: dict[str, PopAttachment] = {}
        self.stack: Optional[NetworkStack] = None
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0
        overlay.register(self)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def originate_all(self) -> None:
        """Originate this AS's address space."""
        for prefix in self.prefixes:
            self.speaker.originate(
                local_route(prefix, next_hop=self.speaker.config.router_id)
            )

    def peer_with(self, other: "InternetAS",
                  relationship: Relationship, rtt: float = 0.01) -> None:
        """Create a bilateral session; ``relationship`` is *our* view of
        ``other`` (their view is reciprocal)."""
        reciprocal = {
            Relationship.CUSTOMER: Relationship.PROVIDER,
            Relationship.PROVIDER: Relationship.CUSTOMER,
            Relationship.PEER: Relationship.PEER,
        }[relationship]
        ours, theirs = connect_pair(self.scheduler, rtt=rtt)
        our_name = f"as{other.asn}"
        their_name = f"as{self.asn}"
        self.speaker.attach_neighbor(
            NeighborConfig(
                name=our_name,
                peer_asn=other.asn,
                local_address=self.speaker.config.router_id,
                import_policy=import_policy(relationship),
                export_policy=export_policy(relationship),
            ),
            ours,
        )
        self.neighbor_asns[our_name] = other.asn
        self.relationships[our_name] = relationship
        other.speaker.attach_neighbor(
            NeighborConfig(
                name=their_name,
                peer_asn=self.asn,
                local_address=other.speaker.config.router_id,
                import_policy=import_policy(reciprocal),
                export_policy=export_policy(reciprocal),
            ),
            theirs,
        )
        other.neighbor_asns[their_name] = self.asn
        other.relationships[their_name] = reciprocal

    def connect_to_pop(self, port: NeighborPort,
                       lan_latency: float = 0.0005) -> PopAttachment:
        """Plug this AS into a PEERING PoP (LAN presence + BGP session).

        ``port.kind`` decides the relationship: a "transit" port means
        PEERING is our *customer*; "peer" (or "route-server") means
        PEERING is a *peer*.
        """
        relationship = (
            Relationship.CUSTOMER if port.kind == "transit"
            else Relationship.PEER
        )
        peer_name = f"peering-{port.pop}"
        self.speaker.attach_neighbor(
            NeighborConfig(
                name=peer_name,
                peer_asn=None,  # PEERING uses several ASNs
                local_address=port.address,
                import_policy=import_policy(relationship),
                export_policy=export_policy(relationship),
            ),
            port.channel,
        )
        self.relationships[peer_name] = relationship
        if self.stack is None:
            self.stack = NetworkStack(self.scheduler,
                                      name=f"as{self.asn}")
            self.stack.ingress_hooks.append(self._from_fabric)
        iface = f"pop-{port.pop}"
        from repro.netsim.link import Link, Port as NetPort

        our_port = NetPort(f"{iface}@as{self.asn}")
        Link(self.scheduler, our_port, port.lan_port, latency=lan_latency)
        self.stack.add_interface(iface, port.mac, our_port)
        self.stack.add_address(iface, port.address, port.subnet_length)
        attachment = PopAttachment(
            pop=port.pop,
            iface=iface,
            address=port.address,
            pop_server_ip=IPv4Prefix.from_address(
                port.address, port.subnet_length
            ).address_at(1),
            peer_name=peer_name,
        )
        self.attachments[peer_name] = attachment
        return attachment

    def _best_changed(self, prefix: Prefix, best: Optional[RibEntry]) -> None:
        if best is None:
            self.fib.remove(prefix)
        else:
            self.fib.insert(prefix, best.peer)

    # ------------------------------------------------------------------
    # Data plane (AS-level)
    # ------------------------------------------------------------------

    def receive_packet(self, packet: IPv4Packet) -> None:
        """Entry point from the overlay or from the PoP fabric."""
        self.packets_received += 1
        if any(p.contains_address(packet.dst) for p in self.prefixes):
            self._deliver_local(packet)
            return
        if packet.ttl <= 1:
            self._send_ttl_exceeded(packet)
            return
        self.forward(packet.decrement_ttl())

    def forward(self, packet: IPv4Packet) -> None:
        entry = self.fib.lookup(packet.dst)
        if entry is None:
            self.packets_dropped += 1
            return
        peer = entry.value
        attachment = self.attachments.get(peer)
        self.packets_forwarded += 1
        if attachment is not None:
            self._inject_into_fabric(packet, attachment)
            return
        next_asn = self.neighbor_asns.get(peer)
        if next_asn is None:
            self.packets_dropped += 1
            return
        self.overlay.deliver(packet, next_asn)

    def _deliver_local(self, packet: IPv4Packet) -> None:
        """The packet reached this AS's address space; answer probes."""
        if packet.proto == IpProto.ICMP and isinstance(
            packet.payload, IcmpMessage
        ) and packet.payload.icmp_type == IcmpType.ECHO_REQUEST:
            reply = IPv4Packet(
                src=packet.dst,
                dst=packet.src,
                proto=IpProto.ICMP,
                payload=IcmpMessage(
                    icmp_type=IcmpType.ECHO_REPLY,
                    identifier=packet.payload.identifier,
                    sequence=packet.payload.sequence,
                    payload=packet.payload.payload,
                ),
            )
            self.forward(reply)
            return
        if packet.proto == IpProto.UDP:
            error = IPv4Packet(
                src=packet.dst,
                dst=packet.src,
                proto=IpProto.ICMP,
                payload=IcmpMessage(
                    icmp_type=IcmpType.DEST_UNREACHABLE, code=3,
                    payload=packet.encode()[:28],
                ),
            )
            self.forward(error)

    def _send_ttl_exceeded(self, packet: IPv4Packet) -> None:
        source = (
            self.prefixes[0].address_at(1) if self.prefixes
            else self.speaker.config.router_id
        )
        error = IPv4Packet(
            src=source,
            dst=packet.src,
            proto=IpProto.ICMP,
            payload=IcmpMessage(
                icmp_type=IcmpType.TIME_EXCEEDED,
                payload=packet.encode()[:28],
            ),
        )
        self.forward(error)

    # -- bridging between the overlay and the PoP fabric -----------------

    def _inject_into_fabric(self, packet: IPv4Packet,
                            attachment: PopAttachment) -> None:
        assert self.stack is not None
        self.stack.send_ip_via(
            packet, attachment.pop_server_ip, attachment.iface
        )

    def _from_fabric(self, frame, iface):
        """Stack ingress hook: lift fabric packets into the AS overlay."""
        if frame.ethertype != EtherType.IPV4 or not isinstance(
            frame.payload, IPv4Packet
        ):
            return frame
        packet = frame.payload
        if self.stack is not None and packet.dst in self.stack.local_ips():
            return frame  # LAN-level traffic (e.g. ping to the IXP port)
        self.receive_packet(packet)
        return None
