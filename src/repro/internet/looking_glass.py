"""Looking glasses and route collectors.

Existing measurement tools "provide visibility into the current state of
BGP … [but] cannot interact with the routing ecosystem" (§1, §8) — we
model them anyway because experiments *use* them: the backup-routes study
observes which routes become visible, and Appendix A's debugging workflow
relies on looking glasses' restricted command interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bgp.attributes import Route
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.transport import connect_pair
from repro.internet.asnode import InternetAS
from repro.netsim.addr import IPv4Address, Prefix
from repro.sim.scheduler import Scheduler
from repro.telemetry import BmpMessage, RouteMonitoring, TelemetryHub


@dataclass
class CollectedRoute:
    peer_asn: int
    route: Route
    first_seen: float
    last_updated: float


class LookingGlass:
    """A route collector with a restricted query interface.

    Peers with ASes (like RouteViews / RIPE RIS collectors) and records
    every route each peer advertises. The query surface is deliberately
    narrow — ``show route for <prefix>`` — matching the paper's complaint
    that looking glasses "only provide a restricted command line
    interface" (Appendix A).
    """

    COLLECTOR_ASN = 6447  # RouteViews' ASN, as a nod

    def __init__(
        self,
        scheduler: Scheduler,
        name: str = "collector",
        telemetry: Optional[TelemetryHub] = None,
    ) -> None:
        self.scheduler = scheduler
        self.name = name
        # The collector *is* a BMP monitoring station: its sessions stream
        # PeerUp/RouteMonitoring/PeerDown to the station, which maintains
        # the per-peer RIB-in mirrors the query surface reads.
        self.telemetry = (
            telemetry if telemetry is not None
            else TelemetryHub(scheduler, name=f"lg-{name}")
        )
        self.station = self.telemetry.station
        self.speaker = BgpSpeaker(
            scheduler,
            SpeakerConfig(
                asn=self.COLLECTOR_ASN,
                router_id=IPv4Address.parse("198.32.4.1"),
            ),
            telemetry=self.telemetry,
        )
        # (peer asn, prefix) -> collected route (announce history).
        self.table: dict[tuple[int, Prefix], CollectedRoute] = {}
        self.station.subscribe(self._on_bmp)
        self._peer_asns: dict[str, int] = {}

    def peer_with(self, node: InternetAS, rtt: float = 0.02) -> None:
        """Establish a collection session with an AS."""
        ours, theirs = connect_pair(self.scheduler, rtt=rtt)
        name = f"as{node.asn}"
        self.speaker.attach_neighbor(
            NeighborConfig(name=name, peer_asn=node.asn), ours
        )
        self._peer_asns[name] = node.asn
        # The AS exports to the collector as it would to a peer.
        from repro.internet.asnode import Relationship, export_policy

        node.speaker.attach_neighbor(
            NeighborConfig(
                name=f"collector-{self.name}",
                peer_asn=self.COLLECTOR_ASN,
                local_address=node.speaker.config.router_id,
                export_policy=export_policy(Relationship.PEER),
            ),
            theirs,
        )

    def _on_bmp(self, message: BmpMessage) -> None:
        """Station subscriber: fold RouteMonitoring into the history table."""
        if not isinstance(message, RouteMonitoring):
            return
        asn = self._peer_asns.get(message.peer)
        if asn is None:
            return
        now = self.scheduler.now
        for route in message.announced:
            key = (asn, route.prefix)
            existing = self.table.get(key)
            if existing is None:
                self.table[key] = CollectedRoute(
                    peer_asn=asn, route=route,
                    first_seen=now, last_updated=now,
                )
            else:
                existing.route = route
                existing.last_updated = now

    # -- the restricted CLI ------------------------------------------------

    def show_route_for(self, prefix: Prefix) -> str:
        lines = []
        for (asn, held), collected in sorted(self.table.items()):
            if held == prefix:
                lines.append(
                    f"from AS{asn}: {collected.route}"
                )
        return "\n".join(lines) or "% Network not in table"

    def routes_for(self, prefix: Prefix) -> list[CollectedRoute]:
        return [
            collected
            for (asn, held), collected in self.table.items()
            if held == prefix
        ]

    def visible_paths(self, prefix: Prefix) -> set[tuple[int, ...]]:
        """Distinct AS paths *currently* visible for a prefix.

        Reads the station's per-peer RIB-in mirrors (withdrawn routes
        disappear), which is what hidden-routes studies compare across
        announcement configurations. ``self.table`` keeps the announce
        history with first-seen timestamps.
        """
        return {
            route.as_path.asns
            for _peer, route in self.station.routes_for(prefix)
        }
