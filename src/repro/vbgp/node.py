"""The vBGP node: one virtualized BGP edge router (§3, §4.4).

A node terminates three kinds of BGP sessions:

* **upstream** — the PoP's real neighbors (transits, peers, route
  servers); their routes are installed into per-neighbor kernel tables and
  fanned out to experiments and backbone peers;
* **experiment** — ADD-PATH sessions carrying *all* known routes to each
  experiment with next hops rewritten to per-neighbor virtual IPs;
  announcements from experiments pass through the control-plane security
  enforcer and are exported to neighbors selected by control communities;
* **backbone** — an iBGP-style mesh with other vBGP nodes over which both
  neighbor routes (next hop = the neighbor's global 127.127/16 IP, which
  names the neighbor) and experiment routes (next hop = the announcing
  node's backbone address) propagate under the sender's own ADD-PATH
  ids, extending per-packet neighbor selection platform-wide.

On the data plane the node (a) answers ARP for virtual IPs with the
deterministic per-neighbor virtual MACs, (b) demultiplexes ingress frames
by destination MAC into the matching per-neighbor table (a policy-routing
rule per neighbor), and (c) intercepts traffic destined to experiment
prefixes, rewriting the source MAC to the delivering neighbor's virtual
MAC before handing the frame to the experiment's tunnel (§3.2.2).

The export step is shared with ``BgpSpeaker``: experiment announcements
go through :func:`repro.bgp.policy.export_transform`, and fan-out and
backbone UPDATEs are packed by :func:`repro.bgp.messages.pack_updates`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from repro.bgp import messages
from repro.bgp.attributes import PathAttributes, Route
from repro.bgp.messages import UpdateMessage, pack_updates
from repro.bgp.policy import export_transform
from repro.bgp.rib import AdjRibIn
from repro.bgp.session import BgpSession, SessionConfig
from repro.bgp.supervisor import SessionSupervisor, SupervisorConfig
from repro.bgp.transport import Channel
from repro.netsim.addr import IPv4Address, MacAddress, Prefix
from repro.netsim.frames import EtherType, EthernetFrame, IPv4Packet
from repro.netsim.lpm import LpmTable
from repro.netsim.stack import (
    Interface,
    KernelRoute,
    NetworkStack,
    RoutingRule,
)
from repro.sim.scheduler import Scheduler
from repro.vbgp.allocator import (
    GlobalNeighborRegistry,
    VirtualNeighbor,
    global_neighbor_id,
    global_neighbor_mac,
    neighbor_mac_global_id,
    virtual_neighbor,
)
from repro.vbgp.communities import choose_exports, is_control
# benchmarks/e2e/trace.py times the community layer by patching these names.
from repro.vbgp.communities import select_targets, strip_control  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import TelemetryHub

RULE_PRIORITY_VMAC = 100

@dataclass
class UpstreamNeighbor:
    """A real BGP neighbor of this PoP."""

    name: str
    peer_asn: int
    peer_address: IPv4Address
    peer_mac: MacAddress
    kind: str  # "transit" | "peer" | "route-server"
    virtual: VirtualNeighbor
    session: Optional[BgpSession] = None
    # Paths received (the prefix, or (prefix, peer path id) -> attributes)
    # and the GR stale set.
    rib: AdjRibIn = field(default_factory=AdjRibIn)
    # The node's ADD-PATH id of each named path, keyed like ``rib``.
    path_ids: dict = field(default_factory=dict)
    # Session-rebuild parameters (supervisor re-dials reuse them).
    addpath: bool = False
    graceful_restart: bool = False
    restart_time: int = 120
    supervisor: Optional[SessionSupervisor] = None


@dataclass
class RemoteNeighbor:
    """A neighbor at another PoP, learned over the backbone."""

    global_id: int
    virtual: VirtualNeighbor
    # The backbone peer (PoP node name) whose session carries its routes.
    peer: str
    rib: AdjRibIn = field(default_factory=AdjRibIn)
    path_ids: dict = field(default_factory=dict)


@dataclass
class ExperimentAttachment:
    """One experiment's presence at this node."""

    name: str
    asn: int
    prefixes: tuple[Prefix, ...]
    tunnel_ip: IPv4Address
    tunnel_mac: MacAddress
    session: Optional[BgpSession] = None
    # Announcements accepted from the experiment: (prefix, path id) -> route.
    announced: dict[tuple[Prefix, Optional[int]], Route] = field(
        default_factory=dict
    )
    # The node's ADD-PATH id for each path it has put on the mesh, from the
    # fan-out's counter; released when the path leaves ``announced``.
    mesh_ids: dict[tuple[Prefix, Optional[int]], int] = field(
        default_factory=dict
    )


class VbgpNode:
    """One vBGP instance (one PoP server)."""

    def __init__(
        self,
        scheduler: Scheduler,
        name: str,
        pop_id: int,
        platform_asn: int,
        router_id: IPv4Address,
        stack: NetworkStack,
        registry: GlobalNeighborRegistry,
        upstream_iface: str = "ixp0",
        exp_iface: str = "exp0",
        backbone_iface: Optional[str] = None,
        backbone_address: Optional[IPv4Address] = None,
        control_enforcer: Optional[object] = None,
        data_enforcer: Optional[object] = None,
        telemetry: Optional["TelemetryHub"] = None,
    ) -> None:
        self.scheduler = scheduler
        self.name = name
        self.pop_id = pop_id
        self.platform_asn = platform_asn
        self.router_id = router_id
        self.stack = stack
        self.registry = registry
        self.upstream_iface = upstream_iface
        self.exp_iface = exp_iface
        self.backbone_iface = backbone_iface
        self.backbone_address = backbone_address
        self.control_enforcer = control_enforcer
        self.data_enforcer = data_enforcer

        self.upstreams: dict[str, UpstreamNeighbor] = {}
        # (gid, pop id) of every upstream: ``choose_exports`` candidates.
        self.target_candidates: list[tuple[int, int]] = []
        self.remote_neighbors: dict[int, RemoteNeighbor] = {}
        self.experiments: dict[str, ExperimentAttachment] = {}
        # ADD-PATH ids, one per path for the whole node (paper §4.2), on
        # the experiment sessions and the mesh alike, from this counter.
        # Each neighbor keeps its paths' ids in ``path_ids``, keyed by the
        # key object its rib holds; an id is allocated on the first send
        # to any listener and released when the path leaves the rib.
        self._path_id_counter = count(1)
        self.backbone_peers: dict[str, BgpSession] = {}
        # Backbone peer -> mesh id -> gid of the remote neighbor paths it
        # carries: a withdrawal has no next hop to read the gid from.
        self._mesh_gids: dict[str, dict[int, int]] = {}
        # Experiment prefixes (local and remote) for data-plane intercept.
        self.exp_prefixes: LpmTable[dict] = LpmTable()
        # The export choice's input by prefix: local experiment paths by
        # (experiment, path id) -- while any is held, the tunnel route wins
        # over the mesh -- and remote ones by (backbone peer, mesh id), of
        # which the data plane routes to the lowest (``remote_exp_routes``).
        self._local_exp_paths: dict[
            Prefix, dict[tuple[str, Optional[int]], Route]] = {}
        self.remote_exp_paths: dict[Prefix, dict[tuple[str, int], Route]] = {}
        self.remote_exp_routes: dict[Prefix, Route] = {}
        # The Adj-RIB-Out of every upstream (RFC 4271: the routes selected
        # for each peer), by prefix: upstream gid -> the experiment path
        # ``choose_exports`` gave it.  An established upstream holds exactly
        # these paths' exports; one that comes up is sent its column.
        self.adj_rib_out: dict[Prefix, dict[int, Route]] = {}
        # MAC -> upstream neighbor, to attribute ingress traffic.
        self._mac_to_gid: dict[MacAddress, int] = {}
        self.counters = {
            "updates_from_upstream": 0,
            "updates_from_experiments": 0,
            "updates_to_experiments": 0,
            "updates_to_neighbors": 0,
            "updates_to_backbone": 0,
            "routes_installed": 0,
            "routes_removed": 0,
            "announcements_blocked": 0,
            "frames_to_experiments": 0,
            "enforcer_failures": 0,
            "supervisor_reconnects": 0,
            "gr_routes_retained": 0,
            "gr_routes_flushed": 0,
        }
        self.telemetry = telemetry
        # Overload governor (repro.overload, §6i).  ``None`` (the
        # default) keeps the pre-§6i unbounded ingress path.
        self.overload = None
        self._m_frames_by_neighbor = None
        self._m_updates_by_neighbor = None
        if telemetry is not None:
            self._init_telemetry(telemetry)
        self.stack.ingress_hooks.append(self._intercept_inbound)
        if self.data_enforcer is not None:
            self.stack.ingress_hooks.append(self._data_enforce)

    def _init_telemetry(self, telemetry: "TelemetryHub") -> None:
        """Declare the node's metric families (disabled ⇒ never called)."""
        registry = telemetry.registry
        pipeline = registry.gauge(
            "vbgp_pipeline_counters",
            "vBGP pipeline counters, mirrored from VbgpNode.counters",
            labels=("node", "counter"),
        )
        for key in self.counters:
            pipeline.labels(self.name, key).set_function(
                lambda k=key: self.counters[k]
            )
        sizes = registry.gauge(
            "vbgp_node_size",
            "vBGP table/attachment sizes, evaluated at scrape time",
            labels=("node", "what"),
        )
        for what, fn in (
            ("fib_entries", self.fib_entry_count),
            ("known_routes", lambda: len(self.known_routes())),
            ("experiments", lambda: len(self.experiments)),
            ("upstreams", lambda: len(self.upstreams)),
            ("remote_neighbors", lambda: len(self.remote_neighbors)),
        ):
            sizes.labels(self.name, what).set_function(fn)
        self._m_frames_by_neighbor = registry.counter(
            "vbgp_frames_to_experiments",
            "Frames delivered to experiments, by delivering neighbor",
            labels=("node", "neighbor"),
        )
        self._m_updates_by_neighbor = registry.counter(
            "vbgp_updates_to_neighbors",
            "Experiment announcements exported, by upstream neighbor",
            labels=("node", "neighbor"),
        )

    # ==================================================================
    # Upstream neighbors
    # ==================================================================

    def enable_backbone(self, iface: str, address: IPv4Address) -> None:
        """Configure backbone attachment; retro-provisions the backbone
        side (proxy-ARP for global IPs, extra MACs) of existing neighbors."""
        self.backbone_iface = iface
        self.backbone_address = address
        backbone = self.stack.interfaces.get(iface)
        if backbone is None:
            return
        for neighbor in self.upstreams.values():
            backbone.extra_macs.add(neighbor.virtual.mac)
            self.stack.add_proxy_arp(
                iface, neighbor.virtual.global_ip, neighbor.virtual.mac
            )

    def attach_upstream(
        self,
        name: str,
        peer_asn: int,
        peer_address: IPv4Address,
        peer_mac: MacAddress,
        channel: Channel,
        kind: str = "peer",
        addpath: bool = False,
        graceful_restart: bool = False,
        restart_time: int = 120,
        channel_factory: Optional[Callable[[], Optional[Channel]]] = None,
        supervisor_config: Optional[SupervisorConfig] = None,
    ) -> UpstreamNeighbor:
        """Register a real neighbor and start its BGP session.

        With ``channel_factory``, a :class:`SessionSupervisor` re-dials
        the neighbor after non-administrative session loss (exponential
        backoff, deterministic jitter, flap damping).  With
        ``graceful_restart``, the session offers RFC 4724 and a reset
        retains the neighbor's routes (marked stale) instead of storming
        withdrawals toward experiments and the backbone.
        """
        if name in self.upstreams:
            raise ValueError(f"duplicate upstream {name!r} at {self.name}")
        global_id = self.registry.register(self.name, name)
        virtual = virtual_neighbor(global_id)
        neighbor = UpstreamNeighbor(
            name=name,
            peer_asn=peer_asn,
            peer_address=peer_address,
            peer_mac=peer_mac,
            kind=kind,
            virtual=virtual,
            addpath=addpath,
            graceful_restart=graceful_restart,
            restart_time=restart_time,
        )
        self._provision_virtual(virtual)
        self._mac_to_gid[peer_mac] = global_id
        self.stack.add_static_arp(peer_address, peer_mac, self.upstream_iface)
        session = self._upstream_session(neighbor, channel)
        self.upstreams[name] = neighbor
        self.target_candidates.append((global_id, self.pop_id))
        # A new candidate: give it its column before its session is up.
        for prefix in {**self._local_exp_paths, **self.remote_exp_paths}:
            self._export_prefix(prefix)
        if channel_factory is not None:
            neighbor.supervisor = SessionSupervisor(
                self.scheduler,
                peer_key=name,
                channel_factory=channel_factory,
                session_factory=lambda ch, n=neighbor: (
                    self._upstream_session(n, ch)
                ),
                config=supervisor_config,
                telemetry=self.telemetry,
            )
            neighbor.supervisor.adopt(session)
        session.start()
        return neighbor

    def _upstream_session(self, neighbor: UpstreamNeighbor,
                          channel: Channel) -> BgpSession:
        """Build (or rebuild, on supervisor re-dial) an upstream session."""
        name = neighbor.name
        session = BgpSession(
            self.scheduler,
            SessionConfig(
                local_asn=self.platform_asn,
                local_id=self.router_id,
                peer_asn=neighbor.peer_asn,
                addpath=neighbor.addpath,
                description=name,
                graceful_restart=neighbor.graceful_restart,
                restart_time=neighbor.restart_time,
            ),
            channel,
            on_update=lambda _s, update, n=name: self._upstream_update(n, update),
            on_established=lambda _s, n=name: self._upstream_established(n),
            on_close=lambda _s, reason, n=name: self._upstream_closed(n, reason),
            on_end_of_rib=lambda _s, n=neighbor: (
                self._flush_stale(n, "gr-flush-eor")
            ),
            telemetry=self.telemetry,
        )
        if neighbor.supervisor is not None:
            self.counters["supervisor_reconnects"] += 1
        neighbor.session = session
        if self.overload is not None:
            # The per-neighbor queue is owned by the governor, so it
            # (and its shed accounting) survives session rebuilds.
            session.set_ingress_queue(self.overload.queue_for(name))
        return session

    def _provision_virtual(self, virtual: VirtualNeighbor) -> None:
        """Install the data-plane plumbing for one (possibly remote)
        neighbor: extra MAC, proxy-ARP, and the dMAC-keyed table rule."""
        exp = self.stack.interfaces.get(self.exp_iface)
        if exp is not None:
            exp.extra_macs.add(virtual.mac)
            self.stack.add_proxy_arp(self.exp_iface, virtual.local_ip,
                                     virtual.mac)
        if self.backbone_iface is not None:
            backbone = self.stack.interfaces.get(self.backbone_iface)
            if backbone is not None:
                backbone.extra_macs.add(virtual.mac)
                self.stack.add_proxy_arp(
                    self.backbone_iface, virtual.global_ip, virtual.mac
                )
        self.stack.add_rule(
            RoutingRule(
                priority=RULE_PRIORITY_VMAC,
                table=virtual.table_id,
                match_dmac=virtual.mac,
            )
        )
        # Ensure the table exists even before routes arrive.
        self.stack.table(virtual.table_id)

    def _upstream_update(self, name: str, update: UpdateMessage) -> None:
        """One upstream UPDATE, applied directly in ingress order."""
        neighbor = self.upstreams.get(name)
        if neighbor is None:
            return
        self.counters["updates_from_upstream"] += 1
        tele = self.telemetry
        if tele is None:
            self._apply_paths(neighbor, update.withdrawn, update.attributes,
                              update.nlri)
            return
        token = tele.tracer.begin(
            "vbgp.upstream_update", node=self.name, neighbor=name
        )
        try:
            self._apply_paths(neighbor, update.withdrawn, update.attributes,
                              update.nlri)
        finally:
            tele.tracer.end(token)

    def _apply_paths(self, neighbor, withdrawn,
                     attributes: Optional[PathAttributes], nlri) -> None:
        """The one neighbor-path step, for an upstream's UPDATE and for a
        remote neighbor's share of a mesh UPDATE: Adj-RIB-In, kernel
        table, then the id step's sends (:meth:`_send_paths`).  ``nlri``
        are the ``(prefix, path id)`` pairs announced with ``attributes``
        (none without attributes); no ``Route`` is built."""
        rib = neighbor.rib
        removed = [
            (prefix, path_id) for prefix, path_id in withdrawn
            if rib.withdraw(prefix, path_id) is not None
        ]
        self._remove_kernel_routes(neighbor, removed)
        if attributes is None:
            nlri = ()
        elif isinstance(neighbor, UpstreamNeighbor):
            out_iface, hop = self.upstream_iface, neighbor.peer_address
            # Route servers are transparent (RFC 7947): the next hop is the
            # member router on the IXP LAN, not the server itself.
            if (neighbor.kind == "route-server"
                    and attributes.next_hop is not None):
                hop = attributes.next_hop
        else:  # a remote neighbor's path already carries its global IP
            out_iface, hop = self.backbone_iface, attributes.next_hop
        table_id = neighbor.virtual.table_id
        add_route = self.stack.add_route
        for path in nlri:
            rib.update(path, attributes)
            add_route(KernelRoute(
                prefix=path[0], out_iface=out_iface, next_hop=hop,
            ), table_id=table_id)
        self.counters["routes_installed"] += len(nlri)
        self._send_paths(neighbor, attributes, nlri, removed)

    def _upstream_established(self, name: str) -> None:
        """A (re-)established upstream holds nothing: send it its column
        of the ``adj_rib_out``."""
        neighbor = self.upstreams.get(name)
        session = None if neighbor is None else neighbor.session
        if session is None or not session.established:
            return
        gid = neighbor.virtual.global_id
        metric = self._m_updates_by_neighbor
        for chosen in self.adj_rib_out.values():
            route = chosen.get(gid)
            if route is None:
                continue
            session.send_update(
                UpdateMessage.announce([self.export_transform(route)])
            )
            self.counters["updates_to_neighbors"] += 1
            if metric is not None:
                metric.labels(self.name, name).inc()
        if session.gr_negotiated:
            # RFC 4724: close the (re-)transmission with End-of-RIB so
            # the restarted peer can flush anything still stale.
            session.send_end_of_rib()

    def _upstream_closed(self, name: str, _reason: str) -> None:
        neighbor = self.upstreams.get(name)
        if neighbor is None:
            return
        session = neighbor.session
        if (
            session is not None
            and session.gr_negotiated
            and not session.closed_admin
        ):
            # Graceful Restart receiver mode: retain the neighbor's
            # routes (and its kernel table) marked stale — no withdraw
            # storm toward experiments or the backbone.  Flushed when
            # the restart timer expires or a refreshed RIB's End-of-RIB
            # arrives (§4.7 fail-closed: a peer that never returns does
            # not keep stale state forever).
            restart_time = session.peer_restart_time
            retained = neighbor.rib.retain_stale(
                self.scheduler, restart_time,
                lambda n=neighbor: self._flush_stale(n, "gr-flush-expired"),
            )
            if retained:
                self.counters["gr_routes_retained"] += retained
                self._resilience_event(
                    name, "gr-stale",
                    f"{retained} routes retained for {restart_time}s",
                )
                return
        self._drop_paths(neighbor, neighbor.rib.clear())

    def _flush_stale(self, neighbor: UpstreamNeighbor, event: str) -> None:
        """End-of-RIB or restart-timer expiry: drop what is still stale."""
        keys = neighbor.rib.flush_stale()
        if not keys:
            return
        self.counters["gr_routes_flushed"] += len(keys)
        self._drop_paths(neighbor, keys)
        self._resilience_event(
            neighbor.name, event, f"{len(keys)} stale routes flushed"
        )

    def _drop_paths(self, neighbor, keys: list) -> None:
        """``keys`` have left ``neighbor.rib``: update its kernel table and
        withdraw them wherever they were sent."""
        if not keys:
            return
        self._remove_kernel_routes(neighbor, keys)
        self._send_paths(neighbor, None, (), keys)

    def _remove_kernel_routes(self, neighbor, keys: list) -> None:
        """Take each prefix of ``keys`` out of ``neighbor``'s kernel table
        once no path for it remains in ``neighbor.rib``."""
        table_id = neighbor.virtual.table_id
        for prefix, _path_id in keys:
            if neighbor.rib.has_prefix(prefix):
                continue  # another path for the prefix survives
            if self.stack.remove_route(prefix, table_id=table_id):
                self.counters["routes_removed"] += 1

    def _resilience_event(self, peer: str, event: str, detail: str) -> None:
        tele = self.telemetry
        if tele is not None:
            from repro.telemetry.station import ResilienceEvent
            tele.station.publish(ResilienceEvent(
                peer=peer, time=self.scheduler.now,
                event=event, detail=detail,
            ))

    # ==================================================================
    # Overload resilience (repro.overload, DESIGN.md §6i)
    # ==================================================================

    def enable_overload(self, governor) -> None:
        """Install the overload governor on this node (opt-in).

        Existing upstream sessions get bounded ingress queues and
        breaker trips quarantine the offending neighbor's supervisor.
        """
        self.overload = governor
        governor.on_breaker_open = self._overload_quarantine
        for neighbor in self.upstreams.values():
            if neighbor.session is not None:
                neighbor.session.set_ingress_queue(
                    governor.queue_for(neighbor.name)
                )

    def _overload_quarantine(self, peer_key: str, open_time: float) -> None:
        """A breaker opened: keep that neighbor down for its open window."""
        neighbor = self.upstreams.get(peer_key)
        if neighbor is not None and neighbor.supervisor is not None:
            neighbor.supervisor.quarantine(open_time)

    # ==================================================================
    # Experiments
    # ==================================================================

    def attach_experiment(
        self,
        name: str,
        asn: int,
        prefixes: Iterable[Prefix],
        tunnel_ip: IPv4Address,
        tunnel_mac: MacAddress,
        channel: Channel,
    ) -> ExperimentAttachment:
        """Attach an experiment over its (VPN) tunnel and start BGP."""
        if name in self.experiments:
            raise ValueError(f"experiment {name!r} already attached")
        attachment = ExperimentAttachment(
            name=name,
            asn=asn,
            prefixes=tuple(prefixes),
            tunnel_ip=tunnel_ip,
            tunnel_mac=tunnel_mac,
        )
        session = BgpSession(
            self.scheduler,
            SessionConfig(
                local_asn=self.platform_asn,
                local_id=self.router_id,
                peer_asn=asn,
                addpath=True,
                description=f"exp:{name}",
            ),
            channel,
            on_update=lambda _s, update, n=name: (
                self._experiment_update(n, update)
            ),
            on_established=lambda _s, n=name: self._experiment_up(n),
            on_close=lambda _s, reason, n=name: (
                self._experiment_closed(n, reason)
            ),
            # ROUTE-REFRESH (soft reset): resend the full table with the
            # same stable ADD-PATH ids.
            on_route_refresh=lambda _s, n=name: self._experiment_up(n),
            telemetry=self.telemetry,
        )
        attachment.session = session
        self.experiments[name] = attachment
        self.stack.add_static_arp(tunnel_ip, tunnel_mac, self.exp_iface)
        for prefix in attachment.prefixes:
            entry = self.exp_prefixes.get(prefix) or {}
            entry[name] = attachment
            self.exp_prefixes.insert(prefix, entry)
        session.start()
        return attachment

    def _experiment_up(self, name: str) -> None:
        """Send the full table (every neighbor's routes) to the experiment."""
        exp = self.experiments.get(name)
        if exp is None:
            return
        listeners = _established((exp.session,))
        if not listeners:
            return
        for neighbor in (*self.upstreams.values(),
                         *self.remote_neighbors.values()):
            self._send(listeners, (), self._name_paths(
                neighbor, neighbor.rib.items(),
            ), neighbor.virtual.local_ip, "updates_to_experiments")

    def _experiment_closed(self, name: str, _reason: str) -> None:
        exp = self.experiments.pop(name, None)
        if exp is None:
            return
        for prefix in exp.prefixes:
            entry = self.exp_prefixes.get(prefix)
            if entry is not None:
                entry.pop(name, None)
                if not entry:
                    self.exp_prefixes.remove(prefix)
        # Withdraw everything the experiment had announced.  Each route
        # leaves ``announced`` before it is retracted, so the last one for
        # a prefix takes the tunnel route out of the kernel with it.
        for key in list(exp.announced):
            self._retract_experiment_route(exp, exp.announced.pop(key))

    def _send_paths(self, neighbor, attributes: Optional[PathAttributes],
                    nlri, removed: list[tuple[Prefix, Optional[int]]]
                    ) -> None:
        """The one id step (Figure 2a, §4.4): name one neighbor's path
        change (``nlri`` announced with ``attributes``, ``removed`` gone)
        once and send it to the experiments with the neighbor's local VIP
        as next hop and, for an upstream, to the backbone peers with its
        global IP.

        The "fan-out compile": a path's ADD-PATH id belongs to the node,
        not to the listener, so each kind of listener gets the same
        :class:`UpdateMessage` objects (one encode, by the wire memo),
        packed by :func:`~repro.bgp.messages.pack_updates`.  Nothing is
        kept per listener: sessions hear paths only while established,
        and ``_experiment_up`` / ``_backbone_up`` give them the full table
        on establishment, so every live session has heard every id.
        """
        ids = neighbor.path_ids
        # ``removed`` paths have left the neighbor's rib: their ids go
        # back whether or not anyone is listening.
        withdrawn = []
        for prefix, source_id in removed:
            path_id = ids.pop(
                prefix if source_id is None else (prefix, source_id), None)
            if path_id is not None:
                withdrawn.append((prefix, path_id))
        listeners = _established(
            exp.session for exp in self.experiments.values()
        )
        mesh = []
        if self.backbone_peers and isinstance(neighbor, UpstreamNeighbor):
            mesh = _established(self.backbone_peers.values())
        if not listeners and not mesh:
            return
        named = self._name_paths(neighbor, (
            (path, attributes) for path in nlri))
        virtual = neighbor.virtual
        if listeners:
            self._send(listeners, withdrawn, named, virtual.local_ip,
                       "updates_to_experiments")
        if mesh:
            self._send(mesh, withdrawn, named, virtual.global_ip,
                       "updates_to_backbone")

    def _name_paths(self, neighbor, paths: Iterable[tuple]
                    ) -> list[tuple[PathAttributes, list]]:
        """``neighbor``'s ``((prefix, path id), attributes)`` ``paths``
        grouped by attribute set, each as ``(prefix, node id)``; a path
        gets its id on first use.  ``neighbor.path_ids`` keys a path by
        the object ``rib`` holds: its prefix without an id, else the
        ``(prefix, path id)`` pair itself (the decoded NLRI pair, or the
        rib's own tuple on a replay from :meth:`AdjRibIn.items`)."""
        ids = neighbor.path_ids
        counter = self._path_id_counter
        named = []
        for attrs, group in messages.group_by_attributes(paths).items():
            nlri = []
            for pair in group:
                prefix, source_id = pair
                key = prefix if source_id is None else pair
                path_id = ids.get(key)
                if path_id is None:
                    path_id = ids[key] = next(counter)
                nlri.append((prefix, path_id))
            named.append((attrs, nlri))
        return named

    def path_id_items(self) -> Iterator[tuple[tuple, int]]:
        """``((gid, prefix, source path id), node id)`` for every path the
        node has named, across its neighbors' ``path_ids``."""
        for neighbor in (*self.upstreams.values(),
                         *self.remote_neighbors.values()):
            gid = neighbor.virtual.global_id
            for key, path_id in neighbor.path_ids.items():
                if key.__class__ is tuple:
                    yield (gid, *key), path_id
                else:
                    yield (gid, key, None), path_id

    def _send(self, sessions: list[BgpSession], withdrawn, named: list,
              next_hop: IPv4Address, counter: str) -> None:
        """Pack one named change, sent with ``next_hop``, once and put it
        on every one of ``sessions``."""
        groups = [(attrs.with_next_hop(next_hop), nlri)
                  for attrs, nlri in named]
        addpath = any(session.addpath_active for session in sessions)
        updates = pack_updates(withdrawn, groups, addpath)
        for session in sessions:
            for update in updates:
                session.send_update(update)
        self.counters[counter] += len(sessions) * len(updates)

    # -- announcements from experiments ---------------------------------

    def _experiment_update(self, name: str, update: UpdateMessage) -> None:
        tele = self.telemetry
        if tele is None:
            self._apply_experiment_update(name, update)
            return
        token = tele.tracer.begin(
            "vbgp.experiment_update", node=self.name, experiment=name
        )
        try:
            self._apply_experiment_update(name, update)
        finally:
            tele.tracer.end(token)

    def _apply_experiment_update(self, name: str,
                                 update: UpdateMessage) -> None:
        exp = self.experiments.get(name)
        if exp is None:
            return
        self.counters["updates_from_experiments"] += 1
        for prefix, path_id in update.withdrawn:
            route = exp.announced.pop((prefix, path_id), None)
            if route is not None:
                self._retract_experiment_route(exp, route)
        routes = update.routes()
        if not routes:
            return
        governor = self.overload
        breaker = None
        if governor is not None:
            breaker = governor.breaker_for(f"exp:{name}")
            if not breaker.allow():
                # Breaker open (sustained enforcer violations): refuse
                # announcements wholesale.  Withdrawals were already
                # processed above — retraction always goes through.
                self.counters["announcements_blocked"] += len(routes)
                return
        allowed = self._enforce_control(exp, routes)
        if breaker is not None:
            blocked = len(routes) - len(allowed)
            if blocked > 0:
                governor.record_violations(f"exp:{name}", blocked)
            elif allowed:
                breaker.record_success()
        local = self._local_exp_paths
        for route in allowed:
            exp.announced[(route.prefix, route.path_id)] = route
            local.setdefault(route.prefix, {})[(name, route.path_id)] = route
            self._propagate_experiment_route(exp, route)

    def _enforce_control(self, exp: ExperimentAttachment,
                         routes: list[Route]) -> list[Route]:
        """Run the control-plane security enforcer; fail closed (§4.7)."""
        if self.control_enforcer is None:
            return routes
        try:
            return self.control_enforcer.filter_routes(
                experiment=exp.name, routes=routes, pop=self.name,
            )
        except Exception:
            self.counters["enforcer_failures"] += 1
            self.counters["announcements_blocked"] += len(routes)
            return []

    def _propagate_experiment_route(self, exp: ExperimentAttachment,
                                    route: Route) -> None:
        """Export an accepted announcement, an implicit replace (RFC 4271)
        of any held under its ``(prefix, path id)`` key, mesh included."""
        # Data plane: make the prefix reachable through the tunnel.
        self.stack.add_route(
            KernelRoute(
                prefix=route.prefix,
                out_iface=self.exp_iface,
                next_hop=exp.tunnel_ip,
            )
        )
        # Control plane: export to selected neighbors, and to the backbone.
        self._export_prefix(route.prefix)
        self._mesh_send(lambda: UpdateMessage.announce([
            self._mesh_route(exp, route)
        ]))

    def _retract_experiment_route(self, exp: ExperimentAttachment,
                                  route: Route) -> None:
        """``route`` has left ``exp.announced``: take it out of the export
        choice and off the mesh, releasing its mesh id.  The last local
        announcement of its prefix hands the kernel route to the path the
        mesh still carries, if any."""
        prefix = route.prefix
        paths = self._local_exp_paths[prefix]
        del paths[(exp.name, route.path_id)]
        if not paths:
            del self._local_exp_paths[prefix]
            self._route_remote(prefix)
        self._export_prefix(prefix)
        mesh_id = exp.mesh_ids.pop((prefix, route.path_id), None)
        if mesh_id is not None:
            self._mesh_send(lambda: UpdateMessage.withdraw([
                route.with_path_id(mesh_id)
            ]))

    def export_transform(self, route: Route) -> Route:
        """The §3.2.1 export rewrite for an experiment announcement: the
        shared :func:`~repro.bgp.policy.export_transform`, bound to this PoP.

        Pure (no node state is mutated): control communities are
        consumed, the platform ASN is prepended, the next hop becomes
        this PoP's upstream address, and client-local ADD-PATH ids /
        iBGP local-pref never leave the platform.  The export step and
        :func:`repro.intent.dryrun.export_state`, which reads what each
        upstream holds from the ``adj_rib_out``, both go through it.
        """
        return export_transform(
            route, asn=self.platform_asn, next_hop=self._upstream_address(),
            path_id=None, drop_community=is_control,
        )

    def _export_prefix(self, prefix: Prefix) -> None:
        """The one experiment-export step (§3.2.1 "export compile"): run
        :func:`~repro.vbgp.communities.choose_exports` for ``prefix`` into
        the ``adj_rib_out``, and send each established upstream whose path
        changed its export or a withdraw.  A (re)announced path is a new
        object, so it counts as changed even where its export is not.
        Each chosen path is transformed once, on first use, into one
        :class:`UpdateMessage` (one encode) for every session that gets it.
        """
        chosen = choose_exports(
            self._local_exp_paths.get(prefix, _NO_PATHS),
            self.remote_exp_paths.get(prefix, _NO_PATHS),
            self.target_candidates,
        )
        before = self.adj_rib_out.pop(prefix, _NO_PATHS)
        if chosen:
            self.adj_rib_out[prefix] = chosen
        built: dict[int, UpdateMessage] = {}
        withdraw = None
        sent = 0
        metric = self._m_updates_by_neighbor
        for neighbor in self.upstreams.values():
            gid = neighbor.virtual.global_id
            route = chosen.get(gid)
            if route is before.get(gid):
                continue
            session = neighbor.session
            if session is None or not session.established:
                continue
            if route is None:
                if withdraw is None:
                    withdraw = UpdateMessage.withdraw(
                        [Route(prefix=prefix, attributes=_EMPTY_ATTRS)]
                    )
                session.send_update(withdraw)
                sent += 1
                continue
            update = built.get(id(route))
            if update is None:
                update = built[id(route)] = UpdateMessage.announce(
                    [self.export_transform(route)]
                )
            session.send_update(update)
            sent += 1
            if metric is not None:
                metric.labels(self.name, neighbor.name).inc()
        self.counters["updates_to_neighbors"] += sent

    def _upstream_address(self) -> IPv4Address:
        iface = self.stack.interfaces.get(self.upstream_iface)
        if iface is not None and iface.addresses:
            return iface.addresses[0].address
        return self.router_id

    # ==================================================================
    # Backbone (§4.4)
    # ==================================================================

    def attach_backbone_peer(self, node_name: str, channel: Channel) -> None:
        """Join the backbone BGP mesh with another vBGP node."""
        session = BgpSession(
            self.scheduler,
            SessionConfig(
                local_asn=self.platform_asn,
                local_id=self.router_id,
                peer_asn=self.platform_asn,
                addpath=True,
                description=f"bb:{node_name}",
            ),
            channel,
            on_update=lambda _s, update, n=node_name: (
                self._backbone_update(n, update)
            ),
            on_established=lambda _s, n=node_name: self._backbone_up(n),
            on_close=lambda s, _reason, n=node_name: (
                self._backbone_closed(n, s)
            ),
            telemetry=self.telemetry,
        )
        self.backbone_peers[node_name] = session
        session.start()

    def _backbone_up(self, node_name: str) -> None:
        """Advertise all local state to a newly joined backbone peer."""
        session = self.backbone_peers.get(node_name)
        if session is None or not session.established:
            return
        for neighbor in self.upstreams.values():
            self._send([session], (), self._name_paths(
                neighbor, neighbor.rib.items(),
            ), neighbor.virtual.global_ip, "updates_to_backbone")
        for exp in self.experiments.values():
            for route in exp.announced.values():
                session.send_update(UpdateMessage.announce([
                    self._mesh_route(exp, route)
                ]))
                self.counters["updates_to_backbone"] += 1

    def _mesh_send(self, build: Callable[[], UpdateMessage]) -> None:
        """Put one experiment-path UPDATE on every established backbone
        session; ``build`` runs only if there is one."""
        if self.backbone_address is None:
            return
        sessions = _established(self.backbone_peers.values())
        if sessions:
            update = build()
            for session in sessions:
                session.send_update(update)
            self.counters["updates_to_backbone"] += len(sessions)

    def _mesh_route(self, exp: ExperimentAttachment, route: Route) -> Route:
        """An experiment path as the mesh carries it: this node's backbone
        address as next hop, the node's id for the path as path id."""
        assert self.backbone_address is not None
        key = (route.prefix, route.path_id)
        mesh_id = exp.mesh_ids.get(key)
        if mesh_id is None:
            mesh_id = exp.mesh_ids[key] = next(self._path_id_counter)
        return route.with_next_hop(self.backbone_address).with_path_id(
            mesh_id
        )

    def _backbone_update(self, node_name: str, update: UpdateMessage) -> None:
        """One mesh UPDATE.  A neighbor path names its gid in its next hop
        (the neighbor's global IP), and a withdrawal finds it through
        ``_mesh_gids``: each remote neighbor's share goes through the
        upstream path step as one change.  Every other path is an
        experiment's."""
        gids = self._mesh_gids.setdefault(node_name, {})
        changes: dict[int, list] = {}
        for prefix, mesh_id in update.withdrawn:
            gid = gids.pop(mesh_id, None)
            if gid is not None:
                changes.setdefault(gid, []).append((prefix, mesh_id))
            elif self.remote_exp_paths.get(prefix, {}).pop(
                    (node_name, mesh_id), None) is not None:
                self._remote_experiment_changed(prefix)
        # One UPDATE has one next hop: its paths are all one remote
        # neighbor's, or all experiment paths.
        attributes = update.attributes
        announced_gid = None
        if (attributes is not None and update.nlri
                and attributes.next_hop is not None
                and self.backbone_iface is not None):
            announced_gid = global_neighbor_id(attributes.next_hop)
            if announced_gid is not None:
                for _prefix, mesh_id in update.nlri:
                    gids[mesh_id] = announced_gid
                changes.setdefault(announced_gid, [])
            else:
                for route in update.routes():
                    self.remote_exp_paths.setdefault(route.prefix, {})[
                        (node_name, route.path_id)] = route
                    self._remote_experiment_changed(route.prefix)
        for gid, withdrawn in changes.items():
            remote = self.remote_neighbors.get(gid)
            if remote is None:
                remote = self.remote_neighbors[gid] = RemoteNeighbor(
                    global_id=gid, virtual=virtual_neighbor(gid),
                    peer=node_name,
                )
                self._provision_virtual(remote.virtual)
            if gid == announced_gid:
                self._apply_paths(remote, withdrawn, attributes, update.nlri)
            else:
                self._apply_paths(remote, withdrawn, None, ())

    def _backbone_closed(self, node_name: str, session: BgpSession) -> None:
        """A backbone session went down: fail closed on what it carried.

        Every remote neighbor and remote experiment path learned from
        ``node_name`` is dropped (kernel tables, experiments, upstream
        exports) and learned again when the mesh session is re-dialed.
        A close from a session that was already replaced is ignored: its
        successor carries the peer's state now.
        """
        if self.backbone_peers.get(node_name) is not session:
            return
        for remote in self.remote_neighbors.values():
            if remote.peer == node_name:
                self._drop_paths(remote, remote.rib.clear())
        self._mesh_gids.pop(node_name, None)
        for prefix, paths in list(self.remote_exp_paths.items()):
            for key in [key for key in paths if key[0] == node_name]:
                del paths[key]
            self._remote_experiment_changed(prefix)

    def _remote_experiment_changed(self, prefix: Prefix) -> None:
        """A backbone-learned path for ``prefix`` came, went or was
        replaced: the kernel route and intercept marker follow the lowest
        (backbone peer, mesh id), then the export step runs."""
        paths = self.remote_exp_paths.get(prefix)
        new = paths[min(paths)] if paths else None
        if new is not self.remote_exp_routes.get(prefix):
            marker = self.exp_prefixes.get(prefix) or {}
            if new is None:
                del self.remote_exp_paths[prefix]
                del self.remote_exp_routes[prefix]
                marker.pop("__remote__", None)
            else:
                self.remote_exp_routes[prefix] = new
                marker["__remote__"] = new.next_hop
            if marker:
                self.exp_prefixes.insert(prefix, marker)
            else:
                self.exp_prefixes.remove(prefix)
            if prefix not in self._local_exp_paths:
                self._route_remote(prefix)
        self._export_prefix(prefix)

    def _route_remote(self, prefix: Prefix) -> None:
        """No local experiment announces ``prefix``: route it across the
        backbone to the chosen remote path's PoP, or nowhere."""
        route = self.remote_exp_routes.get(prefix)
        if route is None:
            self.stack.remove_route(prefix)
        else:
            self.stack.add_route(KernelRoute(
                prefix=prefix, out_iface=self.backbone_iface,
                next_hop=route.next_hop,
            ))

    # ==================================================================
    # Data plane interposition
    # ==================================================================

    def _data_enforce(self, frame: EthernetFrame,
                      iface: Interface) -> Optional[EthernetFrame]:
        """Run the data-plane enforcement engine on experiment traffic."""
        if iface.name != self.exp_iface or self.data_enforcer is None:
            return frame
        try:
            return self.data_enforcer.ingress(frame, iface.name, self)
        except Exception:
            self.counters["enforcer_failures"] += 1
            return None  # fail closed

    def _intercept_inbound(self, frame: EthernetFrame,
                           iface: Interface) -> Optional[EthernetFrame]:
        """Deliver Internet traffic to experiments with source-MAC
        attribution (§3.2.2, "Routing traffic to experiments")."""
        if iface.name not in (self.upstream_iface, self.backbone_iface):
            return frame
        if frame.ethertype != EtherType.IPV4 or not isinstance(
            frame.payload, IPv4Packet
        ):
            return frame
        # Frames addressed to a virtual MAC are experiment egress relayed
        # over the backbone; let the policy-routing rules handle them.
        if neighbor_mac_global_id(frame.dst) is not None:
            return frame
        packet = frame.payload
        entry = self.exp_prefixes.lookup(packet.dst)
        if entry is None:
            return frame
        gid = self._delivering_gid(frame.src)
        owners = entry.value
        local = [
            attachment for name, attachment in owners.items()
            if name != "__remote__"
        ]
        if local:
            self._deliver_to_experiment(local[0], packet, gid)
            return None
        remote_hop = owners.get("__remote__")
        if remote_hop is not None and iface.name == self.upstream_iface:
            self._relay_over_backbone(packet, gid, remote_hop)
            return None
        return frame

    def _delivering_gid(self, src_mac: MacAddress) -> Optional[int]:
        gid = neighbor_mac_global_id(src_mac)
        if gid is not None:
            return gid
        return self._mac_to_gid.get(src_mac)

    def _deliver_to_experiment(self, attachment: ExperimentAttachment,
                               packet: IPv4Packet,
                               gid: Optional[int]) -> None:
        if packet.ttl <= 1:
            return
        exp_iface = self.stack.interfaces.get(self.exp_iface)
        if exp_iface is None:
            return
        source_mac = exp_iface.mac
        if gid is not None:
            # The rewrite that tells the experiment *which* neighbor
            # delivered this traffic.
            source_mac = global_neighbor_mac(gid)
        self.counters["frames_to_experiments"] += 1
        if self._m_frames_by_neighbor is not None:
            label = f"gid{gid}" if gid is not None else "unknown"
            self._m_frames_by_neighbor.labels(self.name, label).inc()
        exp_iface.send_frame(
            EthernetFrame(
                src=source_mac,
                dst=attachment.tunnel_mac,
                ethertype=EtherType.IPV4,
                payload=packet.decrement_ttl(),
            )
        )

    def _relay_over_backbone(self, packet: IPv4Packet, gid: Optional[int],
                             next_hop: IPv4Address) -> None:
        """Carry neighbor-delivered traffic toward a remote experiment,
        preserving the delivering neighbor's identity in the source MAC."""
        if packet.ttl <= 1 or self.backbone_iface is None:
            return
        backbone = self.stack.interfaces.get(self.backbone_iface)
        if backbone is None:
            return
        cached = self.stack.arp_table.get(next_hop)
        if cached is None:
            # Resolve the remote node's MAC and retry shortly.
            self.stack._send_arp_request(next_hop, backbone)
            retry = packet
            self.scheduler.call_later(
                0.002, lambda: self._relay_over_backbone(retry, gid, next_hop)
            )
            return
        source_mac = backbone.mac
        if gid is not None:
            source_mac = global_neighbor_mac(gid)
        backbone.send_frame(
            EthernetFrame(
                src=source_mac,
                dst=cached[0],
                ethertype=EtherType.IPV4,
                payload=packet.decrement_ttl(),
            )
        )

    # ==================================================================
    # Introspection (used by benches and the CLI)
    # ==================================================================

    def known_routes(self) -> list[Route]:
        """All routes currently known across per-neighbor RIBs."""
        routes: list[Route] = []
        for neighbor in self.upstreams.values():
            routes.extend(neighbor.rib.routes())
        for remote in self.remote_neighbors.values():
            routes.extend(remote.rib.routes())
        return routes

    def fib_entry_count(self) -> int:
        return sum(len(table) for table in self.stack.tables.values())


# A placeholder attribute set used in withdrawals (attributes are ignored).
_EMPTY_ATTRS = PathAttributes()
_NO_PATHS: dict = {}


def _established(sessions: Iterable[Optional[BgpSession]]
                 ) -> list[BgpSession]:
    return [
        session for session in sessions
        if session is not None and session.established
    ]
