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
  neighbor routes (next hop = the neighbor's global 127.127/16 IP) and
  experiment routes (next hop = the announcing node's backbone address)
  propagate, extending per-packet neighbor selection platform-wide.

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
from typing import TYPE_CHECKING, Callable, Iterable, Optional

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
    GLOBAL_POOL,
    GlobalNeighborRegistry,
    VirtualNeighbor,
    global_neighbor_mac,
    neighbor_mac_global_id,
    virtual_neighbor,
)
from repro.vbgp.communities import ANNOUNCE_ASN, is_control, select_targets
# benchmarks/e2e/trace.py times the community layer by patching this name.
from repro.vbgp.communities import strip_control  # noqa: F401

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
    # Routes received, keyed (prefix, peer path id), and the GR stale set.
    rib: AdjRibIn = field(default_factory=AdjRibIn)
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


ControlEnforcer = Callable[..., object]


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
        # (gid, pop id) of every upstream: ``select_targets`` candidates.
        self._target_candidates: list[tuple[int, int]] = []
        self.remote_neighbors: dict[int, RemoteNeighbor] = {}
        self.experiments: dict[str, ExperimentAttachment] = {}
        # Fan-out ADD-PATH ids, one per path for the whole node (paper
        # §4.2): (gid, prefix, source path id) -> id.  Allocated on the
        # first fan-out, released when the path leaves its neighbor's rib.
        self._path_ids: dict[tuple[int, Prefix, Optional[int]], int] = {}
        self._next_path_id = 1
        self.backbone_peers: dict[str, BgpSession] = {}
        # Experiment prefixes (local and remote) for data-plane intercept.
        self.exp_prefixes: LpmTable[dict] = LpmTable()
        # Remote experiments' routes learned over the backbone, by prefix,
        # and the backbone peer each one came from.
        self.remote_exp_routes: dict[Prefix, Route] = {}
        self._remote_exp_peers: dict[Prefix, str] = {}
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
        self._provision_virtual(virtual, next_hop=peer_address,
                                out_iface=self.upstream_iface)
        self._mac_to_gid[peer_mac] = global_id
        self.stack.add_static_arp(peer_address, peer_mac, self.upstream_iface)
        session = self._upstream_session(neighbor, channel)
        self.upstreams[name] = neighbor
        self._target_candidates.append((global_id, self.pop_id))
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

    def _provision_virtual(self, virtual: VirtualNeighbor,
                           next_hop: IPv4Address, out_iface: str) -> None:
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
        tele = self.telemetry
        if tele is None:
            self._apply_upstream_update(name, update)
            return
        token = tele.tracer.begin(
            "vbgp.upstream_update", node=self.name, neighbor=name
        )
        try:
            self._apply_upstream_update(name, update)
        finally:
            tele.tracer.end(token)

    def _apply_upstream_update(self, name: str,
                               update: UpdateMessage) -> None:
        """One upstream UPDATE: Adj-RIB-In, kernel table, fan-out —
        every effect applied directly, in ingress order."""
        neighbor = self.upstreams.get(name)
        if neighbor is None:
            return
        self.counters["updates_from_upstream"] += 1
        rib = neighbor.rib
        removed = [
            (prefix, path_id) for prefix, path_id in update.withdrawn
            if rib.withdraw(prefix, path_id) is not None
        ]
        self._remove_kernel_routes(neighbor, removed)
        table_id = neighbor.virtual.table_id
        announced = update.routes()
        for route in announced:
            rib.update(route)
            # Route servers are transparent (RFC 7947): the next hop is the
            # member router on the IXP LAN, not the server itself.
            next_hop = neighbor.peer_address
            if neighbor.kind == "route-server" and route.next_hop is not None:
                next_hop = route.next_hop
            self.stack.add_route(
                KernelRoute(
                    prefix=route.prefix,
                    out_iface=self.upstream_iface,
                    next_hop=next_hop,
                ),
                table_id=table_id,
            )
            self.counters["routes_installed"] += 1
        # Fan out to experiments with the local virtual IP as next hop.
        self._fanout(self.experiments.values(), neighbor.virtual.global_id,
                     neighbor.virtual.local_ip, announced, removed)
        # Propagate over the backbone with the neighbor's global IP.
        self._backbone_export(neighbor, announced, removed)

    def _upstream_established(self, name: str) -> None:
        """A (re-)established upstream: re-export experiment state to it."""
        neighbor = self.upstreams.get(name)
        if neighbor is None:
            return
        only = (neighbor,)
        for exp in self.experiments.values():
            for route in exp.announced.values():
                self._export_experiment(
                    route, self._neighbor_targets(route), neighbors=only
                )
        for route in self.remote_exp_routes.values():
            self._export_experiment(
                route, self._remote_targets(route), neighbors=only
            )
        session = neighbor.session
        if session is not None and session.gr_negotiated:
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
        withdraw them from the experiments and, for an upstream, from the
        backbone (remote neighbors' paths never go back onto the mesh)."""
        if not keys:
            return
        self._remove_kernel_routes(neighbor, keys)
        self._fanout(self.experiments.values(), neighbor.virtual.global_id,
                     neighbor.virtual.local_ip, [], keys)
        if isinstance(neighbor, UpstreamNeighbor):
            self._backbone_export(neighbor, [], keys)

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
        for neighbor in (*self.upstreams.values(),
                         *self.remote_neighbors.values()):
            routes = list(neighbor.rib.routes())
            if routes:
                self._fanout(
                    (exp,), neighbor.virtual.global_id,
                    neighbor.virtual.local_ip, routes, [],
                )

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

    def _fanout(
        self,
        experiments: Iterable[ExperimentAttachment],
        gid: int,
        local_vip: IPv4Address,
        announced: list[Route],
        removed: list[tuple[Prefix, Optional[int]]],
    ) -> None:
        """Send neighbor-route changes to ``experiments`` (Figure 2a).

        The "fan-out compile": a path's ADD-PATH id belongs to the node,
        not to the listener, so nothing in the messages depends on who
        receives them.  They are built once and the same
        :class:`UpdateMessage` objects go to every established session;
        the message's wire memo makes that one encode.  Nothing is kept
        per listener: an experiment is sent fan-out only while
        established, and ``_experiment_up`` gives it the full table on
        establishment and on ROUTE-REFRESH, so every live session has
        heard every id the node holds.

        Announced routes sharing one attribute set are coalesced into
        multi-NLRI UPDATEs, packed under the 4096-byte message ceiling
        by :func:`~repro.bgp.messages.pack_updates`.
        """
        node_ids = self._path_ids
        # ``removed`` paths have left the neighbor's rib: their ids go
        # back whether or not anyone is listening.
        withdrawn = []
        for prefix, source_id in removed:
            path_id = node_ids.pop((gid, prefix, source_id), None)
            if path_id is not None:
                withdrawn.append((prefix, path_id))
        sessions = [
            exp.session for exp in experiments
            if exp.session is not None and exp.session.established
        ]
        if not sessions:
            return
        groups = []
        for attrs, group in messages.group_by_attributes(announced).items():
            nlri = []
            for route in group:
                key = (gid, route.prefix, route.path_id)
                path_id = node_ids.get(key)
                if path_id is None:
                    path_id = node_ids[key] = self._next_path_id
                    self._next_path_id += 1
                nlri.append((route.prefix, path_id))
            groups.append((attrs.with_next_hop(local_vip), nlri))
        addpath = any(session.addpath_active for session in sessions)
        updates = pack_updates(withdrawn, groups, addpath)
        for session in sessions:
            for update in updates:
                session.send_update(update)
        self.counters["updates_to_experiments"] += len(sessions) * len(updates)

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
        for route in allowed:
            previous = exp.announced.get((route.prefix, route.path_id))
            exp.announced[(route.prefix, route.path_id)] = route
            self._propagate_experiment_route(exp, route, previous)

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

    def _propagate_experiment_route(
        self, exp: ExperimentAttachment, route: Route,
        previous: Optional[Route] = None,
    ) -> None:
        """Export an accepted announcement; ``previous`` is the route it
        replaces under the same ``(prefix, path id)`` key, if any."""
        # Data plane: make the prefix reachable through the tunnel.
        self.stack.add_route(
            KernelRoute(
                prefix=route.prefix,
                out_iface=self.exp_iface,
                next_hop=exp.tunnel_ip,
            )
        )
        # Control plane: export to selected neighbors, and to the backbone.
        targets = self._neighbor_targets(route)
        if previous is not None:
            # RFC 4271 implicit replace: neighbors that keep the route get
            # the announce alone.  The mesh keeps its explicit withdraw:
            # a receiving PoP's ``_remote_experiment_route`` does not
            # retract the old exit neighbors on an implicit replace.
            self._export_experiment(
                previous, self._neighbor_targets(previous) - targets,
                withdraw=True,
            )
            self._backbone_export_experiment(previous, withdraw=True)
        self._export_experiment(route, targets)
        self._backbone_export_experiment(route, withdraw=False)

    def _retract_experiment_route(self, exp: ExperimentAttachment,
                                  route: Route) -> None:
        still_announced = any(
            r.prefix == route.prefix for r in exp.announced.values()
        )
        if not still_announced:
            self.stack.remove_route(route.prefix)
        self._export_experiment(route, self._neighbor_targets(route),
                                withdraw=True)
        self._backbone_export_experiment(route, withdraw=True)

    def _neighbor_targets(self, route: Route) -> set[int]:
        return select_targets(route, self._target_candidates)

    def export_transform(self, route: Route) -> Route:
        """The §3.2.1 export rewrite for an experiment announcement: the
        shared :func:`~repro.bgp.policy.export_transform`, bound to this PoP.

        Pure (no node state is mutated): control communities are
        consumed, the platform ASN is prepended, the next hop becomes
        this PoP's upstream address, and client-local ADD-PATH ids /
        iBGP local-pref never leave the platform.  The live export path
        and the intent layer's dry-run predictor share this one
        function, so a predicted export diff cannot drift from what the
        wire would carry.
        """
        return export_transform(
            route, asn=self.platform_asn, next_hop=self._upstream_address(),
            path_id=None, drop_community=is_control,
        )

    def _export_experiment(
        self, route: Route, targets: set[int], withdraw: bool = False,
        neighbors: Optional[Iterable[UpstreamNeighbor]] = None,
    ) -> None:
        """The one experiment-export step (§3.2.1 "export compile").

        ``export_transform`` reads no per-neighbor state, so the route is
        transformed once and one :class:`UpdateMessage` is handed to
        every established session in ``targets``; the message's wire memo
        makes that one encode.  Built on the first live target, so a
        route nobody receives costs nothing.
        """
        if not targets:
            return
        update = None
        sent = 0
        metric = None if withdraw else self._m_updates_by_neighbor
        for neighbor in neighbors or self.upstreams.values():
            session = neighbor.session
            if (
                neighbor.virtual.global_id not in targets
                or session is None or not session.established
            ):
                continue
            if update is None and withdraw:
                update = UpdateMessage.withdraw(
                    [Route(prefix=route.prefix, attributes=_EMPTY_ATTRS)]
                )
            elif update is None:
                update = UpdateMessage.announce(
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
        groups = [
            self._backbone_group(neighbor.virtual, group)
            for neighbor in self.upstreams.values()
            for group in messages.group_by_attributes(
                neighbor.rib.routes()).values()
        ]
        for update in pack_updates((), groups, session.addpath_active):
            session.send_update(update)
            self.counters["updates_to_backbone"] += 1
        for exp in self.experiments.values():
            for route in exp.announced.values():
                session.send_update(UpdateMessage.announce([
                    self._backbone_experiment_route(route)
                ]))
                self.counters["updates_to_backbone"] += 1

    def _backbone_group(self, virtual: VirtualNeighbor,
                        group: list[Route]) -> tuple[PathAttributes, list]:
        """Neighbor routes sharing one attribute set as carried on the
        mesh: the set rewritten once to the global-IP next hop, each route
        with its stable path id."""
        base = virtual.global_id * _GID_PATH_ID_BASE
        return group[0].attributes.with_next_hop(virtual.global_ip), [
            (route.prefix, base + _stable_id(route)) for route in group
        ]

    def _backbone_experiment_route(self, route: Route) -> Route:
        assert self.backbone_address is not None
        return route.with_next_hop(self.backbone_address).with_path_id(
            _stable_id(route)
        )

    def _backbone_export(self, neighbor: UpstreamNeighbor,
                         announced: list[Route],
                         removed: list[tuple[Prefix, Optional[int]]]
                         ) -> None:
        if not self.backbone_peers:
            return
        sessions = [
            s for s in self.backbone_peers.values() if s.established
        ]
        if not sessions:
            return
        # The messages read no per-peer state: build them once.
        base = neighbor.virtual.global_id * _GID_PATH_ID_BASE
        withdrawn = [(prefix, base + _stable_id(Route(prefix, _EMPTY_ATTRS)))
                     for prefix, _source_id in removed]
        groups = [
            self._backbone_group(neighbor.virtual, group)
            for group in messages.group_by_attributes(announced).values()
        ]
        addpath = any(session.addpath_active for session in sessions)
        updates = pack_updates(withdrawn, groups, addpath)
        for session in sessions:
            for update in updates:
                session.send_update(update)
                self.counters["updates_to_backbone"] += 1

    def _backbone_export_experiment(self, route: Route,
                                    withdraw: bool) -> None:
        if not self.backbone_peers or self.backbone_address is None:
            return
        carried = [self._backbone_experiment_route(route)]
        update = (UpdateMessage.withdraw(carried) if withdraw
                  else UpdateMessage.announce(carried))
        for session in self.backbone_peers.values():
            if session.established:
                session.send_update(update)
                self.counters["updates_to_backbone"] += 1

    def _backbone_update(self, node_name: str, update: UpdateMessage) -> None:
        """Process mesh routes: remote-neighbor or remote-experiment."""
        removed: dict[int, list[tuple[Prefix, Optional[int]]]] = {}
        for prefix, path_id in update.withdrawn:
            gid = (path_id or 0) // _GID_PATH_ID_BASE
            if not gid:
                self._remote_experiment_withdraw(prefix)
                continue
            remote = self.remote_neighbors.get(gid)
            if remote is not None and remote.rib.withdraw(
                    prefix, path_id) is not None:
                removed.setdefault(gid, []).append((prefix, path_id))
        for gid, keys in removed.items():
            self._drop_paths(self.remote_neighbors[gid], keys)
        for route in update.routes():
            next_hop = route.next_hop
            if next_hop is not None and GLOBAL_POOL.contains_address(next_hop):
                self._remote_neighbor_route(node_name, route)
            else:
                self._remote_experiment_route(node_name, route)

    def _backbone_closed(self, node_name: str, session: BgpSession) -> None:
        """A backbone session went down: fail closed on what it carried.

        Every remote neighbor and remote experiment route learned from
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
        for prefix, peer in list(self._remote_exp_peers.items()):
            if peer == node_name:
                self._remote_experiment_withdraw(prefix)

    def _remote_neighbor_route(self, node_name: str, route: Route) -> None:
        gid = (route.path_id or 0) // _GID_PATH_ID_BASE
        if not gid:
            return
        remote = self.remote_neighbors.get(gid)
        if remote is None:
            virtual = virtual_neighbor(gid)
            remote = RemoteNeighbor(
                global_id=gid, virtual=virtual, peer=node_name)
            self.remote_neighbors[gid] = remote
            assert self.backbone_iface is not None
            self._provision_virtual(
                virtual, next_hop=virtual.global_ip,
                out_iface=self.backbone_iface,
            )
        remote.rib.update(route)
        self.stack.add_route(
            KernelRoute(
                prefix=route.prefix,
                out_iface=self.backbone_iface or self.upstream_iface,
                next_hop=remote.virtual.global_ip,
            ),
            table_id=remote.virtual.table_id,
        )
        self.counters["routes_installed"] += 1
        self._fanout(self.experiments.values(), gid,
                     remote.virtual.local_ip, [route], [])

    def _remote_experiment_route(self, node_name: str, route: Route) -> None:
        """A remote experiment's prefix: route it across the backbone."""
        if route.next_hop is None or self.backbone_iface is None:
            return
        self.stack.add_route(
            KernelRoute(
                prefix=route.prefix,
                out_iface=self.backbone_iface,
                next_hop=route.next_hop,
            )
        )
        self.remote_exp_routes[route.prefix] = route
        self._remote_exp_peers[route.prefix] = node_name
        marker = self.exp_prefixes.get(route.prefix) or {}
        marker["__remote__"] = route.next_hop
        self.exp_prefixes.insert(route.prefix, marker)
        # A remote experiment announcement only exits via *this* PoP's
        # neighbors when whitelist communities direct it here (§4.4:
        # experiments "direct announcements … across the backbone to BGP
        # neighbors at any of the PoPs"); a plain announcement stays at
        # the PoP where it was made.
        self._export_experiment(route, self._remote_targets(route))

    def _remote_targets(self, route: Route) -> set[int]:
        """Local neighbors a backbone-learned experiment route may exit
        through: only those its whitelist communities name."""
        if not any(c.asn == ANNOUNCE_ASN for c in route.communities):
            return set()
        return self._neighbor_targets(route)

    def _remote_experiment_withdraw(self, prefix: Prefix) -> None:
        route = self.remote_exp_routes.pop(prefix, None)
        if route is None:
            return
        del self._remote_exp_peers[prefix]
        self.stack.remove_route(prefix)
        marker = self.exp_prefixes.get(prefix)
        if marker is not None:
            marker.pop("__remote__", None)
            if not marker:
                self.exp_prefixes.remove(prefix)
        self._export_experiment(route, self._remote_targets(route),
                                withdraw=True)

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

# Backbone path ids pack ``(neighbor gid, per-route stable id)`` into one
# integer.  ``_stable_id`` is 20 bits (1..0xFFFFF), so the base must be
# 2**20: the previous base of 1_000_000 (< 2**20) let large stable ids
# bleed into the next gid's range, making the receiving node decode a
# phantom neighbor with the wrong gid — caught by the full-catalog
# vmac_bijectivity check.
_GID_PATH_ID_BASE = 1 << 20

def _stable_id(route: Route) -> int:
    """A deterministic per-route id usable as an ADD-PATH path id.

    Mixed explicitly rather than via ``hash()``: on Python < 3.12
    ``hash(None)`` is id-based, which made the "stable" id vary between
    runs (and its 20-bit truncation collide run-dependently) for routes
    without a source path id.
    """
    network, length = route.prefix.key()
    source = -1 if route.path_id is None else route.path_id
    mixed = (
        network * 0x9E3779B1 + length * 0x85EBCA77 + source * 0xC2B2AE3D
    )
    mixed ^= mixed >> 17
    return (mixed & 0xFFFFF) or 1
