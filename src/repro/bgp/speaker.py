"""A complete BGP speaker: sessions + RIBs + decision + policy + MRAI.

:class:`BgpSpeaker` is the routing-engine core used across the
reproduction: the BIRD-like router wraps one, every synthetic Internet AS
runs one, and experiment-side toolkits embed one. vBGP uses the same
sessions and RIB primitives but with its own per-neighbor fan-out logic
(:mod:`repro.vbgp`), since its job is precisely *not* to pick one best path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.bgp.attributes import PathAttributes, Route
from repro.bgp.decision import PeerContext, best_path
from repro.bgp.errors import CeaseSubcode, ErrorCode, NotificationError
from repro.bgp.messages import UpdateMessage, pack_updates
from repro.bgp.policy import RouteMap, export_transform
from repro.bgp.rib import AdjRibIn, AdjRibOut, ColumnarLocRib, RibEntry
from repro.bgp.session import BgpSession, SessionConfig, SessionState
from repro.bgp.supervisor import SessionSupervisor, SupervisorConfig
from repro.bgp.transport import Channel
from repro.netsim.addr import IPv4Address, Prefix
from repro.sim.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import TelemetryHub

LOCAL_PEER = "__local__"


@dataclass
class SpeakerConfig:
    """Global speaker configuration."""

    asn: int
    router_id: IPv4Address
    hold_time: int = 90
    mrai: float = 0.0  # minimum route advertisement interval (seconds)


@dataclass
class NeighborConfig:
    """Per-neighbor configuration."""

    name: str
    peer_asn: Optional[int] = None
    peer_address: IPv4Address = IPv4Address(0)
    local_address: IPv4Address = IPv4Address(0)
    addpath: bool = False
    is_ibgp: bool = False
    import_policy: Optional[RouteMap] = None
    export_policy: Optional[RouteMap] = None
    next_hop_self: bool = True
    max_prefixes: Optional[int] = None
    rtt: float = 0.01
    # Route-server style: do not prepend our ASN and preserve the original
    # next hop when exporting to this neighbor (RFC 7947 transparency).
    transparent: bool = False
    # Graceful Restart (RFC 4724): offer the capability; ``restart_time``
    # is how long we ask the peer to retain our routes after a reset.
    graceful_restart: bool = False
    restart_time: int = 120


class Neighbor:
    """Runtime state for one configured neighbor."""

    def __init__(self, config: NeighborConfig) -> None:
        self.config = config
        self.session: Optional[BgpSession] = None
        # Received routes and, after a GR-retained reset, their stale set.
        self.adj_rib_in = AdjRibIn()
        self.adj_rib_out = AdjRibOut(config.name)
        self.context = PeerContext(
            is_ebgp=not config.is_ibgp,
            peer_address=config.peer_address,
        )
        # Outbound ADD-PATH ids: one per exported source candidate, held
        # while this session carries the path, never reused.
        self._path_ids: dict[tuple[Prefix, str, Optional[int]], int] = {}
        self._path_sources: dict[int, tuple[Prefix, str, Optional[int]]] = {}
        self._path_id_counter = itertools.count(1)
        # MRAI batching state: announcements by prefix, then path id.
        self.pending_announce: dict[Prefix, dict[Optional[int], Route]] = {}
        self.pending_withdraw: set[tuple[Prefix, Optional[int]]] = set()
        self.mrai_event = None
        # Optional auto-reconnect supervision.
        self.supervisor: Optional[SessionSupervisor] = None

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def established(self) -> bool:
        return self.session is not None and self.session.established

    def path_id_for(self, prefix: Prefix, source_peer: str,
                    source_path_id: Optional[int]) -> int:
        key = (prefix, source_peer, source_path_id)
        path_id = self._path_ids.get(key)
        if path_id is None:
            path_id = self._path_ids[key] = next(self._path_id_counter)
            self._path_sources[path_id] = key
        return path_id

    def release_path_id(self, path_id: Optional[int]) -> None:
        """Forget the source candidate behind an outbound id (the path
        was withdrawn from this session); the id is not handed out
        again."""
        key = self._path_sources.pop(path_id, None)
        if key is not None:
            del self._path_ids[key]

    def retain_path_ids(self) -> None:
        """Release every id the Adj-RIB-Out does not carry: after the
        initial table transfer, those are paths that went away while the
        session was down."""
        for path_id in list(self._path_sources):
            if self.adj_rib_out.advertised(
                    self._path_sources[path_id][0], path_id) is None:
                self.release_path_id(path_id)


BestChangeCallback = Callable[[Prefix, Optional[RibEntry]], None]
RouteCallback = Callable[[str, Route], None]


class BgpSpeaker:
    """One BGP routing process."""

    def __init__(self, scheduler: Scheduler, config: SpeakerConfig,
                 telemetry: Optional["TelemetryHub"] = None) -> None:
        self.scheduler = scheduler
        self.config = config
        self.neighbors: dict[str, Neighbor] = {}
        # Decision contexts by peer name, built on first use and dropped
        # whenever the neighbor set changes (PeerContext is frozen).
        self._contexts: Optional[dict[str, PeerContext]] = None
        self.loc_rib = ColumnarLocRib(select=self._select)
        self.local_routes: dict[Prefix, Route] = {}
        self.on_best_change: list[BestChangeCallback] = []
        self.on_route_received: list[RouteCallback] = []
        self.updates_processed = 0
        self.allow_own_asn_in = False  # loop-check override (poisoning tests)
        # Optional overload governor (repro.overload, §6i): when set via
        # enable_overload(), every neighbor session routes its received
        # UPDATEs through a bounded per-neighbor ingress queue.
        self.overload = None
        self.telemetry = telemetry
        self.telemetry_name = f"as{config.asn}/{config.router_id}"
        self._m_updates = None
        if telemetry is not None:
            self._register_telemetry(telemetry)

    def _register_telemetry(self, telemetry: "TelemetryHub") -> None:
        """Declare this speaker's instruments on the shared registry.

        RIB sizes and decision-process tallies are *function gauges*:
        evaluated only at scrape time, so they cost nothing per update.
        """
        registry = telemetry.registry
        name = self.telemetry_name
        self._m_updates = registry.counter(
            "bgp_speaker_updates",
            "UPDATE messages processed by the routing engine",
            labels=("speaker",),
        ).labels(name)
        rib_gauges = (
            ("bgp_rib_loc_routes", "Loc-RIB candidate routes",
             lambda: len(self.loc_rib)),
            ("bgp_rib_loc_prefixes", "Loc-RIB distinct prefixes",
             lambda: self.loc_rib.prefix_count),
            ("bgp_rib_best_changes", "Cumulative best-path changes",
             lambda: self.loc_rib.stats.best_changes),
            ("bgp_rib_reselects", "Cumulative decision-process runs",
             lambda: self.loc_rib.stats.reselects),
            ("bgp_speaker_neighbors_established",
             "Neighbors with an ESTABLISHED session",
             lambda: sum(
                 1 for n in self.neighbors.values() if n.established
             )),
        )
        for metric, help_text, fn in rib_gauges:
            registry.gauge(metric, help_text, labels=("speaker",)).labels(
                name
            ).set_function(fn)

    # ------------------------------------------------------------------
    # Neighbor management
    # ------------------------------------------------------------------

    def attach_neighbor(
        self,
        config: NeighborConfig,
        channel: Channel,
        channel_factory: Optional[Callable[[], Optional[Channel]]] = None,
        supervisor_config: Optional[SupervisorConfig] = None,
    ) -> Neighbor:
        """Create a neighbor and start its session over ``channel``.

        When ``channel_factory`` is given, a :class:`SessionSupervisor`
        adopts the session and re-dials through the factory after every
        non-administrative close (exponential backoff, deterministic
        jitter, flap damping) — the neighbor heals without operator help.
        """
        if config.name in self.neighbors:
            raise ValueError(f"duplicate neighbor {config.name!r}")
        neighbor = Neighbor(config)
        self.neighbors[config.name] = neighbor
        self._contexts = None
        session = self._make_session(neighbor, channel)
        if channel_factory is not None:
            neighbor.supervisor = SessionSupervisor(
                self.scheduler,
                peer_key=config.name,
                channel_factory=channel_factory,
                session_factory=lambda ch, n=neighbor: (
                    self._make_session(n, ch)
                ),
                config=supervisor_config,
                telemetry=self.telemetry,
            )
            neighbor.supervisor.adopt(session)
        session.start()
        return neighbor

    def _make_session(self, neighbor: Neighbor,
                      channel: Channel) -> BgpSession:
        """Build (or rebuild, on supervisor re-dial) a neighbor session."""
        config = neighbor.config
        session_config = SessionConfig(
            local_asn=self.config.asn,
            local_id=self.config.router_id,
            peer_asn=config.peer_asn,
            hold_time=self.config.hold_time,
            addpath=config.addpath,
            description=config.name,
            graceful_restart=config.graceful_restart,
            restart_time=config.restart_time,
        )
        neighbor.session = BgpSession(
            self.scheduler,
            session_config,
            channel,
            on_update=lambda session, update, n=config.name: (
                self._update_received(n, update)
            ),
            on_established=lambda session, n=config.name: (
                self._session_established(n)
            ),
            on_close=lambda session, reason, n=config.name: (
                self._session_closed(n, reason)
            ),
            on_end_of_rib=lambda session, n=neighbor: (
                self._flush_stale(n, "gr-flush-eor")
            ),
            telemetry=self.telemetry,
        )
        if self.overload is not None:
            neighbor.session.set_ingress_queue(
                self.overload.queue_for(config.name)
            )
        return neighbor.session

    def enable_overload(self, governor) -> None:
        """Bound this speaker's ingress with an
        :class:`~repro.overload.OverloadGovernor`: existing neighbor
        sessions are re-wired immediately; re-dialed sessions inherit
        their neighbor's queue through :meth:`_make_session`."""
        self.overload = governor
        for neighbor in self.neighbors.values():
            if neighbor.session is not None:
                neighbor.session.set_ingress_queue(
                    governor.queue_for(neighbor.config.name)
                )

    def reattach_neighbor(self, name: str, channel: Channel) -> Neighbor:
        """Rebuild an existing neighbor's session over a fresh transport.

        This is the remote side of resilient provisioning: the peer
        re-dialed and handed us a new channel end.  Any prior session
        that is still open is shut down administratively first (so GR
        retention and supervision do not trigger on *that* close), then
        a replacement session starts over ``channel``.  GR stale state,
        if armed, survives the swap and is flushed by the new session's
        End-of-RIB as RFC 4724 intends.
        """
        neighbor = self.neighbors[name]
        old = neighbor.session
        if old is not None and old.state is not SessionState.CLOSED:
            old.shutdown()
        session = self._make_session(neighbor, channel)
        if neighbor.supervisor is not None:
            neighbor.supervisor.adopt(session)
        session.start()
        return neighbor

    def remove_neighbor(self, name: str) -> None:
        neighbor = self.neighbors.pop(name, None)
        if neighbor is None:
            return
        self._contexts = None
        if neighbor.supervisor is not None:
            neighbor.supervisor.stop()
        if neighbor.session is not None:
            neighbor.session.shutdown(CeaseSubcode.PEER_DECONFIGURED)
        self._flush_peer_routes(name, neighbor)

    def neighbor(self, name: str) -> Neighbor:
        return self.neighbors[name]

    # ------------------------------------------------------------------
    # Local route origination
    # ------------------------------------------------------------------

    def originate(self, route: Route) -> None:
        """Originate a local route (empty AS path; exported with our ASN)."""
        self.local_routes[route.prefix] = route
        if self.loc_rib.replace(LOCAL_PEER, route):
            self._best_changed(route.prefix)
        self._schedule_export(route.prefix)

    def withdraw(self, prefix: Prefix) -> None:
        route = self.local_routes.pop(prefix, None)
        if route is None:
            return
        if self.loc_rib.remove(LOCAL_PEER, prefix, route.path_id):
            self._best_changed(prefix)
        self._schedule_export(prefix)

    # ------------------------------------------------------------------
    # Inbound processing
    # ------------------------------------------------------------------

    def _update_received(self, neighbor_name: str,
                         update: UpdateMessage) -> None:
        neighbor = self.neighbors.get(neighbor_name)
        if neighbor is None:
            return
        self.updates_processed += 1
        tele = self.telemetry
        if tele is None:
            self._apply_update(neighbor, neighbor_name, update)
            return
        self._m_updates.inc()
        token = tele.tracer.begin(
            "bgp.speaker.update", speaker=self.telemetry_name,
            peer=neighbor_name,
        )
        try:
            self._apply_update(neighbor, neighbor_name, update)
        finally:
            tele.tracer.end(token)

    def _apply_update(self, neighbor: Neighbor, neighbor_name: str,
                      update: UpdateMessage) -> None:
        changed: set[Prefix] = set()
        for prefix, path_id in update.withdrawn:
            removed = neighbor.adj_rib_in.withdraw(prefix, path_id)
            if removed is not None and self.loc_rib.remove(
                neighbor_name, prefix, path_id
            ):
                changed.add(prefix)
        for route in update.routes():
            for callback in self.on_route_received:
                callback(neighbor_name, route)
            if (
                route.as_path.contains(self.config.asn)
                and not self.allow_own_asn_in
            ):
                continue  # loop prevention
            imported = route
            if neighbor.config.import_policy is not None:
                maybe = neighbor.config.import_policy.apply(route)
                if maybe is None:
                    # Policy-rejected routes still occupy Adj-RIB-In space
                    # conceptually; we model post-policy RIBs only.
                    neighbor.adj_rib_in.withdraw(route.prefix, route.path_id)
                    if self.loc_rib.remove(
                        neighbor_name, route.prefix, route.path_id
                    ):
                        changed.add(route.prefix)
                    continue
                imported = maybe
            neighbor.adj_rib_in.update(
                (imported.prefix, imported.path_id), imported.attributes)
            if neighbor.config.max_prefixes is not None and (
                len(neighbor.adj_rib_in) > neighbor.config.max_prefixes
            ):
                self._max_prefixes_exceeded(neighbor)
                return
            if self.loc_rib.replace(neighbor_name, imported):
                changed.add(imported.prefix)
        for prefix in changed:
            self._best_changed(prefix)
        touched = set(
            prefix for prefix, _ in update.withdrawn
        ) | set(prefix for prefix, _ in update.nlri)
        for prefix in touched:
            self._schedule_export(prefix)

    def _max_prefixes_exceeded(self, neighbor: Neighbor) -> None:
        if neighbor.session is not None:
            neighbor.session.notify_and_close(
                NotificationError(
                    ErrorCode.CEASE, CeaseSubcode.MAX_PREFIXES_REACHED,
                    message="max prefixes exceeded",
                )
            )

    def _session_established(self, neighbor_name: str) -> None:
        """Advertise the full desired state to a newly established peer."""
        neighbor = self.neighbors.get(neighbor_name)
        if neighbor is None:
            return
        for prefix in list(self.loc_rib.prefixes()):
            self._enqueue_prefix(neighbor, prefix)
        self._flush(neighbor)
        neighbor.retain_path_ids()
        session = neighbor.session
        if session is not None and session.gr_negotiated:
            # RFC 4724: the End-of-RIB marker closes the initial table
            # transfer — the receiver may then flush whatever is stale.
            session.send_end_of_rib()

    def _session_closed(self, neighbor_name: str, reason: str) -> None:
        neighbor = self.neighbors.get(neighbor_name)
        if neighbor is None:
            # De-configured neighbor: remove_neighbor handles the flush.
            self._flush_peer_routes(neighbor_name)
            return
        # Outbound state always resets: a future session starts from an
        # empty Adj-RIB-Out and re-announces from scratch.
        neighbor.adj_rib_out.clear()
        neighbor.pending_announce.clear()
        neighbor.pending_withdraw.clear()
        if neighbor.mrai_event is not None:
            neighbor.mrai_event.cancel()
            neighbor.mrai_event = None
        session = neighbor.session
        if (
            session is not None
            and session.gr_negotiated
            and not session.closed_admin
        ):
            # GR receiver mode: retain the peer's routes, marked stale,
            # until End-of-RIB or the restart timer flushes them.
            restart_time = session.peer_restart_time
            retained = neighbor.adj_rib_in.retain_stale(
                self.scheduler, restart_time,
                lambda n=neighbor: self._flush_stale(n, "gr-flush-expired"),
            )
            if retained:
                self._resilience_event(
                    neighbor_name, "gr-stale",
                    f"{retained} routes retained for {restart_time}s",
                )
                return
        self._flush_peer_routes(neighbor_name, neighbor)

    def _flush_stale(self, neighbor: Neighbor, event: str) -> None:
        """End-of-RIB or restart-timer expiry: drop what is still stale."""
        flushed = neighbor.adj_rib_in.flush_stale()
        if not flushed:
            return
        for prefix, path_id in flushed:
            if self.loc_rib.remove(neighbor.name, prefix, path_id):
                self._best_changed(prefix)
        for prefix in {prefix for prefix, _ in flushed}:
            self._schedule_export(prefix)
        self._resilience_event(
            neighbor.name, event, f"{len(flushed)} stale routes flushed"
        )

    def _flush_peer_routes(self, neighbor_name: str,
                           neighbor: Optional[Neighbor] = None) -> None:
        touched: set[Prefix] = set()
        if neighbor is not None:
            touched.update(prefix for prefix, _ in neighbor.adj_rib_in.clear())
        for prefix in self.loc_rib.remove_peer(neighbor_name):
            touched.add(prefix)
            self._best_changed(prefix)
        # Re-export: routes via the dead peer must be withdrawn elsewhere.
        for prefix in touched:
            self._schedule_export(prefix)

    def _resilience_event(self, peer: str, event: str, detail: str) -> None:
        tele = self.telemetry
        if tele is not None:
            from repro.telemetry.station import ResilienceEvent
            tele.station.publish(ResilienceEvent(
                peer=peer, time=self.scheduler.now,
                event=event, detail=detail,
            ))

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------

    def _select(self, entries: list[RibEntry]) -> Optional[RibEntry]:
        # Local routes win by convention (weight), matching BIRD defaults.
        for entry in entries:
            if entry.peer == LOCAL_PEER:
                return entry
        contexts = self._contexts
        if contexts is None:
            contexts = self._contexts = {
                name: neighbor.context
                for name, neighbor in self.neighbors.items()
            }
            contexts[LOCAL_PEER] = PeerContext(
                is_ebgp=False, router_id=self.config.router_id
            )
        return best_path(entries, contexts)

    def _best_changed(self, prefix: Prefix) -> None:
        if not self.on_best_change:
            return  # skip materializing the entry (columnar backend)
        best = self.loc_rib.best(prefix)
        for callback in self.on_best_change:
            callback(prefix, best)

    def best_route(self, prefix: Prefix) -> Optional[Route]:
        entry = self.loc_rib.best(prefix)
        return entry.route if entry is not None else None

    # ------------------------------------------------------------------
    # Outbound processing
    # ------------------------------------------------------------------

    def _schedule_export(self, prefix: Prefix) -> None:
        for neighbor in self.neighbors.values():
            if not neighbor.established:
                continue
            self._enqueue_prefix(neighbor, prefix)
            self._arm_mrai(neighbor)

    def _enqueue_prefix(self, neighbor: Neighbor, prefix: Prefix) -> None:
        """Diff the post-policy routes ``neighbor`` should hold for one
        prefix against what it holds, replacing whatever was pending for
        that prefix; costs that prefix's paths."""
        config = neighbor.config
        held = neighbor.adj_rib_out.paths(prefix)
        pending = neighbor.pending_announce
        if config.addpath:
            candidates = self.loc_rib.candidates_except(prefix, neighbor.name)
        else:
            best = self.loc_rib.best(prefix)
            candidates = (
                [best] if best is not None and best.peer != neighbor.name
                else []  # split horizon
            )
        if not candidates and not held and prefix not in pending:
            return
        desired: dict[Optional[int], Route] = {}
        for entry in candidates:
            source = self.neighbors.get(entry.peer)
            if (
                source is not None
                and source.config.is_ibgp
                and config.is_ibgp
            ):
                continue  # no iBGP reflection (full mesh assumed)
            route = export_transform(
                entry.route,
                policy=config.export_policy,
                asn=(None if config.is_ibgp or config.transparent
                     else self.config.asn),
                next_hop=config.local_address,
                next_hop_self=config.next_hop_self and not config.transparent,
                path_id=partial(neighbor.path_id_for, prefix, entry.peer,
                                entry.route.path_id)
                if config.addpath else None,
            )
            if route is not None:
                desired[route.path_id] = route
        for path_id in held:
            if path_id not in desired:
                neighbor.pending_withdraw.add((prefix, path_id))
        announce = {}
        for path_id, route in desired.items():
            neighbor.pending_withdraw.discard((prefix, path_id))
            if held.get(path_id) != route:
                announce[path_id] = route
        # A pending announcement nobody wants any more is dropped unsent,
        # and its outbound id with it.
        for path_id in pending.pop(prefix, ()):
            if path_id not in desired and path_id not in held:
                neighbor.release_path_id(path_id)
        if announce:
            pending[prefix] = announce

    def _arm_mrai(self, neighbor: Neighbor) -> None:
        if neighbor.mrai_event is not None:
            return
        if self.config.mrai <= 0:
            self._flush(neighbor)
            return
        neighbor.mrai_event = self.scheduler.call_later(
            self.config.mrai, lambda: self._mrai_fired(neighbor)
        )

    def _mrai_fired(self, neighbor: Neighbor) -> None:
        neighbor.mrai_event = None
        self._flush(neighbor)

    def _flush(self, neighbor: Neighbor) -> None:
        """Emit the minimal announce/withdraw set for a neighbor."""
        if not neighbor.pending_announce and not neighbor.pending_withdraw:
            return
        session = neighbor.session
        if not neighbor.established or session is None:
            return
        withdrawn = []
        for prefix, path_id in sorted(neighbor.pending_withdraw,
                                      key=_pending_order):
            if neighbor.adj_rib_out.record_withdraw(
                    prefix, path_id) is not None:
                withdrawn.append((prefix, path_id))
                neighbor.release_path_id(path_id)
        neighbor.pending_withdraw.clear()
        # Announcements grouped by attribute set, in first-seen order.
        groups: dict[PathAttributes, list] = {}
        pending = neighbor.pending_announce
        keys = [(prefix, path_id)
                for prefix, paths in pending.items() for path_id in paths]
        for prefix, path_id in sorted(keys, key=_pending_order):
            route = pending[prefix][path_id]
            if neighbor.adj_rib_out.record_announce(route):
                groups.setdefault(route.attributes, []).append(
                    (prefix, path_id))
        pending.clear()
        for update in pack_updates(withdrawn, groups.items(),
                                   session.addpath_active):
            session.send_update(update)


def _pending_order(key: tuple[Prefix, Optional[int]]) -> tuple:
    """Wire order of pending announce/withdraw keys: prefix, then path id."""
    return key[0], key[1] or 0
