"""The ``BgpSpeaker`` export step before its Adj-RIB-Out was indexed by
prefix, kept as the test oracle.

``_enqueue_prefix`` walked every key the neighbor had been advertised to
find one prefix's keys, so touching a prefix cost the whole Adj-RIB-Out.
``_desired_routes`` read every Loc-RIB candidate, the split-horizon peer's
included, and ran even when nothing could be exported or withdrawn.
``_select`` built the decision contexts on every call. ``_flush`` sorted
both pending sets even when they were empty, and grouped announcements by
a linear scan over the groups. Two bug fixes are carried over, because
they are not part of the restructure and keeping them lets wire bytes be
compared exactly: the outbound ADD-PATH id release when a path is
withdrawn, and pending announcements kept by prefix so that one no longer
wanted when the MRAI timer fires is dropped unsent.  ``export_transform``
is the speaker's own export chain from before it shared
``repro.bgp.policy.export_transform`` with the vBGP node.
"""

from __future__ import annotations

from typing import Optional

from repro.bgp.attributes import Route
from repro.bgp.decision import PeerContext, best_path
from repro.bgp.messages import UpdateMessage
from repro.bgp.rib import RibEntry
from repro.bgp.speaker import LOCAL_PEER, BgpSpeaker, Neighbor
from repro.netsim.addr import Prefix


def enqueue_prefix(self: BgpSpeaker, neighbor: Neighbor,
                   prefix: Prefix) -> None:
    desired = desired_routes(self, neighbor, prefix)
    desired_keys = {
        (route.prefix, route.path_id) for route in desired
    }
    for key in list(neighbor.adj_rib_out.keys()):
        if key[0] == prefix and key not in desired_keys:
            neighbor.pending_withdraw.add(key)
    announce = {}
    for route in desired:
        key = (route.prefix, route.path_id)
        neighbor.pending_withdraw.discard(key)
        if neighbor.adj_rib_out.advertised(*key) != route:
            announce[route.path_id] = route
    for path_id in neighbor.pending_announce.pop(prefix, ()):
        key = (prefix, path_id)
        if (key not in desired_keys
                and neighbor.adj_rib_out.advertised(*key) is None):
            neighbor.release_path_id(path_id)
    if announce:
        neighbor.pending_announce[prefix] = announce


def desired_routes(self: BgpSpeaker, neighbor: Neighbor,
                   prefix: Prefix) -> list[Route]:
    """Post-policy routes we want advertised to ``neighbor``."""
    if neighbor.config.addpath:
        candidates = self.loc_rib.candidates(prefix)
    else:
        entry = self.loc_rib.best(prefix)
        candidates = [entry] if entry is not None else []
    desired = []
    for entry in candidates:
        if entry.peer == neighbor.name:
            continue  # split horizon
        source = self.neighbors.get(entry.peer)
        if (
            source is not None
            and source.config.is_ibgp
            and neighbor.config.is_ibgp
        ):
            continue  # no iBGP reflection (full mesh assumed)
        route = export_transform(self, neighbor, entry)
        if route is None:
            continue
        desired.append(route)
    return desired


def export_transform(self: BgpSpeaker, neighbor: Neighbor,
                     entry: RibEntry) -> Optional[Route]:
    """The speaker's own four-step export chain, before it shared the one
    transform in ``repro.bgp.policy``: policy, then prepend and drop
    local-pref on eBGP, then next hop, then path id."""
    route = entry.route
    if neighbor.config.export_policy is not None:
        maybe = neighbor.config.export_policy.apply(route)
        if maybe is None:
            return None
        route = maybe
    if not neighbor.config.is_ibgp and not neighbor.config.transparent:
        route = route.prepended(self.config.asn)
        route = route.with_attributes(local_pref=None)
    if route.next_hop is None or (
        neighbor.config.next_hop_self and not neighbor.config.transparent
    ):
        route = route.with_next_hop(neighbor.config.local_address)
    if neighbor.config.addpath:
        route = route.with_path_id(
            neighbor.path_id_for(entry.prefix, entry.peer,
                                 entry.route.path_id)
        )
    else:
        route = route.with_path_id(None)
    return route


def select(self: BgpSpeaker, entries: list[RibEntry]) -> Optional[RibEntry]:
    contexts = {
        name: neighbor.context
        for name, neighbor in self.neighbors.items()
    }
    contexts[LOCAL_PEER] = PeerContext(
        is_ebgp=False, router_id=self.config.router_id
    )
    local = [entry for entry in entries if entry.peer == LOCAL_PEER]
    if local:
        return local[0]
    return best_path(entries, contexts)


def flush(self: BgpSpeaker, neighbor: Neighbor) -> None:
    if not neighbor.established or neighbor.session is None:
        return
    withdrawals = []
    for prefix, path_id in sorted(
        neighbor.pending_withdraw, key=lambda k: (k[0].key(), k[1] or 0)
    ):
        removed = neighbor.adj_rib_out.record_withdraw(prefix, path_id)
        if removed is not None:
            withdrawals.append(
                Route(prefix=prefix, attributes=removed.attributes,
                      path_id=path_id)
            )
            neighbor.release_path_id(path_id)
    neighbor.pending_withdraw.clear()
    if withdrawals:
        neighbor.session.send_update(UpdateMessage.withdraw(withdrawals))
    groups: list[tuple[object, list[Route]]] = []
    pending = [
        route for paths in neighbor.pending_announce.values()
        for route in paths.values()
    ]
    for route in sorted(
        pending, key=lambda r: (r.prefix.key(), r.path_id or 0)
    ):
        if not neighbor.adj_rib_out.record_announce(route):
            continue
        for attributes, routes in groups:
            if attributes == route.attributes:
                routes.append(route)
                break
        else:
            groups.append((route.attributes, [route]))
    neighbor.pending_announce.clear()
    for _attributes, routes in groups:
        neighbor.session.send_update(UpdateMessage.announce(routes))


def install(monkeypatch) -> None:
    """Every ``BgpSpeaker`` built under ``monkeypatch`` exports through
    the reference.  The Loc-RIB binds ``_select`` when the speaker is
    built, so install before building speakers."""
    monkeypatch.setattr(BgpSpeaker, "_enqueue_prefix", enqueue_prefix)
    monkeypatch.setattr(BgpSpeaker, "_select", select)
    monkeypatch.setattr(BgpSpeaker, "_flush", flush)
