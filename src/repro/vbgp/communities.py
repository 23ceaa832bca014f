"""The vBGP announcement-control community scheme (§3.2.1).

Experiments attach communities to steer which neighbors an announcement is
exported to:

* ``47065:<gid>`` — *whitelist*: announce only to the neighbor with global
  id ``gid`` (multiple whitelist communities union),
* ``47065:<10000+pop>`` — whitelist every neighbor at PoP number ``pop``,
* ``47064:<gid>`` — *blacklist*: do not announce to that neighbor,
* no control communities — announce to all neighbors (the default).

Control communities are consumed by vBGP and stripped before export; other
communities are subject to the experiment's capability grants (§4.7).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

from repro.bgp.attributes import Community, Route

ANNOUNCE_ASN = 47065
BLOCK_ASN = 47064
POP_OFFSET = 10000


def announce_to_neighbor(global_id: int) -> Community:
    """Whitelist community: export only to this neighbor."""
    return Community(ANNOUNCE_ASN, global_id)


def announce_to_pop(pop_id: int) -> Community:
    """Whitelist community: export to every neighbor at this PoP."""
    return Community(ANNOUNCE_ASN, POP_OFFSET + pop_id)


def block_neighbor(global_id: int) -> Community:
    """Blacklist community: never export to this neighbor."""
    return Community(BLOCK_ASN, global_id)


def is_control(community: Community) -> bool:
    # A Community is its packed int: the high half is the ASN.
    return community >> 16 in (ANNOUNCE_ASN, BLOCK_ASN)


def strip_control(route: Route) -> Route:
    """Remove vBGP control communities before exporting to the Internet."""
    control = {c for c in route.communities if is_control(c)}
    if not control:
        return route
    return route.without_communities(*control)


def select_targets(
    route: Route,
    neighbors: Iterable[tuple[int, int]],
) -> set[int]:
    """Choose export targets for a route.

    ``neighbors`` yields ``(global_id, pop_id)`` pairs for every candidate
    neighbor. Returns the selected global ids per the scheme above.
    """
    whitelist_gids: set[int] = set()
    whitelist_pops: set[int] = set()
    blacklist: set[int] = set()
    for community in route.communities:
        asn, value = divmod(community, 1 << 16)
        if asn == ANNOUNCE_ASN:
            if value >= POP_OFFSET:
                whitelist_pops.add(value - POP_OFFSET)
            else:
                whitelist_gids.add(value)
        elif asn == BLOCK_ASN:
            blacklist.add(value)
    selected: set[int] = set()
    restrict = bool(whitelist_gids or whitelist_pops)
    for global_id, pop_id in neighbors:
        if global_id in blacklist:
            continue
        if restrict and global_id not in whitelist_gids and (
            pop_id not in whitelist_pops
        ):
            continue
        selected.add(global_id)
    return selected


def choose_exports(
    local: Mapping[Hashable, Route],
    remote: Mapping[Hashable, Route],
    neighbors: Sequence[tuple[int, int]],
) -> dict[int, Route]:
    """``{gid: path}``: which experiment path each upstream holds for one
    prefix.

    ``local`` keys the prefix's paths announced at this PoP by
    (experiment, path id), ``remote`` those learned over the backbone by
    (backbone peer, mesh id).  In that one total order, local first, each
    of ``neighbors`` (as for :func:`select_targets`) gets the first path
    that selects it; a remote path needs a whitelist community (§4.4).
    Not the BGP decision order: MED makes it non-transitive, so a sort by
    it could depend on arrival order.
    """
    paths = [local[key] for key in sorted(local)] + [
        remote[key] for key in sorted(remote)
        if any(c >> 16 == ANNOUNCE_ASN for c in remote[key].communities)
    ]
    chosen: dict[int, Route] = {}
    for route in paths:
        # ``|`` keeps its right operand's value: earlier paths win.
        targets = select_targets(route, neighbors)
        chosen = dict.fromkeys(targets, route) | chosen
    return chosen
