"""The BGP best-path decision process (RFC 4271 §9.1, standard tie-breaks).

The comparison operates on :class:`~repro.bgp.rib.RibEntry` objects plus a
per-peer context supplying the attributes the algorithm needs that are not
carried in the route itself (iBGP vs eBGP, peer router id, peer address).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.bgp.attributes import Route
from repro.bgp.rib import RibEntry
from repro.netsim.addr import IPv4Address

DEFAULT_LOCAL_PREF = 100


@dataclass(frozen=True)
class PeerContext:
    """Decision-relevant facts about the peer a route was learned from."""

    is_ebgp: bool = True
    router_id: IPv4Address = IPv4Address(0)
    peer_address: IPv4Address = IPv4Address(0)


def compare_routes(
    a: Route,
    b: Route,
    context_a: Optional[PeerContext] = None,
    context_b: Optional[PeerContext] = None,
) -> int:
    """Return <0 if ``a`` is preferred, >0 if ``b`` is, 0 if tied.

    Steps: local-pref, AS-path length, origin, MED (compared when both
    routes enter from the same neighboring AS), eBGP-over-iBGP, router id,
    peer address.
    """
    context_a = context_a or PeerContext()
    context_b = context_b or PeerContext()

    pref_a = a.attributes.local_pref
    pref_b = b.attributes.local_pref
    pref_a = DEFAULT_LOCAL_PREF if pref_a is None else pref_a
    pref_b = DEFAULT_LOCAL_PREF if pref_b is None else pref_b
    if pref_a != pref_b:
        return -1 if pref_a > pref_b else 1

    len_a = a.as_path.length
    len_b = b.as_path.length
    if len_a != len_b:
        return -1 if len_a < len_b else 1

    if a.attributes.origin != b.attributes.origin:
        return -1 if a.attributes.origin < b.attributes.origin else 1

    if a.as_path.first_as == b.as_path.first_as:
        med_a = a.attributes.med or 0
        med_b = b.attributes.med or 0
        if med_a != med_b:
            return -1 if med_a < med_b else 1

    if context_a.is_ebgp != context_b.is_ebgp:
        return -1 if context_a.is_ebgp else 1

    if context_a.router_id != context_b.router_id:
        return -1 if context_a.router_id < context_b.router_id else 1

    if context_a.peer_address != context_b.peer_address:
        return -1 if context_a.peer_address < context_b.peer_address else 1

    return 0


def displaces(
    candidate: RibEntry,
    incumbent: RibEntry,
    contexts: Optional[dict[str, PeerContext]] = None,
) -> bool:
    """One fold step of :func:`best_path`: does ``candidate`` beat the
    running ``incumbent``?

    Exposed separately because the Loc-RIB's incremental best path
    (DESIGN.md §6g) is exactly one such step: appending a new
    candidate to the fold compares it against the incumbent only.  Note
    that the relation is *not* transitive — the MED step only applies
    between routes entering from the same neighboring AS — which is why
    incremental shortcuts are limited to fold *extensions*; removals and
    reorderings must re-run the whole fold from the first candidate.
    """
    contexts = contexts or {}
    outcome = compare_routes(
        candidate.route,
        incumbent.route,
        contexts.get(candidate.peer),
        contexts.get(incumbent.peer),
    )
    return outcome < 0 or (outcome == 0 and candidate.peer < incumbent.peer)


def best_path(
    entries: Sequence[RibEntry],
    contexts: Optional[dict[str, PeerContext]] = None,
) -> Optional[RibEntry]:
    """Select the best entry; deterministic for equal candidates.

    A left fold over ``entries`` in order (the ``select`` contract the
    Loc-RIB's incremental reselect relies on — see
    :class:`repro.bgp.rib.ColumnarLocRib`).
    """
    if not entries:
        return None
    contexts = contexts or {}
    best = entries[0]
    for candidate in entries[1:]:
        if displaces(candidate, best, contexts):
            best = candidate
    return best
