"""Route-map-style routing policy engine.

This is the policy vocabulary shared by the BIRD-like router, the synthetic
Internet's Gao–Rexford configurations, and (for the subset expressible in a
router) PEERING's security filters. Policies that exceed what a router's
filter language can express — stateful rate limits, cross-PoP state — live
in the decoupled enforcement engines instead (§3.3 of the paper explains why
that split exists; :mod:`repro.security` implements it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

from repro.bgp.attributes import Community, LargeCommunity, Route
from repro.netsim.addr import IPv4Address, Prefix


class PolicyResult(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    CONTINUE = "continue"


@dataclass(frozen=True)
class PrefixMatch:
    """Match prefixes covered by ``prefix`` with length in [ge, le]."""

    prefix: Prefix
    ge: Optional[int] = None
    le: Optional[int] = None

    def matches(self, candidate: Prefix) -> bool:
        if not self.prefix.contains_prefix(candidate):
            return False
        ge = self.ge if self.ge is not None else self.prefix.length
        le = self.le if self.le is not None else (
            self.prefix.length if self.ge is None else candidate.BITS
        )
        return ge <= candidate.length <= le


@dataclass
class Match:
    """Conjunction of match conditions; empty conditions match everything."""

    prefixes: Sequence[PrefixMatch] = ()
    communities: Iterable[Community] = ()
    any_community_of: Iterable[Community] = ()
    as_path_contains: Optional[int] = None
    origin_as_in: Optional[frozenset[int]] = None
    first_as_in: Optional[frozenset[int]] = None
    max_as_path_length: Optional[int] = None
    has_unknown_attributes: Optional[bool] = None
    custom: Optional[Callable[[Route], bool]] = None

    def matches(self, route: Route) -> bool:
        if self.prefixes and not any(
            p.matches(route.prefix) for p in self.prefixes
        ):
            return False
        required = set(self.communities)
        if required and not required <= route.communities:
            return False
        alternatives = set(self.any_community_of)
        if alternatives and not alternatives & route.communities:
            return False
        if (
            self.as_path_contains is not None
            and not route.as_path.contains(self.as_path_contains)
        ):
            return False
        if (
            self.origin_as_in is not None
            and route.origin_as not in self.origin_as_in
        ):
            return False
        if (
            self.first_as_in is not None
            and route.as_path.first_as not in self.first_as_in
        ):
            return False
        if (
            self.max_as_path_length is not None
            and route.as_path.length > self.max_as_path_length
        ):
            return False
        if self.has_unknown_attributes is not None:
            if bool(route.attributes.unknown) != self.has_unknown_attributes:
                return False
        if self.custom is not None and not self.custom(route):
            return False
        return True


@dataclass
class PolicyAction:
    """Attribute transformations applied when a rule matches."""

    set_local_pref: Optional[int] = None
    set_med: Optional[int] = None
    prepend_asn: Optional[int] = None
    prepend_count: int = 1
    add_communities: Iterable[Community] = ()
    remove_communities: Iterable[Community] = ()
    clear_communities: bool = False
    add_large_communities: Iterable[LargeCommunity] = ()
    strip_unknown_attributes: bool = False
    custom: Optional[Callable[[Route], Route]] = None

    def apply(self, route: Route) -> Route:
        if self.set_local_pref is not None:
            route = route.with_local_pref(self.set_local_pref)
        if self.set_med is not None:
            route = route.with_attributes(med=self.set_med)
        if self.prepend_asn is not None:
            route = route.prepended(self.prepend_asn, self.prepend_count)
        if self.clear_communities:
            route = route.with_communities(())
        removals = set(self.remove_communities)
        if removals:
            route = route.without_communities(*removals)
        additions = set(self.add_communities)
        if additions:
            route = route.add_communities(*additions)
        large = set(self.add_large_communities)
        if large:
            route = route.with_attributes(
                large_communities=route.attributes.large_communities | large
            )
        if self.strip_unknown_attributes:
            route = route.without_unknown_attributes()
        if self.custom is not None:
            route = self.custom(route)
        return route


@dataclass
class PolicyRule:
    """One route-map term: match → transform → accept/reject/continue."""

    match: Match = field(default_factory=Match)
    action: PolicyAction = field(default_factory=PolicyAction)
    result: PolicyResult = PolicyResult.ACCEPT
    name: str = ""


class RouteMap:
    """An ordered rule chain with a default disposition.

    ``apply`` returns the transformed route, or ``None`` when rejected —
    the universal filter signature across the reproduction.
    """

    def __init__(
        self,
        rules: Sequence[PolicyRule] = (),
        default: PolicyResult = PolicyResult.ACCEPT,
        name: str = "",
    ) -> None:
        if default == PolicyResult.CONTINUE:
            raise ValueError("route-map default must be ACCEPT or REJECT")
        self.rules = list(rules)
        self.default = default
        self.name = name
        self.evaluations = 0

    def apply(self, route: Route) -> Optional[Route]:
        self.evaluations += 1
        for rule in self.rules:
            if not rule.match.matches(route):
                continue
            route = rule.action.apply(route)
            if rule.result == PolicyResult.ACCEPT:
                return route
            if rule.result == PolicyResult.REJECT:
                return None
        return route if self.default == PolicyResult.ACCEPT else None

    @classmethod
    def accept_all(cls, name: str = "accept-all") -> "RouteMap":
        return cls(rules=(), default=PolicyResult.ACCEPT, name=name)

    @classmethod
    def reject_all(cls, name: str = "reject-all") -> "RouteMap":
        return cls(rules=(), default=PolicyResult.REJECT, name=name)


def chain(route: Route, *maps: Optional[RouteMap]) -> Optional[Route]:
    """Run a route through several maps, stopping at the first rejection."""
    current: Optional[Route] = route
    for route_map in maps:
        if current is None:
            return None
        if route_map is None:
            continue
        current = route_map.apply(current)
    return current


def export_transform(
    route: Route, *, policy: Optional[RouteMap] = None,
    asn: Optional[int] = None, next_hop: Optional[IPv4Address] = None,
    next_hop_self: bool = True, path_id: Optional[Callable[[], int]] = None,
    drop_community: Optional[Callable[[Community], bool]] = None,
) -> Optional[Route]:
    """The one export step (§3.2.1): ``route`` as a neighbor gets it, or
    ``None`` when ``policy`` rejects it.

    Stages in order: ``policy``; drop the communities ``drop_community``
    matches; prepend ``asn`` and drop LOCAL_PREF; set ``next_hop`` where
    the route has none or ``next_hop_self`` holds; set the path id to
    ``path_id()`` (called only for an accepted route), else to none.  It
    builds at most one attribute set, and none when no stage changes it.
    """
    if policy is not None and (route := policy.apply(route)) is None:
        return None
    attrs = route.attributes
    changes = {}
    if drop_community is not None:
        kept = frozenset(c for c in attrs.communities if not drop_community(c))
        if len(kept) != len(attrs.communities):
            changes["communities"] = kept
    if asn is not None:
        changes.update(as_path=attrs.as_path.prepended(asn), local_pref=None)
    if next_hop is not None and attrs.next_hop != next_hop and (
            attrs.next_hop is None or next_hop_self):
        changes["next_hop"] = next_hop
    if changes.keys() == {"next_hop"}:
        exported = attrs.with_next_hop(next_hop)  # memoized per next hop
    else:
        exported = replace(attrs, **changes) if changes else attrs
    exported_id = path_id() if path_id is not None else None
    if exported is attrs and exported_id == route.path_id:
        return route
    return Route(route.prefix, exported, exported_id)
