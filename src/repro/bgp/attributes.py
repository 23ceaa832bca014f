"""BGP path attributes and the route model.

``Route`` is the unit that flows through the whole reproduction: RIBs,
policy engines, the vBGP rewriter, and the security enforcers all consume
and produce routes. Attributes are immutable; manipulation helpers return
new objects (``with_next_hop``, ``prepended`` …) so routes can be shared
safely between tables.  A ``Community`` is an ``int`` holding its packed
wire value, so a COMMUNITIES set hashes, sorts and encodes in C; the
other attribute values are frozen dataclasses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from repro.netsim.addr import IPv4Address, Prefix


class Origin(enum.IntEnum):
    """The ORIGIN well-known mandatory attribute."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class SegmentType(enum.IntEnum):
    """AS_PATH segment types."""

    AS_SET = 1
    AS_SEQUENCE = 2


@dataclass(frozen=True)
class AsPathSegment:
    """One AS_PATH segment: an ordered sequence or an unordered set."""

    kind: SegmentType
    asns: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.asns:
            raise ValueError("empty AS_PATH segment")
        if len(self.asns) > 255:
            raise ValueError("AS_PATH segment exceeds 255 ASNs")
        for asn in self.asns:
            if not 0 < asn < (1 << 32):
                raise ValueError(f"ASN out of range: {asn}")

    @property
    def path_length(self) -> int:
        """RFC 4271 path length: an AS_SET counts as one hop."""
        return 1 if self.kind == SegmentType.AS_SET else len(self.asns)


@dataclass(frozen=True)
class AsPath:
    """An AS_PATH: a tuple of segments, empty for locally originated routes."""

    segments: tuple[AsPathSegment, ...] = ()

    def __hash__(self) -> int:
        # Cached: paths are hashed repeatedly (every attribute-set hash)
        # and segment-tuple hashing chains through every ASN.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self.segments)
            object.__setattr__(self, "_hash", cached)
        return cached

    @classmethod
    def from_asns(cls, *asns: int) -> "AsPath":
        """Build a pure AS_SEQUENCE path (the overwhelmingly common case)."""
        if not asns:
            return cls()
        return cls((AsPathSegment(SegmentType.AS_SEQUENCE, tuple(asns)),))

    @property
    def length(self) -> int:
        return sum(segment.path_length for segment in self.segments)

    @property
    def asns(self) -> tuple[int, ...]:
        """All ASNs in order of appearance (sets flattened)."""
        result: list[int] = []
        for segment in self.segments:
            result.extend(segment.asns)
        return tuple(result)

    @property
    def origin_as(self) -> Optional[int]:
        """The rightmost ASN (the route's originator), if any."""
        flat = self.asns
        return flat[-1] if flat else None

    @property
    def first_as(self) -> Optional[int]:
        flat = self.asns
        return flat[0] if flat else None

    def contains(self, asn: int) -> bool:
        """Loop detection / poison check."""
        return asn in self.asns

    def prepended(self, asn: int, count: int = 1) -> "AsPath":
        """Return a path with ``asn`` prepended ``count`` times."""
        if count < 1:
            return self
        if (
            self.segments
            and self.segments[0].kind == SegmentType.AS_SEQUENCE
            and len(self.segments[0].asns) + count <= 255
        ):
            head = AsPathSegment(
                SegmentType.AS_SEQUENCE,
                (asn,) * count + self.segments[0].asns,
            )
            return AsPath((head,) + self.segments[1:])
        head = AsPathSegment(SegmentType.AS_SEQUENCE, (asn,) * count)
        return AsPath((head,) + self.segments)

    def __str__(self) -> str:
        parts = []
        for segment in self.segments:
            text = " ".join(str(asn) for asn in segment.asns)
            if segment.kind == SegmentType.AS_SET:
                parts.append("{" + text + "}")
            else:
                parts.append(text)
        return " ".join(parts)


class Community(int):
    """RFC 1997 community ``asn:value`` (16 bits each), held as its packed
    32-bit wire value.

    An ``int`` with no instance dict: hashing, equality and ordering are
    the int's own, run in C, and int order is ``(asn, value)`` order, so
    a sorted set is the canonical wire order.  The decoder builds a
    COMMUNITIES set straight from the unpacked words without a Python
    frame per community (``bgp.messages``).
    """

    __slots__ = ()

    def __new__(cls, asn: int, value: int) -> "Community":
        if not 0 <= asn < (1 << 16) or not 0 <= value < (1 << 16):
            raise ValueError(f"community out of range: {asn}:{value}")
        return int.__new__(cls, (asn << 16) | value)

    @property
    def asn(self) -> int:
        return self >> 16

    @property
    def value(self) -> int:
        return self & 0xFFFF

    @classmethod
    def parse(cls, text: str) -> "Community":
        asn_text, _, value_text = text.partition(":")
        return cls(int(asn_text), int(value_text))

    def packed(self) -> int:
        return int(self)

    @classmethod
    def from_packed(cls, packed: int) -> "Community":
        if not 0 <= packed < (1 << 32):
            raise ValueError(f"packed community out of range: {packed}")
        return int.__new__(cls, packed)

    def __getnewargs__(self) -> tuple[int, int]:
        # pickle and copy rebuild through ``__new__(asn, value)``.
        return self >> 16, self & 0xFFFF

    def __str__(self) -> str:
        return f"{self >> 16}:{self & 0xFFFF}"

    def __repr__(self) -> str:
        return f"Community(asn={self >> 16}, value={self & 0xFFFF})"


@dataclass(frozen=True)
class LargeCommunity:
    """RFC 8092 large community ``global:local1:local2`` (32 bits each)."""

    global_admin: int
    local1: int
    local2: int

    def __post_init__(self) -> None:
        for part in (self.global_admin, self.local1, self.local2):
            if not 0 <= part < (1 << 32):
                raise ValueError(f"large community part out of range: {part}")

    @classmethod
    def parse(cls, text: str) -> "LargeCommunity":
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed large community: {text!r}")
        return cls(int(parts[0]), int(parts[1]), int(parts[2]))

    def __str__(self) -> str:
        return f"{self.global_admin}:{self.local1}:{self.local2}"


@dataclass(frozen=True)
class UnknownAttribute:
    """An attribute this implementation does not interpret.

    Optional transitive unknown attributes must be propagated with the
    partial bit set (RFC 4271 §5) — and are exactly what PEERING's
    capability framework gates (§4.7, "optional BGP transitive attributes").
    """

    type_code: int
    flags: int
    value: bytes

    FLAG_OPTIONAL = 0x80
    FLAG_TRANSITIVE = 0x40
    FLAG_PARTIAL = 0x20
    FLAG_EXTENDED = 0x10

    @property
    def is_optional(self) -> bool:
        return bool(self.flags & self.FLAG_OPTIONAL)

    @property
    def is_transitive(self) -> bool:
        return bool(self.flags & self.FLAG_TRANSITIVE)


@dataclass(frozen=True)
class PathAttributes:
    """The full attribute set carried by a route."""

    origin: Origin = Origin.IGP
    as_path: AsPath = field(default_factory=AsPath)
    next_hop: Optional[IPv4Address] = None
    med: Optional[int] = None
    local_pref: Optional[int] = None
    atomic_aggregate: bool = False
    aggregator: Optional[tuple[int, IPv4Address]] = None
    communities: frozenset[Community] = frozenset()
    large_communities: frozenset[LargeCommunity] = frozenset()
    unknown: tuple[UnknownAttribute, ...] = ()

    def __hash__(self) -> int:
        # Cached: attribute sets key every hot dict on the control plane
        # (Loc-RIB attribute handles, fan-out batching groups), and the
        # generated hash walks the whole attribute tree each call.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((
                self.origin,
                self.as_path,
                self.next_hop,
                self.med,
                self.local_pref,
                self.atomic_aggregate,
                self.aggregator,
                self.communities,
                self.large_communities,
                self.unknown,
            ))
            object.__setattr__(self, "_hash", cached)
        return cached

    def with_next_hop(self, next_hop: Optional[IPv4Address]) -> (
        "PathAttributes"
    ):
        """Fast next-hop rewrite (the datapath's dominant manipulation).

        Builds the copy via the constructor directly: ``dataclasses.replace``
        pays for generic kwargs plumbing on every fan-out.  The rewrite
        is memoized per target next hop on this (frozen) instance, so
        repeated fan-outs of a shared decoded attribute set return the
        same object — which in turn keeps its cached hash and wire
        encoding warm downstream.
        """
        memo = self.__dict__.get("_nh_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_nh_memo", memo)
        rewritten = memo.get(next_hop)
        if rewritten is None:
            rewritten = self._with_next_hop_uncached(next_hop)
            memo[next_hop] = rewritten
        return rewritten

    def _with_next_hop_uncached(
        self, next_hop: Optional[IPv4Address]
    ) -> "PathAttributes":
        return PathAttributes(
            origin=self.origin,
            as_path=self.as_path,
            next_hop=next_hop,
            med=self.med,
            local_pref=self.local_pref,
            atomic_aggregate=self.atomic_aggregate,
            aggregator=self.aggregator,
            communities=self.communities,
            large_communities=self.large_communities,
            unknown=self.unknown,
        )


@dataclass(frozen=True)
class Route:
    """A BGP route: one prefix + one attribute set (+ ADD-PATH id).

    ``path_id`` distinguishes multiple routes for the same prefix announced
    over one ADD-PATH session — the mechanism vBGP uses to give experiments
    full visibility (§3.2.1).
    """

    prefix: Prefix
    attributes: PathAttributes
    path_id: Optional[int] = None

    # -- convenience accessors ------------------------------------------

    @property
    def as_path(self) -> AsPath:
        return self.attributes.as_path

    @property
    def next_hop(self) -> Optional[IPv4Address]:
        return self.attributes.next_hop

    @property
    def communities(self) -> frozenset[Community]:
        return self.attributes.communities

    @property
    def origin_as(self) -> Optional[int]:
        return self.attributes.as_path.origin_as

    # -- manipulation helpers (all return new Route objects) -------------

    def with_attributes(self, **changes) -> "Route":
        return replace(self, attributes=replace(self.attributes, **changes))

    def with_next_hop(self, next_hop: IPv4Address) -> "Route":
        return replace(self, attributes=self.attributes.with_next_hop(next_hop))

    def with_path_id(self, path_id: Optional[int]) -> "Route":
        return replace(self, path_id=path_id)

    def prepended(self, asn: int, count: int = 1) -> "Route":
        return self.with_attributes(
            as_path=self.attributes.as_path.prepended(asn, count)
        )

    def with_communities(self, communities: Iterable[Community]) -> "Route":
        return self.with_attributes(communities=frozenset(communities))

    def add_communities(self, *communities: Community) -> "Route":
        return self.with_attributes(
            communities=self.attributes.communities | set(communities)
        )

    def without_communities(self, *communities: Community) -> "Route":
        return self.with_attributes(
            communities=self.attributes.communities - set(communities)
        )

    def with_local_pref(self, local_pref: int) -> "Route":
        return self.with_attributes(local_pref=local_pref)

    def without_unknown_attributes(self) -> "Route":
        return self.with_attributes(unknown=())

    def __str__(self) -> str:
        path = str(self.as_path) or "(local)"
        suffix = f" id {self.path_id}" if self.path_id is not None else ""
        return f"{self.prefix} via {self.next_hop} path [{path}]{suffix}"


def originate(
    prefix: Prefix,
    origin_asn: int,
    next_hop: IPv4Address,
    communities: Iterable[Community] = (),
) -> Route:
    """Create a route as it would appear *received from* AS ``origin_asn``.

    Useful for injecting synthetic background routes. For a route a speaker
    originates itself, use :func:`local_route` — the speaker's export logic
    prepends its own ASN on eBGP sessions.
    """
    return Route(
        prefix=prefix,
        attributes=PathAttributes(
            origin=Origin.IGP,
            as_path=AsPath.from_asns(origin_asn),
            next_hop=next_hop,
            communities=frozenset(communities),
        ),
    )


def local_route(
    prefix: Prefix,
    next_hop: Optional[IPv4Address] = None,
    communities: Iterable[Community] = (),
) -> Route:
    """Create a locally originated route (empty AS path)."""
    return Route(
        prefix=prefix,
        attributes=PathAttributes(
            origin=Origin.IGP,
            next_hop=next_hop,
            communities=frozenset(communities),
        ),
    )
