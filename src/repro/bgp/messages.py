"""BGP-4 wire formats: OPEN, UPDATE, NOTIFICATION, KEEPALIVE.

Real byte-level encode/decode, including the extensions PEERING relies on:

* capabilities advertisement (RFC 5492) in OPEN,
* ADD-PATH (RFC 7911): four-byte path identifiers in NLRI and withdrawn
  routes when negotiated,
* 4-octet ASNs (RFC 6793): this implementation always negotiates the
  capability and encodes AS_PATH with 4-byte ASNs (the AS_TRANS dance for
  legacy peers is not needed inside the reproduction and is documented as
  out of scope),
* communities (RFC 1997) and large communities (RFC 8092),
* pass-through of unknown optional transitive attributes with the partial
  bit set — the attribute class PEERING's capability framework gates.

Sessions exchange these exact bytes over the simulated transport, so the
codec is on the hot path of every benchmark.
"""

from __future__ import annotations

import struct
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.bgp.attributes import (
    AsPath,
    AsPathSegment,
    Community,
    LargeCommunity,
    Origin,
    PathAttributes,
    Route,
    SegmentType,
    UnknownAttribute,
)
from repro.bgp.errors import (
    ErrorCode,
    HeaderSubcode,
    NotificationError,
    OpenSubcode,
    UpdateSubcode,
)
from repro.netsim.addr import IPv4Address, IPv4Prefix

MARKER = b"\xff" * 16
HEADER_SIZE = 19
MAX_MESSAGE_SIZE = 4096
BGP_VERSION = 4

MSG_OPEN = 1
MSG_UPDATE = 2
MSG_NOTIFICATION = 3
MSG_KEEPALIVE = 4
MSG_ROUTE_REFRESH = 5

ATTR_ORIGIN = 1
ATTR_AS_PATH = 2
ATTR_NEXT_HOP = 3
ATTR_MED = 4
ATTR_LOCAL_PREF = 5
ATTR_ATOMIC_AGGREGATE = 6
ATTR_AGGREGATOR = 7
ATTR_COMMUNITIES = 8
ATTR_LARGE_COMMUNITIES = 32

CAP_MULTIPROTOCOL = 1
CAP_GRACEFUL_RESTART = 64
CAP_FOUR_OCTET_AS = 65
CAP_ADD_PATH = 69

AFI_IPV4 = 1
SAFI_UNICAST = 1

ADDPATH_RECEIVE = 1
ADDPATH_SEND = 2
ADDPATH_BOTH = 3

FLAG_OPTIONAL = 0x80
FLAG_TRANSITIVE = 0x40
FLAG_PARTIAL = 0x20
FLAG_EXTENDED = 0x10


# ---------------------------------------------------------------------------
# Capabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiprotocolCapability:
    afi: int = AFI_IPV4
    safi: int = SAFI_UNICAST

    code = CAP_MULTIPROTOCOL

    def encode_value(self) -> bytes:
        return struct.pack("!HBB", self.afi, 0, self.safi)


@dataclass(frozen=True)
class FourOctetAsCapability:
    asn: int = 0

    code = CAP_FOUR_OCTET_AS

    def encode_value(self) -> bytes:
        return struct.pack("!I", self.asn)


@dataclass(frozen=True)
class AddPathCapability:
    """ADD-PATH capability for IPv4 unicast."""

    mode: int = ADDPATH_BOTH

    code = CAP_ADD_PATH

    def encode_value(self) -> bytes:
        return struct.pack("!HBB", AFI_IPV4, SAFI_UNICAST, self.mode)

    @property
    def can_send(self) -> bool:
        return bool(self.mode & ADDPATH_SEND)

    @property
    def can_receive(self) -> bool:
        return bool(self.mode & ADDPATH_RECEIVE)


@dataclass(frozen=True)
class GracefulRestartCapability:
    """Graceful Restart (RFC 4724) for IPv4 unicast.

    ``restart_time`` is how long the receiver should retain this peer's
    routes (marked stale) after the session drops; ``restarted`` is the
    R-flag ("I just restarted"); ``forwarding`` is the per-AFI F-flag
    ("my forwarding state survived the restart").
    """

    restart_time: int = 120
    restarted: bool = False
    forwarding: bool = True

    code = CAP_GRACEFUL_RESTART

    RESTART_FLAG = 0x8
    FORWARDING_FLAG = 0x80

    def encode_value(self) -> bytes:
        flags = self.RESTART_FLAG if self.restarted else 0
        head = struct.pack(
            "!H", (flags << 12) | (self.restart_time & 0x0FFF)
        )
        afi_flags = self.FORWARDING_FLAG if self.forwarding else 0
        return head + struct.pack("!HBB", AFI_IPV4, SAFI_UNICAST, afi_flags)


@dataclass(frozen=True)
class UnknownCapability:
    code: int
    value: bytes = b""

    def encode_value(self) -> bytes:
        return self.value


Capability = Union[
    MultiprotocolCapability,
    FourOctetAsCapability,
    AddPathCapability,
    GracefulRestartCapability,
    UnknownCapability,
]


def _decode_capability(code: int, value: bytes) -> Capability:
    if code == CAP_MULTIPROTOCOL and len(value) == 4:
        afi, _reserved, safi = struct.unpack("!HBB", value)
        return MultiprotocolCapability(afi=afi, safi=safi)
    if code == CAP_FOUR_OCTET_AS and len(value) == 4:
        return FourOctetAsCapability(asn=struct.unpack("!I", value)[0])
    if code == CAP_ADD_PATH and len(value) % 4 == 0 and value:
        afi, safi, mode = struct.unpack("!HBB", value[:4])
        if afi == AFI_IPV4 and safi == SAFI_UNICAST:
            return AddPathCapability(mode=mode)
    if code == CAP_GRACEFUL_RESTART and len(value) >= 2 and (
        (len(value) - 2) % 4 == 0
    ):
        (head,) = struct.unpack("!H", value[:2])
        restarted = bool(
            (head >> 12) & GracefulRestartCapability.RESTART_FLAG
        )
        restart_time = head & 0x0FFF
        forwarding = False
        offset = 2
        while offset < len(value):
            afi, safi, afi_flags = struct.unpack_from("!HBB", value, offset)
            offset += 4
            if afi == AFI_IPV4 and safi == SAFI_UNICAST:
                forwarding = bool(
                    afi_flags & GracefulRestartCapability.FORWARDING_FLAG
                )
        return GracefulRestartCapability(
            restart_time=restart_time,
            restarted=restarted,
            forwarding=forwarding,
        )
    return UnknownCapability(code=code, value=value)


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpenMessage:
    asn: int
    hold_time: int
    bgp_id: IPv4Address
    capabilities: tuple[Capability, ...] = ()

    AS_TRANS = 23456

    def encode(self) -> bytes:
        caps = b""
        for capability in self.capabilities:
            value = capability.encode_value()
            caps += struct.pack("!BB", capability.code, len(value)) + value
        params = b""
        if caps:
            params = struct.pack("!BB", 2, len(caps)) + caps
        wire_asn = self.asn if self.asn < (1 << 16) else self.AS_TRANS
        body = struct.pack(
            "!BHH4sB",
            BGP_VERSION,
            wire_asn,
            self.hold_time,
            self.bgp_id.packed(),
            len(params),
        ) + params
        return _wrap(MSG_OPEN, body)

    @classmethod
    def decode(cls, body: bytes) -> "OpenMessage":
        if len(body) < 10:
            raise NotificationError(
                ErrorCode.OPEN_MESSAGE, OpenSubcode.UNSUPPORTED_VERSION,
                message="truncated OPEN",
            )
        version, asn, hold_time, bgp_id, param_len = struct.unpack(
            "!BHH4sB", body[:10]
        )
        if version != BGP_VERSION:
            raise NotificationError(
                ErrorCode.OPEN_MESSAGE, OpenSubcode.UNSUPPORTED_VERSION,
                data=struct.pack("!H", BGP_VERSION),
            )
        if hold_time in (1, 2):
            raise NotificationError(
                ErrorCode.OPEN_MESSAGE, OpenSubcode.UNACCEPTABLE_HOLD_TIME
            )
        if 10 + param_len > len(body):
            raise NotificationError(
                ErrorCode.OPEN_MESSAGE,
                OpenSubcode.UNSUPPORTED_OPTIONAL_PARAMETER,
                message="optional-parameter block overruns OPEN body",
            )
        params = body[10:10 + param_len]
        capabilities: list[Capability] = []
        offset = 0
        while offset < len(params):
            if offset + 2 > len(params):
                raise NotificationError(
                    ErrorCode.OPEN_MESSAGE,
                    OpenSubcode.UNSUPPORTED_OPTIONAL_PARAMETER,
                )
            param_type, length = struct.unpack_from("!BB", params, offset)
            offset += 2
            if offset + length > len(params):
                raise NotificationError(
                    ErrorCode.OPEN_MESSAGE,
                    OpenSubcode.UNSUPPORTED_OPTIONAL_PARAMETER,
                    message="optional parameter value truncated",
                )
            value = params[offset:offset + length]
            offset += length
            if param_type != 2:
                continue
            cap_offset = 0
            while cap_offset < len(value):
                if cap_offset + 2 > len(value):
                    raise NotificationError(
                        ErrorCode.OPEN_MESSAGE,
                        OpenSubcode.UNSUPPORTED_OPTIONAL_PARAMETER,
                        message="capability header truncated",
                    )
                code, cap_len = struct.unpack_from("!BB", value, cap_offset)
                cap_offset += 2
                if cap_offset + cap_len > len(value):
                    raise NotificationError(
                        ErrorCode.OPEN_MESSAGE,
                        OpenSubcode.UNSUPPORTED_OPTIONAL_PARAMETER,
                        message="capability value truncated",
                    )
                cap_value = value[cap_offset:cap_offset + cap_len]
                cap_offset += cap_len
                capabilities.append(_decode_capability(code, cap_value))
        real_asn = asn
        for capability in capabilities:
            if isinstance(capability, FourOctetAsCapability):
                real_asn = capability.asn
        return cls(
            asn=real_asn,
            hold_time=hold_time,
            bgp_id=IPv4Address.from_packed(bgp_id),
            capabilities=tuple(capabilities),
        )

    def find_addpath(self) -> Optional[AddPathCapability]:
        for capability in self.capabilities:
            if isinstance(capability, AddPathCapability):
                return capability
        return None

    def find_graceful_restart(self) -> Optional[GracefulRestartCapability]:
        for capability in self.capabilities:
            if isinstance(capability, GracefulRestartCapability):
                return capability
        return None


@dataclass(frozen=True)
class KeepaliveMessage:
    def encode(self) -> bytes:
        return _wrap(MSG_KEEPALIVE, b"")


@dataclass(frozen=True)
class NotificationMessage:
    code: int
    subcode: int = 0
    data: bytes = b""

    def encode(self) -> bytes:
        return _wrap(
            MSG_NOTIFICATION,
            struct.pack("!BB", self.code, self.subcode) + self.data,
        )

    @classmethod
    def decode(cls, body: bytes) -> "NotificationMessage":
        if len(body) < 2:
            raise NotificationError(
                ErrorCode.MESSAGE_HEADER, HeaderSubcode.BAD_MESSAGE_LENGTH
            )
        code, subcode = struct.unpack("!BB", body[:2])
        return cls(code=code, subcode=subcode, data=body[2:])


@dataclass(frozen=True)
class RouteRefreshMessage:
    """ROUTE-REFRESH (RFC 2918): ask the peer to resend its Adj-RIB-Out.

    Experiments use this for "soft resets" — re-learning the full table
    after a local policy change without bouncing the session.
    """

    afi: int = AFI_IPV4
    safi: int = SAFI_UNICAST

    def encode(self) -> bytes:
        return _wrap(
            MSG_ROUTE_REFRESH, struct.pack("!HBB", self.afi, 0, self.safi)
        )

    @classmethod
    def decode(cls, body: bytes) -> "RouteRefreshMessage":
        if len(body) != 4:
            raise NotificationError(
                ErrorCode.MESSAGE_HEADER, HeaderSubcode.BAD_MESSAGE_LENGTH
            )
        afi, _reserved, safi = struct.unpack("!HBB", body)
        return cls(afi=afi, safi=safi)


@dataclass(frozen=True)
class UpdateMessage:
    """An UPDATE: withdrawals and/or one attribute set with its NLRI.

    ``nlri`` and ``withdrawn`` carry ``(prefix, path_id)`` pairs; path ids
    are only encoded when the session negotiated ADD-PATH.
    """

    attributes: Optional[PathAttributes] = None
    nlri: tuple[tuple[IPv4Prefix, Optional[int]], ...] = ()
    withdrawn: tuple[tuple[IPv4Prefix, Optional[int]], ...] = ()

    @classmethod
    def announce(cls, routes: Sequence[Route]) -> "UpdateMessage":
        """Build an UPDATE for routes sharing one attribute set."""
        if not routes:
            raise ValueError("announce() needs at least one route")
        attrs = routes[0].attributes
        # Identity first: routes of one group usually share one object.
        if any(
            route.attributes is not attrs and route.attributes != attrs
            for route in routes
        ):
            raise ValueError("routes in one UPDATE must share attributes")
        return cls(
            attributes=attrs,
            nlri=tuple((route.prefix, route.path_id) for route in routes),
        )

    @classmethod
    def withdraw(cls, routes: Sequence[Route]) -> "UpdateMessage":
        return cls(
            withdrawn=tuple((route.prefix, route.path_id) for route in routes)
        )

    @classmethod
    def end_of_rib(cls) -> "UpdateMessage":
        """The End-of-RIB marker (RFC 4724 §2): an empty UPDATE."""
        return cls()

    @property
    def is_end_of_rib(self) -> bool:
        return (
            self.attributes is None and not self.nlri and not self.withdrawn
        )

    def routes(self) -> list[Route]:
        """Expand announced NLRI back into Route objects."""
        if self.attributes is None:
            return []
        return [
            Route(prefix=prefix, attributes=self.attributes, path_id=path_id)
            for prefix, path_id in self.nlri
        ]

    # -- wire format ------------------------------------------------------

    def encode(self, addpath: bool = False) -> bytes:
        """Encode to wire bytes; memoized per (message, addpath).

        The vBGP fan-out and backbone export (:func:`pack_updates`) and
        the experiment export hand the *same* UpdateMessage object to
        every session that should get it, so the bytes are computed once.
        The cache lives in the (frozen) instance's ``__dict__`` so it is
        garbage-collected with the message and invisible to
        ``__eq__``/``__hash__``.  Over ``MAX_MESSAGE_SIZE`` it raises.
        """
        cached = self.__dict__.get("_wire_cache")
        if cached is not None:
            wire = cached.get(addpath)
            if wire is not None:
                return wire
        wire = self._encode_into_buffer(addpath)
        if cached is None:
            cached = {}
            object.__setattr__(self, "_wire_cache", cached)
        cached[addpath] = wire
        return wire

    def _encode_into_buffer(self, addpath: bool) -> bytes:
        """Zero-copy batch encode (DESIGN.md §6g).

        Writes marker, header and both NLRI runs into one reusable
        module-level ``bytearray``, then patches the three length fields
        in place — no per-prefix ``bytes`` concatenation and no final
        body join.  The buffer's lifecycle is strictly within this call:
        it is reset on entry, and only an immutable ``bytes`` snapshot
        escapes, so re-entrancy aside (the encoder never recurses) the
        shared buffer is safe.
        """
        buf = _ENCODE_BUFFER
        del buf[:]
        buf += MARKER
        buf += b"\x00\x00"          # total length, patched below
        buf.append(MSG_UPDATE)
        buf += b"\x00\x00"          # withdrawn-routes length, patched below
        _extend_nlri_run(buf, self.withdrawn, addpath)
        struct.pack_into("!H", buf, HEADER_SIZE, len(buf) - HEADER_SIZE - 2)
        attrs = _encode_attributes(self.attributes) if self.nlri else b""
        buf += struct.pack("!H", len(attrs))
        buf += attrs
        _extend_nlri_run(buf, self.nlri, addpath)
        length = len(buf)
        if length > MAX_MESSAGE_SIZE:
            raise NotificationError(
                ErrorCode.MESSAGE_HEADER, HeaderSubcode.BAD_MESSAGE_LENGTH,
                message=f"message too large: {length}",
            )
        struct.pack_into("!H", buf, 16, length)
        return bytes(buf)

    @classmethod
    def decode(cls, body: bytes, addpath: bool = False) -> "UpdateMessage":
        if len(body) < 4:
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE, UpdateSubcode.MALFORMED_ATTRIBUTE_LIST
            )
        (withdrawn_len,) = struct.unpack("!H", body[:2])
        offset = 2
        withdrawn = _decode_nlri_block(
            body[offset:offset + withdrawn_len], addpath
        )
        offset += withdrawn_len
        if offset + 2 > len(body):
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE, UpdateSubcode.MALFORMED_ATTRIBUTE_LIST
            )
        (attrs_len,) = struct.unpack("!H", body[offset:offset + 2])
        offset += 2
        if offset + attrs_len > len(body):
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE, UpdateSubcode.MALFORMED_ATTRIBUTE_LIST
            )
        attrs_data = body[offset:offset + attrs_len]
        offset += attrs_len
        nlri = _decode_nlri_block(body[offset:], addpath)
        attributes = _decode_attributes(attrs_data) if attrs_data else None
        if nlri and attributes is None:
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE,
                UpdateSubcode.MISSING_WELLKNOWN_ATTRIBUTE,
            )
        if nlri and attributes is not None and attributes.next_hop is None:
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE,
                UpdateSubcode.MISSING_WELLKNOWN_ATTRIBUTE,
                data=bytes([ATTR_NEXT_HOP]),
            )
        return cls(
            attributes=attributes,
            nlri=tuple(nlri),
            withdrawn=tuple(withdrawn),
        )


BgpMessage = Union[OpenMessage, UpdateMessage, NotificationMessage,
                   KeepaliveMessage, RouteRefreshMessage]


# ---------------------------------------------------------------------------
# UPDATE packing
# ---------------------------------------------------------------------------


def group_by_attributes(routes: Iterable[Route]) -> dict:
    """Group routes by their (hashable) attribute set, preserving order."""
    groups: dict[PathAttributes, list[Route]] = {}
    for route in routes:
        groups.setdefault(route.attributes, []).append(route)
    return groups


def pack_updates(withdrawn: Sequence, groups: Iterable[tuple],
                 addpath: bool) -> list[UpdateMessage]:
    """The UPDATEs carrying the ``(prefix, path_id)`` pairs ``withdrawn``
    and then each ``(attributes, nlri)`` group, in order, none over
    ``MAX_MESSAGE_SIZE``.  A chunk holds as many NLRI as fit beside the
    attribute block and the two length fields at the worst case of 5
    bytes each, 9 with a path id (``addpath``: the session's
    ``addpath_active``)."""
    updates = []
    for attributes, nlri in ((None, withdrawn), *groups):
        room = (MAX_MESSAGE_SIZE - HEADER_SIZE - 4
                - len(_encode_attributes(attributes)))
        limit = max(1, room // (9 if addpath else 5))
        for start in range(0, len(nlri), limit):
            chunk = tuple(nlri[start:start + limit])
            updates.append(UpdateMessage(withdrawn=chunk) if attributes is None
                           else UpdateMessage(attributes, chunk))
    return updates


# ---------------------------------------------------------------------------
# NLRI helpers
# ---------------------------------------------------------------------------


# Memoized per-prefix NLRI bytes (length octet + truncated network).  The
# same prefixes churn over and over (flaps), and the encoding is pure.
_NLRI_WIRE_CACHE: dict[IPv4Prefix, bytes] = {}
_NLRI_WIRE_CACHE_CAP = 65536


def _prefix_wire(prefix: IPv4Prefix) -> bytes:
    nbytes = (prefix.length + 7) // 8
    return bytes([prefix.length]) + prefix.network.packed()[:nbytes]


# The reusable zero-copy encode buffer.  One module-level bytearray, reset
# at the start of each UPDATE encode; see
# UpdateMessage._encode_into_buffer for the lifecycle argument.
_ENCODE_BUFFER = bytearray()


def _extend_nlri_run(buf: bytearray,
                     pairs: Sequence[tuple[IPv4Prefix, Optional[int]]],
                     addpath: bool) -> None:
    """Append an NLRI run in place, prefix bytes from ``_NLRI_WIRE_CACHE``."""
    for prefix, path_id in pairs:
        if addpath:
            buf += struct.pack("!I", path_id or 0)
        wire = _NLRI_WIRE_CACHE.get(prefix)
        if wire is None:
            if len(_NLRI_WIRE_CACHE) >= _NLRI_WIRE_CACHE_CAP:
                _NLRI_WIRE_CACHE.clear()
            wire = _prefix_wire(prefix)
            _NLRI_WIRE_CACHE[prefix] = wire
        buf += wire


def _decode_nlri_block(
    data: bytes, addpath: bool
) -> list[tuple[IPv4Prefix, Optional[int]]]:
    result: list[tuple[IPv4Prefix, Optional[int]]] = []
    offset = 0
    while offset < len(data):
        path_id: Optional[int] = None
        if addpath:
            if offset + 4 > len(data):
                raise NotificationError(
                    ErrorCode.UPDATE_MESSAGE,
                    UpdateSubcode.INVALID_NETWORK_FIELD,
                )
            (path_id,) = struct.unpack_from("!I", data, offset)
            offset += 4
        if offset >= len(data):
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE, UpdateSubcode.INVALID_NETWORK_FIELD
            )
        length = data[offset]
        offset += 1
        if length > 32:
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE, UpdateSubcode.INVALID_NETWORK_FIELD
            )
        nbytes = (length + 7) // 8
        if offset + nbytes > len(data):
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE, UpdateSubcode.INVALID_NETWORK_FIELD
            )
        raw = data[offset:offset + nbytes] + b"\x00" * (4 - nbytes)
        offset += nbytes
        value = int.from_bytes(raw, "big")
        mask = ((1 << length) - 1) << (32 - length) if length else 0
        if value & ~mask & 0xFFFFFFFF:
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE, UpdateSubcode.INVALID_NETWORK_FIELD
            )
        result.append((IPv4Prefix(IPv4Address(value), length), path_id))
    return result


# ---------------------------------------------------------------------------
# Attribute encode/decode
# ---------------------------------------------------------------------------


def _attr(flags: int, type_code: int, value: bytes) -> bytes:
    if len(value) > 255:
        return struct.pack("!BBH", flags | FLAG_EXTENDED, type_code,
                           len(value)) + value
    return struct.pack("!BBB", flags, type_code, len(value)) + value


def _encode_attributes(attributes: Optional[PathAttributes]) -> bytes:
    """Canonical attribute-block bytes.

    The bytes are memoized on the (frozen) value itself, beside its
    cached hash and next-hop rewrites: fan-out to E experiments shares one
    rewritten object per next hop, so each set is encoded once instead of
    E times, and the memo dies with the value.
    """
    if attributes is None:
        return b""
    wire = attributes.__dict__.get("_wire")
    if wire is None:
        wire = _encode_attributes_uncached(attributes)
        object.__setattr__(attributes, "_wire", wire)
    return wire


def _encode_attributes_uncached(attributes: PathAttributes) -> bytes:
    parts = [_attr(FLAG_TRANSITIVE, ATTR_ORIGIN, bytes([attributes.origin]))]
    path_parts = []
    for segment in attributes.as_path.segments:
        path_parts.append(
            struct.pack("!BB", segment.kind, len(segment.asns))
        )
        path_parts.append(
            struct.pack(f"!{len(segment.asns)}I", *segment.asns)
        )
    parts.append(_attr(FLAG_TRANSITIVE, ATTR_AS_PATH, b"".join(path_parts)))
    if attributes.next_hop is not None:
        parts.append(_attr(
            FLAG_TRANSITIVE, ATTR_NEXT_HOP, attributes.next_hop.packed()
        ))
    if attributes.med is not None:
        parts.append(_attr(
            FLAG_OPTIONAL, ATTR_MED, struct.pack("!I", attributes.med)
        ))
    if attributes.local_pref is not None:
        parts.append(_attr(
            FLAG_TRANSITIVE, ATTR_LOCAL_PREF,
            struct.pack("!I", attributes.local_pref),
        ))
    if attributes.atomic_aggregate:
        parts.append(_attr(FLAG_TRANSITIVE, ATTR_ATOMIC_AGGREGATE, b""))
    if attributes.aggregator is not None:
        asn, address = attributes.aggregator
        parts.append(_attr(
            FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_AGGREGATOR,
            struct.pack("!I", asn) + address.packed(),
        ))
    if attributes.communities:
        value = b"".join(
            struct.pack("!I", community.packed())
            for community in sorted(
                attributes.communities, key=lambda c: (c.asn, c.value)
            )
        )
        parts.append(
            _attr(FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_COMMUNITIES, value)
        )
    if attributes.large_communities:
        value = b"".join(
            struct.pack("!III", lc.global_admin, lc.local1, lc.local2)
            for lc in sorted(
                attributes.large_communities,
                key=lambda c: (c.global_admin, c.local1, c.local2),
            )
        )
        parts.append(_attr(
            FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_LARGE_COMMUNITIES, value
        ))
    for unknown in attributes.unknown:
        flags = unknown.flags
        if unknown.is_optional and unknown.is_transitive:
            flags |= FLAG_PARTIAL
        parts.append(
            _attr(flags & ~FLAG_EXTENDED, unknown.type_code, unknown.value)
        )
    return b"".join(parts)


# The attribute flyweight: every decoded value keyed by the exact block
# it was parsed from, held weakly.  Churn re-announces attribute sets a
# live route already carries (Krenc et al.), so most blocks are parsed
# once; every RIB and message built from the same bytes shares one
# object (Fig. 6a memory) and its cached hash, next-hop rewrites and
# wire encoding.  An entry lives exactly as long as something holds the
# value — no cap, no eviction, nothing to clear.  Byte-different blocks
# of equal value stay distinct entries; equality never decides a hit.
_ATTRS_BY_WIRE: "weakref.WeakValueDictionary[bytes, PathAttributes]" = (
    weakref.WeakValueDictionary()
)


def _decode_attributes(data: bytes) -> PathAttributes:
    attributes = _ATTRS_BY_WIRE.get(data)
    if attributes is None:
        # Stored only after a successful parse: malformed blocks raise on
        # every arrival and never enter the table.
        attributes = _decode_attributes_uncached(data)
        _ATTRS_BY_WIRE[data] = attributes
    return attributes


def _decode_attributes_uncached(data: bytes) -> PathAttributes:
    origin = Origin.IGP
    as_path = AsPath()
    next_hop: Optional[IPv4Address] = None
    med: Optional[int] = None
    local_pref: Optional[int] = None
    atomic = False
    aggregator: Optional[tuple[int, IPv4Address]] = None
    communities: set[Community] = set()
    large_communities: set[LargeCommunity] = set()
    unknown: list[UnknownAttribute] = []
    seen: set[int] = set()
    offset = 0
    while offset < len(data):
        if offset + 2 > len(data):
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE, UpdateSubcode.MALFORMED_ATTRIBUTE_LIST
            )
        flags, type_code = struct.unpack_from("!BB", data, offset)
        offset += 2
        if flags & FLAG_EXTENDED:
            if offset + 2 > len(data):
                raise NotificationError(
                    ErrorCode.UPDATE_MESSAGE,
                    UpdateSubcode.ATTRIBUTE_LENGTH_ERROR,
                )
            (length,) = struct.unpack_from("!H", data, offset)
            offset += 2
        else:
            if offset + 1 > len(data):
                raise NotificationError(
                    ErrorCode.UPDATE_MESSAGE,
                    UpdateSubcode.ATTRIBUTE_LENGTH_ERROR,
                )
            length = data[offset]
            offset += 1
        if offset + length > len(data):
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE, UpdateSubcode.ATTRIBUTE_LENGTH_ERROR
            )
        value = data[offset:offset + length]
        offset += length
        if type_code in seen:
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE,
                UpdateSubcode.MALFORMED_ATTRIBUTE_LIST,
                message=f"duplicate attribute {type_code}",
            )
        seen.add(type_code)
        if type_code == ATTR_ORIGIN:
            # RFC 4271 §6.3: a wrong length is a length error, checked
            # before the value is judged.
            if length != 1:
                raise NotificationError(
                    ErrorCode.UPDATE_MESSAGE,
                    UpdateSubcode.ATTRIBUTE_LENGTH_ERROR,
                )
            if value[0] > 2:
                raise NotificationError(
                    ErrorCode.UPDATE_MESSAGE, UpdateSubcode.INVALID_ORIGIN
                )
            origin = Origin(value[0])
        elif type_code == ATTR_AS_PATH:
            as_path = _decode_as_path(value)
        elif type_code == ATTR_NEXT_HOP:
            if length != 4:
                raise NotificationError(
                    ErrorCode.UPDATE_MESSAGE, UpdateSubcode.INVALID_NEXT_HOP
                )
            next_hop = IPv4Address.from_packed(value)
        elif type_code == ATTR_MED:
            if length != 4:
                raise NotificationError(
                    ErrorCode.UPDATE_MESSAGE,
                    UpdateSubcode.ATTRIBUTE_LENGTH_ERROR,
                )
            (med,) = struct.unpack("!I", value)
        elif type_code == ATTR_LOCAL_PREF:
            if length != 4:
                raise NotificationError(
                    ErrorCode.UPDATE_MESSAGE,
                    UpdateSubcode.ATTRIBUTE_LENGTH_ERROR,
                )
            (local_pref,) = struct.unpack("!I", value)
        elif type_code == ATTR_ATOMIC_AGGREGATE:
            if length != 0:
                raise NotificationError(
                    ErrorCode.UPDATE_MESSAGE,
                    UpdateSubcode.ATTRIBUTE_LENGTH_ERROR,
                )
            atomic = True
        elif type_code == ATTR_AGGREGATOR:
            if length != 8:
                raise NotificationError(
                    ErrorCode.UPDATE_MESSAGE,
                    UpdateSubcode.ATTRIBUTE_LENGTH_ERROR,
                )
            asn, address = struct.unpack("!I4s", value)
            aggregator = (asn, IPv4Address.from_packed(address))
        elif type_code == ATTR_COMMUNITIES:
            if length % 4:
                raise NotificationError(
                    ErrorCode.UPDATE_MESSAGE,
                    UpdateSubcode.OPTIONAL_ATTRIBUTE_ERROR,
                )
            for i in range(0, length, 4):
                (packed,) = struct.unpack_from("!I", value, i)
                communities.add(Community.from_packed(packed))
        elif type_code == ATTR_LARGE_COMMUNITIES:
            if length % 12:
                raise NotificationError(
                    ErrorCode.UPDATE_MESSAGE,
                    UpdateSubcode.OPTIONAL_ATTRIBUTE_ERROR,
                )
            for i in range(0, length, 12):
                g, l1, l2 = struct.unpack_from("!III", value, i)
                large_communities.add(LargeCommunity(g, l1, l2))
        else:
            if not flags & FLAG_OPTIONAL:
                raise NotificationError(
                    ErrorCode.UPDATE_MESSAGE,
                    UpdateSubcode.UNRECOGNIZED_WELLKNOWN_ATTRIBUTE,
                    data=bytes([type_code]),
                )
            unknown.append(
                UnknownAttribute(type_code=type_code, flags=flags, value=value)
            )
    return PathAttributes(
        origin=origin,
        as_path=as_path,
        next_hop=next_hop,
        med=med,
        local_pref=local_pref,
        atomic_aggregate=atomic,
        aggregator=aggregator,
        communities=frozenset(communities),
        large_communities=frozenset(large_communities),
        unknown=tuple(unknown),
    )


def _decode_as_path(value: bytes) -> AsPath:
    segments: list[AsPathSegment] = []
    offset = 0
    while offset < len(value):
        if offset + 2 > len(value):
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE, UpdateSubcode.MALFORMED_AS_PATH
            )
        kind, count = struct.unpack_from("!BB", value, offset)
        offset += 2
        if kind not in (SegmentType.AS_SET, SegmentType.AS_SEQUENCE):
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE, UpdateSubcode.MALFORMED_AS_PATH
            )
        if offset + 4 * count > len(value) or count == 0:
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE, UpdateSubcode.MALFORMED_AS_PATH
            )
        asns = struct.unpack_from(f"!{count}I", value, offset)
        offset += 4 * count
        try:
            segments.append(AsPathSegment(SegmentType(kind), tuple(asns)))
        except ValueError as exc:
            raise NotificationError(
                ErrorCode.UPDATE_MESSAGE, UpdateSubcode.MALFORMED_AS_PATH,
                message=str(exc),
            ) from exc
    return AsPath(tuple(segments))


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def _wrap(msg_type: int, body: bytes) -> bytes:
    length = HEADER_SIZE + len(body)
    if length > MAX_MESSAGE_SIZE:
        raise NotificationError(
            ErrorCode.MESSAGE_HEADER, HeaderSubcode.BAD_MESSAGE_LENGTH,
            message=f"message too large: {length}",
        )
    return MARKER + struct.pack("!HB", length, msg_type) + body


class MessageDecoder:
    """Incremental framing decoder for a BGP byte stream.

    ``addpath`` must be toggled once the OPEN exchange negotiates the
    capability, since it changes UPDATE NLRI parsing.
    """

    def __init__(self) -> None:
        self._buffer = b""
        self._offset = 0  # read position; feed() drops what is consumed
        self.addpath = False

    def feed(self, data: bytes) -> None:
        rest = self._buffer[self._offset:]
        self._buffer = rest + data if rest else data
        self._offset = 0

    def __iter__(self) -> Iterator[BgpMessage]:
        return self

    def __next__(self) -> BgpMessage:
        message = self.next_message()
        if message is None:
            raise StopIteration
        return message

    def next_message(self) -> Optional[BgpMessage]:
        buffer, offset = self._buffer, self._offset
        if len(buffer) - offset < HEADER_SIZE:
            return None
        if not buffer.startswith(MARKER, offset):
            raise NotificationError(
                ErrorCode.MESSAGE_HEADER,
                HeaderSubcode.CONNECTION_NOT_SYNCHRONIZED,
            )
        length, msg_type = struct.unpack_from("!HB", buffer, offset + 16)
        if not HEADER_SIZE <= length <= MAX_MESSAGE_SIZE:
            raise NotificationError(
                ErrorCode.MESSAGE_HEADER, HeaderSubcode.BAD_MESSAGE_LENGTH,
                data=struct.pack("!H", length),
            )
        if len(buffer) - offset < length:
            return None
        body = buffer[offset + HEADER_SIZE:offset + length]
        self._offset = offset + length
        if msg_type == MSG_OPEN:
            return OpenMessage.decode(body)
        if msg_type == MSG_UPDATE:
            return UpdateMessage.decode(body, addpath=self.addpath)
        if msg_type == MSG_NOTIFICATION:
            return NotificationMessage.decode(body)
        if msg_type == MSG_KEEPALIVE:
            if body:
                raise NotificationError(
                    ErrorCode.MESSAGE_HEADER, HeaderSubcode.BAD_MESSAGE_LENGTH
                )
            return KeepaliveMessage()
        if msg_type == MSG_ROUTE_REFRESH:
            return RouteRefreshMessage.decode(body)
        raise NotificationError(
            ErrorCode.MESSAGE_HEADER, HeaderSubcode.BAD_MESSAGE_TYPE,
            data=bytes([msg_type]),
        )
