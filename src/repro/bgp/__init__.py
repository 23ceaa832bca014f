"""A from-scratch BGP-4 implementation (RFC 4271 + the extensions vBGP uses).

Includes the wire formats (OPEN/UPDATE/NOTIFICATION/KEEPALIVE with real
encode/decode), path attributes (AS_PATH with 4-octet ASNs, communities,
large communities, unknown transitive attributes), the session FSM, RIBs
(Adj-RIB-In / Loc-RIB / Adj-RIB-Out), the best-path decision process, a
route-map-style policy engine, and the extensions PEERING depends on:
ADD-PATH (RFC 7911) and community-based export control.
"""

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
    local_route,
    originate,
)
from repro.bgp.errors import BgpError, NotificationError
from repro.bgp.messages import (
    AddPathCapability,
    BgpMessage,
    Capability,
    FourOctetAsCapability,
    GracefulRestartCapability,
    KeepaliveMessage,
    MessageDecoder,
    MultiprotocolCapability,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)
from repro.bgp.decision import best_path, compare_routes
from repro.bgp.policy import (
    PolicyAction,
    PolicyResult,
    PolicyRule,
    RouteMap,
)
from repro.bgp.rib import (
    AdjRibIn,
    AdjRibOut,
    ColumnarLocRib,
    RibEntry,
)
from repro.bgp.session import BgpSession, SessionConfig, SessionState
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.supervisor import SessionSupervisor, SupervisorConfig

__all__ = [
    "AddPathCapability",
    "AdjRibIn",
    "AdjRibOut",
    "AsPath",
    "AsPathSegment",
    "BgpError",
    "BgpMessage",
    "BgpSession",
    "BgpSpeaker",
    "Capability",
    "ColumnarLocRib",
    "Community",
    "FourOctetAsCapability",
    "GracefulRestartCapability",
    "KeepaliveMessage",
    "LargeCommunity",
    "MessageDecoder",
    "MultiprotocolCapability",
    "NeighborConfig",
    "NotificationError",
    "NotificationMessage",
    "OpenMessage",
    "Origin",
    "PathAttributes",
    "PolicyAction",
    "PolicyResult",
    "PolicyRule",
    "RibEntry",
    "Route",
    "RouteMap",
    "SegmentType",
    "SessionConfig",
    "SessionState",
    "SessionSupervisor",
    "SpeakerConfig",
    "SupervisorConfig",
    "UnknownAttribute",
    "UpdateMessage",
    "best_path",
    "compare_routes",
    "local_route",
    "originate",
]
