"""The per-neighbor experiment export, kept as the test reference.

Until the export compile (DESIGN.md §3.2.1) ``VbgpNode`` ran this body
once per target neighbor: five chained rewrites, a fresh
``UpdateMessage`` and an encode for every session.  The live code now
does each once per route; these functions are what its wire bytes are
compared against.  They only compute — nothing here sends or mutates.
"""

from __future__ import annotations

from typing import Optional

from repro.bgp.attributes import Route
from repro.bgp.messages import UpdateMessage
from repro.vbgp.communities import strip_control


def reference_transform(node, route: Route) -> Route:
    """``VbgpNode.export_transform`` as five chained rewrites."""
    export = strip_control(route)
    export = export.prepended(node.platform_asn)
    export = export.with_next_hop(node._upstream_address())
    export = export.with_path_id(None)
    return export.with_attributes(local_pref=None)


def export_to_neighbor_frame(node, neighbor, route: Route) -> Optional[bytes]:
    """The old ``_export_to_neighbor`` body: the frame ``neighbor`` is
    sent for ``route``, or ``None`` while its session is down."""
    if neighbor.session is None or not neighbor.session.established:
        return None
    export = reference_transform(node, route)
    return UpdateMessage.announce([export]).encode(
        addpath=neighbor.session.addpath_active
    )
