"""The per-neighbor experiment export, kept as the test reference.

Until the export compile (DESIGN.md §3.2.1) ``VbgpNode`` ran this body
once per target neighbor: five chained rewrites, a fresh
``UpdateMessage`` and an encode for every session, and the dry-run
predictor rebuilt its entry inside the same loop.  The live code now
does each once per route; these functions are what its wire bytes and
its predicted export sets are compared against.  They only compute —
nothing here sends or mutates.
"""

from __future__ import annotations

from typing import Optional

from repro.bgp.attributes import Route
from repro.bgp.messages import UpdateMessage
from repro.vbgp.communities import (
    ANNOUNCE_ASN,
    select_targets,
    strip_control,
)


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


def reference_export_state(evaluator) -> dict:
    """``DryRunEvaluator.export_state`` with ``_entry`` built per
    neighbor, as it was."""
    state = evaluator.announcement_state()
    exports: dict = {}
    for pop_name in sorted(state):
        node = evaluator.platform.pops[pop_name].node
        candidates = [
            (n.virtual.global_id, node.pop_id)
            for n in node.upstreams.values()
        ]
        live = [
            (name, node.upstreams[name]) for name in sorted(node.upstreams)
            if node.upstreams[name].session is not None
            and node.upstreams[name].session.established
        ]
        for name, _neighbor in live:
            exports.setdefault(f"{pop_name}/{name}", {})
        for exp_name in sorted(state[pop_name]):
            announced = state[pop_name][exp_name]
            for key in sorted(announced, key=lambda k: (k[0], repr(k[1]))):
                route = announced[key]
                targets = select_targets(route, candidates)
                for name, neighbor in live:
                    if neighbor.virtual.global_id in targets:
                        entry = evaluator._entry(node, route)
                        exports[f"{pop_name}/{name}"][entry.prefix] = entry
        for origin_name in sorted(state):
            if origin_name == pop_name:
                continue
            origin = evaluator.platform.pops[origin_name]
            for route in evaluator._carried_routes(
                origin.node, node, state[origin_name], set(), origin_name,
            ):
                if not any(c.asn == ANNOUNCE_ASN for c in route.communities):
                    continue
                targets = select_targets(route, candidates)
                for name, neighbor in live:
                    if neighbor.virtual.global_id in targets:
                        entry = evaluator._entry(node, route)
                        exports[f"{pop_name}/{name}"].setdefault(
                            entry.prefix, entry
                        )
    return exports
