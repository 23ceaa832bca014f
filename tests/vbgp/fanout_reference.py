"""The per-experiment fan-out, kept as the test reference.

Until the fan-out compile (DESIGN.md §6b) ``VbgpNode._fanout`` ran once
per experiment: ADD-PATH ids came from a counter on each
``ExperimentAttachment``, so every experiment got its own ``Route`` list,
its own ``UpdateMessage`` and its own encode for messages that differed
only in that id.  The live code numbers a path once per node and builds
each message once; ``install`` puts the old body back on one node so a
reference world can be driven beside the live one and their wire compared.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.bgp.attributes import PathAttributes, Route
from repro.bgp.messages import (
    HEADER_SIZE,
    MAX_MESSAGE_SIZE,
    UpdateMessage,
    _encode_attributes_uncached,
)
from repro.vbgp.node import _EMPTY_ATTRS

# The node's own chunking helpers as they were when ``_fanout`` still
# hand-rolled its packing.  An ADD-PATH IPv4 NLRI is at most 4 (path id)
# + 1 (length) + 4 (prefix) bytes; a withdrawal-only UPDATE has 4 bytes
# of fixed body overhead.
_NLRI_MAX_BYTES = 9
_MAX_WITHDRAW_PER_UPDATE = (
    (MAX_MESSAGE_SIZE - HEADER_SIZE - 4) // _NLRI_MAX_BYTES
)


def _max_nlri_per_update(attributes: PathAttributes) -> int:
    """How many NLRI fit in one UPDATE carrying ``attributes``."""
    budget = (
        MAX_MESSAGE_SIZE - HEADER_SIZE - 4
        - len(_encode_attributes_uncached(attributes))
    )
    return max(1, budget // _NLRI_MAX_BYTES)


def _chunk_routes(routes: list, size: int) -> Iterator[list]:
    for start in range(0, len(routes), size):
        yield routes[start:start + size]


def _group_by_attributes(
    routes: Iterable[Route],
) -> dict[PathAttributes, list[Route]]:
    """Group routes by their (hashable) attribute set, preserving order."""
    groups: dict[PathAttributes, list[Route]] = {}
    for route in routes:
        groups.setdefault(route.attributes, []).append(route)
    return groups


class ReferenceFanout:
    """The old ``_fanout`` plus the per-experiment id maps and counters
    it used."""

    def __init__(self, node) -> None:
        self.node = node
        self.next_path_id: dict[str, int] = {}
        # experiment name -> {(gid, prefix, source path id) -> path id}
        self.path_ids: dict[str, dict] = {}

    def path_id_for(self, exp, gid, prefix, source_id) -> int:
        ids = self.path_ids.setdefault(exp.name, {})
        path_id = ids.get((gid, prefix, source_id))
        if path_id is None:
            path_id = self.next_path_id.get(exp.name, 1)
            ids[(gid, prefix, source_id)] = path_id
            self.next_path_id[exp.name] = path_id + 1
        return path_id

    def __call__(self, experiments, gid, local_vip, announced,
                 removed) -> None:
        for exp in experiments:
            self.fanout_one(exp, gid, local_vip, announced, removed)

    def send(self, session, message) -> None:
        session.send_update(message)
        self.node.counters["updates_to_experiments"] += 1

    def fanout_one(self, exp, gid, local_vip, announced, removed) -> None:
        if exp.session is None or not exp.session.established:
            return
        withdrawals = []
        ids = self.path_ids.get(exp.name, {})
        for prefix, source_id in removed:
            path_id = ids.pop((gid, prefix, source_id), None)
            if path_id is not None:
                withdrawals.append(
                    Route(prefix=prefix, attributes=_EMPTY_ATTRS,
                          path_id=path_id)
                )
        for chunk in _chunk_routes(withdrawals, _MAX_WITHDRAW_PER_UPDATE):
            self.send(exp.session, UpdateMessage.withdraw(chunk))
        if not announced:
            return
        for attrs, group in _group_by_attributes(announced).items():
            rewritten_attrs = attrs.with_next_hop(local_vip)
            batch = [
                Route(
                    prefix=route.prefix,
                    attributes=rewritten_attrs,
                    path_id=self.path_id_for(exp, gid, route.prefix,
                                             route.path_id),
                )
                for route in group
            ]
            limit = _max_nlri_per_update(rewritten_attrs)
            for chunk in _chunk_routes(batch, limit):
                self.send(exp.session, UpdateMessage.announce(chunk))


def install(node) -> ReferenceFanout:
    """Make ``node`` fan out the old way (per experiment, own ids)."""
    reference = ReferenceFanout(node)
    node._fanout = reference
    return reference
