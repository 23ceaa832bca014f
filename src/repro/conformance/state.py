"""Canonical world state: one definition of "same state" (DESIGN.md §6e).

The LPM differential and wire pin, the fleet's two legs, the intent
controller's revert check and chaos / fleet-crash convergence all read
state through this module.  Values are sorted lists and tuples of
primitives, so equal worlds have equal ``repr`` whatever order their
dicts were filled in.  :func:`pop_view` rows are the formats
``tests/conformance/test_wire_pin.py`` freezes; :func:`paths` is the one
projection without ADD-PATH ids, which are receiver-local handles that
may be reallocated across a fault while the paths themselves may not
change.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.bgp.attributes import PathAttributes, Route
from repro.bgp.messages import (
    HEADER_SIZE,
    MSG_UPDATE,
    MessageDecoder,
    UpdateMessage,
)

__all__ = [
    "PopView",
    "WireTap",
    "attr_fingerprint",
    "changes_from_frames",
    "paths",
    "pop_view",
    "route_fingerprint",
    "speaker_paths",
    "speaker_view",
]


def attr_fingerprint(attributes: Optional[PathAttributes]) -> tuple:
    if attributes is None:
        return ()
    aggregator = attributes.aggregator
    return (
        attributes.origin.value,
        tuple(
            (segment.kind.value, segment.asns)
            for segment in attributes.as_path.segments
        ),
        str(attributes.next_hop),
        attributes.med,
        attributes.local_pref,
        attributes.atomic_aggregate,
        None if aggregator is None else (aggregator[0], str(aggregator[1])),
        tuple(sorted(
            (c.asn, c.value) for c in attributes.communities
        )),
        tuple(sorted(
            (c.global_admin, c.local1, c.local2)
            for c in attributes.large_communities
        )),
        tuple(sorted(
            (u.type_code, u.flags, u.value) for u in attributes.unknown
        )),
    )


def route_fingerprint(route: Route) -> tuple:
    return (
        str(route.prefix),
        route.path_id,
        attr_fingerprint(route.attributes),
    )


def changes_from_frames(frames: List[bytes], addpath: bool) -> List[tuple]:
    """Decode captured UPDATE frames into a canonical change stream."""
    changes: List[tuple] = []
    decoder = MessageDecoder()
    decoder.addpath = addpath
    for frame in frames:
        decoder.feed(frame)
        message = decoder.next_message()
        assert isinstance(message, UpdateMessage)
        for prefix, path_id in message.withdrawn:
            changes.append(("W", str(prefix), path_id))
        for route in message.routes():
            changes.append(("A",) + route_fingerprint(route))
    return changes


def speaker_view(speaker) -> list:
    """A :class:`~repro.bgp.speaker.BgpSpeaker`'s Loc-RIB, canonical."""
    rib = speaker.loc_rib
    snapshot = []
    for prefix in sorted(rib.prefixes(), key=str):
        best = rib.best(prefix)
        candidates = sorted(
            (entry.peer, route_fingerprint(entry.route))
            for entry in rib.candidates(prefix)
        )
        snapshot.append((
            str(prefix),
            None if best is None else route_fingerprint(best.route),
            candidates,
        ))
    return snapshot


def paths(routes: Iterable[Route]) -> tuple:
    """``routes`` as a sorted multiset of ``(prefix, attr_fingerprint)``.

    Sorted by ``repr``: two paths for one prefix may differ first in a
    field that is ``None`` in one of them (MED, LOCAL_PREF).
    """
    return tuple(sorted(
        ((str(route.prefix), attr_fingerprint(route.attributes))
         for route in routes),
        key=repr,
    ))


def speaker_paths(speaker) -> tuple:
    """:func:`paths` of every candidate in a speaker's Loc-RIB."""
    rib = speaker.loc_rib
    return paths(
        entry.route
        for prefix in rib.prefixes()
        for entry in rib.candidates(prefix)
    )


class PopView(NamedTuple):
    """One PoP's canonical §5 state (DESIGN.md §6e); see :func:`pop_view`."""

    upstreams: Dict[str, list]  # name -> Adj-RIB-In rows
    remotes: Dict[int, tuple]  # gid -> backbone-learned paths
    experiments: Dict[str, list]  # name -> announced route fingerprints
    remote_exp: tuple  # backbone-learned experiment paths
    kernel: Dict[int, list]  # table id -> kernel rows


def _rib_rows(rib) -> list:
    return sorted(
        (str(prefix), source_id, attr_fingerprint(attributes))
        for prefix, source_id, attributes in rib.paths()
    )


def pop_view(pop) -> PopView:
    """Canonical state of ``pop`` (anything with ``.node`` and ``.stack``).

    Upstream Adj-RIB-In rows are ``(prefix, source_id, attr_fingerprint)``
    with the raw source id: ``None``, or the upstream's own ADD-PATH id.
    Backbone-learned state is :func:`paths`, without ids: a mesh id is the
    sending PoP's name for a path, allocated in the order it first sent
    it, so a withdrawn and re-announced path comes back under a new one.
    Kernel rows are ``(prefix, next_hop, out_iface)``.  Counters are
    history, not state, and stay out.  Mappings are filled in sorted key
    order, so their ``repr`` is as canonical as their equality.
    """
    node = pop.node
    tables = pop.stack.tables
    return PopView(
        upstreams={
            name: _rib_rows(node.upstreams[name].rib)
            for name in sorted(node.upstreams)
        },
        remotes={
            gid: paths(node.remote_neighbors[gid].rib.routes())
            for gid in sorted(node.remote_neighbors)
        },
        experiments={
            name: sorted(
                route_fingerprint(route)
                for route in node.experiments[name].announced.values()
            )
            for name in sorted(node.experiments)
        },
        remote_exp=paths(node.remote_exp_routes.values()),
        kernel={
            table_id: sorted(
                (str(entry.prefix), str(entry.value.next_hop),
                 entry.value.out_iface)
                for entry in tables[table_id].entries()
            )
            for table_id in sorted(tables)
        },
    )


class WireTap:
    """Records the UPDATE frames delivered to one channel endpoint.

    Wraps ``channel.on_data`` *after* the receiving session attached, so
    the session still sees every byte; the tap reframes the stream
    itself (chunks may split frames) and keeps only type-2 messages.
    """

    def __init__(self, channel) -> None:
        self.frames: List[bytes] = []
        self._buffer = bytearray()
        inner = channel.on_data

        def tapped(data: bytes) -> None:
            self._buffer.extend(data)
            self._drain()
            if inner is not None:
                inner(data)

        channel.on_data = tapped

    def _drain(self) -> None:
        while len(self._buffer) >= HEADER_SIZE:
            length = int.from_bytes(self._buffer[16:18], "big")
            if length < HEADER_SIZE or len(self._buffer) < length:
                return
            frame = bytes(self._buffer[:length])
            del self._buffer[:length]
            if frame[18] == MSG_UPDATE:
                self.frames.append(frame)
