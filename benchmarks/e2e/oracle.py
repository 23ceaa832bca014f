"""The benchmark's own model of what the PoP must emit.

Nothing here imports the program's codec or decision code: expected
outputs are derived from the *input bytes* with a small RFC 4271 / RFC
7911 wire parser, so a change that alters what reaches a sink — a lost,
duplicated, flooded or mis-rewritten frame — shows as a failed operation
and a non-zero exit, never as a faster number.

Three models, one per traffic direction:

* :class:`FanoutModel` — upstream UPDATE → one ADD-PATH copy per
  experiment with the neighbor's local virtual next hop (Figure 2a);
* :class:`ExportModel` — experiment announcement → §4.7 accept / reject /
  strip verdict, §3.2.1 whitelist/blacklist target set, platform-ASN
  prepend and PoP next hop toward each selected neighbor;
* :class:`DataplaneModel` — per packet: egress port, rewritten MACs,
  TTL−1, or drop (§3.2.2), under a changing per-neighbor route table.

Prefixes are ``(network, length)`` integer pairs throughout.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

MSG_UPDATE = 2

ATTR_ORIGIN = 1
ATTR_AS_PATH = 2
ATTR_NEXT_HOP = 3
ATTR_LOCAL_PREF = 5
ATTR_COMMUNITIES = 8

ANNOUNCE_ASN = 47065   # §3.2.1 whitelist community ASN
BLOCK_ASN = 47064      # §3.2.1 blacklist community ASN
POP_OFFSET = 10000

Prefix = tuple[int, int]


# ---------------------------------------------------------------------------
# Wire parsing (UPDATE only)
# ---------------------------------------------------------------------------


def is_update(frame: bytes) -> bool:
    return frame[18] == MSG_UPDATE


def split_update(frame: bytes) -> tuple[bytes, bytes, bytes]:
    """``(withdrawn block, attribute block, NLRI block)`` of an UPDATE."""
    attrs_at = 21 + int.from_bytes(frame[19:21], "big")
    nlri_at = attrs_at + 2 + int.from_bytes(frame[attrs_at:attrs_at + 2], "big")
    return frame[21:attrs_at], frame[attrs_at + 2:nlri_at], frame[nlri_at:]


def parse_nlri(block: bytes, addpath: bool) -> list[tuple[int, Prefix]]:
    """``(path id, prefix)`` pairs; the path id is 0 without ADD-PATH."""
    out = []
    at = 0
    end = len(block)
    while at < end:
        path_id = 0
        if addpath:
            path_id = int.from_bytes(block[at:at + 4], "big")
            at += 4
        length = block[at]
        nbytes = (length + 7) >> 3
        network = int.from_bytes(block[at + 1:at + 1 + nbytes], "big")
        out.append((path_id, (network << (8 * (4 - nbytes)), length)))
        at += 1 + nbytes
    return out


def count_nlri(frame: bytes, addpath: bool) -> int:
    """Announced NLRI in one UPDATE frame, without building prefixes."""
    block = split_update(frame)[2]
    skip = 4 if addpath else 0
    at = count = 0
    end = len(block)
    while at < end:
        at += skip
        at += 1 + ((block[at] + 7) >> 3)
        count += 1
    return count


def parse_attrs(block: bytes) -> dict[int, bytes]:
    """Attribute type → value bytes."""
    out = {}
    at = 0
    end = len(block)
    while at < end:
        flags = block[at]
        kind = block[at + 1]
        if flags & 0x10:
            size = int.from_bytes(block[at + 2:at + 4], "big")
            at += 4
        else:
            size = block[at + 2]
            at += 3
        out[kind] = block[at:at + size]
        at += size
    return out


def with_next_hop(block: bytes, next_hop: bytes) -> bytes:
    """The attribute block with its NEXT_HOP value replaced."""
    at = 0
    end = len(block)
    while at < end:
        flags = block[at]
        kind = block[at + 1]
        if flags & 0x10:
            size = int.from_bytes(block[at + 2:at + 4], "big")
            at += 4
        else:
            size = block[at + 2]
            at += 3
        if kind == ATTR_NEXT_HOP:
            return block[:at] + next_hop + block[at + size:]
        at += size
    raise ValueError("attribute block carries no NEXT_HOP")


def as_path_asns(value: bytes) -> tuple[int, ...]:
    """Flattened ASNs of a 4-octet AS_PATH value."""
    asns = []
    at = 0
    while at < len(value):
        count = value[at + 1]
        at += 2
        for _ in range(count):
            asns.append(int.from_bytes(value[at:at + 4], "big"))
            at += 4
    return tuple(asns)


def community_values(value: bytes) -> frozenset[int]:
    return frozenset(
        int.from_bytes(value[at:at + 4], "big")
        for at in range(0, len(value), 4)
    )


def attrs_equal(actual: bytes, expected: bytes) -> bool:
    """Byte equality, or equality as attribute sets if only the order of
    attributes on the wire differs."""
    return actual == expected or parse_attrs(actual) == parse_attrs(expected)


# ---------------------------------------------------------------------------
# Upstream → experiments (churn_fanout, community_churn, table_ingest,
# churn_loopback, late_join's reference table)
# ---------------------------------------------------------------------------


class _SinkView:
    """What one experiment has learned from the frames it was sent."""

    __slots__ = ("ids", "routes")

    def __init__(self) -> None:
        self.ids: dict[tuple[int, Prefix], int] = {}
        self.routes: dict[int, tuple[int, Prefix, bytes]] = {}

    def apply(self, upstream: int, withdrawn: Sequence[Prefix],
              announced: Sequence[Prefix], expected_attrs: bytes,
              frames: Iterable[bytes]) -> bool:
        ok = True
        want_withdrawn = set()
        for prefix in withdrawn:
            path_id = self.ids.get((upstream, prefix))
            if path_id is not None:
                want_withdrawn.add(path_id)
        want_announced = set(announced)
        for frame in frames:
            withdrawn_block, attrs, nlri = split_update(frame)
            for path_id, prefix in parse_nlri(withdrawn_block, True):
                if path_id not in want_withdrawn:
                    ok = False
                    continue
                want_withdrawn.discard(path_id)
                known = self.routes.pop(path_id)
                if known[1] != prefix:
                    ok = False
                del self.ids[(known[0], known[1])]
            if nlri and not attrs_equal(attrs, expected_attrs):
                ok = False
            for path_id, prefix in parse_nlri(nlri, True):
                if prefix not in want_announced:
                    ok = False      # unexpected or duplicated route
                    continue
                want_announced.discard(prefix)
                known_id = self.ids.get((upstream, prefix))
                if known_id is None:
                    if path_id in self.routes:
                        ok = False  # path id already names another route
                        continue
                    self.ids[(upstream, prefix)] = path_id
                elif known_id != path_id:
                    ok = False      # implicit replace must keep its id
                    continue
                self.routes[path_id] = (upstream, prefix, attrs)
        return ok and not want_withdrawn and not want_announced

    def table(self) -> dict[tuple[int, Prefix], bytes]:
        return {
            (upstream, prefix): attrs
            for upstream, prefix, attrs in self.routes.values()
        }


class FanoutModel:
    """ADD-PATH fan-out of upstream routes to every experiment sink."""

    def __init__(self, sinks: int, vips: Sequence[bytes]) -> None:
        self.vips = list(vips)          # packed local virtual IP per upstream
        self.views = [_SinkView() for _ in range(sinks)]
        # (upstream, prefix) -> attribute block every sink must hold.
        self.announced: dict[tuple[int, Prefix], bytes] = {}
        self.routes_out = 0
        self.frames_out = 0
        self.bytes_out = 0

    def apply_input(self, upstream: int,
                    wire: bytes) -> tuple[list[Prefix], list[Prefix], bytes]:
        """Advance the input-side model by one upstream UPDATE."""
        withdrawn_block, attrs, nlri_block = split_update(wire)
        withdrawn = []
        for _, prefix in parse_nlri(withdrawn_block, False):
            if self.announced.pop((upstream, prefix), None) is not None:
                withdrawn.append(prefix)
        announced = [prefix for _, prefix in parse_nlri(nlri_block, False)]
        expected = b""
        if announced:
            expected = with_next_hop(attrs, self.vips[upstream])
            for prefix in announced:
                self.announced[(upstream, prefix)] = expected
        return withdrawn, announced, expected

    def check(self, upstream: int, wire: bytes,
              frames_by_sink: Sequence[Sequence[bytes]]) -> bool:
        """Does what the sinks received match this one input UPDATE?"""
        withdrawn, announced, expected = self.apply_input(upstream, wire)
        ok = True
        for view, frames in zip(self.views, frames_by_sink):
            ok &= view.apply(upstream, withdrawn, announced, expected, frames)
            self.frames_out += len(frames)
            self.bytes_out += sum(map(len, frames))
        self.routes_out += (len(withdrawn) + len(announced)) * len(self.views)
        return ok

    def final_mismatches(self) -> int:
        """Sinks whose decoded end state differs from the input model."""
        bad = 0
        for view in self.views:
            table = view.table()
            if table.keys() != self.announced.keys() or any(
                not attrs_equal(table[key], attrs)
                for key, attrs in self.announced.items()
            ):
                bad += 1
        return bad

    def expected_paths(self) -> dict[Prefix, set]:
        """Per prefix, the ``(next hop, AS path)`` of every path a late
        joiner must hold."""
        want: dict[Prefix, set] = {}
        for (_upstream, prefix), attrs in self.announced.items():
            parsed = parse_attrs(attrs)
            want.setdefault(prefix, set()).add(
                (parsed[ATTR_NEXT_HOP], as_path_asns(parsed[ATTR_AS_PATH]))
            )
        return want


def loc_rib_mismatches(speaker, want: dict[Prefix, set]) -> int:
    """Paths a late-joining real speaker's Loc-RIB gets wrong.

    Every expected path must be a candidate under its prefix with the
    rewritten next hop and the original AS path, and the selected best
    path must be one of the shortest-AS-path candidates (all inputs share
    origin and local-pref, so RFC 4271 §9.1.2.2 cannot prefer a longer
    one).
    """
    bad = 0
    rib = speaker.loc_rib
    seen = set()
    for prefix in list(rib.prefixes()):
        key = prefix.key()
        seen.add(key)
        have = {
            (entry.route.next_hop.packed(), entry.route.as_path.asns)
            for entry in rib.candidates(prefix)
        }
        expected = want.get(key)
        if expected is None:
            bad += len(have)
            continue
        bad += len(expected ^ have)
        best = rib.best(prefix)
        shortest = min(len(path) for _, path in expected)
        if best is None or len(best.route.as_path.asns) != shortest:
            bad += 1
    return bad + sum(
        len(paths) for key, paths in want.items() if key not in seen
    )


# ---------------------------------------------------------------------------
# Experiment → upstreams (exp_announce)
# ---------------------------------------------------------------------------


def _covers(allocation: Prefix, prefix: Prefix) -> bool:
    network, length = allocation
    return prefix[1] >= length and (
        prefix[0] >> (32 - length) == network >> (32 - length)
    )


def _normalise(attrs: dict[int, bytes]) -> tuple:
    """Order- and segmentation-insensitive view of an attribute set."""
    rest = tuple(sorted(
        (kind, value) for kind, value in attrs.items()
        if kind not in (ATTR_ORIGIN, ATTR_AS_PATH, ATTR_NEXT_HOP,
                        ATTR_COMMUNITIES)
    ))
    return (
        attrs.get(ATTR_ORIGIN),
        as_path_asns(attrs.get(ATTR_AS_PATH, b"")),
        attrs.get(ATTR_NEXT_HOP),
        community_values(attrs.get(ATTR_COMMUNITIES, b"")),
        rest,
    )


def _drop_implicit_withdraws(events: list[tuple]) -> list[tuple]:
    """A withdraw followed by an announce of the same prefix is the same
    routing statement as the announce alone (implicit replace)."""
    out = []
    for index, event in enumerate(events):
        if event[0] == "w" and any(
            later[0] == "a" and later[1] == event[1]
            for later in events[index + 1:]
        ):
            continue
        out.append(event)
    return out


class ExportModel:
    """§3.2.1 export control + §4.7 enforcement toward upstream sinks.

    No experiment in the benchmark world holds a capability, so foreign
    ASNs in the path (poisoning) are rejected and free-form communities
    are stripped; control communities select targets and never leave.
    """

    MAX_LENGTH = 24
    MAX_PATH = 32

    def __init__(self, platform_asn: int, pop_id: int, next_hop: bytes,
                 upstream_gids: Sequence[int],
                 allocations: Sequence[Prefix]) -> None:
        self.platform_asn = platform_asn
        self.pop_id = pop_id
        self.next_hop = next_hop
        self.gids = list(upstream_gids)        # sink index -> global id
        self.allocations = list(allocations)   # experiment index -> /22
        # (experiment, prefix) -> (target sink indexes, exported attrs)
        self.exported: dict[tuple[int, Prefix], tuple[frozenset, tuple]] = {}
        # sink index -> prefix -> attrs, rebuilt from the frames alone.
        self.sink_tables: list[dict[Prefix, tuple]] = [
            {} for _ in self.gids
        ]
        self.accepted = 0
        self.rejected = 0
        self.stripped = 0
        self.frames_out = 0
        self.bytes_out = 0
        self.routes_out = 0

    def verdict(self, experiment: int, prefix: Prefix,
                attrs: dict[int, bytes]) -> Optional[tuple[frozenset, tuple]]:
        """``None`` when the announcement must be rejected, else the
        target sinks and the attributes each must receive."""
        if not _covers(self.allocations[experiment], prefix):
            return None
        if prefix[1] > self.MAX_LENGTH:
            return None
        path = as_path_asns(attrs.get(ATTR_AS_PATH, b""))
        if len(path) > self.MAX_PATH:
            return None
        if any(asn != self.platform_asn for asn in path):
            return None
        whitelist_gids, whitelist_pops, blacklist = set(), set(), set()
        free_form = 0
        for community in community_values(attrs.get(ATTR_COMMUNITIES, b"")):
            asn, value = community >> 16, community & 0xFFFF
            if asn == ANNOUNCE_ASN:
                if value >= POP_OFFSET:
                    whitelist_pops.add(value - POP_OFFSET)
                else:
                    whitelist_gids.add(value)
            elif asn == BLOCK_ASN:
                blacklist.add(value)
            else:
                free_form += 1
        if free_form:
            self.stripped += 1
        restrict = bool(whitelist_gids or whitelist_pops)
        targets = frozenset(
            sink for sink, gid in enumerate(self.gids)
            if gid not in blacklist and (
                not restrict or gid in whitelist_gids
                or self.pop_id in whitelist_pops
            )
        )
        rest = tuple(sorted(
            (kind, value) for kind, value in attrs.items()
            if kind not in (ATTR_ORIGIN, ATTR_AS_PATH, ATTR_NEXT_HOP,
                            ATTR_COMMUNITIES, ATTR_LOCAL_PREF)
        ))
        exported = (
            attrs.get(ATTR_ORIGIN),
            (self.platform_asn,) + path,
            self.next_hop,
            frozenset(),
            rest,
        )
        return targets, exported

    def check(self, experiment: int, wire: bytes,
              frames_by_sink: Sequence[Sequence[bytes]]) -> bool:
        withdrawn_block, attr_block, nlri_block = split_update(wire)
        expect: list[list[tuple]] = [[] for _ in self.gids]
        for _, prefix in parse_nlri(withdrawn_block, True):
            old = self.exported.pop((experiment, prefix), None)
            if old is not None:
                for sink in old[0]:
                    expect[sink].append(("w", prefix))
        attrs = parse_attrs(attr_block)
        for _, prefix in parse_nlri(nlri_block, True):
            verdict = self.verdict(experiment, prefix, attrs)
            if verdict is None:
                self.rejected += 1
                continue
            self.accepted += 1
            old = self.exported.get((experiment, prefix))
            self.exported[(experiment, prefix)] = verdict
            if old is not None:
                for sink in old[0]:
                    expect[sink].append(("w", prefix))
            for sink in verdict[0]:
                expect[sink].append(("a", prefix, verdict[1]))
        ok = True
        for sink, frames in enumerate(frames_by_sink):
            events = []
            table = self.sink_tables[sink]
            for frame in frames:
                self.frames_out += 1
                self.bytes_out += len(frame)
                got_withdrawn, got_attrs, got_nlri = split_update(frame)
                for _, prefix in parse_nlri(got_withdrawn, False):
                    events.append(("w", prefix))
                    table.pop(prefix, None)
                if got_nlri:
                    normal = _normalise(parse_attrs(got_attrs))
                    for _, prefix in parse_nlri(got_nlri, False):
                        events.append(("a", prefix, normal))
                        table[prefix] = normal
            self.routes_out += len(events)
            if _drop_implicit_withdraws(events) != _drop_implicit_withdraws(
                expect[sink]
            ):
                ok = False
        return ok

    def final_mismatches(self) -> int:
        """Upstream sinks whose decoded table differs from the model."""
        want: list[dict[Prefix, tuple]] = [{} for _ in self.gids]
        for (_experiment, prefix), (targets, attrs) in self.exported.items():
            for sink in targets:
                want[sink][prefix] = attrs
        return sum(
            1 for have, expected in zip(self.sink_tables, want)
            if have != expected
        )


# ---------------------------------------------------------------------------
# Data plane (dataplane_mix, dataplane_churn)
# ---------------------------------------------------------------------------


class DataplaneModel:
    """Per-packet verdict under per-neighbor /24 route tables.

    ``egress`` packets leave the experiment addressed (by destination
    MAC) to one neighbor's virtual MAC: they must appear once, at that
    neighbor's port only, with the server's LAN source MAC, the
    neighbor's real MAC as destination and TTL−1 — if the neighbor's
    table holds the destination's /24 and the source address lies in the
    experiment's allocation; otherwise nowhere.  ``ingress`` packets
    arrive from a neighbor for the experiment's prefix: they must appear
    once at the tunnel port with the *neighbor's virtual MAC* as source
    (the attribution of §3.2.2) and TTL−1.
    """

    def __init__(self, allocation: Prefix, server_lan_mac: int,
                 tunnel_mac: int, tunnel_sink: int,
                 neighbor_macs: Sequence[int], neighbor_vmacs: Sequence[int],
                 neighbor_sinks: Sequence[int]) -> None:
        self.allocation = allocation
        self.server_lan_mac = server_lan_mac
        self.tunnel_mac = tunnel_mac
        self.tunnel_sink = tunnel_sink
        self.neighbor_macs = list(neighbor_macs)
        self.neighbor_vmacs = list(neighbor_vmacs)
        self.neighbor_sinks = list(neighbor_sinks)
        # Per neighbor: the /24 networks (address >> 8) it currently routes.
        self.tables: list[set[int]] = [set() for _ in neighbor_macs]
        self.forwarded = 0
        self.dropped_spoof = 0
        self.dropped_no_route = 0

    def set_route(self, neighbor: int, network24: int, present: bool) -> None:
        if present:
            self.tables[neighbor].add(network24)
        else:
            self.tables[neighbor].discard(network24)

    def expected(self, egress: bool, neighbor: int, src: int,
                 dst: int) -> Optional[tuple[int, int, int]]:
        """``(sink, source MAC, destination MAC)`` or ``None`` for drop."""
        if not egress:
            return (self.tunnel_sink, self.neighbor_vmacs[neighbor],
                    self.tunnel_mac)
        if not _covers(self.allocation, (src, 32)):
            self.dropped_spoof += 1
            return None
        if dst >> 8 not in self.tables[neighbor]:
            self.dropped_no_route += 1
            return None
        return (self.neighbor_sinks[neighbor], self.server_lan_mac,
                self.neighbor_macs[neighbor])

    def check(self, egress: bool, neighbor: int, src: int, dst: int,
              ttl: int, payload: bytes,
              arrivals: Sequence[tuple]) -> bool:
        """``arrivals`` are the ``(sink, frame, time)`` log entries this
        packet caused."""
        want = self.expected(egress, neighbor, src, dst)
        if want is None:
            return not arrivals
        if len(arrivals) != 1:
            return False        # lost, duplicated or flooded
        self.forwarded += 1
        sink, frame = arrivals[0][:2]
        packet = frame.payload
        return (
            sink == want[0]
            and frame.src.value == want[1]
            and frame.dst.value == want[2]
            and packet.ttl == ttl - 1
            and packet.src.value == src
            and packet.dst.value == dst
            and packet.payload.payload == payload
        )
