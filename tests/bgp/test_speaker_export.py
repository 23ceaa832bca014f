"""A speaker's export step costs what the touched prefix holds.

The Adj-RIB-Out is indexed by prefix, the Loc-RIB read skips the
split-horizon peer before building entries, a prefix that nobody can be
sent or told to forget returns at once, and the decision contexts are
cached.  ``speaker_export_reference`` keeps the step it replaced.  Seeded
programs over four speakers (an iBGP pair, an ADD-PATH pair, a
transparent neighbor, import and export policy rejects, a ``max prefix``
limit, an MRAI speaker) play origination, withdrawal, re-announcement,
session loss and re-dial through both.  Every session's transmitted bytes
and every Loc-RIB at every settle point must be identical.  A count test
pins the cost itself: Adj-RIB-Out entries visited per touched prefix.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterator, Mapping

import pytest

from repro.bgp import speaker as speaker_module
from repro.bgp.attributes import Community, local_route
from repro.bgp.policy import (
    Match,
    PolicyResult,
    PolicyRule,
    PrefixMatch,
    RouteMap,
)
from repro.bgp.rib import AdjRibOut
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.transport import Channel, connect_pair
from repro.netsim.addr import IPv4Address, IPv4Prefix
from repro.sim.scheduler import Scheduler
from tests.bgp import speaker_export_reference

PROGRAMS = 40
STEPS = 14
UNIVERSE = [IPv4Prefix.parse(f"10.0.{i}.0/24") for i in range(24)]
OPS = ("originate", "burst", "withdraw", "close", "redial")
COMMUNITY_SETS = ((), (Community(65000, 1),), (Community(65000, 2),))


def reject(prefix: str) -> RouteMap:
    return RouteMap(rules=[PolicyRule(
        match=Match(prefixes=(PrefixMatch(IPv4Prefix.parse(prefix), le=24),)),
        result=PolicyResult.REJECT,
    )])


# name → (asn, router id, mrai)
SPEAKERS = {
    "s0": (100, "1.0.0.1", 0.0),
    "s1": (100, "1.0.0.2", 0.5),
    "s2": (200, "2.0.0.1", 0.0),
    "s3": (300, "3.0.0.1", 0.0),
}
# (a, b, a's config toward b, b's config toward a)
LINKS = (
    ("s0", "s1", dict(is_ibgp=True), dict(is_ibgp=True)),
    ("s0", "s2", dict(addpath=True), dict(addpath=True)),
    ("s1", "s3", dict(transparent=True, next_hop_self=False),
     dict(import_policy=reject("10.0.16.0/21"))),
    ("s2", "s3", dict(export_policy=reject("10.0.8.0/21")),
     dict(max_prefixes=10)),
)


class TapChannel(Channel):
    """A channel that logs every chunk its session sends."""

    def __init__(self, scheduler: Scheduler, log: list) -> None:
        super().__init__(scheduler, latency=0.01)
        self.log = log

    def send(self, data: bytes) -> None:
        self.log.append(bytes(data))
        super().send(data)


class World:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.scheduler = Scheduler()
        self.speakers = {
            name: BgpSpeaker(self.scheduler, SpeakerConfig(
                asn=asn, router_id=IPv4Address.parse(rid), mrai=mrai))
            for name, (asn, rid, mrai) in SPEAKERS.items()
        }
        self.tx: dict[tuple[str, str, int], list] = {}
        self.dials: Counter = Counter()
        self.channels = {}
        self.ribs: list = []
        for a, b, config_a, config_b in LINKS:
            ca, cb = self._pair(a, b)
            self._config(a, b, config_a, ca)
            self._config(b, a, config_b, cb)
        self.scheduler.run_for(1)

    def _pair(self, a: str, b: str) -> tuple[Channel, Channel]:
        dial = self.dials[a, b]
        self.dials[a, b] += 1
        ca = TapChannel(self.scheduler, self.tx.setdefault((a, b, dial), []))
        cb = TapChannel(self.scheduler, self.tx.setdefault((b, a, dial), []))
        ca.peer, cb.peer = cb, ca
        self.channels[a, b] = (ca, cb)
        return ca, cb

    def _config(self, name: str, peer: str, extra: dict, channel) -> None:
        speaker = self.speakers[name]
        speaker.attach_neighbor(NeighborConfig(
            name=peer, peer_asn=self.speakers[peer].config.asn,
            peer_address=self.speakers[peer].config.router_id,
            local_address=speaker.config.router_id, **extra,
        ), channel)

    # -- operations ----------------------------------------------------------

    def originate(self, count: int = 1) -> None:
        speaker = self.speakers[self.rng.choice(sorted(self.speakers))]
        for _ in range(count):
            route = local_route(
                self.rng.choice(UNIVERSE), next_hop=speaker.config.router_id,
                communities=self.rng.choice(COMMUNITY_SETS),
            )
            med = self.rng.choice((None, 5, 10))
            if med is not None:
                route = route.with_attributes(med=med)
            speaker.originate(route)

    def withdraw(self) -> None:
        speaker = self.speakers[self.rng.choice(sorted(self.speakers))]
        held = sorted(speaker.local_routes, key=lambda p: p.key())
        for prefix in self.rng.sample(held, min(len(held),
                                                self.rng.randint(1, 3))):
            speaker.withdraw(prefix)

    def close(self) -> None:
        a, b, _, _ = self.rng.choice(LINKS)
        session = self.speakers[a].neighbors[b].session
        if self.rng.random() < 0.5:
            session.shutdown()
        else:       # transport loss, seen first by the other end
            self.rng.choice(self.channels[a, b]).close()

    def redial(self) -> None:
        for a, b, _, _ in LINKS:
            if (self.speakers[a].neighbors[b].established
                    and self.speakers[b].neighbors[a].established):
                continue
            ca, cb = self._pair(a, b)
            self.speakers[a].reattach_neighbor(b, ca)
            self.speakers[b].reattach_neighbor(a, cb)

    def settle(self) -> None:
        self.scheduler.run_for(2.0)
        assert_path_ids_are_advertised(self)
        self.ribs.append({
            name: loc_rib_view(speaker)
            for name, speaker in self.speakers.items()
        })

    def play(self) -> "World":
        self.originate(count=6)
        self.settle()
        for _ in range(STEPS):
            op = self.rng.choice(OPS)
            if op == "burst":
                self.originate(count=self.rng.randint(2, 5))
            else:
                getattr(self, op)()
            self.settle()
        self.redial()
        self.settle()
        return self

    def wire(self) -> dict:
        return {key: b"".join(log) for key, log in self.tx.items()}


def loc_rib_view(speaker: BgpSpeaker) -> list:
    view = []
    for prefix in sorted(speaker.loc_rib.prefixes(), key=lambda p: p.key()):
        best = speaker.loc_rib.best(prefix)
        view.extend(
            (str(prefix), entry.peer, entry.path_id,
             repr(entry.route.attributes), entry == best)
            for entry in speaker.loc_rib.candidates(prefix)
        )
    return view


def play(seed: int, reference: bool = False) -> World:
    with pytest.MonkeyPatch.context() as monkeypatch:
        if reference:
            speaker_export_reference.install(monkeypatch)
        return World(seed).play()


def assert_path_ids_are_advertised(world: World) -> None:
    """Outside an MRAI window an established ADD-PATH neighbor's id map
    names exactly the paths its Adj-RIB-Out carries."""
    for speaker in world.speakers.values():
        for neighbor in speaker.neighbors.values():
            if not (neighbor.config.addpath and neighbor.established):
                continue
            advertised = sorted(
                route.path_id for route in neighbor.adj_rib_out.routes())
            assert sorted(neighbor._path_ids.values()) == advertised
            assert sorted(neighbor._path_sources) == advertised


@pytest.mark.parametrize("seed", range(PROGRAMS))
def test_export_matches_reference(seed):
    live = play(seed)
    reference = play(seed, reference=True)
    assert live.ribs == reference.ribs
    assert live.wire() == reference.wire()


def test_programs_reach_every_case(monkeypatch):
    """The programs trip the limit, re-dial, withdraw over ADD-PATH and
    pack several routes into one UPDATE."""
    seen = Counter()
    tripped = BgpSpeaker._max_prefixes_exceeded
    flush = BgpSpeaker._flush

    def count_trip(self, neighbor):
        seen["max-prefix"] += 1
        tripped(self, neighbor)

    def count_flush(self, neighbor):
        seen["withdraw"] += len(neighbor.pending_withdraw)
        if neighbor.config.addpath:
            seen["addpath-withdraw"] += len(neighbor.pending_withdraw)
        seen["multi-route"] += len(neighbor.pending_announce) > 1
        flush(self, neighbor)

    monkeypatch.setattr(BgpSpeaker, "_max_prefixes_exceeded", count_trip)
    monkeypatch.setattr(BgpSpeaker, "_flush", count_flush)
    for seed in range(PROGRAMS):
        world = World(seed).play()
        seen["redial"] += sum(world.dials.values()) - len(LINKS)
    assert min(seen[case] for case in (
        "max-prefix", "redial", "withdraw", "addpath-withdraw",
        "multi-route")) > 0, seen


# ---------------------------------------------------------------------------
# The cost as a count
# ---------------------------------------------------------------------------


class CountingAdjRibOut(AdjRibOut):
    """An Adj-RIB-Out that counts the entries an iteration visits (keyed
    lookups are O(1) probes and not counted)."""

    visits = 0

    def keys(self) -> Iterator:
        for key in super().keys():
            CountingAdjRibOut.visits += 1
            yield key

    def routes(self) -> Iterator:
        for route in super().routes():
            CountingAdjRibOut.visits += 1
            yield route

    def paths(self, prefix) -> Mapping:
        return _CountedPaths(super().paths(prefix))


class _CountedPaths(Mapping):
    def __init__(self, paths: Mapping) -> None:
        self._paths = paths

    def __getitem__(self, path_id):
        return self._paths[path_id]

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self) -> Iterator:
        for path_id in self._paths:
            CountingAdjRibOut.visits += 1
            yield path_id


def advertised_ids(neighbor, prefix) -> set:
    return {path_id for key_prefix, path_id in neighbor.adj_rib_out.keys()
            if key_prefix == prefix}


def touch_visits(table_size: int) -> list[tuple[int, int]]:
    """(visits, paths held) for 20 re-announced and 20 withdrawn prefixes
    of a hub that originates ``table_size`` /24s toward a plain and an
    ADD-PATH eBGP neighbor; the plain one originates every 4th prefix
    too, so those hold two paths toward the ADD-PATH neighbor."""
    scheduler = Scheduler()
    hub, plain, watcher = (
        BgpSpeaker(scheduler, SpeakerConfig(
            asn=asn, router_id=IPv4Address.parse(rid)))
        for asn, rid in ((1, "1.1.1.1"), (2, "2.2.2.2"), (3, "3.3.3.3"))
    )
    for peer, addpath in ((plain, False), (watcher, True)):
        ours, theirs = connect_pair(scheduler, rtt=0.02)
        hub.attach_neighbor(NeighborConfig(
            name=f"as{peer.config.asn}", peer_asn=peer.config.asn,
            local_address=hub.config.router_id, addpath=addpath), ours)
        peer.attach_neighbor(NeighborConfig(
            name="hub", peer_asn=1, local_address=peer.config.router_id,
            addpath=addpath), theirs)
    scheduler.run_for(1)
    prefixes = [
        IPv4Prefix.parse(f"10.{i // 256}.{i % 256}.0/24")
        for i in range(table_size)
    ]
    for prefix in prefixes:
        hub.originate(local_route(prefix, next_hop=hub.config.router_id))
    for prefix in prefixes[::4]:
        plain.originate(local_route(prefix, next_hop=plain.config.router_id))
    scheduler.run_for(2)
    out = []
    for index, prefix in enumerate(prefixes[:40]):
        held = sum(len(advertised_ids(neighbor, prefix))
                   for neighbor in hub.neighbors.values())
        CountingAdjRibOut.visits = 0
        if index < 20:
            hub.originate(local_route(
                prefix, next_hop=hub.config.router_id,
                communities=(Community(1, 7),)))
        else:
            hub.withdraw(prefix)
        out.append((CountingAdjRibOut.visits, held))
        scheduler.run_for(1)
    return out


def test_export_visits_only_the_touched_prefix(monkeypatch):
    monkeypatch.setattr(speaker_module, "AdjRibOut", CountingAdjRibOut)
    runs = {size: touch_visits(size) for size in (500, 1000, 2000)}
    for size, touches in runs.items():
        for visits, held in touches:
            assert visits == held, (size, touches)
    # Flat in N: the same touches visit the same entries at every size.
    assert runs[500] == runs[1000] == runs[2000]
    assert {held for _, held in runs[500]} == {2, 3}


# ---------------------------------------------------------------------------
# Outbound ADD-PATH ids
# ---------------------------------------------------------------------------


def test_withdrawn_paths_release_their_ids():
    scheduler = Scheduler()
    hub = BgpSpeaker(scheduler, SpeakerConfig(
        asn=1, router_id=IPv4Address.parse("1.1.1.1")))
    watcher = BgpSpeaker(scheduler, SpeakerConfig(
        asn=3, router_id=IPv4Address.parse("3.3.3.3")))
    ours, theirs = connect_pair(scheduler, rtt=0.02)
    hub.attach_neighbor(NeighborConfig(
        name="watcher", peer_asn=3, local_address=hub.config.router_id,
        addpath=True), ours)
    watcher.attach_neighbor(NeighborConfig(
        name="hub", peer_asn=1, local_address=watcher.config.router_id,
        addpath=True), theirs)
    scheduler.run_for(1)
    neighbor = hub.neighbors["watcher"]
    ids = []
    live = []
    for index in range(50):
        prefix = IPv4Prefix.parse(f"10.0.{index}.0/24")
        hub.originate(local_route(prefix, next_hop=hub.config.router_id))
        ids.extend(advertised_ids(neighbor, prefix))
        if index % 5:
            hub.withdraw(prefix)
        else:
            live.append(prefix)
        scheduler.run_for(0.1)
    assert len(set(ids)) == 50                 # never reused
    assert len(neighbor._path_ids) == len(live) == len(neighbor.adj_rib_out)
    assert len(neighbor._path_sources) == len(live)
    assert len(watcher.loc_rib) == len(live)
    kept = {prefix: advertised_ids(neighbor, prefix) for prefix in live}

    # Paths that go away while the session is down release their ids
    # once it is back; the survivors keep theirs.
    theirs.close()
    scheduler.run_for(1)
    assert not neighbor.established
    for prefix in live[:3]:
        hub.withdraw(prefix)
    ours, theirs = connect_pair(scheduler, rtt=0.02)
    hub.reattach_neighbor("watcher", ours)
    watcher.reattach_neighbor("hub", theirs)
    scheduler.run_for(1)
    assert neighbor.established
    assert len(neighbor._path_ids) == len(live) - 3
    assert {prefix: advertised_ids(neighbor, prefix)
            for prefix in live[3:]} == {
        prefix: kept[prefix] for prefix in live[3:]}
