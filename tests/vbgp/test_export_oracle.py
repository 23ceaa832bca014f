"""A reference choice is the oracle for what each upstream holds (§3.2.1,
§4.4).

An experiment may announce one prefix under several ADD-PATH ids, each
steered by its own whitelist/blacklist communities, at any subset of the
PoPs; an upstream holds one path per prefix, so the node has to choose.
Seeded programs on two and three PoPs drive one raw ADD-PATH experiment,
connected everywhere, through per-id announce, implicit replace and
withdraw (anycast at subsets of PoPs), and upstream transport loss with
re-dial.  After every step:

* each established upstream's decoded table is the choice written out
  below, as ``export_reference.reference_transform`` exports it: the
  PoP's own paths by path id, then the paths other PoPs carry with a
  whitelist community by (origin PoP, the origin's mesh id), and the
  first of them whose communities select the upstream;
* the node's own table agrees: ``dryrun.export_state()``, its
  ``adj_rib_out`` read through its export transform, holds the same path
  for every ``pop/neighbor``.
"""

import random
from collections import Counter

import pytest

from repro.bgp.attributes import local_route
from repro.bgp.session import BgpSession, SessionConfig
from repro.bgp.supervisor import SupervisorConfig
from repro.intent.dryrun import export_state
from repro.netsim.addr import IPv4Address
from repro.platform import PeeringPlatform, PopConfig
from repro.platform.experiment import ExperimentProposal
from repro.sim import Scheduler
from repro.vbgp.communities import (
    ANNOUNCE_ASN,
    BLOCK_ASN,
    POP_OFFSET,
    announce_to_neighbor,
    announce_to_pop,
    block_neighbor,
)
from tests.vbgp.export_reference import reference_transform
from tests.vbgp.test_export_once import PLATFORM_ASN
from tests.vbgp.test_node import ExperimentEndpoint

SEEDS = (0, 1)
STEPS = 200
PATH_IDS = (1, 2, 3, 4)
OPS = ("announce", "anycast", "replace", "withdraw", "flap")
TUNNEL_IP = IPv4Address.parse("100.125.0.2")


class Sink:
    """A raw upstream that re-dials after losing its transport; ``table``
    is what the current session's UPDATEs decode to."""

    def __init__(self, scheduler, pop, name, asn):
        self.scheduler = scheduler
        self.name = name
        self.asn = asn
        self.port = pop.provision_neighbor(
            name, asn, resilient=True,
            supervisor_config=SupervisorConfig(
                min_backoff=0.5, max_backoff=1.0, jitter=0.0,
                flap_threshold=1000, max_attempts=1000,
            ),
        )
        self.gid = self.port.global_id
        self.port.on_redial = self._connect
        self._connect(self.port.channel)

    def _connect(self, channel):
        self.table = {}
        self.session = BgpSession(
            self.scheduler,
            SessionConfig(local_asn=self.asn, local_id=self.port.address,
                          peer_asn=PLATFORM_ASN),
            channel,
            on_update=self._on_update,
        )
        self.session.start()

    def _on_update(self, _session, update):
        for prefix, _path_id in update.withdrawn:
            self.table.pop(prefix, None)
        for route in update.routes():
            self.table[route.prefix] = route.attributes

    def established(self, node):
        """Both ends of the session are up."""
        session = node.upstreams[self.name].session
        return (session is not None and session.established
                and self.session.established)


class World:
    def __init__(self, pops):
        self.scheduler = Scheduler()
        self.names = [f"e{index}" for index in range(pops)]
        self.platform = PeeringPlatform(self.scheduler, pop_configs=[
            PopConfig(name=name, pop_id=index, kind="university",
                      backbone=True)
            for index, name in enumerate(self.names)
        ])
        self.pops = self.platform.pops
        self.sinks = {
            name: [Sink(self.scheduler, self.pops[name], f"{name}-n{i}",
                        65001 + 10 * index + i)
                   for i in range(2)]
            for index, name in enumerate(self.names)
        }
        self.platform.submit_proposal(ExperimentProposal(
            name="x1", contact="t", goals="export", execution_plan="all",
            prefix_count=2,
        ))
        self.prefixes = self.platform.resources.lease_for("x1").prefixes
        self.experiments = {
            name: ExperimentEndpoint(self.scheduler, self.pops[name],
                                     prefixes=self.prefixes)
            for name in self.names
        }
        # What each PoP's experiment session announces: (prefix, id) -> route.
        self.held = {name: {} for name in self.names}
        self.settle()

    @property
    def gids(self):
        return [sink.gid for sinks in self.sinks.values() for sink in sinks]

    def settle(self):
        self.scheduler.run_for(3)

    def announce(self, pops, route):
        for name in pops:
            self.held[name][(route.prefix, route.path_id)] = route
            self.experiments[name].announce(route)

    def withdraw(self, pops, key):
        for name in pops:
            route = self.held[name].pop(key)
            self.experiments[name].withdraw(route)


def communities(world, rng):
    roll = rng.random()
    if roll < 0.25:
        chosen = []
    elif roll < 0.65:
        chosen = [announce_to_neighbor(gid)
                  for gid in rng.sample(world.gids, rng.randint(1, 3))]
    elif roll < 0.8:
        chosen = [announce_to_pop(rng.randrange(len(world.names)))]
    else:
        chosen = []
    if rng.random() < 0.3:
        chosen += [block_neighbor(gid)
                   for gid in rng.sample(world.gids, rng.randint(1, 2))]
    return chosen


def make_route(world, rng, prefix, path_id):
    route = local_route(prefix, next_hop=TUNNEL_IP).with_path_id(path_id)
    prepend = rng.randrange(3)
    if prepend:
        route = route.prepended(PLATFORM_ASN, prepend)
    return route.add_communities(*communities(world, rng))


def step(world, rng, op):
    """Apply ``op``; False when the world has nothing it applies to."""
    held = sorted(
        {key for paths in world.held.values() for key in paths},
        key=lambda key: (str(key[0]), key[1]),
    )
    if op in ("announce", "anycast"):
        prefix = rng.choice(world.prefixes)
        route = make_route(world, rng, prefix, rng.choice(PATH_IDS))
        count = 1 if op == "announce" else rng.randint(2, len(world.names))
        world.announce(rng.sample(world.names, count), route)
    elif op in ("replace", "withdraw"):
        if not held:
            return False
        key = rng.choice(held)
        pops = [name for name in world.names if key in world.held[name]]
        pops = rng.sample(pops, rng.randint(1, len(pops)))
        if op == "replace":
            world.announce(pops, make_route(world, rng, *key))
        else:
            world.withdraw(pops, key)
    elif op == "flap":
        sink = rng.choice([s for sinks in world.sinks.values() for s in sinks])
        sink.session.channel.close()
    return True


def selects(route, gid, pop_id):
    """§3.2.1: does ``route`` go to neighbor ``gid`` at PoP ``pop_id``?"""
    whitelist = {c.value for c in route.communities if c.asn == ANNOUNCE_ASN}
    blacklist = {c.value for c in route.communities if c.asn == BLOCK_ASN}
    if gid in blacklist:
        return False
    return (not whitelist or gid in whitelist
            or POP_OFFSET + pop_id in whitelist)


def reference_choice(world, name, gid):
    """``{prefix: route}``: the path upstream ``gid`` at PoP ``name``
    holds for each prefix, if any."""
    pop_id = world.names.index(name)
    chosen = {}
    for prefix in world.prefixes:
        local = sorted(
            (path_id, route)
            for (held_prefix, path_id), route in world.held[name].items()
            if held_prefix == prefix
        )
        remote = []
        for origin in world.names:
            if origin == name:
                continue
            mesh_ids = world.pops[origin].node.experiments["x1"].mesh_ids
            remote.extend(
                ((origin, mesh_ids[key]), route)
                for key, route in world.held[origin].items()
                if key[0] == prefix and any(
                    c.asn == ANNOUNCE_ASN for c in route.communities)
            )
        order = [route for _path_id, route in local]
        order += [route for _key, route in
                  sorted(remote, key=lambda item: item[0])]
        for route in order:
            if selects(route, gid, pop_id):
                chosen[prefix] = route
                break
    return chosen


def assert_upstreams_hold_the_choice(world):
    """Count the established upstreams compared and the prefixes held."""
    checked = Counter()
    exports = export_state(world.platform)
    for name in world.names:
        node = world.pops[name].node
        for peer in node.backbone_peers.values():
            assert peer.established
        for (prefix, path_id), route in world.held[name].items():
            assert node.experiments["x1"].announced[(prefix, path_id)] == (
                route)
        for sink in world.sinks[name]:
            if not sink.established(node):
                continue
            expected = {
                prefix: reference_transform(node, route)
                for prefix, route in reference_choice(
                    world, name, sink.gid).items()
            }
            assert sink.table == {
                prefix: route.attributes for prefix, route in expected.items()
            }, (name, sink.name)
            predicted = exports[f"{name}/{sink.name}"]
            assert {prefix: entry.route
                    for prefix, entry in predicted.items()} == {
                str(prefix): route for prefix, route in expected.items()
            }, (name, sink.name)
            checked["upstreams"] += 1
            checked["held"] += len(expected)
    return checked


def run_program(pops, seed):
    rng = random.Random(seed)
    world = World(pops)
    applied = Counter()
    checks = Counter()
    for _ in range(STEPS):
        op = rng.choice(OPS)
        if step(world, rng, op):
            applied[op] += 1
        world.settle()
        checks += assert_upstreams_hold_the_choice(world)
        # settle points where one PoP holds a prefix under several ids
        checks["multipath"] += any(
            len(paths) > len({prefix for prefix, _path_id in paths})
            for paths in world.held.values()
        )
    return applied, checks


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("pops", (2, 3))
def test_every_upstream_holds_the_export_choice(pops, seed):
    applied, checks = run_program(pops, seed)
    assert set(OPS) <= set(applied), applied
    # most settle points compare every upstream, many of them hold a
    # prefix, and most hold several paths for one prefix to choose from
    assert checks["upstreams"] >= STEPS * pops, checks
    assert checks["held"] >= STEPS, checks
    assert checks["multipath"] >= STEPS // 2, checks
