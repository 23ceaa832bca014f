"""The origin is the oracle for the backbone (paper §4.4).

Every mesh path carries the sending node's own ADD-PATH id, and a
receiving node keys what it learns by ``(backbone peer, id)``.  Seeded
programs on two and three PoPs prove that nothing is lost or kept too
long in that renaming: a plain Graceful-Restart upstream and an ADD-PATH
route server at different PoPs, and two experiments connected everywhere,
are driven through announce, withdraw, implicit replace, per-id ADD-PATH
withdraw, upstream transport loss with a GR flush, backbone session
shutdown and re-dial, and anycast announce and withdraw at a subset of
PoPs.  At every settle point:

* each remote PoP holds exactly the origin's Adj-RIB-In paths for each of
  its neighbors (next hops and ids aside), with one kernel route per
  prefix, and every experiment holds the node's id map;
* a PoP holds an experiment prefix in ``remote_exp_routes`` iff another
  PoP's experiment still announces it, chosen from the lowest-named
  such PoP, and its main table routes the prefix into the local tunnel,
  across the backbone, or nowhere, in that order; a mesh id is held only
  for a path still announced.
"""

import random
from collections import Counter

import pytest

from repro.bgp.attributes import Community, local_route
from repro.bgp.messages import UpdateMessage
from repro.bgp.session import BgpSession, SessionConfig
from repro.bgp.transport import connect_pair
from repro.conformance.state import paths
from repro.netsim.addr import IPv4Address
from repro.netsim.stack import MAIN_TABLE
from repro.platform import PeeringPlatform, PopConfig
from repro.platform.experiment import ExperimentProposal
from repro.sim import Scheduler
from repro.toolkit import ExperimentClient
from repro.vbgp.communities import announce_to_neighbor
from tests.vbgp.test_export_once import PLATFORM_ASN
from tests.vbgp.test_fanout_once import PREFIXES, node_view
from tests.vbgp.test_receiver_oracle import Upstream

PROGRAMS = 32
STEPS = 12
UNIVERSE = PREFIXES[:16]
NO_HOP = IPv4Address(0)
OPS = ("announce", "withdraw", "replace", "path-withdraw", "close-gr",
       "mesh-flap", "exp-announce", "exp-withdraw")


class RouteServer:
    """A raw ADD-PATH route server: paths keyed ``(prefix, path id)``,
    each with its own member next hop (RFC 7947)."""

    def __init__(self, scheduler, pop, asn=65100):
        self.asn = asn
        self.table = {}
        address, mac, _lan_port = pop.provision_lan_host("rs")
        ours, theirs = connect_pair(scheduler, rtt=0.01)
        self.neighbor = pop.node.attach_upstream(
            "rs", asn, address, mac, ours, kind="route-server",
            addpath=True,
        )
        self.session = BgpSession(
            scheduler,
            SessionConfig(local_asn=asn, local_id=address,
                          peer_asn=PLATFORM_ASN, addpath=True),
            theirs,
            on_update=lambda _session, _update: None,
        )
        self.session.start()

    def announce(self, prefix, path_id, tag):
        route = local_route(
            prefix, next_hop=IPv4Address.parse(f"10.9.0.{path_id}"),
            communities=(Community(self.asn, tag),),
        ).with_path_id(path_id)
        self.table[(prefix, path_id)] = route
        self.session.send_update(UpdateMessage.announce([route]))

    def withdraw(self, keys):
        routes = [self.table.pop(key) for key in keys]
        self.session.send_update(UpdateMessage.withdraw(routes))


class World:
    def __init__(self, pops, rng):
        self.scheduler = Scheduler()
        self.names = [f"e{index}" for index in range(pops)]
        self.platform = PeeringPlatform(self.scheduler, pop_configs=[
            PopConfig(name=name, pop_id=index, kind="university",
                      backbone=True)
            for index, name in enumerate(self.names)
        ])
        homes = rng.sample(self.names, 2)
        self.gr = Upstream(self.scheduler, self.platform.pops[homes[0]],
                           "gr", 65001, graceful=True)
        self.rs = RouteServer(self.scheduler, self.platform.pops[homes[1]])
        self.clients = []
        for name in ("x1", "x2"):
            self.platform.submit_proposal(ExperimentProposal(
                name=name, contact="t", goals="mesh", execution_plan="all",
            ))
            client = ExperimentClient(self.scheduler, name, self.platform)
            for pop in self.names:
                client.openvpn_up(pop)
                client.bird_start(pop)
            self.clients.append(client)
        self.settle()

    @property
    def gids(self):
        return [self.gr.port.global_id, self.rs.neighbor.virtual.global_id]

    def settle(self):
        self.scheduler.run_for(8)

    def mesh_flap(self, rng):
        """Shut one mesh session down, check both ends forgot each other,
        and re-dial it."""
        a, b = rng.sample(self.names, 2)
        node_a = self.platform.pops[a].node
        node_b = self.platform.pops[b].node
        node_a.backbone_peers[b].shutdown()
        self.scheduler.run_for(2)
        for node, peer in ((node_a, b), (node_b, a)):
            assert peer not in node._mesh_gids
            for remote in node.remote_neighbors.values():
                assert remote.peer != peer or not len(remote.rib)
            assert not any(
                key[0] == peer
                for held in node.remote_exp_paths.values() for key in held
            )
        ours, theirs = connect_pair(self.scheduler, rtt=0.08)
        node_a.attach_backbone_peer(b, ours)
        node_b.attach_backbone_peer(a, theirs)


def step(world, rng, op):
    """Apply ``op``; False when the world has nothing it applies to."""
    gr, rs = world.gr, world.rs
    if op == "announce":
        fresh = [prefix for prefix in UNIVERSE if prefix not in gr.table]
        if rng.random() < 0.5 and fresh:
            gr.announce(rng.sample(fresh, min(len(fresh), 4)),
                        rng.randrange(4))
        else:
            prefix = rng.choice(UNIVERSE)
            for path_id in rng.sample(range(1, 6), rng.randint(1, 3)):
                rs.announce(prefix, path_id, rng.randrange(4))
    elif op == "withdraw":
        if rng.random() < 0.5 and gr.table:
            gr.withdraw(rng.sample(sorted(gr.table),
                                   min(len(gr.table), 3)))
        elif rs.table:
            prefix = rng.choice(sorted(rs.table))[0]
            rs.withdraw([key for key in rs.table if key[0] == prefix])
        else:
            return False
    elif op == "replace":
        if rng.random() < 0.5 and gr.table:
            gr.announce(rng.sample(sorted(gr.table),
                                   min(len(gr.table), 3)),
                        4 + rng.randrange(4))
        elif rs.table:
            prefix, path_id = rng.choice(sorted(rs.table))
            rs.announce(prefix, path_id, 4 + rng.randrange(4))
        else:
            return False
    elif op == "path-withdraw":
        shared = Counter(prefix for prefix, _path_id in rs.table)
        keys = [key for key in sorted(rs.table) if shared[key[0]] > 1]
        if not keys:
            return False
        rs.withdraw([rng.choice(keys)])
    elif op == "close-gr":
        if not gr.table:
            return False
        # The upstream comes back without some of its routes: End-of-RIB
        # flushes them as stale.
        for prefix in rng.sample(sorted(gr.table),
                                 rng.randint(1, len(gr.table))):
            del gr.table[prefix]
        gr.lose_transport()
    elif op == "mesh-flap":
        world.mesh_flap(rng)
    elif op == "exp-announce":
        client = rng.choice(world.clients)
        pops = rng.sample(world.names, rng.randint(1, len(world.names)))
        whitelist = [announce_to_neighbor(gid) for gid in world.gids
                     if rng.random() < 0.5]
        client.announce(client.profile.prefixes[0], pops=pops,
                        communities=whitelist, prepend=rng.randrange(3))
    elif op == "exp-withdraw":
        client = rng.choice(world.clients)
        prefix = client.profile.prefixes[0]
        held = [pop for pop in world.names
                if prefix in client.pops[pop].announced]
        if not held:
            return False
        client.withdraw(prefix, pops=rng.sample(held,
                                                rng.randint(1, len(held))))
    return True


def carried(routes):
    """:func:`paths` with next hops aside, as the mesh rewrites them."""
    return paths(route.with_next_hop(NO_HOP) for route in routes)


def assert_remote_pops_hold_the_origin(world):
    """Neighbor paths: count the non-empty comparisons."""
    checked = 0
    pops = world.platform.pops
    for origin in world.names:
        for neighbor in pops[origin].node.upstreams.values():
            gid = neighbor.virtual.global_id
            expected = carried(neighbor.rib.routes())
            prefixes = {str(route.prefix) for route in neighbor.rib.routes()}
            for name in world.names:
                if name == origin:
                    continue
                node = pops[name].node
                remote = node.remote_neighbors.get(gid)
                held = () if remote is None else remote.rib.routes()
                assert carried(held) == expected, (origin, name, gid)
                table = pops[name].stack.tables.get(neighbor.virtual.table_id)
                kernel = () if table is None else table.entries()
                assert {str(entry.prefix) for entry in kernel} == prefixes
                checked += bool(expected)
    for client in world.clients:
        for name in world.names:
            view = client.pops[name]
            node = pops[name].node
            assert {
                path_id: (route.prefix, route.next_hop)
                for path_id, route in view.routes.items()
            } == node_view(node), (client.name, name)
    return checked


def assert_remote_experiments_follow_the_announcers(world):
    """Experiment paths: count the remote prefixes compared."""
    checked = 0
    pops = world.platform.pops
    for client in world.clients:
        prefix = client.profile.prefixes[0]
        announcers = sorted(
            name for name in world.names
            if prefix in client.pops[name].announced
        )
        for name in world.names:
            node = pops[name].node
            others = [other for other in announcers if other != name]
            route = node.remote_exp_routes.get(prefix)
            if not others:
                assert route is None, (client.name, name)
            else:
                first = pops[others[0]].node.backbone_address
                assert route is not None and route.next_hop == first
                checked += 1
            exp = node.experiments[client.name]
            assert exp.mesh_ids.keys() <= exp.announced.keys()
            kernel = pops[name].stack.table(MAIN_TABLE).get(prefix)
            iface = None if kernel is None else kernel.out_iface
            expected = ("exp0" if name in announcers
                        else "bb0" if others else None)
            assert iface == expected, (client.name, name)
    return checked


def run_program(pops, seed):
    rng = random.Random(seed)
    world = World(pops, rng)
    applied = Counter()
    checks = Counter()
    for _ in range(STEPS):
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(OPS)
            if step(world, rng, op):
                applied[op] += 1
        world.settle()
        checks["neighbor"] += assert_remote_pops_hold_the_origin(world)
        checks["experiment"] += (
            assert_remote_experiments_follow_the_announcers(world)
        )
    for pop in world.platform.pops.values():
        applied["gr-flushed"] += pop.node.counters["gr_routes_flushed"]
    return applied, checks


@pytest.mark.parametrize("pops", (2, 3))
def test_every_remote_pop_holds_what_the_origin_holds(pops):
    applied, checks = Counter(), Counter()
    for seed in range(PROGRAMS):
        program, program_checks = run_program(pops, seed)
        applied += program
        checks += program_checks
    # every kind of step ran, GR flushed stale routes, and both kinds of
    # path were compared at many settle points
    assert set(OPS) <= set(applied), applied
    assert applied["gr-flushed"] > 0
    assert checks["neighbor"] >= 4 * STEPS, checks
    assert checks["experiment"] >= 2 * STEPS, checks
