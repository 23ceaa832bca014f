"""Invariant-checker tests: a healthy world passes, broken ones fail.

Each invariant in the catalog has at least one deliberately-broken
fixture it must catch — a checker that cannot fail proves nothing.
The world here is a single PoP with one upstream AS (a real external
speaker, so community propagation has a far end) and one ADD-PATH
experiment client.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.bgp.attributes import Community, local_route
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.transport import connect_pair
from repro.conformance.invariants import (
    CATALOG,
    ConformanceContext,
    InvariantReport,
    run_invariants,
)
from repro.internet.churn import AMSIX_PROFILE, ChurnGenerator
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.capabilities import ExperimentProfile
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry
from repro.vbgp.communities import announce_to_neighbor

EXP_PREFIX = IPv4Prefix.parse("184.164.224.0/24")
TUNNEL_IP = IPv4Address.parse("100.125.0.2")


@pytest.fixture
def world():
    """One PoP, one upstream speaker, one experiment, converged."""
    scheduler = Scheduler()
    pop = PointOfPresence(
        scheduler,
        PopConfig(name="diff", pop_id=0, kind="ixp"),
        platform_asn=47065,
        platform_asns=frozenset({47065}),
        registry=GlobalNeighborRegistry(),
        enforcer_state=EnforcerState(),
    )
    port = pop.provision_neighbor("upstream", 65010, kind="peer")
    upstream = BgpSpeaker(
        scheduler, SpeakerConfig(asn=65010, router_id=port.address)
    )
    upstream.attach_neighbor(
        NeighborConfig(
            name="to-pop", peer_asn=None, local_address=port.address
        ),
        port.channel,
    )
    ours, theirs = connect_pair(scheduler, rtt=0.001)
    pop.node.attach_experiment(
        name="x",
        asn=47065,
        prefixes=(EXP_PREFIX,),
        tunnel_ip=TUNNEL_IP,
        tunnel_mac=MacAddress.parse("02:aa:00:00:00:02"),
        channel=ours,
    )
    pop.control_enforcer.register_experiment(ExperimentProfile(
        name="x", asns=frozenset({47065}), prefixes=(EXP_PREFIX,),
    ))
    client = BgpSpeaker(
        scheduler, SpeakerConfig(asn=47065, router_id=TUNNEL_IP)
    )
    client.allow_own_asn_in = True
    client.attach_neighbor(
        NeighborConfig(
            name="to-pop",
            peer_asn=None,
            local_address=TUNNEL_IP,
            addpath=True,
        ),
        theirs,
    )
    scheduler.run_for(5)
    # Route churn from the upstream, plus one whitelisted announcement.
    generator = ChurnGenerator(AMSIX_PROFILE, prefix_count=60, seed=7)
    gid = pop.node.upstreams["upstream"].virtual.global_id
    client.originate(local_route(
        EXP_PREFIX, next_hop=TUNNEL_IP,
        communities=(announce_to_neighbor(gid),),
    ))
    for update in generator.make_updates(120):
        pop.node._upstream_update("upstream", update)
        scheduler.run_until(scheduler.now)
    scheduler.run_for(5)
    return SimpleNamespace(
        scheduler=scheduler, pop=pop, upstream=upstream, client=client
    )


def _receiver(world):
    """Experiment ``x`` as a toolkit client sees it: its session and the
    ``path id -> route`` table it received over ADD-PATH."""
    neighbor = world.client.neighbors["to-pop"]
    view = SimpleNamespace(
        session=neighbor.session,
        routes={route.path_id: route
                for route in neighbor.adj_rib_in.routes()},
    )
    return SimpleNamespace(pops={"diff": view})


def _context(world, **overrides):
    base = dict(
        pops={"diff": world.pop},
        clients={"x": _receiver(world)},
        neighbor_speakers={"upstream": world.upstream},
        neighbor_pops={"upstream": "diff"},
    )
    base.update(overrides)
    return ConformanceContext(**base)


def test_healthy_world_passes_all_invariants(world):
    reports = run_invariants(_context(world))
    for name, report in reports.items():
        assert report.ok, report.format()
    # the fixtures must generate real evidence, not vacuous passes
    paths = len(world.pop.node.upstreams["upstream"].rib)
    assert paths >= 20
    assert reports["vmac_bijectivity"].checked >= 1
    # node leg (ids, Adj-RIB-In keys) + receiver leg: 3 checks per path
    assert reports["addpath_completeness"].checked == 3 * paths
    assert reports["community_propagation"].checked >= 1
    assert reports["kernel_consistency"].checked >= 20


def test_unknown_invariant_name_raises(world):
    with pytest.raises(KeyError):
        run_invariants(_context(world), names=["nonexistent"])


def test_catalog_is_complete():
    assert set(CATALOG) == {
        "vmac_bijectivity",
        "addpath_completeness",
        "community_propagation",
        "no_cross_experiment_leakage",
        "kernel_consistency",
        "no_withdrawal_loss_under_shed",
    }


def test_report_format_truncates():
    report = InvariantReport("demo")
    for index in range(50):
        report.fail(f"violation {index}")
    assert report.violation_count == 50
    assert len(report.violations) == 20
    assert "and 30 more" in report.format()


# -- deliberately-broken fixtures ------------------------------------------


def test_vmac_bijectivity_catches_wrong_mac(world):
    neighbor = world.pop.node.upstreams["upstream"]
    object.__setattr__(
        neighbor.virtual, "mac", MacAddress.parse("02:00:00:00:00:01")
    )
    report = CATALOG["vmac_bijectivity"](_context(world))
    assert not report.ok
    assert any("MAC" in violation for violation in report.violations)


def test_vmac_bijectivity_catches_vip_not_derived_from_gid(world):
    # a VIP handed out first come, first served: unique at this PoP,
    # but another node (or this one after a restart) may disagree
    neighbor = world.pop.node.upstreams["upstream"]
    object.__setattr__(
        neighbor.virtual, "local_ip", IPv4Address.parse("127.65.0.9")
    )
    report = CATALOG["vmac_bijectivity"](_context(world))
    assert not report.ok
    assert report.violation_count == 1
    assert "local VIP" in report.violations[0]


def _broken_receiver(world, breakage):
    """Run the checker over ``x``'s received table after ``breakage``."""
    client = _receiver(world)
    routes = client.pops["diff"].routes
    assert routes, "fixture delivered no ADD-PATH routes"
    breakage(routes)
    return CATALOG["addpath_completeness"](
        _context(world, clients={"x": client})
    )


def test_addpath_completeness_catches_missing_path_id(world):
    # the experiment never received one of the node's live paths
    report = _broken_receiver(
        world, lambda routes: routes.pop(next(iter(routes)))
    )
    assert not report.ok
    assert report.violation_count == 1
    assert "missing ADD-PATH id" in report.violations[0]


def test_addpath_completeness_catches_id_the_node_did_not_give(world):
    # the experiment holds an id no live path at the node carries
    def stale(routes):
        route = next(iter(routes.values()))
        stale_id = max(
            path_id for _key, path_id in world.pop.node.path_id_items()
        ) + 100_000
        routes[stale_id] = route.with_path_id(stale_id)

    report = _broken_receiver(world, stale)
    assert not report.ok
    assert report.violation_count == 1
    assert "stale ADD-PATH id" in report.violations[0]


def test_addpath_completeness_catches_wrong_prefix_for_an_id(world):
    # the id is the node's, but it carries another path's prefix
    def wrong_prefix(routes):
        path_id, route = next(iter(routes.items()))
        other = next(r.prefix for r in routes.values()
                     if r.prefix != route.prefix)
        routes[path_id] = replace(route, prefix=other)

    report = _broken_receiver(world, wrong_prefix)
    assert not report.ok
    assert report.violation_count == 1
    assert "carries" in report.violations[0]


def test_addpath_completeness_catches_shared_id(world):
    # two live paths at one node numbered alike
    ids = next(neighbor.path_ids
               for neighbor in world.pop.node.upstreams.values()
               if len(neighbor.path_ids) >= 2)
    first, second = list(ids)[:2]
    ids[second] = ids[first]
    report = CATALOG["addpath_completeness"](_context(world))
    assert not report.ok
    assert "names both" in report.violations[0]


def test_community_propagation_catches_missing_export(world):
    # a neighbor speaker that never received the whitelisted route
    empty = SimpleNamespace(best_route=lambda prefix: None)
    report = CATALOG["community_propagation"](
        _context(world, neighbor_speakers={"upstream": empty})
    )
    assert not report.ok
    assert "expected export" in report.violations[0]


def test_community_propagation_catches_control_leak(world):
    # a neighbor speaker whose copy still carries a control community
    leaked = local_route(
        EXP_PREFIX,
        next_hop=TUNNEL_IP,
        communities=(Community(47065, 1),),
    )
    leaky = SimpleNamespace(best_route=lambda prefix: leaked)
    report = CATALOG["community_propagation"](
        _context(world, neighbor_speakers={"upstream": leaky})
    )
    assert not report.ok
    assert any(
        "control communities" in violation
        for violation in report.violations
    )


def test_leakage_catches_foreign_prefix(world):
    foreign = IPv4Prefix.parse("184.164.240.0/24")
    view = SimpleNamespace(routes={
        0: local_route(foreign, next_hop=TUNNEL_IP)
    })
    clients = {
        "alpha": SimpleNamespace(pops={"diff": view}),
        "beta": SimpleNamespace(pops={}),
    }
    allocated = {
        "alpha": frozenset({EXP_PREFIX}),
        "beta": frozenset({foreign}),
    }
    report = CATALOG["no_cross_experiment_leakage"](
        _context(world, clients=clients, allocated=allocated)
    )
    assert not report.ok
    assert "allocated to another experiment" in report.violations[0]


def test_leakage_passes_own_prefix(world):
    view = SimpleNamespace(routes={
        0: local_route(EXP_PREFIX, next_hop=TUNNEL_IP)
    })
    clients = {"alpha": SimpleNamespace(pops={"diff": view})}
    allocated = {"alpha": frozenset({EXP_PREFIX})}
    report = CATALOG["no_cross_experiment_leakage"](
        _context(world, clients=clients, allocated=allocated)
    )
    assert report.ok


def test_kernel_consistency_catches_missing_route(world):
    neighbor = world.pop.node.upstreams["upstream"]
    table = world.pop.stack.tables[neighbor.virtual.table_id]
    prefix = next(iter({key[0] for key in neighbor.rib.keys()}))
    assert table.remove(prefix)
    report = CATALOG["kernel_consistency"](_context(world))
    assert not report.ok


def test_withdrawal_loss_invariant_is_vacuous_without_overload(world):
    report = CATALOG["no_withdrawal_loss_under_shed"](_context(world))
    assert report.ok
    assert report.checked == 0


def test_withdrawal_loss_invariant_catches_shed_withdrawal(world):
    from repro.overload import OverloadGovernor

    governor = OverloadGovernor(world.scheduler, scope="diff")
    world.pop.node.enable_overload(governor)
    queue = governor.queue_for("upstream")
    queue.stats.shed_withdrawals = 3
    report = CATALOG["no_withdrawal_loss_under_shed"](_context(world))
    assert not report.ok
    assert "withdrawals shed" in report.violations[0]


def test_withdrawal_loss_invariant_catches_unbalanced_ledger(world):
    from repro.overload import OverloadGovernor

    governor = OverloadGovernor(world.scheduler, scope="diff")
    world.pop.node.enable_overload(governor)
    queue = governor.queue_for("upstream")
    queue.stats.withdrawals_admitted = 5
    queue.stats.withdrawals_delivered = 4
    report = CATALOG["no_withdrawal_loss_under_shed"](_context(world))
    assert not report.ok
    assert "accounted for" in report.violations[0]


def test_kernel_consistency_catches_extra_route(world):
    from repro.netsim.stack import KernelRoute

    neighbor = world.pop.node.upstreams["upstream"]
    table = world.pop.stack.tables[neighbor.virtual.table_id]
    stray = IPv4Prefix.parse("203.0.113.0/24")
    assert not any(key[0] == stray for key in neighbor.rib.keys())
    table.insert(stray, KernelRoute(
        prefix=stray, out_iface="stray0", next_hop=TUNNEL_IP
    ))
    report = CATALOG["kernel_consistency"](_context(world))
    assert not report.ok
