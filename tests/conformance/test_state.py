"""The canonical state view and the convergence checks built on it.

``paths`` must see through ADD-PATH ids but not through attributes;
``pop_view`` must not depend on the order state arrived in.  The two
broken fixtures at the end hand the chaos and fleet-crash convergence
checks a world that holds every baseline prefix, one of them with the
wrong AS path or next hop, and require both to call it diverged.
"""

import pytest

from repro.bgp.attributes import local_route
from repro.chaos import ChaosRunner, build_chaos_world
from repro.conformance.state import paths, pop_view
from repro.fleet.compiler import compile_world
from repro.fleet.crash import _path_state
from repro.fleet.differential import InProcessFleetLeg
from repro.fleet.spec import demo_world_spec
from repro.internet.churn import AMSIX_PROFILE, ChurnGenerator
from repro.netsim.addr import IPv4Address, IPv4Prefix
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry

PREFIX = IPv4Prefix.parse("203.0.113.0/24")
NEXT_HOP = IPv4Address.parse("127.65.0.2")


def _route(**changes):
    route = local_route(PREFIX, next_hop=NEXT_HOP).prepended(65020)
    return route.with_attributes(**changes) if changes else route


def test_paths_ignore_addpath_ids():
    route = _route()
    assert paths([route.with_path_id(1), route.with_path_id(7)]) == paths(
        [route, route.with_path_id(3)])
    assert paths([route.with_path_id(1)]) == paths([route])


def test_paths_separate_as_path_and_next_hop():
    route = _route()
    assert paths([route]) != paths([route.prepended(65030)])
    assert paths([route]) != paths(
        [route.with_next_hop(IPv4Address.parse("127.65.0.3"))])
    # a multiset: a second copy of a path is a different state
    assert paths([route]) != paths([route, route.with_path_id(2)])


def test_paths_sort_paths_whose_med_is_absent_in_one():
    bare, with_med = _route(), _route(med=10)
    assert paths([bare, with_med]) == paths([with_med, bare])


def _pop_after(updates):
    scheduler = Scheduler()
    pop = PointOfPresence(
        scheduler,
        PopConfig(name="view", pop_id=0, kind="ixp"),
        platform_asn=47065,
        platform_asns=frozenset({47065}),
        registry=GlobalNeighborRegistry(),
        enforcer_state=EnforcerState(),
    )
    pop.provision_neighbor("upstream", 65010, kind="peer")
    for update in updates:
        pop.node._upstream_update("upstream", update)
        scheduler.run_until(scheduler.now)
    return pop


def test_pop_view_does_not_depend_on_insertion_order():
    generator = ChurnGenerator(AMSIX_PROFILE, prefix_count=40, seed=3)
    announcements = [
        update for update in generator.make_updates(120)
        if not update.withdrawn
    ]
    # Distinct prefixes only, so both orders end in the same RIB.
    seen, distinct = set(), []
    for update in announcements:
        prefixes = {prefix for prefix, _ in update.nlri}
        if not prefixes & seen:
            seen |= prefixes
            distinct.append(update)
    assert len(distinct) >= 5
    forward = pop_view(_pop_after(distinct))
    backward = pop_view(_pop_after(reversed(distinct)))
    assert forward.upstreams["upstream"]
    assert forward == backward
    assert repr(forward) == repr(backward)


# -- broken fixtures: right prefixes, wrong paths ---------------------------


def test_chaos_converge_rejects_a_healed_neighbor_with_a_wrong_as_path():
    world = build_chaos_world(seed=0, with_telemetry=False)
    runner = ChaosRunner(world, bound=5.0)
    runner._settle()
    runner._baseline = runner._snapshot()
    converged, _ = runner._converge()
    assert converged  # the healthy world is its own baseline
    speaker = world.neighbors["transit-west"].speaker
    held = speaker.best_route(world.clients["alpha"].profile.prefixes[0])
    assert held is not None
    speaker.loc_rib.replace("to-pop", held.prepended(64999))
    converged, _ = runner._converge()
    assert not converged


@pytest.fixture
def fleet_leg(tmp_path):
    """A 3-PoP fleet in-process: experiments announced, upstream churn
    fanned out to every client over the backbone."""
    leg = InProcessFleetLeg(compile_world(demo_world_spec(pops=3), tmp_path))
    leg.wire_driver()
    for experiment, pop in sorted(leg.clients):
        leg.announce(experiment, pop)
        leg.settle()
    for index, endpoint in enumerate(leg.endpoints):
        endpoint.speaker.originate(local_route(
            IPv4Prefix.parse(f"61.0.{index}.0/24")))
        leg.settle()
    yield leg
    leg.close()


def _swap_next_hop(leg):
    # a client path with another neighbor's VIP: the restart-order bug
    client = leg.clients[("alpha", "pop0")]
    held = [entry.route for entry in client.speaker.loc_rib.candidates(
        IPv4Prefix.parse("61.0.1.0/24"))]
    other = next(entry.route for entry in client.speaker.loc_rib.candidates(
        IPv4Prefix.parse("61.0.2.0/24")))
    assert held and held[0].next_hop != other.next_hop
    client.speaker.loc_rib.replace(
        client.key, held[0].with_next_hop(other.next_hop))
    return f"client:{client.key}"


def _prepend_export(leg):
    # an upstream holding an experiment route via a different AS path
    endpoint = leg.endpoints[0]
    client = leg.clients[("alpha", endpoint.pop)]
    held = endpoint.speaker.best_route(IPv4Prefix.parse(client.prefix))
    assert held is not None
    endpoint.speaker.loc_rib.replace(endpoint.key, held.prepended(64999))
    return f"upstream:{endpoint.key}"


@pytest.mark.parametrize("breakage", [_prepend_export, _swap_next_hop],
                         ids=["wrong-as-path", "wrong-next-hop"])
def test_crash_path_state_rejects_the_right_prefixes_on_wrong_paths(
        fleet_leg, breakage):
    before = _path_state(fleet_leg)
    assert _path_state(fleet_leg) == before
    key = breakage(fleet_leg)
    after = _path_state(fleet_leg)
    assert sorted(k for k in before if before[k] != after[k]) == [key]
