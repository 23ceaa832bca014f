"""FleetPop runtime: artifact-built PoPs agree with pinned allocations."""

import pytest

from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.transport import connect_pair
from repro.fleet.compiler import compile_world
from repro.fleet.runtime import LOCAL_INVARIANTS, build_fleet_pop
from repro.fleet.spec import demo_world_spec
from repro.netsim.addr import IPv4Address
from repro.sim.scheduler import Scheduler


@pytest.fixture
def fleet(tmp_path):
    return compile_world(demo_world_spec(pops=3, port_base=23000), tmp_path)


def _settle(scheduler):
    while scheduler.run_until(scheduler.now):
        pass


def test_build_pins_gids_and_addresses(fleet):
    scheduler = Scheduler()
    pop = build_fleet_pop(scheduler, fleet.artifacts["pop1"])
    artifact = fleet.artifacts["pop1"]
    info = artifact["upstreams"]["up1"]
    ours, theirs = connect_pair(scheduler, rtt=0.0)
    pop.attach_upstream_channel("up1", ours)
    speaker = BgpSpeaker(scheduler, SpeakerConfig(
        asn=info["asn"],
        router_id=IPv4Address.parse(info["address"]), hold_time=0))
    speaker.attach_neighbor(NeighborConfig(
        name="pop1/up1", peer_asn=None,
        local_address=IPv4Address.parse(info["address"])), theirs)
    _settle(scheduler)
    assert speaker.neighbors["pop1/up1"].established
    assert pop.summary()["upstreams"]["up1"] is True
    # The gid pin is the whole point: the in-process registry must
    # have allocated exactly what the compiler promised.
    neighbor = pop.node.upstreams["up1"]
    assert neighbor.virtual.global_id == info["gid"]


def test_gid_pin_conflict_is_rejected(fleet):
    scheduler = Scheduler()
    artifact = dict(fleet.artifacts["pop0"])
    # Poison the pinned gid map: pop0/up0 claims gid 2, which the
    # world's gid table hands to pop1/up1.
    artifact["upstreams"] = {
        "up0": dict(artifact["upstreams"]["up0"], gid=2)
    }
    with pytest.raises((ValueError, RuntimeError, KeyError)):
        pop = build_fleet_pop(scheduler, artifact)
        ours, _theirs = connect_pair(scheduler, rtt=0.0)
        pop.attach_upstream_channel("up0", ours)


def test_local_invariants_clean_on_idle_pop(fleet):
    scheduler = Scheduler()
    pop = build_fleet_pop(scheduler, fleet.artifacts["pop0"])
    reports = pop.local_invariants()
    assert set(reports) == set(LOCAL_INVARIANTS)
    assert all(report["ok"] for report in reports.values())


def test_structural_snapshot_is_stable_when_idle(fleet):
    scheduler = Scheduler()
    pop = build_fleet_pop(scheduler, fleet.artifacts["pop2"])
    assert pop.structural_snapshot() == pop.structural_snapshot()
