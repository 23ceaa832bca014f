"""Fleet boot barrier: every PoP's federation hello, whatever the mesh."""

from repro.fleet.compiler import compile_world
from repro.fleet.controller import live_fleet_process_count
from repro.fleet.differential import SocketFleetLeg
from repro.fleet.spec import PopSpec, UpstreamSpec, WorldSpec


def test_one_pop_world_without_backbone_boots(tmp_path):
    """A PoP with no backbone peer sends a hello and no other event at
    boot; the barrier waits for the hello, not for an event count."""
    spec = WorldSpec(
        name="solo",
        pops=(PopSpec(name="solo", backbone=False,
                      upstreams=(UpstreamSpec(name="up0", asn=65010),)),),
        port_base=25400,
    )
    leg = SocketFleetLeg(compile_world(spec, tmp_path), boot_timeout=5)
    try:
        assert leg.controller.hellos == {"solo"}
        assert leg.pop_call("solo", "summary")["backbone_peers"] == {}
    finally:
        leg.close()
    assert live_fleet_process_count() == 0
