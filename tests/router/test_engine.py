"""Router engine tests: kernel sync, CLI, non-disruptive reconfiguration."""

import pytest

from repro.bgp.attributes import local_route
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.transport import connect_pair
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.netsim.link import Port
from repro.netsim.stack import NetworkStack
from repro.router import Router, birdc, parse_config

CONFIG = """
router id 10.0.0.1;
local as 47065;

filter nothing { reject; }

protocol kernel main4 { table 254; export all; }

protocol bgp up0 {
    neighbor 10.0.0.2 as 3356;
    local address 10.0.0.1;
    import all;
    export all;
}
"""


def build_router(scheduler, config_text=CONFIG):
    stack = NetworkStack(scheduler, "router-host")
    stack.add_interface("eth0", MacAddress(0x02_01), Port())
    stack.add_address("eth0", IPv4Address.parse("10.0.0.1"), 24)
    router = Router(scheduler, parse_config(config_text), stack=stack)
    return router, stack


def build_peer(scheduler, asn=3356):
    return BgpSpeaker(
        scheduler,
        SpeakerConfig(asn=asn, router_id=IPv4Address.parse("10.0.0.2")),
    )


def wire(scheduler, router, peer, protocol="up0", peer_name="to-router"):
    ours, theirs = connect_pair(scheduler, rtt=0.02)
    router.connect_protocol(protocol, ours)
    peer.attach_neighbor(
        NeighborConfig(name=peer_name, peer_asn=router.config.asn,
                       local_address=IPv4Address.parse("10.0.0.2")),
        theirs,
    )


def test_session_establishes_and_routes_sync_to_kernel(scheduler):
    router, stack = build_router(scheduler)
    peer = build_peer(scheduler)
    wire(scheduler, router, peer)
    peer.originate(local_route(IPv4Prefix.parse("99.0.0.0/8"),
                               next_hop=IPv4Address.parse("10.0.0.2")))
    scheduler.run_for(2)
    entry = stack.tables[254].lookup(IPv4Address.parse("99.1.2.3"))
    assert entry is not None
    assert str(entry.value.next_hop) == "10.0.0.2"
    assert router.kernel_syncs["main4"].installed == 1


def test_kernel_removes_on_withdraw(scheduler):
    router, stack = build_router(scheduler)
    peer = build_peer(scheduler)
    wire(scheduler, router, peer)
    prefix = IPv4Prefix.parse("99.0.0.0/8")
    peer.originate(local_route(prefix,
                               next_hop=IPv4Address.parse("10.0.0.2")))
    scheduler.run_for(2)
    peer.withdraw(prefix)
    scheduler.run_for(2)
    assert stack.tables[254].lookup(IPv4Address.parse("99.1.2.3")) is None


def test_cli_show_protocols_and_route(scheduler):
    router, _stack = build_router(scheduler)
    peer = build_peer(scheduler)
    wire(scheduler, router, peer)
    peer.originate(local_route(IPv4Prefix.parse("99.0.0.0/8"),
                               next_hop=IPv4Address.parse("10.0.0.2")))
    scheduler.run_for(2)
    protocols = birdc(router, "show protocols")
    assert "up0" in protocols and "established" in protocols
    routes = birdc(router, "show route")
    assert "99.0.0.0/8" in routes
    assert "Network not found" in birdc(router, "show route for 1.0.0.0/8")
    assert "47065" in birdc(router, "show status")
    memory = birdc(router, "show memory").splitlines()
    assert "Routing tables: 1 routes for 1 prefixes" in memory
    # The learned /8 plus eth0's connected /24.
    assert "Kernel table 254 (main4): 2 routes" in memory


def test_reconfigure_keeps_unchanged_session(scheduler):
    router, _stack = build_router(scheduler)
    peer = build_peer(scheduler)
    wire(scheduler, router, peer)
    scheduler.run_for(1)
    assert router.speaker.neighbors["up0"].established
    new_config = parse_config(CONFIG.replace("import all", "import all")
                              + "\nprotocol bgp up1 {"
                                " neighbor 10.0.0.3 as 174; }")
    report = router.reconfigure(new_config)
    assert report.sessions_kept == ["up0"]
    assert report.protocols_added == ["up1"]
    assert not report.disruptive
    scheduler.run_for(1)
    assert router.speaker.neighbors["up0"].established


def test_reconfigure_resets_changed_identity(scheduler):
    router, _stack = build_router(scheduler)
    peer = build_peer(scheduler)
    wire(scheduler, router, peer)
    scheduler.run_for(1)
    new_config = parse_config(CONFIG.replace("as 3356", "as 174"))
    report = router.reconfigure(new_config)
    assert report.sessions_reset == ["up0"]
    assert report.disruptive
    scheduler.run_for(1)
    assert "up0" not in router.speaker.neighbors


def test_reconfigure_removes_deleted_protocol(scheduler):
    router, _stack = build_router(scheduler)
    peer = build_peer(scheduler)
    wire(scheduler, router, peer)
    scheduler.run_for(1)
    without_bgp = parse_config("""
router id 10.0.0.1;
local as 47065;
protocol kernel main4 { table 254; export all; }
""")
    report = router.reconfigure(without_bgp)
    assert report.protocols_removed == ["up0"]
    scheduler.run_for(1)
    assert "up0" not in router.speaker.neighbors


def test_reconfigure_swaps_filters_live(scheduler):
    router, _stack = build_router(scheduler)
    peer = build_peer(scheduler)
    wire(scheduler, router, peer)
    scheduler.run_for(1)
    filtered = parse_config(
        CONFIG.replace("import all;", "import filter nothing;")
    )
    report = router.reconfigure(filtered)
    assert report.sessions_kept == ["up0"]
    assert "up0" in report.filters_updated
    # New routes are now rejected, session intact.
    peer.originate(local_route(IPv4Prefix.parse("99.0.0.0/8"),
                               next_hop=IPv4Address.parse("10.0.0.2")))
    scheduler.run_for(2)
    assert router.best_route(IPv4Prefix.parse("99.0.0.0/8")) is None
    assert router.speaker.neighbors["up0"].established


def test_identity_change_rejected(scheduler):
    router, _stack = build_router(scheduler)
    other = parse_config(CONFIG.replace("local as 47065", "local as 1"))
    with pytest.raises(ValueError):
        router.reconfigure(other)


def test_connect_unknown_protocol(scheduler):
    router, _stack = build_router(scheduler)
    with pytest.raises(KeyError):
        router.connect_protocol("nope", connect_pair(scheduler)[0])
