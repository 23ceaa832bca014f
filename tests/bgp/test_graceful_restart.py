"""RFC 4724 Graceful Restart: capability, End-of-RIB, retention, flush."""

from repro.bgp.attributes import local_route
from repro.bgp.messages import (
    GracefulRestartCapability,
    MessageDecoder,
    OpenMessage,
    UpdateMessage,
)
from repro.bgp.session import BgpSession, SessionConfig
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.supervisor import SupervisorConfig
from repro.bgp.transport import connect_pair
from repro.netsim.addr import IPv4Address, IPv4Prefix
from repro.platform import PeeringPlatform, PopConfig
from repro.platform.experiment import ExperimentProposal
from repro.telemetry import TelemetryHub
from repro.toolkit import ExperimentClient

DEST = IPv4Prefix.parse("198.51.100.0/24")
DEST2 = IPv4Prefix.parse("203.0.113.0/24")


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------

def test_gr_capability_roundtrip():
    capability = GracefulRestartCapability(
        restart_time=240, restarted=True, forwarding=True
    )
    message = OpenMessage(
        asn=65001,
        hold_time=90,
        bgp_id=IPv4Address.parse("1.1.1.1"),
        capabilities=(capability,),
    )
    decoder = MessageDecoder()
    decoder.feed(message.encode())
    decoded = list(decoder)
    assert len(decoded) == 1
    parsed = decoded[0].find_graceful_restart()
    assert parsed is not None
    assert parsed.restart_time == 240
    assert parsed.restarted is True
    assert parsed.forwarding is True


def test_end_of_rib_is_an_empty_update():
    eor = UpdateMessage.end_of_rib()
    assert eor.is_end_of_rib
    decoder = MessageDecoder()
    decoder.feed(eor.encode())
    decoded = list(decoder)
    assert len(decoded) == 1
    assert decoded[0].is_end_of_rib
    # A real update is not EoR.
    assert not UpdateMessage.announce(
        [local_route(DEST, next_hop=IPv4Address.parse("10.0.0.1"))]
    ).is_end_of_rib


# ----------------------------------------------------------------------
# Speaker-level semantics
# ----------------------------------------------------------------------

def gr_pair(scheduler, restart_time_b=60, supervised=True):
    a = BgpSpeaker(scheduler, SpeakerConfig(
        asn=65001, router_id=IPv4Address.parse("1.1.1.1")))
    b = BgpSpeaker(scheduler, SpeakerConfig(
        asn=65002, router_id=IPv4Address.parse("2.2.2.2")))
    channel_a, channel_b = connect_pair(scheduler, rtt=0.02)
    b.attach_neighbor(
        NeighborConfig(name="a", graceful_restart=True,
                       restart_time=restart_time_b),
        channel_b,
    )

    channel_factory = None
    if supervised:
        def channel_factory():
            new_a, new_b = connect_pair(scheduler, rtt=0.02)
            b.reattach_neighbor("a", new_b)
            return new_a

    a.attach_neighbor(
        NeighborConfig(name="b", graceful_restart=True, restart_time=60),
        channel_a,
        channel_factory=channel_factory,
        supervisor_config=SupervisorConfig(min_backoff=0.5, seed=5),
    )
    b.originate(local_route(DEST, next_hop=IPv4Address.parse("2.2.2.2")))
    scheduler.run_for(2)
    assert a.neighbors["b"].session.gr_negotiated
    assert a.best_route(DEST) is not None
    return a, b


def test_gr_negotiation_requires_both_sides(scheduler):
    a = BgpSpeaker(scheduler, SpeakerConfig(
        asn=65001, router_id=IPv4Address.parse("1.1.1.1")))
    b = BgpSpeaker(scheduler, SpeakerConfig(
        asn=65002, router_id=IPv4Address.parse("2.2.2.2")))
    channel_a, channel_b = connect_pair(scheduler, rtt=0.02)
    a.attach_neighbor(
        NeighborConfig(name="b", graceful_restart=True), channel_a
    )
    b.attach_neighbor(NeighborConfig(name="a"), channel_b)  # no GR
    scheduler.run_for(2)
    assert a.neighbors["b"].established
    assert not a.neighbors["b"].session.gr_negotiated
    assert not b.neighbors["a"].session.gr_negotiated


def test_gr_retains_routes_across_reset(scheduler):
    a, b = gr_pair(scheduler)
    # Non-administrative loss of the transport.
    b.neighbors["a"].session.channel.close()
    scheduler.run_for(0.2)
    # Stale but retained: the best route survives the reset window.
    assert a.neighbors["b"].adj_rib_in.stale_count
    assert a.best_route(DEST) is not None
    # The supervisor re-dials; the refreshed RIB's End-of-RIB flushes
    # the stale marks and the route is still there.
    scheduler.run_for(5)
    assert a.neighbors["b"].established
    assert not a.neighbors["b"].adj_rib_in.stale_count
    assert a.best_route(DEST) is not None


def test_gr_admin_shutdown_still_withdraws(scheduler):
    a, b = gr_pair(scheduler, supervised=False)
    a.neighbors["b"].session.shutdown()  # deliberate teardown
    scheduler.run_for(1)
    assert not a.neighbors["b"].adj_rib_in.stale_count
    assert a.best_route(DEST) is None


def test_gr_stale_flushed_at_restart_timer_expiry(scheduler):
    a, b = gr_pair(scheduler, restart_time_b=5, supervised=False)
    b.neighbors["a"].session.channel.close()
    scheduler.run_for(0.2)
    assert a.best_route(DEST) is not None  # retained …
    scheduler.run_for(6)
    # … but the peer never came back: fail closed at timer expiry.
    assert not a.neighbors["b"].adj_rib_in.stale_count
    assert a.best_route(DEST) is None


# ----------------------------------------------------------------------
# Platform-level: the §7.3 withdraw-storm elimination
# ----------------------------------------------------------------------

def build_gr_world(scheduler, resilient=True, restart_time=60):
    hub = TelemetryHub(scheduler)
    platform = PeeringPlatform(
        scheduler,
        pop_configs=[PopConfig(name="p0", pop_id=0, kind="ixp")],
        telemetry=hub,
    )
    pop = platform.pops["p0"]
    port = pop.provision_neighbor(
        "n1", 65010, kind="transit",
        resilient=resilient,
        graceful_restart=True,
        restart_time=restart_time,
        supervisor_config=SupervisorConfig(min_backoff=0.5, seed=9),
    )
    neighbor = BgpSpeaker(
        scheduler, SpeakerConfig(asn=65010, router_id=port.address)
    )
    neighbor.attach_neighbor(
        NeighborConfig(
            name="to-pop", peer_asn=None, local_address=port.address,
            graceful_restart=True, restart_time=restart_time,
        ),
        port.channel,
    )
    port.on_redial = (
        lambda channel, s=neighbor: s.reattach_neighbor("to-pop", channel)
    )
    neighbor.originate(local_route(DEST, next_hop=port.address))
    platform.submit_proposal(ExperimentProposal(
        name="exp", contact="t", goals="g", execution_plan="p",
    ))
    client = ExperimentClient(scheduler, "exp", platform)
    client.openvpn_up("p0")
    client.bird_start("p0")
    scheduler.run_for(10)
    assert client.routes(DEST, "p0")
    return platform, pop, port, neighbor, client, hub


def client_withdrawals_since(hub, since):
    """Withdrawals the experiment's BIRD saw, via the station feed."""
    return [
        message for message in hub.station.history
        if message.kind == "route-monitoring"
        and message.peer.startswith("client:")
        and message.time >= since
        and message.withdrawn
    ]


def test_upstream_reset_with_gr_sends_zero_withdrawals(scheduler):
    platform, pop, port, neighbor, client, hub = build_gr_world(scheduler)
    fault_time = scheduler.now
    port.channel.close()  # upstream transport dies (non-admin)
    scheduler.run_for(0.2)
    # Retained: the experiment still sees the route mid-outage …
    assert client.routes(DEST, "p0")
    upstream = pop.node.upstreams["n1"]
    assert upstream.rib.stale_count
    scheduler.run_for(30)
    # … the supervisor re-dialed within the restart window, End-of-RIB
    # flushed the stale marks, and not one withdrawal reached the
    # experiment (asserted against the BMP-style station feed).
    assert upstream.session.established
    assert not upstream.rib.stale_count
    assert client.routes(DEST, "p0")
    assert client_withdrawals_since(hub, fault_time) == []
    assert pop.node.counters["gr_routes_retained"] >= 1
    # The per-neighbor kernel table kept the route throughout.
    table = pop.stack.tables[upstream.virtual.table_id]
    assert len(table) == 1


def test_upstream_reset_without_return_flushes_at_expiry(scheduler):
    platform, pop, port, neighbor, client, hub = build_gr_world(
        scheduler, resilient=False, restart_time=5
    )
    fault_time = scheduler.now
    port.channel.close()
    scheduler.run_for(0.2)
    assert client.routes(DEST, "p0")  # retained at first
    scheduler.run_for(10)
    # Peer never returned: fail closed at restart-timer expiry.
    assert client.routes(DEST, "p0") == []
    assert client_withdrawals_since(hub, fault_time)
    upstream = pop.node.upstreams["n1"]
    assert len(pop.stack.tables[upstream.virtual.table_id]) == 0
    assert pop.node.counters["gr_routes_flushed"] >= 1
    events = [
        message.event for message in hub.station.history
        if message.kind == "resilience" and message.peer == "n1"
    ]
    assert "gr-stale" in events
    assert "gr-flush-expired" in events


# ----------------------------------------------------------------------
# One receiver, two owners: the same retained and flushed counts
# ----------------------------------------------------------------------

def gr_peer(scheduler, channel, asn, router_id):
    """A bare GR-capable session the test drives message by message."""
    session = BgpSession(scheduler, SessionConfig(
        local_asn=asn, local_id=router_id,
        graceful_restart=True, restart_time=60,
    ), channel, on_update=lambda _session, _update: None)
    session.start()
    return session


def restart_and_withdraw_one(scheduler, first_peer, redialed):
    """The peer announces DEST and DEST2, its transport dies, and over
    the new session it withdraws DEST2 explicitly before End-of-RIB:
    only DEST is still stale when End-of-RIB arrives."""
    nh = IPv4Address.parse("2.2.2.2")
    first_peer.send_update(UpdateMessage.announce([
        local_route(DEST, next_hop=nh), local_route(DEST2, next_hop=nh),
    ]))
    scheduler.run_for(1)
    first_peer.channel.close()
    scheduler.run_for(5)
    peer = redialed()
    assert peer.established
    peer.send_update(UpdateMessage.withdraw([local_route(DEST2)]))
    peer.send_end_of_rib()
    scheduler.run_for(1)


def gr_details(hub, peer):
    return [
        (message.event, message.detail) for message in hub.station.history
        if message.kind == "resilience" and message.peer == peer
        and message.event.startswith("gr-")
    ]


RETAINED_TWO_FLUSHED_ONE = [
    ("gr-stale", "2 routes retained for 60s"),
    ("gr-flush-eor", "1 stale routes flushed"),
]


def test_speaker_gr_flush_counts_only_paths_still_held(scheduler):
    hub = TelemetryHub(scheduler)
    a = BgpSpeaker(scheduler, SpeakerConfig(
        asn=65001, router_id=IPv4Address.parse("1.1.1.1")), telemetry=hub)
    router_id = IPv4Address.parse("2.2.2.2")
    channel_a, channel_b = connect_pair(scheduler, rtt=0.02)
    a.attach_neighbor(NeighborConfig(name="b", graceful_restart=True),
                      channel_a)
    first = gr_peer(scheduler, channel_b, 65002, router_id)
    scheduler.run_for(2)

    def redialed():
        channel_a, channel_b = connect_pair(scheduler, rtt=0.02)
        a.reattach_neighbor("b", channel_a)
        peer = gr_peer(scheduler, channel_b, 65002, router_id)
        scheduler.run_for(2)
        return peer

    restart_and_withdraw_one(scheduler, first, redialed)
    assert gr_details(hub, "b") == RETAINED_TWO_FLUSHED_ONE
    assert a.best_route(DEST) is None and a.best_route(DEST2) is None
    assert len(a.neighbors["b"].adj_rib_in) == 0


def test_node_gr_flush_counts_only_paths_still_held(scheduler):
    hub = TelemetryHub(scheduler)
    platform = PeeringPlatform(
        scheduler,
        pop_configs=[PopConfig(name="p0", pop_id=0, kind="ixp")],
        telemetry=hub,
    )
    pop = platform.pops["p0"]
    port = pop.provision_neighbor(
        "n1", 65010, kind="transit", resilient=True,
        graceful_restart=True, restart_time=60,
        supervisor_config=SupervisorConfig(min_backoff=0.5, seed=9),
    )
    peers = []
    port.on_redial = lambda channel: peers.append(
        gr_peer(scheduler, channel, 65010, port.address))
    first = gr_peer(scheduler, port.channel, 65010, port.address)
    scheduler.run_for(2)

    restart_and_withdraw_one(scheduler, first, lambda: peers[-1])
    assert gr_details(hub, "n1") == RETAINED_TWO_FLUSHED_ONE
    counters = pop.node.counters
    assert (counters["gr_routes_retained"],
            counters["gr_routes_flushed"]) == (2, 1)
    upstream = pop.node.upstreams["n1"]
    assert len(upstream.rib) == 0
    assert len(pop.stack.tables[upstream.virtual.table_id]) == 0
