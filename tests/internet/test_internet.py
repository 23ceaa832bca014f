"""Synthetic-Internet tests: topology, Gao–Rexford invariants, overlay
forwarding, route servers, PeeringDB, churn, looking glass."""


from repro.internet import (
    AMSIX_PROFILE,
    ChurnGenerator,
    NetworkType,
    classify_peers,
    synthesize_records,
)
from repro.internet.asnode import (
    InternetAS,
    Relationship,
    TAG_CUSTOMER,
    TAG_PEER,
    TAG_PROVIDER,
)
from repro.internet.overlay import AsOverlay
from repro.netsim.addr import IPv4Prefix
from repro.netsim.frames import IcmpMessage, IcmpType, IpProto, IPv4Packet
from repro.sim import Scheduler


def make_as(scheduler, overlay, asn, prefix):
    node = InternetAS(scheduler, overlay, asn=asn, name=f"as{asn}",
                      prefixes=(IPv4Prefix.parse(prefix),))
    node.originate_all()
    return node


class TestGaoRexford:
    def build_triangle(self, scheduler):
        """provider ← customer → second provider; providers peer."""
        overlay = AsOverlay(scheduler)
        p1 = make_as(scheduler, overlay, 100, "32.0.0.0/16")
        p2 = make_as(scheduler, overlay, 200, "32.1.0.0/16")
        customer = make_as(scheduler, overlay, 300, "32.2.0.0/16")
        p1.peer_with(p2, Relationship.PEER)
        customer.peer_with(p1, Relationship.PROVIDER)
        customer.peer_with(p2, Relationship.PROVIDER)
        scheduler.run_for(5)
        return p1, p2, customer

    def test_customer_routes_exported_to_peers(self, scheduler):
        p1, p2, customer = self.build_triangle(scheduler)
        # p2 hears customer's prefix from p1 (customer route → peer OK)
        # and directly; both are fine.
        assert p2.speaker.best_route(customer.prefixes[0]) is not None

    def test_peer_routes_not_exported_to_peers(self, scheduler):
        scheduler2 = Scheduler()
        overlay = AsOverlay(scheduler2)
        a = make_as(scheduler2, overlay, 100, "32.0.0.0/16")
        b = make_as(scheduler2, overlay, 200, "32.1.0.0/16")
        c = make_as(scheduler2, overlay, 300, "32.2.0.0/16")
        # a–b peers, b–c peers: a must NOT learn c's prefix via b.
        a.peer_with(b, Relationship.PEER)
        b.peer_with(c, Relationship.PEER)
        scheduler2.run_for(5)
        assert b.speaker.best_route(c.prefixes[0]) is not None
        assert a.speaker.best_route(c.prefixes[0]) is None

    def test_provider_routes_not_exported_to_providers(self, scheduler):
        overlay = AsOverlay(scheduler)
        top = make_as(scheduler, overlay, 100, "32.0.0.0/16")
        mid = make_as(scheduler, overlay, 200, "32.1.0.0/16")
        bottom = make_as(scheduler, overlay, 300, "32.2.0.0/16")
        mid.peer_with(top, Relationship.PROVIDER)
        bottom.peer_with(mid, Relationship.PROVIDER)
        scheduler.run_for(5)
        # bottom must not see top's prefix re-exported *by bottom* — but it
        # does learn it from its provider (providers export everything to
        # customers).
        assert bottom.speaker.best_route(top.prefixes[0]) is not None
        # top must not learn bottom... it does: bottom→mid (customer route)
        # →top (customer route): valley-free allows it.
        assert top.speaker.best_route(bottom.prefixes[0]) is not None

    def test_customer_route_preferred_over_peer(self, scheduler):
        overlay = AsOverlay(scheduler)
        hub = make_as(scheduler, overlay, 100, "32.0.0.0/16")
        target = make_as(scheduler, overlay, 400, "32.3.0.0/16")
        # hub hears target's prefix both from a peer and from a customer.
        hub.peer_with(target, Relationship.PEER)
        middle = make_as(scheduler, overlay, 500, "32.4.0.0/16")
        hub.peer_with(middle, Relationship.CUSTOMER)
        middle.peer_with(target, Relationship.CUSTOMER)
        scheduler.run_for(5)
        best = hub.speaker.best_route(target.prefixes[0])
        assert best is not None
        # Customer route (via 500) wins despite the longer AS path.
        assert best.as_path.first_as == 500

    def test_tags_stripped_on_export(self, scheduler):
        overlay = AsOverlay(scheduler)
        a = make_as(scheduler, overlay, 100, "32.0.0.0/16")
        b = make_as(scheduler, overlay, 200, "32.1.0.0/16")
        a.peer_with(b, Relationship.PEER)
        scheduler.run_for(5)
        best = b.speaker.best_route(a.prefixes[0])
        assert best is not None
        # Internal relationship tags never leak... the *import* side adds
        # its own tag; no foreign tags beyond that one.
        tags = {TAG_CUSTOMER, TAG_PEER, TAG_PROVIDER} & best.communities
        assert tags == {TAG_PEER}


class TestOverlayForwarding:
    def test_ping_across_three_ases(self, scheduler):
        overlay = AsOverlay(scheduler)
        a = make_as(scheduler, overlay, 100, "32.0.0.0/16")
        b = make_as(scheduler, overlay, 200, "32.1.0.0/16")
        c = make_as(scheduler, overlay, 300, "32.2.0.0/16")
        b.peer_with(a, Relationship.CUSTOMER)
        b.peer_with(c, Relationship.CUSTOMER)
        scheduler.run_for(5)
        probe = IPv4Packet(
            src=a.prefixes[0].address_at(1),
            dst=c.prefixes[0].address_at(1),
            proto=IpProto.ICMP,
            payload=IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST),
        )
        a.receive_packet(probe)
        scheduler.run_for(5)
        # a receives the reply addressed to its own prefix (counted).
        assert a.packets_received >= 2
        assert c.packets_received == 1

    def test_ttl_exceeded_generated(self, scheduler):
        overlay = AsOverlay(scheduler)
        a = make_as(scheduler, overlay, 100, "32.0.0.0/16")
        b = make_as(scheduler, overlay, 200, "32.1.0.0/16")
        c = make_as(scheduler, overlay, 300, "32.2.0.0/16")
        b.peer_with(a, Relationship.CUSTOMER)
        b.peer_with(c, Relationship.CUSTOMER)
        scheduler.run_for(5)
        probe = IPv4Packet(
            src=a.prefixes[0].address_at(1),
            dst=c.prefixes[0].address_at(1),
            proto=IpProto.ICMP, ttl=1,
            payload=IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST),
        )
        a.forward(probe)  # hand straight to the overlay toward b
        scheduler.run_for(5)
        assert c.packets_received == 0  # expired at b

    def test_no_route_drops(self, scheduler):
        overlay = AsOverlay(scheduler)
        a = make_as(scheduler, overlay, 100, "32.0.0.0/16")
        probe = IPv4Packet(
            src=a.prefixes[0].address_at(1),
            dst=IPv4Prefix.parse("99.0.0.0/16").address_at(1),
            proto=IpProto.ICMP,
            payload=IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST),
        )
        a.receive_packet(probe)
        scheduler.run_for(2)
        assert a.packets_dropped == 1


class TestBuildInternet:
    def test_world_converges(self, small_world):
        scheduler, platform, internet = small_world
        # Every stub's prefix is reachable from every tier1.
        for stub in internet.stubs:
            for tier1 in internet.tier1s:
                assert tier1.speaker.best_route(stub.prefixes[0]) is not None

    def test_platform_attachments(self, small_world):
        scheduler, platform, internet = small_world
        for pop in platform.pops.values():
            if pop.config.kind == "university":
                kinds = {n.kind for n in pop.node.upstreams.values()}
                assert kinds == {"transit"}
            else:
                assert f"rs-{pop.name}" in pop.node.upstreams

    def test_bilateral_and_rs_peers_recorded(self, small_world):
        scheduler, platform, internet = small_world
        assert internet.bilateral_peers or internet.rs_only_peers

    def test_vbgp_learns_routes_from_route_server(self, small_world):
        scheduler, platform, internet = small_world
        pop = platform.pops["ix-c"]
        rs_neighbor = pop.node.upstreams["rs-ix-c"]
        assert len(rs_neighbor.rib) > 0
        # RS routes keep members' next hops (transparent).
        next_hops = {
            str(route.next_hop) for route in rs_neighbor.rib.routes()
        }
        assert all(nh.startswith("100.66.") for nh in next_hops)


class TestPeeringDb:
    def test_distribution_matches_section_4_2(self):
        records = synthesize_records(range(1, 2001))
        mix = classify_peers(records, records.keys())
        assert abs(mix[NetworkType.TRANSIT] - 0.33) < 0.05
        assert abs(mix[NetworkType.CABLE_DSL_ISP] - 0.28) < 0.05
        assert abs(mix[NetworkType.CONTENT] - 0.23) < 0.05

    def test_deterministic_by_seed(self):
        a = synthesize_records(range(100), seed=1)
        b = synthesize_records(range(100), seed=1)
        assert a == b

    def test_classification_of_unknown_asn(self):
        mix = classify_peers({}, [99])
        assert mix[NetworkType.UNCLASSIFIED] == 1.0


class TestChurn:
    def test_mean_rate_calibrated(self):
        """§6: AMS-IX averaged 21.8 updates/s."""
        assert abs(AMSIX_PROFILE.mean_rate() - 21.8) < 1.0

    def test_p99_calibrated(self):
        generator = ChurnGenerator(AMSIX_PROFILE, seed=3)
        rates = sorted(generator.second_rates(5000))
        p99 = rates[int(len(rates) * 0.99)]
        assert 250 <= p99 <= 450

    def test_updates_decode_and_replay(self):
        generator = ChurnGenerator(AMSIX_PROFILE, prefix_count=100)
        updates = generator.make_updates(500)
        announces = [u for u in updates if u.nlri]
        withdraws = [u for u in updates if u.withdrawn]
        assert announces and withdraws
        for update in announces[:50]:
            assert update.attributes.next_hop is not None
            data = update.encode()
            assert len(data) > 19

    def test_replay_feeds_processor(self):
        generator = ChurnGenerator(AMSIX_PROFILE, prefix_count=50, seed=5)
        seen = []
        rates = generator.replay(seconds=20, process=seen.append)
        assert len(seen) == sum(rates)


def test_looking_glass_restricted_interface(scheduler):
    from repro.internet.looking_glass import LookingGlass

    overlay = AsOverlay(scheduler)
    a = make_as(scheduler, overlay, 100, "32.0.0.0/16")
    glass = LookingGlass(scheduler)
    glass.peer_with(a)
    scheduler.run_for(5)
    output = glass.show_route_for(a.prefixes[0])
    assert "from AS100" in output
    assert "Network not in table" in glass.show_route_for(
        IPv4Prefix.parse("9.0.0.0/8")
    )
    assert glass.visible_paths(a.prefixes[0]) == {(100,)}
