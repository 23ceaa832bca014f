"""Experiment-client tests over the small converged world."""

import pytest



def test_tunnels_and_sessions_up(connected_client):
    scheduler, platform, internet, client = connected_client
    status = client.openvpn_status()
    assert set(status) == set(platform.pops)
    assert all(entry["up"] for entry in status.values())
    assert all(state == "established"
               for state in client.bird_status().values())


def test_addpath_visibility_of_all_routes(connected_client):
    """Experiments see every neighbor's route, not just the best."""
    scheduler, platform, internet, client = connected_client
    dst = internet.tier1s[0].prefixes[0]
    for pop_name in platform.pops:
        assert client.routes(dst, pop_name)
    # Somewhere the experiment must see multiple alternatives for one
    # prefix (the whole point of ADD-PATH fan-out): distinct next hops.
    multi = [
        prefix
        for view in client.pops.values()
        for prefix in {r.prefix for r in view.routes.values()}
        if len({
            r.next_hop.value for r in view.routes.values()
            if r.prefix == prefix
        }) >= 2
    ]
    assert multi


def test_routes_have_virtual_next_hops(connected_client):
    scheduler, platform, internet, client = connected_client
    view = client.pops["uni-a"]
    assert view.routes
    for route in view.routes.values():
        assert str(route.next_hop).startswith("127.65.")


def test_announce_reaches_internet(connected_client):
    scheduler, platform, internet, client = connected_client
    prefix = client.profile.prefixes[0]
    client.announce(prefix)
    scheduler.run_for(20)
    transit = internet.transits[0]
    assert transit.speaker.best_route(prefix) is not None


def test_withdraw_removes_from_internet(connected_client):
    scheduler, platform, internet, client = connected_client
    prefix = client.profile.prefixes[0]
    client.announce(prefix)
    scheduler.run_for(20)
    client.withdraw(prefix)
    scheduler.run_for(20)
    transit = internet.transits[0]
    assert transit.speaker.best_route(prefix) is None


def test_announce_to_single_pop(connected_client):
    scheduler, platform, internet, client = connected_client
    prefix = client.profile.prefixes[0]
    sent = client.announce(prefix, pops=["uni-a"])
    assert len(sent) == 1
    scheduler.run_for(10)
    assert prefix in client.pops["uni-a"].announced
    assert prefix not in client.pops["uni-b"].announced


def test_prepend_visible_in_internet(connected_client):
    scheduler, platform, internet, client = connected_client
    prefix = client.profile.prefixes[0]
    client.announce(prefix, prepend=3)
    scheduler.run_for(20)
    transit = internet.transits[0]
    best = transit.speaker.best_route(prefix)
    assert best is not None
    # 3 client prepends (platform ASN) + mux prepend.
    assert best.as_path.asns.count(47065) >= 4


def test_end_to_end_ping(connected_client):
    scheduler, platform, internet, client = connected_client
    prefix = client.profile.prefixes[0]
    client.announce(prefix)
    scheduler.run_for(20)
    dst = internet.tier1s[0].prefixes[0].address_at(1)
    routes = client.lookup(dst, "uni-a")
    assert routes
    client.ping("uni-a", routes[0], dst)
    scheduler.run_for(15)
    replies = client.received_icmp()
    assert any(str(p.src) == str(dst) for p, _m in replies)


def test_ping_via_chosen_neighbor_attributed(connected_client):
    """Per-packet egress selection: replies return and ingress frames
    carry the delivering neighbor's virtual MAC."""
    scheduler, platform, internet, client = connected_client
    prefix = client.profile.prefixes[0]
    client.announce(prefix)
    scheduler.run_for(20)
    dst = internet.tier1s[0].prefixes[0].address_at(7)
    routes = client.lookup(dst, "uni-a")
    client.ping("uni-a", routes[0], dst)
    scheduler.run_for(15)
    assert client.delivered
    _packet, smac, _iface = client.delivered[-1]
    assert (smac.value >> 16) == 0x027F0000  # a virtual neighbor MAC


def test_bird_stop_clears_routes(connected_client):
    scheduler, platform, internet, client = connected_client
    assert client.pops["uni-a"].routes
    client.bird_stop("uni-a")
    scheduler.run_for(5)
    assert client.bird_status()["uni-a"] == "down"
    assert not client.pops["uni-a"].routes


def test_session_closed_by_the_mux_clears_routes(connected_client):
    """No Graceful Restart on the experiment session: when the mux shuts
    it, the routes it carried are gone at the client too."""
    scheduler, platform, internet, client = connected_client
    view = client.pops["uni-a"]
    assert view.routes
    platform.pops["uni-a"].node.experiments[client.name].session.shutdown()
    scheduler.run_for(5)
    assert client.bird_status()["uni-a"] == "closed"
    assert not view.routes
    assert client.pops["uni-b"].routes


def test_bird_cli_output(connected_client):
    scheduler, platform, internet, client = connected_client
    output = client.bird_cli("uni-a", "show route")
    assert "via 127.65." in output
    assert "established" in client.bird_cli("uni-a", "show protocols")


def test_announce_requires_session(connected_client):
    scheduler, platform, internet, client = connected_client
    client.bird_stop("uni-a")
    scheduler.run_for(2)
    with pytest.raises(RuntimeError):
        client.announce(client.profile.prefixes[0], pops=["uni-a"])
