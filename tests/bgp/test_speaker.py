"""Speaker integration tests: propagation, policy, ADD-PATH export,
split horizon, iBGP rules, max-prefix protection."""

import pytest

from repro.bgp.attributes import Community, local_route, originate
from repro.bgp.decision import best_path
from repro.bgp.policy import (
    Match,
    PolicyAction,
    PolicyResult,
    PolicyRule,
    RouteMap,
)
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.transport import connect_pair
from repro.netsim.addr import IPv4Address, IPv4Prefix

P1 = IPv4Prefix.parse("10.10.0.0/16")


def make_speaker(scheduler, asn, router_id, **kwargs):
    return BgpSpeaker(
        scheduler,
        SpeakerConfig(asn=asn,
                      router_id=IPv4Address.parse(router_id), **kwargs),
    )


def connect(scheduler, a, b, *, name_a=None, name_b=None, asn_a=None,
            asn_b=None, **common):
    ca, cb = connect_pair(scheduler, rtt=0.02)
    a.attach_neighbor(
        NeighborConfig(
            name=name_a or f"to-{b.config.asn}", peer_asn=b.config.asn,
            local_address=a.config.router_id, **common,
        ),
        ca,
    )
    b.attach_neighbor(
        NeighborConfig(
            name=name_b or f"to-{a.config.asn}", peer_asn=a.config.asn,
            local_address=b.config.router_id, **common,
        ),
        cb,
    )


def test_route_propagates_two_hops(scheduler):
    a = make_speaker(scheduler, 1, "1.1.1.1")
    b = make_speaker(scheduler, 2, "2.2.2.2")
    c = make_speaker(scheduler, 3, "3.3.3.3")
    connect(scheduler, a, b)
    connect(scheduler, b, c)
    a.originate(local_route(P1, next_hop=a.config.router_id))
    scheduler.run_for(2)
    best = c.best_route(P1)
    assert best is not None
    assert best.as_path.asns == (2, 1)


def test_withdraw_propagates(scheduler):
    a = make_speaker(scheduler, 1, "1.1.1.1")
    b = make_speaker(scheduler, 2, "2.2.2.2")
    connect(scheduler, a, b)
    a.originate(local_route(P1, next_hop=a.config.router_id))
    scheduler.run_for(2)
    assert b.best_route(P1) is not None
    a.withdraw(P1)
    scheduler.run_for(2)
    assert b.best_route(P1) is None


def test_loop_prevention_drops_own_asn(scheduler):
    a = make_speaker(scheduler, 1, "1.1.1.1")
    b = make_speaker(scheduler, 2, "2.2.2.2")
    connect(scheduler, a, b)
    scheduler.run_for(1)
    # b receives a route already containing ASN 2 → must discard.
    from repro.bgp.messages import UpdateMessage

    poisoned = originate(P1, 2, IPv4Address.parse("9.9.9.9")).prepended(1)
    a.neighbors[f"to-2"].session.send_update(
        UpdateMessage.announce([poisoned])
    )
    scheduler.run_for(2)
    assert b.best_route(P1) is None


def test_split_horizon(scheduler):
    a = make_speaker(scheduler, 1, "1.1.1.1")
    b = make_speaker(scheduler, 2, "2.2.2.2")
    connect(scheduler, a, b)
    a.originate(local_route(P1, next_hop=a.config.router_id))
    scheduler.run_for(2)
    # b must not advertise the route back to a: a's rib should contain
    # only its local route (one candidate).
    assert len(a.loc_rib.candidates(P1)) == 1


def test_ibgp_not_reflected_between_ibgp_peers(scheduler):
    a = make_speaker(scheduler, 100, "1.1.1.1")
    b = make_speaker(scheduler, 100, "2.2.2.2")
    c = make_speaker(scheduler, 100, "3.3.3.3")
    connect(scheduler, a, b, name_a="ab", name_b="ba", is_ibgp=True)
    connect(scheduler, b, c, name_a="bc", name_b="cb", is_ibgp=True)
    a.originate(local_route(P1, next_hop=a.config.router_id))
    scheduler.run_for(2)
    assert b.best_route(P1) is not None
    assert c.best_route(P1) is None  # needs full mesh, as in real iBGP


def test_ibgp_does_not_prepend(scheduler):
    a = make_speaker(scheduler, 100, "1.1.1.1")
    b = make_speaker(scheduler, 100, "2.2.2.2")
    connect(scheduler, a, b, is_ibgp=True)
    a.originate(local_route(P1, next_hop=a.config.router_id))
    scheduler.run_for(2)
    assert b.best_route(P1).as_path.length == 0


def test_transparent_route_server_semantics(scheduler):
    rs = make_speaker(scheduler, 6777, "9.9.9.9")
    a = make_speaker(scheduler, 1, "1.1.1.1")
    b = make_speaker(scheduler, 2, "2.2.2.2")
    connect(scheduler, a, rs, name_a="to-rs", name_b="member-a",
            transparent=True, next_hop_self=False)
    connect(scheduler, b, rs, name_a="to-rs", name_b="member-b",
            transparent=True, next_hop_self=False)
    a.originate(local_route(P1, next_hop=IPv4Address.parse("7.7.7.7")))
    scheduler.run_for(2)
    best = b.best_route(P1)
    assert best is not None
    assert 6777 not in best.as_path.asns  # RS ASN absent
    assert str(best.next_hop) == "7.7.7.7"  # next hop preserved


def test_import_policy_rejects(scheduler):
    a = make_speaker(scheduler, 1, "1.1.1.1")
    b = make_speaker(scheduler, 2, "2.2.2.2")
    reject_ten = RouteMap(rules=[PolicyRule(
        match=Match(prefixes=(
            __import__("repro.bgp.policy", fromlist=["PrefixMatch"])
            .PrefixMatch(IPv4Prefix.parse("10.0.0.0/8"), ge=8, le=32),
        )),
        result=PolicyResult.REJECT,
    )])
    ca, cb = connect_pair(scheduler, rtt=0.02)
    a.attach_neighbor(NeighborConfig(name="to-b", peer_asn=2,
                                     local_address=a.config.router_id), ca)
    b.attach_neighbor(NeighborConfig(name="to-a", peer_asn=1,
                                     local_address=b.config.router_id,
                                     import_policy=reject_ten), cb)
    a.originate(local_route(P1, next_hop=a.config.router_id))
    a.originate(local_route(IPv4Prefix.parse("20.0.0.0/16"),
                            next_hop=a.config.router_id))
    scheduler.run_for(2)
    assert b.best_route(P1) is None
    assert b.best_route(IPv4Prefix.parse("20.0.0.0/16")) is not None


def test_export_policy_transforms(scheduler):
    a = make_speaker(scheduler, 1, "1.1.1.1")
    b = make_speaker(scheduler, 2, "2.2.2.2")
    add_tag = RouteMap(rules=[PolicyRule(
        action=PolicyAction(add_communities=(Community(1, 99),)),
        result=PolicyResult.ACCEPT,
    )])
    ca, cb = connect_pair(scheduler, rtt=0.02)
    a.attach_neighbor(NeighborConfig(name="to-b", peer_asn=2,
                                     local_address=a.config.router_id,
                                     export_policy=add_tag), ca)
    b.attach_neighbor(NeighborConfig(name="to-a", peer_asn=1,
                                     local_address=b.config.router_id), cb)
    a.originate(local_route(P1, next_hop=a.config.router_id))
    scheduler.run_for(2)
    assert Community(1, 99) in b.best_route(P1).communities


def test_addpath_exports_all_candidates(scheduler):
    hub = make_speaker(scheduler, 10, "10.0.0.1")
    left = make_speaker(scheduler, 1, "1.1.1.1")
    right = make_speaker(scheduler, 2, "2.2.2.2")
    watcher = make_speaker(scheduler, 99, "99.0.0.1")
    connect(scheduler, left, hub)
    connect(scheduler, right, hub)
    connect(scheduler, hub, watcher, addpath=True)
    left.originate(local_route(P1, next_hop=left.config.router_id))
    right.originate(local_route(P1, next_hop=right.config.router_id))
    scheduler.run_for(3)
    candidates = watcher.loc_rib.candidates(P1)
    assert len(candidates) == 2
    path_ids = {entry.route.path_id for entry in candidates}
    assert len(path_ids) == 2


def test_best_only_without_addpath(scheduler):
    hub = make_speaker(scheduler, 10, "10.0.0.1")
    left = make_speaker(scheduler, 1, "1.1.1.1")
    right = make_speaker(scheduler, 2, "2.2.2.2")
    watcher = make_speaker(scheduler, 99, "99.0.0.1")
    connect(scheduler, left, hub)
    connect(scheduler, right, hub)
    connect(scheduler, hub, watcher)
    left.originate(local_route(P1, next_hop=left.config.router_id))
    right.originate(local_route(P1, next_hop=right.config.router_id))
    scheduler.run_for(3)
    assert len(watcher.loc_rib.candidates(P1)) == 1


def test_max_prefixes_resets_session(scheduler):
    a = make_speaker(scheduler, 1, "1.1.1.1")
    b = make_speaker(scheduler, 2, "2.2.2.2")
    ca, cb = connect_pair(scheduler, rtt=0.02)
    a.attach_neighbor(NeighborConfig(name="to-b", peer_asn=2,
                                     local_address=a.config.router_id), ca)
    b.attach_neighbor(NeighborConfig(name="to-a", peer_asn=1,
                                     local_address=b.config.router_id,
                                     max_prefixes=3), cb)
    for index in range(6):
        a.originate(local_route(IPv4Prefix.parse(f"10.{index}.0.0/16"),
                                next_hop=a.config.router_id))
    scheduler.run_for(3)
    assert not b.neighbors["to-a"].established


@pytest.mark.parametrize("addpath", [False, True])
def test_max_prefixes_trips_at_limit_plus_one(scheduler, addpath):
    """Replaces and withdrawals keep the count exact: the session survives
    at ``max_prefixes`` paths and closes on the one after."""
    a = make_speaker(scheduler, 1, "1.1.1.1")
    b = make_speaker(scheduler, 2, "2.2.2.2")
    ca, cb = connect_pair(scheduler, rtt=0.02)
    a.attach_neighbor(NeighborConfig(name="to-b", peer_asn=2, addpath=addpath,
                                     local_address=a.config.router_id), ca)
    b.attach_neighbor(NeighborConfig(name="to-a", peer_asn=1, addpath=addpath,
                                     local_address=b.config.router_id,
                                     max_prefixes=3), cb)
    prefixes = [IPv4Prefix.parse(f"10.{index}.0.0/16") for index in range(5)]
    neighbor = b.neighbors["to-a"]

    def originate(prefix, *communities):
        a.originate(local_route(prefix, next_hop=a.config.router_id,
                                communities=communities))
        scheduler.run_for(1)

    for prefix in prefixes[:3]:
        originate(prefix)
    originate(prefixes[0], Community(1, 1))         # replace: still 3
    assert neighbor.established and len(neighbor.adj_rib_in) == 3
    a.withdraw(prefixes[1])
    scheduler.run_for(1)
    assert len(neighbor.adj_rib_in) == 2
    originate(prefixes[3])                          # 3 again
    originate(prefixes[3], Community(1, 2))
    assert neighbor.established and len(neighbor.adj_rib_in) == 3
    originate(prefixes[4])                          # the 4th path
    assert not neighbor.established


@pytest.mark.parametrize("change", [
    dict(is_ibgp=True),
    dict(peer_address=IPv4Address.parse("10.0.0.9")),
], ids=["is_ibgp", "peer_address"])
def test_decision_contexts_follow_a_reattached_neighbor(scheduler, change):
    """Removing a neighbor and attaching it again under the same name with
    another context must reach the decision: "b" wins the peer-address
    tie-break until it comes back as iBGP or with a higher address.  "c"
    holds a longer path, so a decision runs while "b" is away."""
    x = make_speaker(scheduler, 10, "10.0.0.10")
    peers = {
        "a": make_speaker(scheduler, 1, "1.1.1.1"),
        "b": make_speaker(scheduler, 2, "2.2.2.2"),
        "c": make_speaker(scheduler, 3, "3.3.3.3"),
    }

    def attach(name, address, **extra):
        peer = peers[name]
        ours, theirs = connect_pair(scheduler, rtt=0.02)
        config = {"peer_address": IPv4Address.parse(address), **extra}
        x.attach_neighbor(NeighborConfig(
            name=name, peer_asn=peer.config.asn,
            local_address=x.config.router_id, **config), ours)
        if "x" in peer.neighbors:
            peer.reattach_neighbor("x", theirs)
        else:
            peer.attach_neighbor(NeighborConfig(
                name="x", peer_asn=10,
                local_address=peer.config.router_id), theirs)

    for name, address in (("a", "10.0.0.2"), ("b", "10.0.0.1"),
                          ("c", "10.0.0.3")):
        attach(name, address)
        peer = peers[name]
        route = local_route(P1, next_hop=peer.config.router_id)
        peer.originate(route.prepended(3) if name == "c" else route)
    scheduler.run_for(2)
    assert x.loc_rib.best(P1).peer == "b"

    x.remove_neighbor("b")
    scheduler.run_for(1)
    assert x.loc_rib.best(P1).peer == "a"
    attach("b", "10.0.0.1", **change)
    scheduler.run_for(2)
    fresh = {name: neighbor.context for name, neighbor in x.neighbors.items()}
    assert len(x.loc_rib.candidates(P1)) == 3
    assert x.loc_rib.best(P1) == best_path(x.loc_rib.candidates(P1), fresh)
    assert x.loc_rib.best(P1).peer == "a"


def test_session_loss_withdraws_routes(scheduler):
    a = make_speaker(scheduler, 1, "1.1.1.1")
    b = make_speaker(scheduler, 2, "2.2.2.2")
    c = make_speaker(scheduler, 3, "3.3.3.3")
    connect(scheduler, a, b)
    connect(scheduler, b, c)
    a.originate(local_route(P1, next_hop=a.config.router_id))
    scheduler.run_for(2)
    assert c.best_route(P1) is not None
    b.remove_neighbor("to-1")
    scheduler.run_for(2)
    assert c.best_route(P1) is None


def test_mrai_batches_updates(scheduler):
    a = make_speaker(scheduler, 1, "1.1.1.1", mrai=1.0)
    b = make_speaker(scheduler, 2, "2.2.2.2")
    connect(scheduler, a, b)
    scheduler.run_for(1)
    for index in range(10):
        a.originate(local_route(IPv4Prefix.parse(f"10.{index}.0.0/16"),
                                next_hop=a.config.router_id))
    scheduler.run_for(0.5)
    assert b.best_route(IPv4Prefix.parse("10.0.0.0/16")) is None
    scheduler.run_for(2)
    assert b.best_route(IPv4Prefix.parse("10.0.0.0/16")) is not None
    # All 10 prefixes share attributes → batched into few updates.
    sessions = a.neighbors["to-2"].session
    assert sessions.stats.updates_sent <= 3
