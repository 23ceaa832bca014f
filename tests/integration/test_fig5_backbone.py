"""Integration: Figure 5 — vBGP across the backbone (§4.4).

Two vBGP routers (E1, E2) on the backbone; E2 has neighbor N2. An
experiment attached at E1 must (a) see N2's routes with an E1-local
virtual next hop, and (b) be able to send traffic through E1 → backbone →
E2 → N2 by addressing N2's virtual MAC — the hop-by-hop next-hop rewrite.
"""

import pytest

from repro.bgp.attributes import local_route
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.netsim.addr import IPv4Prefix
from repro.netsim.frames import IpProto, IPv4Packet, UdpDatagram
from repro.platform import PeeringPlatform, PopConfig
from repro.platform.experiment import ExperimentProposal
from repro.toolkit import ExperimentClient
from repro.vbgp.allocator import GLOBAL_POOL

DEST = IPv4Prefix.parse("192.168.0.0/24")


@pytest.fixture
def figure5(scheduler):
    platform = PeeringPlatform(
        scheduler,
        pop_configs=[
            PopConfig(name="e1", pop_id=0, kind="university", backbone=True),
            PopConfig(name="e2", pop_id=1, kind="university", backbone=True),
        ],
    )
    e2 = platform.pops["e2"]
    port = e2.provision_neighbor("n2", 65020, kind="transit")
    n2 = BgpSpeaker(
        scheduler, SpeakerConfig(asn=65020, router_id=port.address)
    )
    n2.attach_neighbor(
        NeighborConfig(name="to-e2", peer_asn=None,
                       local_address=port.address),
        port.channel,
    )
    n2.originate(local_route(DEST, next_hop=port.address))
    platform.submit_proposal(ExperimentProposal(
        name="x1", contact="t", goals="fig5", execution_plan="backbone",
    ))
    client = ExperimentClient(scheduler, "x1", platform)
    client.openvpn_up("e1")
    client.bird_start("e1")
    scheduler.run_for(10)
    return scheduler, platform, n2, port, client


def test_remote_route_visible_with_local_vip(figure5):
    scheduler, platform, n2, port, client = figure5
    routes = client.routes(DEST, "e1")
    assert len(routes) == 1
    assert str(routes[0].next_hop).startswith("127.65.")
    assert routes[0].as_path.origin_as == 65020


def test_backbone_carries_global_next_hops(figure5):
    scheduler, platform, n2, port, client = figure5
    e1 = platform.pops["e1"]
    gid = port.global_id
    remote = e1.node.remote_neighbors[gid]
    # E1's table for the remote neighbor points at the 127.127/16 global IP
    # over the backbone interface (the Figure 5 rewrite).
    entry = e1.stack.tables[remote.virtual.table_id].lookup(
        DEST.address_at(1)
    )
    assert entry is not None
    assert GLOBAL_POOL.contains_address(entry.value.next_hop)
    assert entry.value.out_iface == "bb0"


def test_data_plane_through_backbone(figure5):
    scheduler, platform, n2, port, client = figure5
    e1, e2 = platform.pops["e1"], platform.pops["e2"]
    route = client.routes(DEST, "e1")[0]
    packet = IPv4Packet(
        src=client.profile.prefixes[0].address_at(1),
        dst=DEST.address_at(1),
        proto=IpProto.UDP, payload=UdpDatagram(1, 9),
    )
    before = e2.stack.counters["forwarded"]
    client.send_via("e1", route, packet)
    scheduler.run_for(5)
    # The frame crossed E1 (rule → table → ARP for the global IP, answered
    # by E2's proxy-ARP with the neighbor's virtual MAC) and then E2
    # demuxed it into N2's table and forwarded to N2.
    assert e1.stack.counters["forwarded"] >= 1
    assert e2.stack.counters["forwarded"] == before + 1
    # E1 resolved the global IP to the deterministic virtual MAC.
    gid = port.global_id
    from repro.vbgp.allocator import global_neighbor_ip, global_neighbor_mac

    cached = e1.stack.arp_table.get(global_neighbor_ip(gid))
    assert cached is not None and cached[0] == global_neighbor_mac(gid)


def test_withdraw_propagates_over_backbone(figure5):
    scheduler, platform, n2, port, client = figure5
    assert client.routes(DEST, "e1")
    n2.withdraw(DEST)
    scheduler.run_for(5)
    assert client.routes(DEST, "e1") == []


def test_experiment_announcement_crosses_backbone(figure5):
    """Announcements can *target* neighbors at remote PoPs (§4.4) when a
    whitelist community directs them there; a plain announcement stays at
    the PoP where it was made."""
    from repro.vbgp.communities import announce_to_neighbor

    scheduler, platform, n2, port, client = figure5
    prefix = client.profile.prefixes[0]
    client.announce(prefix)  # plain: exits only at e1 (no neighbors there)
    scheduler.run_for(10)
    assert n2.best_route(prefix) is None
    client.withdraw(prefix)
    scheduler.run_for(5)
    client.announce(
        prefix, communities=(announce_to_neighbor(port.global_id),)
    )
    scheduler.run_for(10)
    best = n2.best_route(prefix)
    assert best is not None
    assert 47065 in best.as_path.asns
    # Control communities stripped before reaching the neighbor.
    assert announce_to_neighbor(port.global_id) not in best.communities


def test_remote_withdraw_counts_the_kernel_removal(figure5):
    """A backbone-learned path installs one kernel route and its
    withdrawal removes it: both counters move, exactly once."""
    scheduler, platform, n2, port, client = figure5
    e1 = platform.pops["e1"]
    counters = e1.node.counters
    assert (counters["routes_installed"], counters["routes_removed"]) == (1, 0)
    n2.withdraw(DEST)
    scheduler.run_for(5)
    remote = e1.node.remote_neighbors[port.global_id]
    assert len(e1.stack.tables[remote.virtual.table_id]) == 0
    assert (counters["routes_installed"], counters["routes_removed"]) == (1, 1)


def _announce_from_e2_to_n1(scheduler, platform, client):
    """Attach neighbor N1 at E1 and announce the experiment's prefix at
    E2 with a whitelist community that sends it out through N1."""
    from repro.vbgp.communities import announce_to_neighbor

    e1 = platform.pops["e1"]
    n1_port = e1.provision_neighbor("n1", 65010, kind="transit")
    n1 = BgpSpeaker(
        scheduler, SpeakerConfig(asn=65010, router_id=n1_port.address)
    )
    n1.attach_neighbor(
        NeighborConfig(name="to-e1", peer_asn=None,
                       local_address=n1_port.address),
        n1_port.channel,
    )
    client.openvpn_up("e2")
    client.bird_start("e2")
    scheduler.run_for(10)
    prefix = client.profile.prefixes[0]
    client.announce(prefix, pops=["e2"], communities=(
        announce_to_neighbor(n1_port.global_id),))
    scheduler.run_for(10)
    return n1, prefix


def test_backbone_loss_fails_closed(figure5):
    """When E1 loses its mesh session to E2, everything E2 told it goes:
    N2's path (remote Adj-RIB-In, kernel table, the experiment's view)
    and the experiment route E2 carried, which N1 stops hearing."""
    scheduler, platform, n2, port, client = figure5
    e1, e2 = platform.pops["e1"], platform.pops["e2"]
    n1, prefix = _announce_from_e2_to_n1(scheduler, platform, client)
    remote = e1.node.remote_neighbors[port.global_id]
    table = e1.stack.tables[remote.virtual.table_id]
    assert len(remote.rib) == 1 and len(table) == 1
    assert client.routes(DEST, "e1")
    assert prefix in e1.node.remote_exp_routes
    assert n1.best_route(prefix) is not None

    e2.node.backbone_peers["e1"].shutdown()
    scheduler.run_for(600)
    assert len(remote.rib) == 0
    assert len(table) == 0
    assert client.routes(DEST, "e1") == []
    assert e1.node.remote_exp_routes == {}
    assert "__remote__" not in e1.node.exp_prefixes.get(prefix)
    assert n1.best_route(prefix) is None
    # e2 is unaffected: its own neighbor and experiment stay.
    assert client.routes(DEST, "e2")


def test_replaced_backbone_session_close_is_ignored(figure5):
    """A mesh session that was already replaced closes late: the state
    its successor re-learned stays in place."""
    from repro.bgp.transport import connect_pair

    scheduler, platform, n2, port, client = figure5
    e1, e2 = platform.pops["e1"], platform.pops["e2"]
    old = e1.node.backbone_peers["e2"]
    a, b = connect_pair(scheduler, rtt=0.01)
    e1.node.attach_backbone_peer("e2", a)
    e2.node.attach_backbone_peer("e1", b)
    scheduler.run_for(5)
    old.shutdown()
    scheduler.run_for(5)
    remote = e1.node.remote_neighbors[port.global_id]
    assert len(remote.rib) == 1
    assert len(e1.stack.tables[remote.virtual.table_id]) == 1
    assert client.routes(DEST, "e1")
