"""Figure 5 / §4.4 — vBGP across the backbone, measured.

Scenario: experiment at E1, neighbor N2 at E2. Verifies and times the
hop-by-hop next-hop-rewrite chain: the route as announced by N2, carried
on the mesh with the neighbor's *global* 127.127/16 IP, delivered to the
experiment with an E1-*local* 127.65/16 IP — and the data-plane path
E1 → backbone → E2 → N2 keyed entirely by the deterministic virtual MAC.
"""

import pytest

from benchmarks.reporting import format_table, report
from repro.bgp.attributes import local_route
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.netsim.addr import IPv4Prefix
from repro.netsim.frames import IpProto, IPv4Packet, UdpDatagram
from repro.platform import PeeringPlatform, PopConfig
from repro.platform.experiment import ExperimentProposal
from repro.sim import Scheduler
from repro.toolkit import ExperimentClient
from repro.vbgp.allocator import GLOBAL_POOL

DEST = IPv4Prefix.parse("192.168.0.0/24")


@pytest.fixture(scope="module")
def figure5_world():
    scheduler = Scheduler()
    platform = PeeringPlatform(scheduler, pop_configs=[
        PopConfig(name="e1", pop_id=0, kind="university", backbone=True),
        PopConfig(name="e2", pop_id=1, kind="university", backbone=True),
    ])
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
        name="x1", contact="t", goals="fig5", execution_plan="bench",
    ))
    client = ExperimentClient(scheduler, "x1", platform)
    client.openvpn_up("e1")
    client.bird_start("e1")
    scheduler.run_for(10)
    return scheduler, platform, n2, port, client


def test_fig5_rewrite_chain_report(figure5_world, benchmark):
    scheduler, platform, n2, port, client = figure5_world
    e1 = platform.pops["e1"]

    def inspect():
        route = client.routes(DEST, "e1")[0]
        remote = e1.node.remote_neighbors[port.global_id]
        table_entry = e1.stack.tables[remote.virtual.table_id].lookup(
            DEST.address_at(1)
        )
        return route, remote, table_entry

    route, remote, table_entry = benchmark.pedantic(
        inspect, rounds=1, iterations=1
    )
    rows = [
        ["N2 announces (at E2)", f"next hop {port.address}"],
        ["carried on the mesh", f"next hop {remote.virtual.global_ip} "
                                "(global pool)"],
        ["exported to X1 (at E1)", f"next hop {route.next_hop} "
                                   "(E1-local pool)"],
        ["E1 kernel table", f"table {remote.virtual.table_id} -> "
                            f"{table_entry.value.next_hop} via bb0"],
        ["virtual MAC (everywhere)", str(remote.virtual.mac)],
    ]
    report(
        "fig5_backbone",
        "Figure 5: the hop-by-hop next-hop rewrite chain\n"
        + format_table(["stage", "value"], rows),
    )
    assert str(route.next_hop).startswith("127.65.")
    assert GLOBAL_POOL.contains_address(table_entry.value.next_hop)


def test_fig5_cross_backbone_forwarding_rate(figure5_world, benchmark):
    scheduler, platform, n2, port, client = figure5_world
    e1, e2 = platform.pops["e1"], platform.pops["e2"]
    route = client.routes(DEST, "e1")[0]
    packet = IPv4Packet(
        src=client.profile.prefixes[0].address_at(1),
        dst=DEST.address_at(1),
        proto=IpProto.UDP, payload=UdpDatagram(1, 9),
    )
    # Warm ARP caches.
    client.send_via("e1", route, packet)
    scheduler.run_for(5)
    before = e2.stack.counters["forwarded"]

    def burst():
        for _ in range(200):
            client.send_via("e1", route, packet)
        scheduler.run_for(2)

    benchmark(burst)
    delivered = e2.stack.counters["forwarded"] - before
    assert delivered >= 200  # every packet crossed both vBGP hops
