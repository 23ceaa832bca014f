"""Network-stack tests: ARP, forwarding, policy rules, hooks, ICMP."""

import pytest

from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.netsim.frames import (
    EtherType,
    EthernetFrame,
    IcmpMessage,
    IcmpType,
    IpProto,
    IPv4Packet,
    UdpDatagram,
)
from repro.netsim.link import Link, Port
from repro.netsim.stack import (
    KernelRoute,
    NetworkStack,
    RoutingRule,
)


def build_pair(scheduler, latency=0.001):
    """Two hosts on a point-to-point link: 10.0.0.1 <-> 10.0.0.2."""
    a = NetworkStack(scheduler, "a")
    b = NetworkStack(scheduler, "b")
    port_a, port_b = Port("a0"), Port("b0")
    Link(scheduler, port_a, port_b, latency=latency)
    a.add_interface("eth0", MacAddress.parse("02:00:00:00:00:0a"), port_a)
    b.add_interface("eth0", MacAddress.parse("02:00:00:00:00:0b"), port_b)
    a.add_address("eth0", IPv4Address.parse("10.0.0.1"), 24)
    b.add_address("eth0", IPv4Address.parse("10.0.0.2"), 24)
    return a, b


def test_ping_over_link(scheduler):
    a, b = build_pair(scheduler)
    replies = []
    a.on_icmp(lambda packet, icmp: replies.append((packet, icmp)))
    a.send_ip(IPv4Packet(
        src=IPv4Address.parse("10.0.0.1"),
        dst=IPv4Address.parse("10.0.0.2"),
        proto=IpProto.ICMP,
        payload=IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST, sequence=1),
    ))
    scheduler.run_for(2)
    assert len(replies) == 1
    packet, icmp = replies[0]
    assert icmp.icmp_type == IcmpType.ECHO_REPLY
    assert str(packet.src) == "10.0.0.2"


def test_arp_resolution_is_cached(scheduler):
    a, b = build_pair(scheduler)
    dst = IPv4Address.parse("10.0.0.2")
    a.send_ip(IPv4Packet(src=IPv4Address.parse("10.0.0.1"), dst=dst,
                         proto=IpProto.UDP, payload=UdpDatagram(1, 9)))
    scheduler.run_for(2)
    assert dst in a.arp_table
    assert a.arp_table[dst][0] == b.interfaces["eth0"].mac


def test_udp_delivery_and_port_unreachable(scheduler):
    a, b = build_pair(scheduler)
    received = []
    b.bind_udp(5000, lambda packet, dgram: received.append(dgram))
    a.send_ip(IPv4Packet(src=IPv4Address.parse("10.0.0.1"),
                         dst=IPv4Address.parse("10.0.0.2"),
                         proto=IpProto.UDP,
                         payload=UdpDatagram(1234, 5000, b"hi")))
    scheduler.run_for(2)
    assert received and received[0].payload == b"hi"

    errors = []
    a.on_icmp(lambda packet, icmp: errors.append(icmp))
    a.send_ip(IPv4Packet(src=IPv4Address.parse("10.0.0.1"),
                         dst=IPv4Address.parse("10.0.0.2"),
                         proto=IpProto.UDP,
                         payload=UdpDatagram(1234, 7777, b"x")))
    scheduler.run_for(2)
    assert errors and errors[0].icmp_type == IcmpType.DEST_UNREACHABLE


def test_forwarding_through_middle_hop(scheduler):
    """a -- r -- b, with static routes through the middle."""
    a = NetworkStack(scheduler, "a")
    r = NetworkStack(scheduler, "r")
    b = NetworkStack(scheduler, "b")
    pa, pr1 = Port(), Port()
    pr2, pb = Port(), Port()
    Link(scheduler, pa, pr1)
    Link(scheduler, pr2, pb)
    a.add_interface("eth0", MacAddress(0x02_01), pa)
    r.add_interface("eth0", MacAddress(0x02_02), pr1)
    r.add_interface("eth1", MacAddress(0x02_03), pr2)
    b.add_interface("eth0", MacAddress(0x02_04), pb)
    a.add_address("eth0", IPv4Address.parse("10.0.1.1"), 24)
    r.add_address("eth0", IPv4Address.parse("10.0.1.2"), 24)
    r.add_address("eth1", IPv4Address.parse("10.0.2.1"), 24)
    b.add_address("eth0", IPv4Address.parse("10.0.2.2"), 24)
    a.add_route(KernelRoute(prefix=IPv4Prefix.parse("10.0.2.0/24"),
                            out_iface="eth0",
                            next_hop=IPv4Address.parse("10.0.1.2")))
    b.add_route(KernelRoute(prefix=IPv4Prefix.parse("10.0.1.0/24"),
                            out_iface="eth0",
                            next_hop=IPv4Address.parse("10.0.2.1")))
    replies = []
    a.on_icmp(lambda packet, icmp: replies.append(icmp))
    a.send_ip(IPv4Packet(src=IPv4Address.parse("10.0.1.1"),
                         dst=IPv4Address.parse("10.0.2.2"),
                         proto=IpProto.ICMP,
                         payload=IcmpMessage(IcmpType.ECHO_REQUEST)))
    scheduler.run_for(3)
    assert replies and replies[0].icmp_type == IcmpType.ECHO_REPLY
    assert r.counters["forwarded"] >= 1


def test_ttl_exceeded_sourced_from_primary_address(scheduler):
    a, b = build_pair(scheduler)
    # Give b a second address; the *first* remains primary.
    b.add_address("eth0", IPv4Address.parse("10.0.0.99"), 24)
    b.forwarding = True
    errors = []
    a.on_icmp(lambda packet, icmp: errors.append((packet, icmp)))
    a.send_ip(IPv4Packet(src=IPv4Address.parse("10.0.0.1"),
                         dst=IPv4Address.parse("99.9.9.9"),
                         proto=IpProto.UDP, payload=UdpDatagram(1, 2),
                         ttl=1))
    # Need a route at a to 99/8 via b.
    a.add_route(KernelRoute(prefix=IPv4Prefix.parse("99.0.0.0/8"),
                            out_iface="eth0",
                            next_hop=IPv4Address.parse("10.0.0.2")))
    a.send_ip(IPv4Packet(src=IPv4Address.parse("10.0.0.1"),
                         dst=IPv4Address.parse("99.9.9.9"),
                         proto=IpProto.UDP, payload=UdpDatagram(1, 2),
                         ttl=1))
    scheduler.run_for(3)
    assert errors
    packet, icmp = errors[-1]
    assert icmp.icmp_type == IcmpType.TIME_EXCEEDED
    assert str(packet.src) == "10.0.0.2"  # primary, not 10.0.0.99


def test_policy_rule_dmac_selects_table(scheduler):
    """The vBGP mechanism: frames to a virtual MAC use its own table."""
    a, b = build_pair(scheduler)
    vmac = MacAddress.parse("02:7f:00:00:00:05")
    b.interfaces["eth0"].extra_macs.add(vmac)
    b.forwarding = True
    # Table 100 routes 99/8 back toward a; main table has no route.
    b.add_route(KernelRoute(prefix=IPv4Prefix.parse("99.0.0.0/8"),
                            out_iface="eth0",
                            next_hop=IPv4Address.parse("10.0.0.1")),
                table_id=100)
    b.add_rule(RoutingRule(priority=10, table=100, match_dmac=vmac))
    # Send a frame directly to the vmac.
    packet = IPv4Packet(src=IPv4Address.parse("10.0.0.1"),
                        dst=IPv4Address.parse("99.1.2.3"),
                        proto=IpProto.UDP, payload=UdpDatagram(5, 6))
    a.interfaces["eth0"].send_frame(EthernetFrame(
        src=a.interfaces["eth0"].mac, dst=vmac,
        ethertype=EtherType.IPV4, payload=packet,
    ))
    scheduler.run_for(2)
    assert b.counters["forwarded"] == 1
    assert b.counters["dropped_no_route"] == 0
    # Without the dmac (normal MAC), the main table has no route → drop.
    a.interfaces["eth0"].send_frame(EthernetFrame(
        src=a.interfaces["eth0"].mac, dst=b.interfaces["eth0"].mac,
        ethertype=EtherType.IPV4, payload=packet,
    ))
    scheduler.run_for(2)
    assert b.counters["dropped_no_route"] == 1


def test_proxy_arp_answers_with_configured_mac(scheduler):
    a, b = build_pair(scheduler)
    vip = IPv4Address.parse("127.65.0.1")
    vmac = MacAddress.parse("02:7f:00:00:00:01")
    b.add_proxy_arp("eth0", vip, vmac)
    a.send_ip_via(
        IPv4Packet(src=IPv4Address.parse("10.0.0.1"),
                   dst=IPv4Address.parse("8.8.8.8"),
                   proto=IpProto.UDP, payload=UdpDatagram(1, 2)),
        next_hop=vip, out_iface="eth0",
    )
    scheduler.run_for(2)
    assert a.arp_table[vip][0] == vmac


def test_frames_to_foreign_macs_ignored(scheduler):
    a, b = build_pair(scheduler)
    packet = IPv4Packet(src=IPv4Address.parse("10.0.0.1"),
                        dst=IPv4Address.parse("10.0.0.2"),
                        proto=IpProto.UDP, payload=UdpDatagram(1, 2))
    a.interfaces["eth0"].send_frame(EthernetFrame(
        src=a.interfaces["eth0"].mac,
        dst=MacAddress.parse("02:99:99:99:99:99"),
        ethertype=EtherType.IPV4, payload=packet,
    ))
    scheduler.run_for(2)
    assert b.counters["rx_packets"] == 0


def test_ingress_hook_can_drop(scheduler):
    a, b = build_pair(scheduler)
    b.ingress_hooks.append(lambda frame, iface: None)
    a.send_ip(IPv4Packet(src=IPv4Address.parse("10.0.0.1"),
                         dst=IPv4Address.parse("10.0.0.2"),
                         proto=IpProto.UDP, payload=UdpDatagram(1, 2)))
    scheduler.run_for(2)
    # The ARP request itself is also dropped by the hook → ARP timeout.
    assert b.counters["rx_packets"] == 0
    assert b.counters["dropped_hook"] >= 1


def test_egress_hook_can_rewrite_source_mac(scheduler):
    a, b = build_pair(scheduler)
    spoof = MacAddress.parse("02:7f:00:00:00:42")

    def rewrite(frame, iface):
        if frame.ethertype == EtherType.IPV4:
            return EthernetFrame(src=spoof, dst=frame.dst,
                                 ethertype=frame.ethertype,
                                 payload=frame.payload)
        return frame

    seen_src = []
    b.ingress_hooks.append(
        lambda frame, iface: (seen_src.append(frame.src), frame)[1]
    )
    a.egress_hooks.append(rewrite)
    a.add_static_arp(IPv4Address.parse("10.0.0.2"),
                     b.interfaces["eth0"].mac, "eth0")
    a.send_ip(IPv4Packet(src=IPv4Address.parse("10.0.0.1"),
                         dst=IPv4Address.parse("10.0.0.2"),
                         proto=IpProto.UDP, payload=UdpDatagram(1, 2)))
    scheduler.run_for(2)
    assert spoof in seen_src


def test_interface_down_blocks_traffic(scheduler):
    a, b = build_pair(scheduler)
    b.interfaces["eth0"].up = False
    a.send_ip(IPv4Packet(src=IPv4Address.parse("10.0.0.1"),
                         dst=IPv4Address.parse("10.0.0.2"),
                         proto=IpProto.UDP, payload=UdpDatagram(1, 2)))
    scheduler.run_for(3)
    assert b.counters["rx_packets"] == 0
    assert a.counters["arp_timeouts"] == 1


def test_remove_interface_drops_routes(scheduler):
    a, _b = build_pair(scheduler)
    a.add_route(KernelRoute(prefix=IPv4Prefix.parse("99.0.0.0/8"),
                            out_iface="eth0",
                            next_hop=IPv4Address.parse("10.0.0.2")))
    a.remove_interface("eth0")
    assert "eth0" not in a.interfaces
    assert a.tables[254].lookup(IPv4Address.parse("99.1.1.1")) is None


def test_duplicate_interface_rejected(scheduler):
    a, _b = build_pair(scheduler)
    with pytest.raises(ValueError):
        a.add_interface("eth0", MacAddress(1), Port())


def test_route_via_unknown_interface_rejected(scheduler):
    a = NetworkStack(scheduler, "x")
    with pytest.raises(ValueError):
        a.add_route(KernelRoute(prefix=IPv4Prefix.parse("99.0.0.0/8"),
                                out_iface="nope"))


def test_local_delivery_without_interface_loop(scheduler):
    a, _b = build_pair(scheduler)
    received = []
    a.bind_udp(8080, lambda packet, dgram: received.append(packet))
    a.send_ip(IPv4Packet(src=IPv4Address.parse("10.0.0.1"),
                         dst=IPv4Address.parse("10.0.0.1"),
                         proto=IpProto.UDP, payload=UdpDatagram(1, 8080)))
    scheduler.run_for(1)
    assert len(received) == 1


def test_rule_priority_order(scheduler):
    a, b = build_pair(scheduler)
    b.forwarding = True
    # Two rules match; the lower-priority number must win.
    b.add_route(KernelRoute(prefix=IPv4Prefix.parse("99.0.0.0/8"),
                            out_iface="eth0",
                            next_hop=IPv4Address.parse("10.0.0.1")),
                table_id=100)
    b.add_route(KernelRoute(prefix=IPv4Prefix.parse("99.0.0.0/8"),
                            out_iface="eth0",
                            next_hop=IPv4Address.parse("10.0.0.99")),
                table_id=200)
    b.add_rule(RoutingRule(priority=20, table=200))
    b.add_rule(RoutingRule(priority=10, table=100))
    packet = IPv4Packet(src=IPv4Address.parse("10.0.0.1"),
                        dst=IPv4Address.parse("99.0.0.1"),
                        proto=IpProto.UDP, payload=UdpDatagram(1, 2))
    route = b.lookup_route(packet)
    assert route is not None
    assert str(route.next_hop) == "10.0.0.1"


def test_cold_arp_over_zero_latency_link_delivers_queued_packet(scheduler):
    """``Link`` delivery is an event even when it takes no time: the
    stack broadcasts its ARP request *before* it queues the packet behind
    it, so a reply arriving inside that call would find no waiter and
    the packet would sit until the ARP timeout dropped it."""
    a, b = build_pair(scheduler, latency=0.0)
    received = []
    b.bind_udp(5000, lambda packet, dgram: received.append(dgram.payload))
    dst = IPv4Address.parse("10.0.0.2")
    assert dst not in a.arp_table
    a.send_ip(IPv4Packet(src=IPv4Address.parse("10.0.0.1"), dst=dst,
                         proto=IpProto.UDP,
                         payload=UdpDatagram(1234, 5000, b"queued")))
    assert received == [] and scheduler.pending() > 0
    scheduler.run_for(2)
    assert received == [b"queued"]
    assert dst in a.arp_table
    assert a.counters["arp_timeouts"] == 0
