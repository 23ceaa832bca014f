"""``NetworkStack.lookup_route`` walks a dst-MAC index of ``stack.rules``;
it must pick the route the plain priority-ordered scan picks."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.netsim.frames import IpProto, IPv4Packet
from repro.netsim.link import Port
from repro.netsim.stack import (
    MAIN_TABLE,
    KernelRoute,
    NetworkStack,
    RoutingRule,
)
from repro.sim import Scheduler

from .rule_scan_reference import lookup_route_linear

MACS = [MacAddress(0x027F00000000 + n) for n in range(4)]
IFACES = ["eth0", "eth1"]
PREFIXES = [IPv4Prefix.parse(text) for text in
            ("10.0.0.0/8", "10.1.0.0/16", "99.0.0.0/8", "0.0.0.0/0")]
# Tables 100-102 hold a default route, 103 only 99/8, 104 exists empty,
# 105 is never created.
TABLES = [100, 101, 102, 103, 104, 105, MAIN_TABLE]

rules = st.builds(
    RoutingRule,
    priority=st.integers(min_value=1, max_value=4),
    table=st.sampled_from(TABLES),
    match_iif=st.sampled_from([None, None, *IFACES]),
    match_dst=st.sampled_from([None, None, *PREFIXES]),
    match_src=st.sampled_from([None, None, *PREFIXES]),
    match_dmac=st.sampled_from([None, *MACS]),
)
addresses = st.one_of(
    st.sampled_from(PREFIXES).flatmap(
        lambda p: st.integers(0, (1 << (32 - p.length)) - 1).map(
            lambda host: IPv4Address(p.network.value + host))),
    st.integers(0, (1 << 32) - 1).map(IPv4Address),
)
probes = st.tuples(
    addresses, addresses,
    st.sampled_from([None, *IFACES, "eth9"]),
    st.sampled_from([None, *MACS, MacAddress(0x020000000099)]),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), rules),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
    ),
    max_size=24,
)


def build_stack() -> NetworkStack:
    stack = NetworkStack(Scheduler(), "mux")
    for position, name in enumerate(IFACES):
        stack.add_interface(name, MacAddress(0x020000000001 + position),
                            Port(name))
    for table in (100, 101, 102):
        stack.add_route(
            KernelRoute(prefix=IPv4Prefix.parse("0.0.0.0/0"),
                        out_iface="eth0",
                        next_hop=IPv4Address(0x0A000000 + table)),
            table_id=table,
        )
    stack.add_route(
        KernelRoute(prefix=IPv4Prefix.parse("99.0.0.0/8"), out_iface="eth1",
                    next_hop=IPv4Address(0x0A000067)),
        table_id=103,
    )
    stack.table(104)
    stack.add_route(
        KernelRoute(prefix=IPv4Prefix.parse("10.1.0.0/16"), out_iface="eth1"))
    return stack


def assert_same_as_scan(stack: NetworkStack, probe_list) -> None:
    for src, dst, iif, dmac in probe_list:
        packet = IPv4Packet(src=src, dst=dst, proto=IpProto.UDP)
        assert stack.lookup_route(packet, iif, dmac) == lookup_route_linear(
            stack, packet, iif, dmac
        ), (stack.rules, src, dst, iif, dmac)


@settings(max_examples=150, deadline=None)
@given(steps=steps, probe_list=st.lists(probes, min_size=1, max_size=12))
def test_indexed_lookup_equals_linear_scan(steps, probe_list):
    stack = build_stack()
    assert_same_as_scan(stack, probe_list)
    for action, argument in steps:
        if action == "add":
            stack.add_rule(argument)
        elif stack.rules:
            stack.remove_rule(stack.rules[argument % len(stack.rules)])
        assert stack.rules == sorted(stack.rules, key=lambda r: r.priority)
        assert_same_as_scan(stack, probe_list)


def test_equal_priority_keeps_insertion_order():
    """Two rules for one MAC at one priority: the first added wins, and
    wins again once the other is the only one left."""
    stack = build_stack()
    first = RoutingRule(priority=5, table=100, match_dmac=MACS[0])
    second = RoutingRule(priority=5, table=101, match_dmac=MACS[0])
    stack.add_rule(first)
    stack.add_rule(second)
    packet = IPv4Packet(src=IPv4Address(1), dst=IPv4Address(0x08080808),
                        proto=IpProto.UDP)
    assert stack.lookup_route(packet, "eth0", MACS[0]).next_hop == (
        IPv4Address(0x0A000000 + 100))
    stack.remove_rule(first)
    assert stack.lookup_route(packet, "eth0", MACS[0]).next_hop == (
        IPv4Address(0x0A000000 + 101))
    # Another neighbor's MAC never sees these rules; main has no default.
    assert stack.lookup_route(packet, "eth0", MACS[1]) is None


def test_dmac_rule_falls_through_to_lower_priority_rules():
    """A virtual-MAC table without a covering route does not end the
    walk: the MAC-less rules after it still apply, as in the scan."""
    stack = build_stack()
    stack.add_rule(RoutingRule(priority=5, table=103, match_dmac=MACS[2]))
    inside = IPv4Packet(src=IPv4Address(1), dst=IPv4Address(0x0A010203),
                        proto=IpProto.UDP)
    route = stack.lookup_route(inside, "eth0", MACS[2])
    assert route is not None and route.out_iface == "eth1"
    assert route.prefix == IPv4Prefix.parse("10.1.0.0/16")


def test_routing_rule_is_immutable():
    rule = RoutingRule(priority=5, table=100, match_dmac=MACS[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.match_dmac = MACS[1]
