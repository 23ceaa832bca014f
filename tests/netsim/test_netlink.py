"""Netlink-API tests: the request/response surface and its quirks."""

import pytest

from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.netsim.link import Port
from repro.netsim.netlink import (
    Netlink,
    NetlinkError,
    RouteRecord,
    RuleRecord,
)
from repro.netsim.stack import NetworkStack


@pytest.fixture
def netlink(scheduler):
    stack = NetworkStack(scheduler, "host")
    stack.add_interface("eth0", MacAddress(0x02_01), Port())
    stack.add_interface("eth1", MacAddress(0x02_02), Port())
    return Netlink(stack)


def ip(text):
    return IPv4Address.parse(text)


def pfx(text):
    return IPv4Prefix.parse(text)


def test_add_and_dump_addresses(netlink):
    netlink.add_address("eth0", ip("10.0.0.1"), 24)
    netlink.add_address("eth0", ip("10.0.0.2"), 24)
    records = netlink.dump_addresses("eth0")
    assert [str(r.address) for r in records] == ["10.0.0.1", "10.0.0.2"]
    assert records[0].primary and not records[1].primary


def test_primary_is_first_added(netlink):
    """The kernel quirk the controller must work around (§5)."""
    netlink.add_address("eth0", ip("10.0.0.9"), 24)
    netlink.add_address("eth0", ip("10.0.0.1"), 24)
    records = netlink.dump_addresses("eth0")
    assert records[0].primary
    assert str(records[0].address) == "10.0.0.9"


def test_duplicate_address_rejected(netlink):
    netlink.add_address("eth0", ip("10.0.0.1"), 24)
    with pytest.raises(NetlinkError):
        netlink.add_address("eth0", ip("10.0.0.1"), 24)


def test_del_missing_address_rejected(netlink):
    with pytest.raises(NetlinkError):
        netlink.del_address("eth0", ip("10.0.0.1"))


def test_unknown_interface_rejected(netlink):
    with pytest.raises(NetlinkError):
        netlink.add_address("wlan0", ip("10.0.0.1"), 24)


def test_route_lifecycle(netlink):
    record = RouteRecord(table=100, prefix=pfx("99.0.0.0/8"),
                         out_iface="eth0", next_hop=None)
    netlink.add_route(record)
    assert record in netlink.dump_routes(100)
    with pytest.raises(NetlinkError):
        netlink.add_route(record)  # EEXIST
    netlink.del_route(100, pfx("99.0.0.0/8"))
    assert netlink.dump_routes(100) == []
    with pytest.raises(NetlinkError):
        netlink.del_route(100, pfx("99.0.0.0/8"))


def test_route_via_unknown_iface_rejected(netlink):
    with pytest.raises(NetlinkError):
        netlink.add_route(RouteRecord(table=254, prefix=pfx("99.0.0.0/8"),
                                      out_iface="nope", next_hop=None))


def test_rule_lifecycle(netlink):
    record = RuleRecord(priority=10, table=100, match_iif=None,
                        match_dst=None, match_src=None,
                        match_dmac=MacAddress(0x027F00000001))
    netlink.add_rule(record)
    assert record in netlink.dump_rules()
    with pytest.raises(NetlinkError):
        netlink.add_rule(record)
    netlink.del_rule(record)
    assert record not in netlink.dump_rules()


def test_default_rule_present(netlink):
    rules = netlink.dump_rules()
    assert any(r.priority == 32766 and r.table == 254 for r in rules)


def test_set_link(netlink):
    netlink.set_link("eth0", False)
    assert not netlink._stack.interfaces["eth0"].up
    netlink.set_link("eth0", True)
    assert netlink._stack.interfaces["eth0"].up


def test_list_tables(netlink):
    netlink.add_route(RouteRecord(table=1001, prefix=pfx("99.0.0.0/8"),
                                  out_iface="eth0", next_hop=None))
    assert 1001 in netlink.list_tables()


def test_request_counter(netlink):
    before = netlink.requests
    netlink.dump_rules()
    netlink.dump_addresses("eth0")
    assert netlink.requests == before + 2


def test_dump_reports_each_address_length(netlink):
    netlink.add_address("eth0", ip("192.0.2.1"), 24)
    netlink.add_address("eth0", ip("198.51.100.7"), 32)
    records = netlink.dump_addresses("eth0")
    assert [(str(r.address), r.length) for r in records] == [
        ("192.0.2.1", 24), ("198.51.100.7", 32),
    ]


def test_del_address_removes_only_its_connected_route(netlink):
    netlink.add_address("eth0", ip("192.0.2.1"), 24)
    connected = RouteRecord(table=254, prefix=pfx("192.0.2.0/24"),
                            out_iface="eth0", next_hop=None)
    assert netlink.dump_routes(254) == [connected]
    # A subnet route the operator replaced is not the kernel's to remove.
    netlink.add_address("eth1", ip("198.51.100.1"), 24)
    netlink.del_route(254, pfx("198.51.100.0/24"))
    via = RouteRecord(table=254, prefix=pfx("198.51.100.0/24"),
                      out_iface="eth0", next_hop=ip("192.0.2.254"))
    netlink.add_route(via)
    netlink.del_address("eth0", ip("192.0.2.1"))
    netlink.del_address("eth1", ip("198.51.100.1"))
    assert netlink.dump_routes(254) == [via]


def test_connected_route_stays_until_last_address_of_subnet(netlink):
    netlink.add_address("eth0", ip("192.0.2.1"), 24)
    netlink.add_address("eth0", ip("192.0.2.2"), 24)
    netlink.del_address("eth0", ip("192.0.2.1"))
    assert [r.prefix for r in netlink.dump_routes(254)] == [
        pfx("192.0.2.0/24")
    ]
    netlink.del_address("eth0", ip("192.0.2.2"))
    assert netlink.dump_routes(254) == []

