"""Transactional network-controller tests (§5)."""

import pytest

from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.netsim.link import Port
from repro.netsim.netlink import Netlink, RouteRecord, RuleRecord
from repro.netsim.stack import NetworkStack
from repro.mgmt.controller import (
    NetworkController,
    NetworkIntent,
    TransactionError,
)


def ip(text):
    return IPv4Address.parse(text)


def pfx(text):
    return IPv4Prefix.parse(text)


@pytest.fixture
def setup(scheduler):
    stack = NetworkStack(scheduler, "server")
    stack.add_interface("eth0", MacAddress(0x02_01), Port())
    netlink = Netlink(stack)
    controller = NetworkController(netlink)
    return stack, netlink, controller


def intent(addresses=None, routes=None, rules=None):
    return NetworkIntent(addresses=addresses or {}, routes=routes or [],
                         rules=rules or [])


def test_apply_from_scratch(setup):
    stack, netlink, controller = setup
    report = controller.apply(intent(
        addresses={"eth0": [(ip("10.0.0.1"), 24), (ip("10.0.0.2"), 24)]},
        routes=[RouteRecord(table=100, prefix=pfx("99.0.0.0/8"),
                            out_iface="eth0", next_hop=None)],
    ))
    assert report.added == 3
    assert [str(a.address) for a in stack.interfaces["eth0"].addresses] == [
        "10.0.0.1", "10.0.0.2",
    ]
    assert netlink.dump_routes(100)


def test_idempotent_second_apply(setup):
    stack, _netlink, controller = setup
    desired = intent(
        addresses={"eth0": [(ip("10.0.0.1"), 24)]},
        routes=[RouteRecord(table=100, prefix=pfx("99.0.0.0/8"),
                            out_iface="eth0", next_hop=None)],
    )
    controller.apply(desired)
    report = controller.apply(desired)
    assert report.changes == 0
    assert report.kept >= 2


def test_minimal_diff_removes_only_stale(setup):
    stack, netlink, controller = setup
    controller.apply(intent(routes=[
        RouteRecord(table=100, prefix=pfx("99.0.0.0/8"),
                    out_iface="eth0", next_hop=None),
        RouteRecord(table=100, prefix=pfx("98.0.0.0/8"),
                    out_iface="eth0", next_hop=None),
    ]))
    report = controller.apply(intent(routes=[
        RouteRecord(table=100, prefix=pfx("99.0.0.0/8"),
                    out_iface="eth0", next_hop=None),
    ]))
    assert report.removed == 1
    assert report.added == 0


def test_changed_route_replaced(setup):
    stack, netlink, controller = setup
    controller.apply(intent(routes=[
        RouteRecord(table=100, prefix=pfx("99.0.0.0/8"),
                    out_iface="eth0", next_hop=None),
    ]))
    report = controller.apply(intent(routes=[
        RouteRecord(table=100, prefix=pfx("99.0.0.0/8"),
                    out_iface="eth0", next_hop=ip("10.0.0.9")),
    ]))
    assert report.removed == 1 and report.added == 1
    record = netlink.dump_routes(100)[0]
    assert str(record.next_hop) == "10.0.0.9"


def test_primary_address_reordering(setup):
    """The §5 quirk: the kernel's primary is first-added; the controller
    must remove and re-add to fix the order."""
    stack, netlink, controller = setup
    # Wrong order on the box: .9 added first (primary).
    netlink.add_address("eth0", ip("10.0.0.9"), 24)
    netlink.add_address("eth0", ip("10.0.0.1"), 24)
    report = controller.apply(intent(
        addresses={"eth0": [(ip("10.0.0.1"), 24), (ip("10.0.0.9"), 24)]},
    ))
    assert "eth0" in report.reordered_interfaces
    records = netlink.dump_addresses("eth0")
    assert str(records[0].address) == "10.0.0.1"
    assert records[0].primary


def test_correct_order_not_touched(setup):
    stack, netlink, controller = setup
    netlink.add_address("eth0", ip("10.0.0.1"), 24)
    netlink.add_address("eth0", ip("10.0.0.9"), 24)
    report = controller.apply(intent(
        addresses={"eth0": [(ip("10.0.0.1"), 24), (ip("10.0.0.9"), 24)]},
    ))
    assert report.changes == 0
    assert not report.reordered_interfaces


def test_rules_reconciled_default_kept(setup):
    stack, netlink, controller = setup
    vmac_rule = RuleRecord(priority=100, table=1001, match_iif=None,
                           match_dst=None, match_src=None,
                           match_dmac=MacAddress(0x027F00000001))
    report = controller.apply(intent(rules=[vmac_rule]))
    assert report.added == 1
    rules = netlink.dump_rules()
    assert vmac_rule in rules
    assert any(r.priority == 32766 for r in rules)  # default untouched
    report = controller.apply(intent(rules=[]))
    assert report.removed == 1
    assert any(r.priority == 32766 for r in netlink.dump_rules())


def test_rollback_on_midway_failure(setup):
    stack, netlink, controller = setup
    controller.apply(intent(
        addresses={"eth0": [(ip("10.0.0.1"), 24)]},
        routes=[RouteRecord(table=100, prefix=pfx("99.0.0.0/8"),
                            out_iface="eth0", next_hop=None)],
    ))
    before_addresses = netlink.dump_addresses("eth0")
    before_routes = netlink.dump_routes(100)
    with pytest.raises(TransactionError):
        controller.apply(
            intent(
                addresses={"eth0": [(ip("10.0.0.2"), 24)]},
                routes=[RouteRecord(table=100, prefix=pfx("98.0.0.0/8"),
                                    out_iface="eth0", next_hop=None)],
            ),
            fail_on=lambda op: op.startswith("add route 98."),
        )
    # Everything rolled back to the pre-apply state.
    assert netlink.dump_routes(100) == before_routes
    assert {str(r.address) for r in netlink.dump_addresses("eth0")} == {
        str(r.address) for r in before_addresses
    }
    assert controller.rollbacks == 1


def test_rollback_restores_removed_objects(setup):
    stack, netlink, controller = setup
    controller.apply(intent(routes=[
        RouteRecord(table=100, prefix=pfx("99.0.0.0/8"),
                    out_iface="eth0", next_hop=None),
    ]))
    with pytest.raises(TransactionError):
        controller.apply(
            intent(
                routes=[],
                rules=[RuleRecord(priority=5, table=100, match_iif=None,
                                  match_dst=None, match_src=None,
                                  match_dmac=None)],
            ),
            fail_on=lambda op: op.startswith("add rule"),
        )
    assert netlink.dump_routes(100)  # the removed route came back


def test_rollback_restores_removed_address_with_its_subnet(setup):
    """Undoing a ``del addr`` re-adds the address with its real length, so
    the interface and the main table end as they began."""
    stack, netlink, controller = setup
    controller.apply(intent(addresses={"eth0": [(ip("192.0.2.1"), 24)]}))
    before_addresses = netlink.dump_addresses("eth0")
    before_main = netlink.dump_routes(254)
    assert [(str(r.address), r.length) for r in before_addresses] == [
        ("192.0.2.1", 24),
    ]
    with pytest.raises(TransactionError):
        controller.apply(
            intent(addresses={"eth0": [(ip("198.51.100.1"), 24)]}),
            fail_on=lambda op: op.startswith("add addr 198."),
        )
    assert controller.rollbacks == 1
    assert netlink.dump_addresses("eth0") == before_addresses
    assert netlink.dump_routes(254) == before_main


def test_counters(setup):
    stack, _netlink, controller = setup
    controller.apply(intent())
    assert controller.applies == 1
