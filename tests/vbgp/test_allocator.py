"""Virtual neighbor allocation tests."""

import pytest

from repro.netsim.addr import MacAddress
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import (
    GlobalNeighborRegistry,
    global_neighbor_ip,
    global_neighbor_mac,
    local_neighbor_ip,
    neighbor_mac_global_id,
    neighbor_table_id,
    virtual_neighbor,
)


def test_global_ip_deterministic():
    assert str(global_neighbor_ip(1)) == "127.127.0.1"
    assert str(global_neighbor_ip(257)) == "127.127.1.1"


def test_global_ip_range_checked():
    with pytest.raises(ValueError):
        global_neighbor_ip(0)
    with pytest.raises(ValueError):
        global_neighbor_ip(1 << 17)


def test_global_mac_roundtrip():
    for gid in (1, 255, 4096, 65535):
        mac = global_neighbor_mac(gid)
        assert neighbor_mac_global_id(mac) == gid
        assert mac.is_locally_administered
        assert not mac.is_multicast


def test_foreign_mac_not_decoded():
    assert neighbor_mac_global_id(MacAddress.parse("aa:bb:cc:00:00:01")) is None
    assert neighbor_mac_global_id(MacAddress.parse("02:7f:00:00:00:00")) is None


def test_table_id_layout():
    assert neighbor_table_id(1) == 1001
    assert neighbor_table_id(500) == 1500


def test_registry_assigns_sequential_ids():
    registry = GlobalNeighborRegistry()
    first = registry.register("amsterdam", "as3356")
    second = registry.register("amsterdam", "as174")
    assert (first, second) == (1, 2)
    assert registry.register("amsterdam", "as3356") == first  # idempotent
    assert registry.lookup("amsterdam", "as174") == second
    assert registry.owner(second) == ("amsterdam", "as174")
    assert len(registry) == 2


def test_registry_distinct_per_pop():
    registry = GlobalNeighborRegistry()
    a = registry.register("amsterdam", "as3356")
    b = registry.register("seattle", "as3356")
    assert a != b


def test_local_neighbor_ip_deterministic():
    assert str(local_neighbor_ip(1)) == "127.65.0.1"
    assert str(local_neighbor_ip(257)) == "127.65.1.1"
    with pytest.raises(ValueError):
        local_neighbor_ip(0)
    with pytest.raises(ValueError):
        local_neighbor_ip(1 << 16)


def test_virtual_neighbor_bundle():
    virtual = virtual_neighbor(7)
    assert virtual.global_id == 7
    assert str(virtual.global_ip) == "127.127.0.7"
    assert virtual.table_id == 1007
    assert neighbor_mac_global_id(virtual.mac) == 7
    assert str(virtual.local_ip) == "127.65.0.7"


def _pop_attaching(names):
    """A PoP whose registry pins gids 1-3, attaching ``names`` in order."""
    registry = GlobalNeighborRegistry()
    for gid, name in enumerate(("as1", "as2", "as3"), start=1):
        registry.preassign("p", name, gid)
    pop = PointOfPresence(
        Scheduler(),
        PopConfig(name="p", pop_id=0, kind="ixp"),
        platform_asn=47065,
        platform_asns=frozenset({47065}),
        registry=registry,
        enforcer_state=EnforcerState(),
    )
    for index, name in enumerate(names):
        pop.provision_neighbor(name, 65001 + index, kind="peer")
    return pop


def test_vips_do_not_depend_on_attach_order():
    # A PoP restarted from scratch re-learns its neighbors in whatever
    # order they redial; each must get back the VIP it had before.
    forward = _pop_attaching(("as1", "as2", "as3"))
    backward = _pop_attaching(("as3", "as2", "as1"))
    for name in ("as1", "as2", "as3"):
        a = forward.node.upstreams[name].virtual
        b = backward.node.upstreams[name].virtual
        assert a.global_id == b.global_id
        assert a.local_ip == b.local_ip, name
        assert a.local_ip == local_neighbor_ip(a.global_id)
