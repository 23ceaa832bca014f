"""Link and learning-switch behaviour."""

from repro.netsim.addr import MacAddress
from repro.netsim.frames import EtherType, EthernetFrame
from repro.netsim.link import Link, Port, Switch
from repro.sim import Scheduler


def frame(src: int, dst: int, payload: bytes = b"x" * 100,
          vlan=None) -> EthernetFrame:
    return EthernetFrame(src=MacAddress(src), dst=MacAddress(dst),
                         ethertype=EtherType.IPV4, payload=payload,
                         vlan=vlan)


def collector(received):
    return lambda f, port: received.append(f)


def test_link_delivers_with_latency():
    sched = Scheduler()
    a, b = Port(), Port()
    Link(sched, a, b, latency=0.5)
    received = []
    b.attach(collector(received))
    a.transmit(frame(1, 2))
    sched.run_until(0.4)
    assert received == []
    sched.run_until(0.6)
    assert len(received) == 1


def test_link_serialization_delay():
    sched = Scheduler()
    a, b = Port(), Port()
    Link(sched, a, b, bandwidth_bps=8000.0)  # 1000 bytes/sec
    received = []
    b.attach(collector(received))
    a.transmit(frame(1, 2, payload=b"x" * 986))  # 1000B total
    sched.run()
    assert sched.now >= 1.0


def test_link_queue_overflow_drops():
    sched = Scheduler()
    a, b = Port(), Port()
    link = Link(sched, a, b, bandwidth_bps=8_000.0, queue_limit=2)
    b.attach(collector([]))
    for _ in range(10):
        a.transmit(frame(1, 2, payload=b"x" * 986))
    assert link.drops > 0


def test_link_random_loss_deterministic_by_seed():
    sched = Scheduler()
    a, b = Port(), Port()
    link = Link(sched, a, b, loss=0.5, seed=1)
    received = []
    b.attach(collector(received))
    for _ in range(100):
        a.transmit(frame(1, 2))
    sched.run()
    assert 20 < len(received) < 80
    assert link.drops == 100 - len(received)


def test_port_counters():
    sched = Scheduler()
    a, b = Port(), Port()
    Link(sched, a, b)
    b.attach(collector([]))
    a.transmit(frame(1, 2))
    sched.run()
    assert a.tx_frames == 1
    assert b.rx_frames == 1
    assert b.rx_bytes == a.tx_bytes


def test_unplugged_port_drops_silently():
    port = Port()
    port.transmit(frame(1, 2))  # no exception
    assert port.tx_frames == 0


def _switched_hosts(sched, count=3, latency=0.0):
    """count hosts on one switch, each behind a Link."""
    switch = Switch(sched, latency=latency)
    hosts = []
    for index in range(count):
        host_port = Port(f"h{index}")
        Link(sched, host_port, switch.add_port())
        received = []
        host_port.attach(collector(received))
        hosts.append((host_port, received))
    return switch, hosts


def test_switch_floods_unknown_destination():
    sched = Scheduler()
    switch, hosts = _switched_hosts(sched)
    hosts[0][0].transmit(frame(1, 99))
    sched.run()
    assert len(hosts[1][1]) == 1
    assert len(hosts[2][1]) == 1
    assert len(hosts[0][1]) == 0  # not reflected


def test_switch_learns_and_unicasts():
    sched = Scheduler()
    switch, hosts = _switched_hosts(sched)
    hosts[1][0].transmit(frame(2, 99))  # teach the switch MAC 2 @ port 1
    sched.run()
    for _h, received in hosts:
        received.clear()
    hosts[0][0].transmit(frame(1, 2))
    sched.run()
    assert len(hosts[1][1]) == 1
    assert len(hosts[2][1]) == 0


def test_switch_broadcast():
    sched = Scheduler()
    switch, hosts = _switched_hosts(sched)
    hosts[0][0].transmit(frame(1, MacAddress.BROADCAST_VALUE))
    sched.run()
    assert len(hosts[1][1]) == 1 and len(hosts[2][1]) == 1


def test_switch_vlan_isolation():
    sched = Scheduler()
    switch, hosts = _switched_hosts(sched)
    # Learn MAC 2 on VLAN 10.
    hosts[1][0].transmit(frame(2, 99, vlan=10))
    sched.run()
    for _h, received in hosts:
        received.clear()
    # Same MAC on a different VLAN is unknown → flooded.
    hosts[0][0].transmit(frame(1, 2, vlan=20))
    sched.run()
    assert len(hosts[1][1]) == 1 and len(hosts[2][1]) == 1
    assert switch.flooded >= 1


def test_zero_latency_switch_hop_costs_no_event():
    """host link → switch → host link: two link deliveries, and the
    switch's own hop is an event only when it takes time."""
    fired = {}
    for latency in (0.0, 0.25):
        sched = Scheduler()
        switch, hosts = _switched_hosts(sched, latency=latency)
        hosts[1][0].transmit(frame(2, 99))      # learn MAC 2
        sched.run()
        hosts[1][1].clear()
        hosts[2][1].clear()
        start = sched.now
        hosts[0][0].transmit(frame(1, 2))
        fired[latency] = sched.run()
        assert len(hosts[1][1]) == 1 and hosts[2][1] == []
        assert sched.now == start + latency
    assert fired == {0.0: 2, 0.25: 3}


def test_switch_with_latency_still_schedules():
    sched = Scheduler()
    switch, hosts = _switched_hosts(sched, latency=0.5)
    hosts[0][0].transmit(frame(1, MacAddress.BROADCAST_VALUE))
    sched.run_until(0.4)
    assert hosts[1][1] == [] and hosts[2][1] == []
    assert sched.pending() == 2         # one per flooded port
    sched.run()
    assert len(hosts[1][1]) == 1 and len(hosts[2][1]) == 1
    assert switch.flooded == 1


def test_zero_latency_switch_keeps_per_port_frame_order():
    """A flooded frame and the unicast frame behind it leave a port in
    the order they entered the switch."""
    sched = Scheduler()
    switch, hosts = _switched_hosts(sched)
    hosts[1][0].transmit(frame(2, 99))
    sched.run()
    hosts[1][1].clear()
    hosts[0][0].transmit(frame(1, MacAddress.BROADCAST_VALUE, b"first"))
    hosts[0][0].transmit(frame(1, 2, b"second"))
    sched.run()
    assert [f.payload for f in hosts[1][1]] == [b"first", b"second"]
