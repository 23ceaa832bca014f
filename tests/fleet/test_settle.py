"""The fleet's counting settle barrier, exactly.

``SocketFleetLeg.settle`` returns when two consecutive sweeps read the
same counters and every byte sent has been read.  The scripted tests
drive that rule with fake sweeps and no processes; the 2-PoP tests
count the sweeps a real fleet costs; the last test pins the counters
themselves on a real loopback pair.
"""

import time
from itertools import count

import pytest

from repro.bgp.attributes import local_route
from repro.bgp.transport import SocketChannel, SocketListener, SocketPoller
from repro.fleet.compiler import compile_world
from repro.fleet.differential import SocketFleetLeg
from repro.fleet.runpop import channel_traffic
from repro.fleet.spec import demo_world_spec
from repro.netsim.addr import IPv4Prefix


class _Poller:
    def __init__(self):
        self.waits = []

    def pump(self, timeout=0.0):
        self.waits.append(timeout)
        return 0


class _Controller:
    def __init__(self):
        self.poller = _Poller()


class ScriptedLeg(SocketFleetLeg):
    """``settle`` over a scripted sequence of sweeps: no fleet, no sockets."""

    def __init__(self, sweeps):
        self.controller = _Controller()
        self._script = iter(sweeps)
        self.swept = 0

    def _sweep(self):
        self.swept += 1
        return next(self._script)


def sweep(driver, **pops):
    return list(driver), {name: list(traffic) for name, traffic in pops.items()}


BALANCED = sweep([40, 30, 3], pop0=[30, 40, 3])
UNBALANCED = sweep([40, 30, 3], pop0=[30, 28, 3])


def test_returns_on_the_second_of_two_identical_balanced_sweeps():
    leg = ScriptedLeg([BALANCED, BALANCED, BALANCED])
    leg.settle()
    assert leg.swept == 2
    assert leg.controller.poller.waits == []


def test_a_change_between_balanced_sweeps_costs_one_more_sweep():
    earlier = sweep([40, 30, 3], pop0=[20, 30, 3])
    leg = ScriptedLeg([earlier, BALANCED, BALANCED, BALANCED])
    leg.settle()
    assert leg.swept == 3


def test_keeps_sweeping_on_identical_unbalanced_sweeps():
    leg = ScriptedLeg([UNBALANCED] * 5 + [BALANCED] * 3)
    leg.settle()
    assert leg.swept == 7
    # Each unbalanced sweep waits on the driver's poller, never long.
    assert leg.controller.poller.waits == [SocketFleetLeg.IN_FLIGHT_WAIT] * 5
    assert SocketFleetLeg.IN_FLIGHT_WAIT <= 0.001


def test_keeps_sweeping_when_only_the_channel_count_changed():
    fewer = sweep([40, 30, 2], pop0=[30, 40, 3])
    more = sweep([40, 30, 3], pop0=[30, 40, 3])
    leg = ScriptedLeg([fewer, more, more, more])
    leg.settle()
    assert leg.swept == 3


def test_compares_each_process_not_only_the_totals():
    first = sweep([40, 30, 3], pop0=[20, 25, 2], pop1=[10, 15, 1])
    second = sweep([40, 30, 3], pop0=[25, 25, 2], pop1=[5, 15, 1])
    leg = ScriptedLeg([first, second, second])
    leg.settle()
    assert leg.swept == 3


def test_raises_after_max_sweeps():
    ticks = count()
    leg = ScriptedLeg(sweep([n, n, 1]) for n in ticks)
    leg.MAX_SWEEPS = 50
    with pytest.raises(RuntimeError, match="did not quiesce"):
        leg.settle()
    assert leg.swept == 50


# ---------------------------------------------------------------------------
# A real 2-PoP fleet
# ---------------------------------------------------------------------------


@pytest.fixture
def leg(tmp_path):
    fleet = compile_world(demo_world_spec(pops=2, port_base=24500), tmp_path)
    leg = SocketFleetLeg(fleet)
    try:
        leg.wire_driver()
        assert leg.unestablished() == []
        yield leg
    finally:
        leg.close()


def test_an_idle_settle_costs_exactly_two_sweeps(leg, monkeypatch):
    step_all = leg.controller.step_all
    sweeps = []

    def counted():
        sweeps.append(step_all())
        return sweeps[-1]

    monkeypatch.setattr(leg.controller, "step_all", counted)
    leg.settle()
    assert len(sweeps) == 2


def test_one_settle_carries_an_update_across_the_fleet(leg):
    pops = [entry["name"] for entry in leg.spec_pops]
    before = {pop: leg.pop_call(pop, "summary")["routes"] for pop in pops}
    endpoint = leg.endpoints[0]
    prefix = IPv4Prefix.parse("198.51.100.0/24")
    endpoint.speaker.originate(local_route(prefix))
    leg.settle()
    # The origin PoP, the other PoP over the backbone, and the client
    # that other PoP fans out to back in the driver: one settle, no sleep.
    after = {pop: leg.pop_call(pop, "summary")["routes"] for pop in pops}
    assert after == {pop: before[pop] + 1 for pop in pops}
    remote = next(pop for pop in pops if pop != endpoint.pop)
    client = leg.clients[("alpha", remote)]
    assert prefix in client.speaker.loc_rib.prefixes()


# ---------------------------------------------------------------------------
# The counters on a real loopback pair
# ---------------------------------------------------------------------------


def _connected_pair(poller):
    accepted = []
    listener = SocketListener(poller, on_accept=accepted.append)
    client = SocketChannel.connect(poller, "127.0.0.1", listener.port)
    deadline = time.monotonic() + 5.0
    while not accepted or client._connecting:
        assert time.monotonic() < deadline, "loopback connect timed out"
        poller.pump(0.05)
    listener.close()
    return client, accepted[0]


def test_channel_traffic_counts_unread_bytes_until_the_peer_pumps():
    poller = SocketPoller()
    try:
        client, server = _connected_pair(poller)
        server.on_data = lambda data: None
        assert channel_traffic([client, server]) == [0, 0, 2]
        client.send(b"x" * 100)
        sent, read, channels = channel_traffic([client, server])
        assert (sent - read, channels) == (100, 2)
        deadline = time.monotonic() + 5.0
        while server.rx_bytes < 100:
            assert time.monotonic() < deadline, "bytes never arrived"
            poller.pump(0.05)
        assert channel_traffic([client, server]) == [100, 100, 2]
        server.send(b"y" * 7)
        client.close()
        assert channel_traffic([client, server, None]) == [7, 100, 1]
        server.close()
        assert channel_traffic([client, server]) == [0, 0, 0]
    finally:
        poller.close()
