"""Burst hand-off on a real PoP (2 upstreams, 8 experiments): a fan-out
crosses the scheduler as one event, and every count the node, its
sessions and its channels keep is what the one-event-per-send transport
(``per_frame_channel_reference``) gives for the same scenario.
"""

from repro.bgp.attributes import local_route
from repro.bgp.messages import UpdateMessage
from repro.netsim.addr import IPv4Address
from repro.security.capabilities import ExperimentProfile
from tests.bgp import per_frame_channel_reference
from tests.vbgp.test_fanout_once import PLATFORM_ASN, PREFIXES, World
from tests.vbgp.test_node import EXP_PREFIX


def play(world):
    """One upstream UPDATE, one experiment announcement, one withdrawal;
    returns the events each took and every counter afterwards."""
    node, scheduler = world.node, world.scheduler
    world.pop.control_enforcer.register_experiment(ExperimentProfile(
        name="x0", asns=frozenset({PLATFORM_ASN}), prefixes=(EXP_PREFIX,)
    ))
    announcer = world.sinks[0].session
    route = local_route(EXP_PREFIX,
                        next_hop=IPv4Address.parse("100.125.0.2"))
    fired = []
    for send in (
        lambda: world.feeders[0].announce(PREFIXES[:3]),
        lambda: announcer.send_update(UpdateMessage.announce([route])),
        lambda: announcer.send_update(UpdateMessage.withdraw([route])),
    ):
        send()
        # One second: far inside the 30 s keepalive interval, so only the
        # update's own events fire.
        fired.append(scheduler.run_until(scheduler.now + 1.0))
    sessions = (
        [n.session for n in node.upstreams.values()]
        + [e.session for e in node.experiments.values()]
        + [f.session for f in world.feeders]
        + [s.session for s in world.sinks]
    )
    return fired, {
        "node": dict(node.counters),
        "updates_sent": [s.stats.updates_sent for s in sessions],
        "updates_received": [s.stats.updates_received for s in sessions],
        "bytes": [(s.channel.tx_bytes, s.channel.rx_bytes) for s in sessions],
        "frames": [sink.frames for sink in world.sinks],
    }


def test_fan_out_is_one_event_and_every_counter_is_the_per_frame_one(
        monkeypatch):
    with monkeypatch.context() as patch:
        per_frame_channel_reference.install(patch)
        reference_fired, reference = play(World(experiments=8, upstreams=2))
    fired, counts = play(World(experiments=8, upstreams=2))
    # The feeder's (or experiment's) frame in, then the whole fan-out.
    assert reference_fired == [1 + 8, 1 + 2, 1 + 2]
    assert fired == [2, 2, 2]
    assert counts == reference
    assert counts["node"]["updates_to_experiments"] == 8
    assert counts["node"]["updates_to_neighbors"] == 4
    assert [len(frames) for frames in counts["frames"]] == [1] * 8
    assert counts["updates_received"][-10:-8] == [2, 2]     # both feeders
