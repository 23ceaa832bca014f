"""Burst hand-off: ``Channel.send`` rides the previous delivery event when
it may, and nothing observable moves.

The oracle is the one-event-per-send channel the transport used before
(``per_frame_channel_reference``).  The same program — sends interleaved
with timers, re-sends and ``close()`` from inside ``on_data``, scheduler
runs in between, a chaos fault on one pair — is played on both, and the
single log of ``(scheduler.now, who, what)`` in firing order (deliveries,
markers and close notifications together) must be identical, with the
byte counters.  Only the number of scheduler events may differ.
"""

import functools
import random

import pytest

from repro.bgp.transport import connect_pair
from repro.chaos.faults import ChannelFaultInjector
from repro.sim.scheduler import Scheduler
from tests.bgp.per_frame_channel_reference import send_per_frame

LATENCIES = (0.0, 0.001, 0.005)
PAIRS = 6
ENDS = 2 * PAIRS


class Rig:
    """``PAIRS`` channel pairs on one scheduler (ends ``2i`` and ``2i+1``
    are pair ``i``), sending per frame like the reference or in bursts,
    with one log of everything that fires; ``fault`` puts an active
    ``ChannelFaultInjector`` on pair 0."""

    def __init__(self, per_frame, latencies=None, fault=False):
        self.scheduler = Scheduler()
        self.log = []
        self.fired = 0
        self.reactions = {}
        self.ends = []
        for _ in range(PAIRS):
            self.ends += connect_pair(self.scheduler)
        for index, end in enumerate(self.ends):
            if per_frame:
                end.send = functools.partial(send_per_frame, end)
            if latencies is not None:
                end.latency = latencies[index]
            end.on_data = functools.partial(self._arrived, index)
            end.on_close = functools.partial(self._mark, index, "closed")
        if fault:
            ChannelFaultInjector(
                self.scheduler, self.ends[0], seed=7, drop=0.2, corrupt=0.1,
                extra_latency=0.001, label="burst-oracle",
            ).inject()

    def _arrived(self, index, data):
        self.log.append((self.scheduler.now, index, data))
        self.play(self.reactions.get(data, ()))

    def _mark(self, who, what):
        self.log.append((self.scheduler.now, who, what))

    def play(self, steps):
        scheduler = self.scheduler
        for step in steps:
            kind = step[0]
            if kind == "send":
                _, end, payload, reaction = step
                self.reactions[payload] = reaction
                self.ends[end].send(payload)
            elif kind == "soon":
                scheduler.call_soon(self._mark, "soon", step[1])
            elif kind == "later":
                scheduler.call_later(step[1], self._mark, "later", step[2])
            elif kind == "cancelled":
                scheduler.call_later(step[1], self._mark, "never", 0).cancel()
            elif kind == "close":
                self.ends[step[1]].close()
            elif kind == "run":
                self.fired += scheduler.run_for(step[1])
        return self

    def drain(self):
        self.fired += self.scheduler.run()
        return self

    def counters(self):
        return [(end.tx_bytes, end.rx_bytes, end.closed) for end in self.ends]


def make_program(seed, length=150):
    """A seeded program and the per-end latencies it runs over."""
    rng = random.Random(seed)
    latencies = [LATENCIES[index % len(LATENCIES)] for index in range(ENDS)]
    rng.shuffle(latencies)
    by_latency = {
        latency: [end for end in range(ENDS) if latencies[end] == latency]
        for latency in LATENCIES
    }
    serial = iter(range(10 ** 9))

    def send(end, depth):
        reaction = ()
        if depth and rng.random() < 0.3:
            reaction = steps(rng.randrange(1, 4), depth - 1)
        payload = b"frame-%d" % next(serial)
        return ("send", end, payload, reaction)

    def steps(count, depth):
        out = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.25:
                # A fan-out: one instant, one latency, several channels
                # (some twice) — the shape that merges.
                ends = by_latency[rng.choice(LATENCIES)]
                out += [send(rng.choice(ends), depth)
                        for _ in range(rng.randrange(3, 9))]
            elif roll < 0.60:
                out.append(send(rng.randrange(ENDS), depth))
            elif roll < 0.70:
                out.append(("soon", next(serial)))
            elif roll < 0.80:
                out.append(("later", rng.choice(LATENCIES), next(serial)))
            elif roll < 0.85:
                out.append(("cancelled", rng.choice(LATENCIES)))
            elif roll < 0.87:
                out.append(("close", rng.randrange(ENDS)))
            elif depth == 2:
                # Only the driver runs the scheduler; 0 fires what is due
                # now, so the next zero-latency send meets a fired burst.
                out.append(("run", rng.choice((0.0, 0.001, 0.003, 0.01))))
        return out

    return steps(length, 2), latencies


def play_both(program, latencies=None, fault=False):
    """The program on the per-frame reference and on the burst transport,
    everything but the event count asserted equal; returns both rigs."""
    reference = Rig(True, latencies, fault).play(program).drain()
    burst = Rig(False, latencies, fault).play(program).drain()
    assert burst.log == reference.log
    assert burst.counters() == reference.counters()
    assert burst.scheduler.now == reference.scheduler.now
    return burst, reference


@pytest.mark.parametrize("seed", range(60))
def test_seeded_programs_match_the_per_frame_reference(seed):
    burst, reference = play_both(*make_program(seed), fault=True)
    deliveries = sum(isinstance(what, bytes) for _, _, what in burst.log)
    assert deliveries > 100                 # the program did something
    assert burst.fired < reference.fired    # and some of it merged


def both(program, latencies=None):
    """The program's log (equal on both transports) and the number of
    events the burst transport fired for it."""
    burst, _ = play_both(program, latencies)
    return burst.log, burst.fired


def test_fan_out_at_one_instant_is_one_event():
    program = [("send", end, b"f%d" % end, ()) for end in range(0, ENDS, 2)]
    rig = Rig(per_frame=False).play(program)
    assert rig.scheduler.pending() == 1
    rig.drain()
    assert rig.fired == 1
    assert [(who, what) for _, who, what in rig.log] == [
        (end + 1, b"f%d" % end) for end in range(0, ENDS, 2)
    ]


def test_timer_between_two_sends_keeps_its_place():
    log, fired = both([
        ("send", 0, b"a", ()), ("soon", 1), ("send", 2, b"b", ()),
        ("cancelled", 0.0), ("send", 4, b"c", ()), ("send", 6, b"d", ()),
    ])
    assert [what for _, _, what in log] == [b"a", 1, b"b", b"c", b"d"]
    assert fired == 4           # a | soon | b | (cancelled) | c+d


def test_different_latency_starts_its_own_event():
    latencies = [0.0] * ENDS
    latencies[2] = 0.005
    log, fired = both([
        ("send", 0, b"a", ()), ("send", 2, b"slow", ()),
        ("send", 4, b"b", ()),
    ], latencies)
    assert [(now, what) for now, _, what in log] == [
        (0.0, b"a"), (0.0, b"b"), (0.005, b"slow"),
    ]
    assert fired == 3


def test_resend_from_on_data_into_the_firing_burst_goes_behind_it():
    """End 1 answers by sending, at zero latency, toward a channel whose
    own frame is still waiting later in the burst that is firing."""
    log, fired = both([
        ("send", 0, b"a", (("send", 2, b"again", ()),)),
        ("send", 2, b"b", ()), ("send", 4, b"c", ()),
    ])
    assert [(who, what) for _, who, what in log] == [
        (1, b"a"), (3, b"b"), (5, b"c"), (3, b"again"),
    ]
    assert fired == 2


def test_close_between_two_frames_of_a_burst_drops_the_later_one():
    log, _ = both([
        ("send", 0, b"a", (("close", 5),)),
        ("send", 2, b"b", ()), ("send", 4, b"dropped", ()),
        ("send", 6, b"d", ()),
    ])
    # Closing end 5 queues its peer's notification behind the burst.
    assert [(who, what) for _, who, what in log] == [
        (1, b"a"), (3, b"b"), (7, b"d"), (4, "closed"),
    ]


def test_send_after_the_burst_fired_at_the_same_instant_is_delivered():
    log, fired = both([
        ("send", 0, b"a", ()), ("run", 0.0), ("send", 2, b"b", ()),
    ])
    assert [(now, what) for now, _, what in log] == [(0.0, b"a"), (0.0, b"b")]
    assert fired == 2


def test_zero_latency_ping_pong_costs_an_event_per_bounce():
    """A burst closes when it starts to fire, so a zero-latency exchange
    cannot grow the burst it runs in: ``max_events`` still sees a loop.
    (Bounded here, so a regression fails instead of eating memory.)"""
    scheduler = Scheduler()
    a, b = connect_pair(scheduler)
    bounces = []

    def bounce(end, data):
        bounces.append(data)
        if len(bounces) < 200:
            end.send(data)

    a.on_data = functools.partial(bounce, a)
    b.on_data = functools.partial(bounce, b)
    a.send(b"ball")
    assert scheduler.run() == 200
