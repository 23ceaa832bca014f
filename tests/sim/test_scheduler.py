"""Unit tests for the discrete-event scheduler."""

import random

import pytest

from repro.sim import Scheduler, SimulationError


def test_starts_at_zero():
    assert Scheduler().now == 0.0


def test_call_later_advances_clock():
    sched = Scheduler()
    seen = []
    sched.call_later(2.5, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [2.5]


def test_events_fire_in_time_order():
    sched = Scheduler()
    order = []
    sched.call_later(3.0, lambda: order.append("c"))
    sched.call_later(1.0, lambda: order.append("a"))
    sched.call_later(2.0, lambda: order.append("b"))
    sched.run()
    assert order == ["a", "b", "c"]


def test_ties_broken_by_insertion_order():
    sched = Scheduler()
    order = []
    for label in "abc":
        sched.call_later(1.0, lambda l=label: order.append(l))
    sched.run()
    assert order == ["a", "b", "c"]


def test_cancelled_events_do_not_fire():
    sched = Scheduler()
    fired = []
    event = sched.call_later(1.0, lambda: fired.append(1))
    event.cancel()
    sched.run()
    assert fired == []


def test_run_until_stops_at_deadline():
    sched = Scheduler()
    seen = []
    sched.call_later(1.0, lambda: seen.append(1))
    sched.call_later(5.0, lambda: seen.append(5))
    sched.run_until(2.0)
    assert seen == [1]
    assert sched.now == 2.0
    sched.run()
    assert seen == [1, 5]


def test_run_for_is_relative():
    sched = Scheduler()
    sched.run_for(10.0)
    assert sched.now == 10.0
    sched.run_for(5.0)
    assert sched.now == 15.0


def test_nested_scheduling_during_run():
    sched = Scheduler()
    seen = []

    def outer():
        seen.append("outer")
        sched.call_later(1.0, lambda: seen.append("inner"))

    sched.call_later(1.0, outer)
    sched.run()
    assert seen == ["outer", "inner"]
    assert sched.now == 2.0


def test_call_soon_runs_at_current_time():
    sched = Scheduler()
    sched.call_later(4.0, lambda: None)
    seen = []
    sched.call_soon(lambda: seen.append(sched.now))
    sched.step()
    assert seen == [0.0]


def test_scheduling_in_past_rejected():
    sched = Scheduler()
    sched.run_for(10)
    with pytest.raises(SimulationError):
        sched.call_at(5.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Scheduler().call_later(-1.0, lambda: None)


def test_runaway_loop_detected():
    sched = Scheduler()

    def respawn():
        sched.call_later(0.001, respawn)

    respawn()
    with pytest.raises(SimulationError):
        sched.run(max_events=100)


def test_pending_counts_uncancelled():
    sched = Scheduler()
    event = sched.call_later(1.0, lambda: None)
    sched.call_later(2.0, lambda: None)
    assert sched.pending() == 2
    event.cancel()
    assert sched.pending() == 1


def test_step_returns_false_when_empty():
    assert Scheduler().step() is False


def test_run_returns_fired_count():
    sched = Scheduler()
    for _ in range(5):
        sched.call_later(1.0, lambda: None)
    assert sched.run() == 5


def test_arguments_are_delivered_by_every_form():
    sched = Scheduler()
    seen = []

    def record(*args):
        seen.append((sched.now, args))

    sched.call_at(3.0, record, "at", 1)
    sched.call_later(2.0, record, "later", [2])
    sched.call_soon(record, "soon")
    sched.call_soon(record)
    sched.run()
    assert seen == [
        (0.0, ("soon",)), (0.0, ()), (2.0, ("later", [2])), (3.0, ("at", 1)),
    ]


def test_ties_and_cancel_unchanged_with_arguments():
    """Same-time events fire in insertion order whatever their arguments
    (never compared), mixed with the closure form; a cancelled one is
    skipped and no longer pending."""
    sched = Scheduler()
    order = []
    first = sched.call_later(1.0, order.append, {"unorderable": 1})
    sched.call_later(1.0, lambda: order.append("closure"))
    doomed = sched.call_later(1.0, order.append, "cancelled")
    sched.call_later(1.0, order.append, {"unorderable": 0})
    assert first.args == ({"unorderable": 1},)
    doomed.cancel()
    assert sched.pending() == 3
    assert sched.run_until(1.0) == 3
    assert order == [{"unorderable": 1}, "closure", {"unorderable": 0}]


# -- append_later: one event per burst, call_later's order -------------------


def test_append_later_merges_onto_the_preceding_unfired_event_of_equal_time():
    sched = Scheduler()
    order = []
    for tag in "abc":
        sched.append_later(1.0, order.append, tag)
    assert sched.pending() == 1         # events, not calls
    sched.append_later(2.0, order.append, "d")      # another due time
    sched.append_later(1.0, order.append, "e")      # tail is now the 2.0 one
    assert sched.pending() == 3
    assert sched.run() == 3
    assert order == ["a", "b", "c", "e", "d"]


def test_foreign_event_in_between_ends_the_burst_cancelled_or_not():
    sched = Scheduler()
    order = []
    sched.append_later(1.0, order.append, "a")
    sched.call_later(1.0, order.append, "timer")
    sched.append_later(1.0, order.append, "b")
    sched.call_at(1.0, order.append, "never").cancel()
    sched.append_later(1.0, order.append, "c")
    sched.call_soon(order.append, "soon")
    sched.append_later(1.0, order.append, "d")
    sched.append_later(1.0, order.append, "e")
    assert sched.pending() == 6         # a | timer | b | c | soon | d+e
    sched.run()
    assert order == ["soon", "a", "timer", "b", "c", "d", "e"]


def test_append_later_merges_only_equal_callbacks():
    sched = Scheduler()
    first, second = [], []
    sched.append_later(1.0, first.append, 1)
    sched.append_later(1.0, first.append, 2)    # an equal bound method
    sched.append_later(1.0, second.append, 3)   # another: same order anyway
    sched.append_later(1.0, first.append, 4)
    assert sched.pending() == 3
    sched.run()
    assert (first, second) == ([1, 2, 4], [3])


def test_firing_burst_is_closed_to_new_calls():
    sched = Scheduler()
    order = []

    def record(tag):
        order.append((sched.now, tag))
        if tag == "a":
            sched.append_later(0.0, record, "from-a")

    sched.append_later(1.0, record, "a")
    sched.append_later(1.0, record, "b")
    assert sched.run() == 2
    assert order == [(1.0, "a"), (1.0, "b"), (1.0, "from-a")]
    # The clock still reads 1.0 and the last burst has fired: a new call
    # due "now" must not join it.
    sched.append_later(0.0, record, "late")
    assert sched.run() == 1
    assert order[-1] == (1.0, "late")


def test_append_later_rejects_negative_delay():
    with pytest.raises(SimulationError):
        Scheduler().append_later(-1.0, print)


def test_append_later_fires_in_call_later_order():
    """Seeded interleavings of the four push forms (plus cancels and
    pushes from inside callbacks): replacing every ``append_later`` by
    ``call_later`` changes the number of events and nothing else."""
    def play(seed, merged):
        rng = random.Random(seed)
        sched = Scheduler()
        order = []

        def record(tag, spawn):
            order.append((sched.now, tag))
            for child in range(spawn):
                push((tag, child), 0)

        def push(tag, spawn):
            delay = rng.choice((0.0, 0.5, 1.0))
            form = rng.randrange(6)
            if form < 3:
                (sched.append_later if merged else sched.call_later)(
                    delay, record, tag, spawn)
            elif form == 3:
                sched.call_later(delay, record, tag, spawn)
            elif form == 4:
                sched.call_soon(record, tag, spawn)
            else:
                sched.call_at(sched.now + delay, record, tag, spawn).cancel()

        fired = 0
        for tag in range(300):
            push(tag, rng.randrange(3))
            if rng.random() < 0.05:
                fired += sched.run_until(sched.now + rng.choice((0.0, 0.5)))
        return order, fired + sched.run()

    for seed in range(20):
        order, fired = play(seed, merged=True)
        reference, reference_fired = play(seed, merged=False)
        assert order == reference
        assert fired < reference_fired
