"""Unit tests for the discrete-event scheduler."""

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
