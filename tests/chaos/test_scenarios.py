"""ChaosRunner scenarios: every scenario re-converges for every seed.

The CI soak sweeps more seeds; here a representative seed set exercises
every scenario, plus determinism and telemetry checks.
"""

import pytest

from repro.chaos import ChaosRunner, build_chaos_world

SOAK_SEEDS = (0, 1, 2, 3, 4)


@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_all_scenarios_reconverge(seed):
    world = build_chaos_world(seed=seed)
    runner = ChaosRunner(world)
    for result in runner.run_all():
        assert result.ok, result.format()
        assert result.convergence_time <= runner.bound


def test_unknown_scenario_is_rejected():
    world = build_chaos_world(seed=0, with_telemetry=False)
    runner = ChaosRunner(world)
    with pytest.raises(KeyError):
        runner.run("meteor-strike")


def test_runs_without_telemetry():
    world = build_chaos_world(seed=0, with_telemetry=False)
    runner = ChaosRunner(world)
    result = runner.run("drop")
    assert result.ok


def _partition_trace(seed):
    world = build_chaos_world(seed=seed)
    runner = ChaosRunner(world)
    result = runner.run("partition")
    supervisor = runner._supervisor(world.neighbors["transit-west"])
    return result, supervisor.schedule


def test_scenarios_are_seed_deterministic():
    result_a, schedule_a = _partition_trace(17)
    result_b, schedule_b = _partition_trace(17)
    assert result_a.ok and result_b.ok
    # Byte-identical backoff schedules and identical outcomes.
    assert repr(schedule_a) == repr(schedule_b)
    assert result_a.details == result_b.details
    assert result_a.convergence_time == result_b.convergence_time
    # A different seed jitters differently.
    _, schedule_c = _partition_trace(18)
    assert repr(schedule_a) != repr(schedule_c)


def test_faults_flow_into_telemetry_station():
    world = build_chaos_world(seed=2)
    runner = ChaosRunner(world)
    result = runner.run("partition")
    assert result.ok
    events = [
        message.event for message in world.telemetry.station.history
        if message.kind == "resilience"
    ]
    assert "fault-inject" in events
    assert "fault-heal" in events
    assert "reconnect" in events  # supervisor activity
    assert "gr-stale" in events   # retention engaged during the outage


def test_flap_scenario_engages_damping():
    world = build_chaos_world(seed=1)
    runner = ChaosRunner(world)
    result = runner.run("flap")
    assert result.ok
    assert result.invariants["flap_damping_engaged"]
    assert result.details["suppressions"] >= 1


def test_enforcer_overload_fails_closed():
    world = build_chaos_world(seed=0)
    runner = ChaosRunner(world)
    result = runner.run("enforcer-overload")
    assert result.ok
    assert result.invariants["fail_closed"]
    assert result.invariants["recovered_after_overload"]
