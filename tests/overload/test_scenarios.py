"""Overload chaos scenarios: the ISSUE 8 acceptance criteria.

``ingress-flood`` drives a 5×-capacity announcement flood into one
PoP and must (a) shed only announcements, (b) keep peak queue memory
bounded by the configured capacity, (c) trip and then recover the
neighbor's circuit breaker, and (d) re-converge to the exact
pre-fault snapshot under the *full* invariant catalog — at every
soak seed.  ``slow-consumer`` degrades one queue's drain rate and
shrinks its capacity mid-churn without tripping the breaker.
"""

import pytest

from repro.chaos import ChaosRunner, build_chaos_world

SOAK_SEEDS = (0, 1, 2, 3, 4)

FULL_CATALOG = (
    "vmac_bijectivity",
    "addpath_completeness",
    "community_propagation",
    "no_cross_experiment_leakage",
    "kernel_consistency",
    "no_withdrawal_loss_under_shed",
)


def _run(name, seed):
    world = build_chaos_world(seed=seed)
    runner = ChaosRunner(world)
    result = runner.run(name)
    return world, result


@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_ingress_flood_reconverges_exactly(seed):
    world, result = _run("ingress-flood", seed)
    assert result.ok, result.format()
    # only announcements were shed; the flood genuinely overloaded
    assert result.invariants["shed_only_announcements"]
    assert result.details["announcements_shed"] >= 1
    assert result.details["breaker_trips"] >= 1
    assert result.invariants["breaker_recovered"]
    assert result.invariants["watchdog_flagged"]
    # bounded peak queue memory: never past the configured capacity
    assert result.invariants["bounded_queue_memory"]
    governor = world.platform.pops["west"].overload
    totals = governor.totals()
    assert totals["shed_withdrawals"] == 0
    assert totals["shed_control"] == 0
    assert totals["peak_announce_depth"] <= governor.policy.queue.depth
    # every withdrawal is accounted for once the queues are empty
    assert governor.pending() == 0
    for queue in governor.queues.values():
        stats = queue.stats
        assert stats.withdrawals_admitted == (
            stats.withdrawals_delivered
            + stats.withdrawals_dropped_on_close
        )
    # the full catalog ran, including the new invariant
    for name in FULL_CATALOG:
        assert result.invariants[name], result.format()


@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_slow_consumer_reconverges(seed):
    world, result = _run("slow-consumer", seed)
    assert result.ok, result.format()
    assert result.invariants["shed_only_announcements"]
    assert result.details["announcements_shed"] >= 1
    # a slow consumer is degradation, not a breaker-worthy failure
    assert result.invariants["breaker_not_tripped"]
    for name in FULL_CATALOG:
        assert result.invariants[name], result.format()


def test_flood_is_seed_deterministic():
    def run(seed):
        world, result = _run("ingress-flood", seed)
        governor = world.platform.pops["west"].overload
        return result, governor.shed_digest()

    result_a, digest_a = run(11)
    result_b, digest_b = run(11)
    assert result_a.ok and result_b.ok
    # Byte-identical shed chains and outcomes: shedding is a pure
    # function of the offered load, so two runs at the same seed must
    # shed exactly the same updates in exactly the same order.
    assert digest_a == digest_b
    assert result_a.details == result_b.details


def test_overload_scenarios_in_catalog():
    assert "ingress-flood" in ChaosRunner.SCENARIOS
    assert "slow-consumer" in ChaosRunner.SCENARIOS


def test_enforcer_overload_counters_reset_after_heal():
    """ISSUE 8 satellite: post-heal the enforcer's violation log is
    cleared so later scenarios start from a clean slate."""
    world = build_chaos_world(seed=0)
    runner = ChaosRunner(world)
    result = runner.run("enforcer-overload")
    assert result.ok, result.format()
    assert result.invariants["counters_reset"]
    assert result.details["violations_cleared"] >= 0
    for pop in world.platform.pops.values():
        assert pop.control_enforcer.violations == []
        assert not pop.control_enforcer.overloaded
