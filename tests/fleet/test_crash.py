"""fleet-pop-crash: SIGKILL mid-churn, restart from artifact, re-heal.

Tier-1 runs seeds 0-4 (three different victims); the CI ``fleet`` job
soaks seeds 0-4 again outside pytest.
"""

import pytest

from repro.fleet.crash import run_fleet_pop_crash


@pytest.mark.parametrize("seed", [0, 1])
def test_crash_restart_converges_to_pre_fault_state(seed):
    result = run_fleet_pop_crash(
        seed=seed, port_base=24820 + seed * 40)
    assert result.ok, result.format()
    assert result.name == "fleet-pop-crash"
    assert result.invariants["path_state_restored"]
    assert result.details["diverged_keys"] == 0
    assert result.details["outage_updates"] > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", [2, 3, 4])
def test_crash_soak_other_victims(seed):
    result = run_fleet_pop_crash(
        seed=seed, port_base=25000 + seed * 40)
    assert result.ok, result.format()
