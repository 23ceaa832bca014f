"""The fleet proof obligation: in-process vs real processes, byte-equal.

Tier-1 runs a short 2-PoP world and the 3-PoP world at the harness
default of 90 updates over 40 prefixes, as the CI ``fleet`` job does.
"""

import pytest

from repro.fleet.differential import (
    FleetDifferentialHarness,
    run_fleet_differential,
)


def test_harness_rejects_single_pop_world():
    with pytest.raises(ValueError):
        FleetDifferentialHarness(pops=1)


def test_two_pop_fleet_is_byte_identical():
    report = run_fleet_differential(
        pops=2, updates=8, prefix_count=8, seed=0, port_base=24700)
    assert report.ok, report.format()
    assert report.mismatches == []
    assert report.federation_events > 0
    expected = {
        "addpath_completeness", "community_propagation",
        "kernel_consistency", "no_cross_experiment_leakage",
        "no_withdrawal_loss_under_shed", "vmac_bijectivity",
    }
    assert set(report.invariants) == expected
    assert set(report.reference_invariants) == expected


@pytest.mark.slow
def test_three_pop_fleet_is_byte_identical():
    report = run_fleet_differential(pops=3, seed=0, port_base=24760)
    assert report.ok, report.format()
