"""Differential tests: perf-toggle combinations, identical output.

With seven toggles the full lattice is 128 combinations, so the quick
tests sweep curated subsamples (reference + every single-flag-on +
all-on + seeded interior points) on a small workload; the slow
acceptance tests run the CI-gate workload (≥5k updates) and the
full-table workload.  Two rigged harnesses prove the comparison logic
actually *detects* divergence — a checker that cannot fail is not a
checker.
"""

import pytest

from repro.conformance.differential import (
    DifferentialHarness,
    TOGGLES,
    _RunResult,
    all_flag_combinations,
    combo_label,
    subsampled_flag_combinations,
)


def test_all_flag_combinations_shape():
    combos = all_flag_combinations()
    assert len(combos) == 2 ** len(TOGGLES) == 128
    assert combos[0] == {name: False for name in TOGGLES}  # reference
    assert len({tuple(sorted(c.items())) for c in combos}) == 128


def test_subsampled_combinations_curated_corners():
    combos = subsampled_flag_combinations(16, seed=3)
    assert len(combos) == 16
    assert combos[0] == {name: False for name in TOGGLES}  # reference first
    for name in TOGGLES:  # every single-flag-on combo present
        assert {**combos[0], name: True} in combos
    assert {name: True for name in TOGGLES} in combos  # all-on present
    assert len({tuple(sorted(c.items())) for c in combos}) == 16  # unique
    # deterministic for a given seed
    assert combos == subsampled_flag_combinations(16, seed=3)


def test_combo_label():
    assert combo_label({name: False for name in TOGGLES}) == "all_off"
    assert combo_label({"stride_lpm": True}) == "stride_lpm"


def test_differential_sweep_small():
    harness = DifferentialHarness(update_count=240, prefix_count=400)
    report = harness.run(subsample=16)
    assert report.ok, report.format()
    assert report.combinations == 16
    assert "ok" in report.format()


def test_differential_fulltable_small():
    """The full-table workload at reduced scale: table load + churn tail
    through every single-flag-on combination and the all-on config."""
    harness = DifferentialHarness(
        update_count=120, prefix_count=600, workload="fulltable"
    )
    report = harness.run(subsample=12)
    assert report.ok, report.format()
    assert report.workload == "fulltable"
    assert "workload=fulltable" in report.format()


@pytest.mark.slow
def test_differential_sweep_acceptance():
    """The CI gate: byte-identical output on a >=5k-update workload."""
    harness = DifferentialHarness(update_count=5000)
    report = harness.run(subsample=32)
    assert report.ok, report.format()
    assert report.updates >= 5000
    assert report.combinations == 32


@pytest.mark.slow
def test_differential_full_lattice():
    """All 128 combinations on a small workload (nightly-sized)."""
    harness = DifferentialHarness(update_count=120, prefix_count=300)
    report = harness.run()
    assert report.ok, report.format()
    assert report.combinations == 128


@pytest.mark.slow
def test_differential_fulltable_acceptance():
    """Full-table differential at CI scale: 20k-prefix table + churn
    tail, subsampled lattice."""
    harness = DifferentialHarness(
        update_count=2000, prefix_count=20000, workload="fulltable"
    )
    report = harness.run(subsample=12)
    assert report.ok, report.format()


class _Rigged(DifferentialHarness):
    """Returns canned results so the comparison logic is testable."""

    def __init__(self, results):
        super().__init__(update_count=1)
        self._results = list(results)

    def _run_scenario(self):
        return self._results.pop(0)


def _result(structural=b"s", changes=b"c", wire=b"w"):
    return _RunResult(
        structural=structural,
        changes_to_experiment=changes,
        changes_to_upstream=changes,
        wire_to_experiment=wire,
        wire_to_upstream=wire,
    )


def test_detects_structural_divergence():
    combos = all_flag_combinations()[:3]
    rigged = _Rigged([_result(), _result(), _result(structural=b"DIFF")])
    report = rigged.run(combinations=combos)
    assert not report.ok
    assert any("Loc-RIB" in m for m in report.mismatches)
    assert combo_label(combos[2]) in report.mismatches[0]


def test_detects_wire_divergence_within_fanout_group():
    # two combos with identical fanout_batch but different raw frames
    combos = [
        {name: False for name in TOGGLES},
        {**{name: False for name in TOGGLES}, "stride_lpm": True},
    ]
    rigged = _Rigged([_result(), _result(wire=b"DIFF")])
    report = rigged.run(combinations=combos)
    assert not report.ok
    assert any("wire bytes" in m for m in report.mismatches)


def test_wire_not_compared_across_fanout_groups():
    # different fanout_batch values: raw bytes may differ, but the
    # decoded change stream and structure must not
    combos = [
        {name: False for name in TOGGLES},
        {**{name: False for name in TOGGLES}, "fanout_batch": True},
    ]
    rigged = _Rigged([_result(wire=b"one"), _result(wire=b"two")])
    report = rigged.run(combinations=combos)
    assert report.ok, report.format()
