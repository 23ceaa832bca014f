"""Differential tests: LPM-toggle combinations, identical output.

With one toggle the lattice is 2 combinations (cache off, the reference,
then cache on), so every test sweeps all of it: a small workload, the
CI-gate workload (≥5k updates) and the full-table workload.  Two rigged
harnesses prove the comparison logic actually *detects* divergence — a
checker that cannot fail is not a checker.
"""

import pytest

from repro.conformance.differential import (
    DifferentialHarness,
    TOGGLES,
    _RunResult,
    all_flag_combinations,
    combo_label,
)


def test_all_flag_combinations_shape():
    combos = all_flag_combinations()
    assert combos == [{"lpm_cache": False}, {"lpm_cache": True}]
    assert len(combos) == 2 ** len(TOGGLES)


def test_combo_label():
    assert combo_label({name: False for name in TOGGLES}) == "all_off"
    assert combo_label({"lpm_cache": True}) == "lpm_cache"


def test_differential_sweep_small():
    harness = DifferentialHarness(update_count=240, prefix_count=400)
    report = harness.run()
    assert report.ok, report.format()
    assert report.combinations == 2
    assert "ok" in report.format()


def test_differential_fulltable_small():
    """The full-table workload at reduced scale: table load + churn tail
    through the whole lattice."""
    harness = DifferentialHarness(
        update_count=120, prefix_count=600, workload="fulltable"
    )
    report = harness.run()
    assert report.ok, report.format()
    assert report.workload == "fulltable"
    assert "workload=fulltable" in report.format()


@pytest.mark.slow
def test_differential_sweep_acceptance():
    """The CI gate: byte-identical output on a >=5k-update workload."""
    harness = DifferentialHarness(update_count=5000)
    report = harness.run()
    assert report.ok, report.format()
    assert report.updates >= 5000
    assert report.combinations == 2


@pytest.mark.slow
def test_differential_full_lattice():
    """Every combination on a small workload, reference first."""
    harness = DifferentialHarness(update_count=120, prefix_count=300)
    labels = []
    report = harness.run(progress=labels.append)
    assert report.ok, report.format()
    assert report.combinations == 2
    assert labels == [combo_label(c) for c in all_flag_combinations()]


@pytest.mark.slow
def test_differential_fulltable_acceptance():
    """Full-table differential at CI scale: 20k-prefix table + churn
    tail, whole lattice."""
    harness = DifferentialHarness(
        update_count=2000, prefix_count=20000, workload="fulltable"
    )
    report = harness.run()
    assert report.ok, report.format()
    assert report.combinations == 2


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
    combos = all_flag_combinations()
    rigged = _Rigged([_result(), _result(structural=b"DIFF")])
    report = rigged.run(combinations=combos)
    assert not report.ok
    (mismatch,) = report.mismatches
    assert "Loc-RIB" in mismatch
    assert mismatch.startswith(f"{combo_label(combos[1])}: ")
    assert mismatch.endswith(f"from {combo_label(combos[0])}")


def test_detects_wire_divergence():
    """Raw frames are compared for every combination in both directions."""
    combos = all_flag_combinations()
    for field in ("wire_to_experiment", "wire_to_upstream"):
        diverged = _result()
        setattr(diverged, field, b"DIFF")
        rigged = _Rigged([_result(), diverged])
        report = rigged.run(combinations=combos)
        (mismatch,) = report.mismatches
        assert combo_label(combos[1]) in mismatch
        assert "wire bytes" in mismatch
