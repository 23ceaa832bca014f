"""compare.py: ok / regressed / unresolved from result files."""

from __future__ import annotations

from benchmarks.e2e import compare

SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
    ],
}


def runs(rates, p50s):
    return [
        {"workloads": {"w": {"end_to_end": {"ops_per_s": rate,
                                            "op_p50_us": p50},
                             "failed": 0}}}
        for rate, p50 in zip(rates, p50s)
    ]


def status(rows):
    return {row["metric"]: row["status"] for row in rows}


def test_same_numbers_are_ok():
    rows = compare.compare(runs([100, 101, 99], [10, 10, 10]),
                           runs([100, 100, 102], [10, 10.2, 10]), SPEC)
    assert status(rows) == {"ops_per_s": "ok", "op_p50_us": "ok"}
    assert rows[0]["ratio"] == 1.0


def test_direction_decides_what_worse_means():
    rows = compare.compare(runs([100] * 3, [10] * 3),
                           runs([80] * 3, [8] * 3), SPEC)
    assert status(rows) == {"ops_per_s": "regressed", "op_p50_us": "ok"}
    rows = compare.compare(runs([100] * 3, [10] * 3),
                           runs([120] * 3, [12] * 3), SPEC)
    assert status(rows) == {"ops_per_s": "ok", "op_p50_us": "regressed"}


def test_a_spread_wider_than_the_bound_is_unresolved():
    rows = compare.compare(runs([80, 100, 125, 90], [10] * 4),
                           runs([100] * 4, [10] * 4), SPEC)
    assert status(rows) == {"ops_per_s": "unresolved", "op_p50_us": "ok"}


def test_failed_operations_are_counted():
    bad = runs([100], [10])
    bad[0]["workloads"]["w"]["failed"] = 3
    assert compare.failed_operations(bad) == 3
