#!/usr/bin/env python3
"""Benchmark regression gate: freshly-run JSON vs. committed baselines.

CI runs the gated benchmarks (``BENCH_update_load``,
``BENCH_fig2_delegation``, ``BENCH_chaos_convergence``, …), then invokes
this script to compare the fresh ``BENCH_<name>.json`` files against the
baselines committed under ``benchmarks/baselines/``.  A metric regresses
when it moves more than ``--tolerance`` (default 25%) in its *bad*
direction:

* throughput-style metrics (``…per_s…``) must not *drop* below
  ``baseline * (1 - tolerance)``;
* latency/convergence-style metrics (``…_s`` / ``…_us`` suffixes) and
  memory-style metrics (``…bytes…``) must not *rise* above
  ``baseline * (1 + tolerance)``;
* anything else (counters such as ``scenarios``, ``seeds``,
  ``…_reconnects``, and ratios such as ``utilization_at_p99_pct``) is
  informational and never gates.

``real_*`` metrics (measured wall-clock of real OS processes) and
``cpu_count`` are machine properties, so they never gate against the
committed baseline.  Instead they are gated *relatively* via
``RELATIVE_GATES``: e.g. ``fleet_convergence`` must show
``real_updates_per_s_fleet >= 5.0`` whenever the runner has at least
2 CPU cores, and the gate skips with a notice on smaller runners.
This keeps the ±25% absolute gate machine-independent for
multi-process benches.

Improvements beyond tolerance are reported but do not fail the gate —
refresh the baseline in the same PR that makes things faster.

Exit status: 0 clean, 1 regression, 2 missing/unreadable inputs.

Reproduce a CI failure locally::

    PYTHONPATH=src python -m pytest benchmarks/bench_update_load.py \
        benchmarks/bench_fig2_delegation.py \
        benchmarks/bench_chaos_convergence.py \
        benchmarks/bench_fig6a_memory.py \
        benchmarks/bench_footprint.py \
        benchmarks/bench_overload_shed.py -q
    FULLTABLE_PREFIXES=200000 FULLTABLE_CHURN=10000 \
        FULLTABLE_MEMORY_PREFIXES=100000 PYTHONPATH=src python -m pytest \
        benchmarks/bench_fulltable_load.py \
        benchmarks/bench_fulltable_memory.py -q
    python scripts/check_bench_regression.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

GATED_BENCHMARKS = (
    "update_load",
    "fig2_delegation",
    "chaos_convergence",
    "fig6a_memory",
    "footprint",
    "fulltable_load",
    "fulltable_memory",
    "intent_dryrun",
    "overload_shed",
    "fleet_convergence",
)
DEFAULT_TOLERANCE = 0.25

_REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_BASELINE_DIR = _REPO_ROOT / "benchmarks" / "baselines"

HIGHER_IS_BETTER = "higher"
LOWER_IS_BETTER = "lower"
NEUTRAL = "neutral"

# Relative gates: (metric, minimum, cpu_floor, description).  The gate
# only applies when the fresh run's ``cpu_count`` is at least
# ``cpu_floor`` — a multi-process fleet needs real cores.  On smaller
# runners the gate skips with a notice instead of failing, so the CI
# matrix stays green on shared/throttled machines while still catching
# regressions wherever cores are available.
RELATIVE_GATES = {
    "fleet_convergence": (
        (
            "real_updates_per_s_fleet",
            5.0,
            2,
            "lockstep churn throughput of a real 3-process fleet "
            "over loopback TCP",
        ),
    ),
}


def check_relative_gates(
    name: str,
    current: Dict[str, float],
) -> Tuple[List[str], List[str]]:
    """Apply ``RELATIVE_GATES`` for one benchmark's fresh metrics.

    Returns ``(regressions, notes)``.  A missing gated metric is a
    regression (the bench stopped measuring it); a runner below the
    core floor produces a skip notice, never a failure.
    """
    regressions: List[str] = []
    notes: List[str] = []
    for metric, minimum, cpu_floor, description in RELATIVE_GATES.get(name, ()):
        try:
            cores = int(current.get("cpu_count", 0))
        except (TypeError, ValueError):
            cores = 0
        value = current.get(metric)
        if value is None:
            regressions.append(
                f"relative gate {metric!r} >= {minimum} "
                f"({description}): metric missing from fresh run"
            )
            continue
        try:
            measured = float(value)
        except (TypeError, ValueError):
            regressions.append(
                f"relative gate {metric!r}: non-numeric value {value!r}"
            )
            continue
        if cores < cpu_floor:
            notes.append(
                f"skipped relative gate {metric!r} >= {minimum} "
                f"({description}): runner has {cores} core(s) < "
                f"{cpu_floor} floor (measured {measured:.2f}x)"
            )
            continue
        if measured < minimum:
            regressions.append(
                f"relative gate {metric!r}: {measured:.2f}x < "
                f"{minimum}x minimum ({description}, "
                f"{cores} cores)"
            )
        else:
            notes.append(
                f"relative gate {metric!r}: {measured:.2f}x >= "
                f"{minimum}x ({description}, {cores} cores)"
            )
    return regressions, notes


def metric_direction(key: str) -> str:
    """Infer which way a metric is allowed to move.

    ``per_s`` marks throughput (checked before the ``_s`` suffix, which
    would otherwise misclassify it); trailing ``_s`` / ``_us`` mark
    durations; ``bytes`` marks memory footprints.  Everything else is
    informational.

    ``real_*`` metrics and ``cpu_count`` are checked first: they are
    properties of the machine the bench ran on (physical-core
    wall-clock), so comparing them against a baseline recorded on a
    different runner is meaningless — they gate relatively via
    ``RELATIVE_GATES`` instead.
    """
    if key.startswith("real_") or key == "cpu_count":
        return NEUTRAL
    if "per_s" in key:
        return HIGHER_IS_BETTER
    if "bytes" in key or key.endswith(("_s", "_us", "_ms")):
        return LOWER_IS_BETTER
    return NEUTRAL


def compare_metrics(
    baseline: Dict[str, float],
    current: Dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[List[str], List[str]]:
    """Return ``(regressions, notes)`` for one benchmark's metrics.

    Metric-set mismatches are reported symmetrically with a clear
    message rather than a traceback: a gated metric present in the
    baseline but absent from the fresh run regresses (the benchmark
    silently stopped measuring something it used to), while a metric
    present in the fresh run but absent from the baseline regresses too
    (the committed baseline is stale and must be refreshed in the same
    PR that added the metric).  Neutral metrics only produce notes.
    """
    regressions: List[str] = []
    notes: List[str] = []
    for key in sorted(set(current) - set(baseline)):
        message = (
            f"metric {key!r} present in fresh run but missing from "
            "baseline — refresh the committed baseline"
        )
        if metric_direction(key) == NEUTRAL:
            notes.append(message)
        else:
            regressions.append(message)
    for key in sorted(baseline):
        direction = metric_direction(key)
        if key not in current:
            message = (
                f"metric {key!r} present in baseline but missing from "
                "fresh run"
            )
            if direction == NEUTRAL:
                notes.append(message)
            else:
                regressions.append(message)
            continue
        if direction == NEUTRAL:
            continue
        try:
            base = float(baseline[key])
            now = float(current[key])
        except (TypeError, ValueError):
            regressions.append(
                f"metric {key!r} is not numeric "
                f"(baseline={baseline[key]!r}, fresh={current[key]!r})"
            )
            continue
        if base == 0.0:
            notes.append(f"{key}: zero baseline, skipped")
            continue
        ratio = now / base
        if direction == HIGHER_IS_BETTER and ratio < 1.0 - tolerance:
            regressions.append(
                f"{key}: {now:,.2f} vs baseline {base:,.2f} "
                f"({(1.0 - ratio) * 100:.1f}% drop > "
                f"{tolerance * 100:.0f}% tolerance)"
            )
        elif direction == LOWER_IS_BETTER and ratio > 1.0 + tolerance:
            regressions.append(
                f"{key}: {now:,.2f} vs baseline {base:,.2f} "
                f"({(ratio - 1.0) * 100:.1f}% rise > "
                f"{tolerance * 100:.0f}% tolerance)"
            )
        elif abs(ratio - 1.0) > tolerance:
            notes.append(
                f"{key}: improved {abs(ratio - 1.0) * 100:.1f}% beyond "
                "tolerance — consider refreshing the baseline"
            )
    return regressions, notes


def load_metrics(
    path: Path,
) -> Tuple[Optional[Dict[str, float]], Optional[str]]:
    """Read one ``BENCH_<name>.json``; returns ``(metrics, error)``.

    Every failure mode gets its own message instead of collapsing into a
    generic "missing": an unreadable file, invalid JSON, valid JSON whose
    top level is not an object (a bare list or number would previously
    escape as an ``AttributeError``), and an object without a usable
    ``metrics`` mapping.
    """
    try:
        payload = json.loads(path.read_text())
    except OSError:
        return None, f"MISSING ({path})"
    except ValueError as exc:
        return None, f"INVALID JSON ({path}): {exc}"
    if not isinstance(payload, dict):
        return None, (
            f"INVALID ({path}): top-level JSON is "
            f"{type(payload).__name__}, expected an object with a "
            "'metrics' mapping"
        )
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        return None, (
            f"INVALID ({path}): 'metrics' is "
            f"{type(metrics).__name__}, expected an object"
        )
    return metrics, None


def run_gate(
    baseline_dir: Path,
    current_dir: Path,
    names=GATED_BENCHMARKS,
    tolerance: float = DEFAULT_TOLERANCE,
    out=sys.stdout,
) -> int:
    """Compare every gated benchmark; returns the process exit code."""
    exit_code = 0
    for name in names:
        baseline_path = baseline_dir / f"BENCH_{name}.json"
        current_path = current_dir / f"BENCH_{name}.json"
        baseline, baseline_error = load_metrics(baseline_path)
        current, current_error = load_metrics(current_path)
        if baseline is None:
            print(f"{name}: baseline {baseline_error}", file=out)
            exit_code = max(exit_code, 2)
            continue
        if current is None:
            print(f"{name}: fresh run {current_error}", file=out)
            exit_code = max(exit_code, 2)
            continue
        regressions, notes = compare_metrics(baseline, current, tolerance)
        rel_regressions, rel_notes = check_relative_gates(name, current)
        regressions.extend(rel_regressions)
        notes.extend(rel_notes)
        verdict = "REGRESSED" if regressions else "ok"
        print(f"{name}: {verdict}", file=out)
        for line in regressions:
            print(f"  - {line}", file=out)
        for line in notes:
            print(f"  ~ {line}", file=out)
        if regressions:
            exit_code = max(exit_code, 1)
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names",
        nargs="*",
        default=list(GATED_BENCHMARKS),
        help="benchmark names to gate (default: all gated benchmarks)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=DEFAULT_BASELINE_DIR,
        help="directory holding the committed BENCH_<name>.json baselines",
    )
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=Path.cwd(),
        help="directory holding the freshly generated BENCH_<name>.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional movement in the bad direction (default 0.25)",
    )
    args = parser.parse_args(argv)
    return run_gate(
        args.baseline_dir,
        args.current_dir,
        names=args.names or GATED_BENCHMARKS,
        tolerance=args.tolerance,
    )


if __name__ == "__main__":
    sys.exit(main())
