"""One command for the wire-to-wire benchmark.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.e2e.run [--seed N] [--trace] [--smoke]

With ``--workload`` it runs that workload in this process and prints every
metric by name with its unit and sample count, then — as the last line —
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Without it, it runs every workload one after another,
each in a fresh child interpreter, never concurrently, and writes one
result file that ``compare.py`` reads.  It exits non-zero if any output
differed from the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if __package__ in (None, ""):
    # Run as a script: the script's own directory must not shadow the
    # standard library (``trace``), and the repository root and ``src``
    # must be importable.
    sys.path[0] = str(ROOT)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(1, str(ROOT / "src"))

SMOKE_SLICES = {"default": 5, "table_ingest": 6, "late_join": 2}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced pass, prints the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed operation counts (tests)")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the full result record")
    # Set by the suite for its children: the suite's own previous child
    # keeps the load average near 1, so only its first child may warn.
    parser.add_argument("--no-load-warning", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0`` so set and dict iteration
    over hashed strings is the same in every run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def print_metrics(record: dict, spec: dict) -> dict:
    """Print every metric by name with unit and sample count; return the
    ``metrics`` object of the final JSON line."""
    traced = bool(record["trace"])
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    values = record["per_layer"] if traced else record["end_to_end"]
    samples = record["samples"]
    print(f"# {record['workload']}: op={record['op']} "
          f"transport={record['hygiene']['transport']} "
          f"seed={record['hygiene']['seed']} trace={record['trace']}")
    print(f"# samples: {samples['ops']} ops in {samples['slices']} slices, "
          f"{samples['latencies']} latencies ({samples['p99_groups']} p99 "
          f"groups), {samples['setups']} set-ups")
    measured = "  ".join(
        f"{name}={value:.4f}" for name, value in record["as_measured"].items()
    )
    print(f"# host slowdown {record['host_slowdown']:.3f}; times below are "
          f"wall clock at nominal host speed.  As measured: {measured}")
    open_loop = record["hygiene"].get("open_loop")
    if open_loop:
        print("# open loop at "
              f"{record['hygiene']['open_loop_rate_per_s']:.0f}/s (not gated): "
              + "  ".join(f"{k}={v:.1f}" for k, v in open_loop.items()))
    metrics = {}
    for entry in listed:
        name = entry["name"]
        value = float(values[name])
        metrics[name] = {"value": value, "unit": entry["unit"]}
        arrow = "↑" if entry["better"] == "higher" else "↓"
        print(f"{name:45s} {value:16.4f} {entry['unit']:6s} {arrow}")
    extra = sorted(set(values) - set(metrics))
    if extra:
        raise SystemExit(f"metrics not listed in BENCHMARK.json: {extra}")
    print(f"# oracle: {record['failed']} failed of {record['attempted']}")
    return metrics


def run_one(args: argparse.Namespace) -> int:
    from benchmarks.e2e import harness
    from benchmarks.e2e.workloads import WORKLOADS

    spec = harness.spec()
    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}"
        )
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    max_slices = None
    if args.smoke:
        max_slices = SMOKE_SLICES.get(args.workload, SMOKE_SLICES["default"])
    record = harness.run_workload(workload, seconds, bool(args.trace),
                                  max_slices=max_slices)
    hygiene = record["hygiene"]
    for key in ("steal_warning",) + (
        () if args.no_load_warning else ("warning",)
    ):
        if key in hygiene:
            print(f"warning: {hygiene[key]}", file=sys.stderr)
    spans = record.pop("trace_dump", None)
    harness.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if spans is not None:
        # One span file per workload, overwritten: they are megabytes.
        (harness.OUT_DIR / f"{args.workload}-spans.json").write_text(
            json.dumps(spans))
    out = args.out or harness.OUT_DIR / f"{stem}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    metrics = print_metrics(record, spec)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


def run_suite(args: argparse.Namespace) -> int:
    """Every workload, one child interpreter each, one after another."""
    from benchmarks.e2e import harness

    spec = harness.spec()
    harness.OUT_DIR.mkdir(exist_ok=True)
    result = {"seed": args.seed, "smoke": args.smoke, "workloads": {}}
    status = 0
    first = True
    for entry in spec["workloads"]:
        name = entry["name"]
        merged: dict = {}
        for trace in ((0, 1) if args.trace else (0,)):
            part = harness.OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json"
            part.unlink(missing_ok=True)
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--trace", str(trace),
                "--out", str(part),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            if not first:
                command.append("--no-load-warning")
            first = False
            done = subprocess.run(command, cwd=ROOT)
            if done.returncode != 0:
                status = 1
            if not part.exists():
                continue
            record = json.loads(part.read_text())
            if trace:
                merged["per_layer"] = record["per_layer"]
                merged["traced_failed"] = record["failed"]
            else:
                merged.update(record)
        result["workloads"][name] = merged
    out = args.out or harness.OUT_DIR / f"result-seed{args.seed}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(f"# result file: {out}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_hash_seed()
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
