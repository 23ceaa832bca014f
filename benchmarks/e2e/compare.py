"""Compare two sets of suite results, metric by metric, workload by workload.

    python -m benchmarks.e2e.compare A.json B.json
    python -m benchmarks.e2e.compare --aa N [--seconds S] [--seed K]

``A.json`` / ``B.json`` are result files written by ``run.py`` (one suite
run) or by ``--aa`` (several).  One row per workload × end-to-end metric:
both medians, the ratio B/A with A as its base, the bound from
``BENCHMARK.json``, and a status:

* ``regressed``  — B is worse than A by more than the bound;
* ``unresolved`` — the run-to-run quartile spread of a side is wider
  than the bound, so "no change" cannot be claimed;
* ``ok``         — neither.

``--aa N`` runs the suite 2·N times on the current tree, alternating the
runs between set A and set B, and exits non-zero if any row is not ``ok``
or any output failed the oracle: same code must agree with itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_runs(path: Path) -> list[dict]:
    data = json.loads(path.read_text())
    return data["runs"] if "runs" in data else [data]


def values_of(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        run["workloads"][workload]["end_to_end"][metric]
        for run in runs
        if metric in run["workloads"].get(workload, {}).get("end_to_end", {})
    ]


def quartile_spread(values: list[float]) -> float:
    """(Q3 − Q1) / median, as the driver computes it; 0 for < 2 runs."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def compare(runs_a: list[dict], runs_b: list[dict], spec: dict) -> list[dict]:
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = values_of(runs_a, workload, metric["name"])
            b = values_of(runs_b, workload, metric["name"])
            if not a or not b:
                continue
            base, new = statistics.median(a), statistics.median(b)
            ratio = new / base if base else float("inf")
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            spread = max(quartile_spread(a), quartile_spread(b))
            if worse > metric["bound"]:
                status = "regressed"
            elif spread > metric["bound"]:
                status = "unresolved"
            else:
                status = "ok"
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "a": base, "b": new, "ratio": ratio,
                "spread": spread, "bound": metric["bound"], "status": status,
                "runs": (len(a), len(b)),
            })
    return rows


def failed_operations(runs: list[dict]) -> int:
    return sum(
        record.get("failed", 0) + record.get("traced_failed", 0)
        for run in runs for record in run["workloads"].values()
    )


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':16s} {'metric':10s} {'A (base)':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  status")
    for row in rows:
        print(f"{row['workload']:16s} {row['metric']:10s} "
              f"{row['a']:12.3f} {row['b']:12.3f} {row['ratio']:7.3f} "
              f"{row['spread']:7.3f} {row['bound']:6.2f}  {row['status']}"
              f"  [{row['unit']}, n={row['runs'][0]}/{row['runs'][1]}]")


def run_aa(count: int, seconds, seed: int) -> tuple[Path, Path]:
    """2·count suite runs of the current tree, alternating A and B."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    sides: dict[str, list] = {"a": [], "b": []}
    for index in range(2 * count):
        side = "ab"[index % 2]
        part = out_dir / f"aa-{side}{index // 2}.json"
        command = [sys.executable, str(HERE / "run.py"),
                   "--seed", str(seed + index), "--out", str(part)]
        if seconds is not None:
            command += ["--seconds", str(seconds)]
        subprocess.run(command, cwd=ROOT, check=False)
        sides[side].append(json.loads(part.read_text()))
    paths = []
    for side, runs in sides.items():
        path = out_dir / f"aa-{side}.json"
        path.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True))
        paths.append(path)
    return paths[0], paths[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path, help="A.json B.json")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="run the suite 2·N times and compare the halves")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.aa:
        path_a, path_b = run_aa(args.aa, args.seconds, args.seed)
    elif len(args.files) == 2:
        path_a, path_b = args.files
    else:
        parser.error("give A.json B.json, or --aa N")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    rows = compare(runs_a, runs_b, spec)
    print_rows(rows)
    failed = failed_operations(runs_a) + failed_operations(runs_b)
    not_ok = [row for row in rows if row["status"] != "ok"]
    print(f"# {len(rows)} rows, {len(not_ok)} not ok, "
          f"{failed} operations failed the oracle")
    if args.aa:
        return 1 if not_ok or failed else 0
    return 1 if failed or any(
        row["status"] == "regressed" for row in rows
    ) else 0


if __name__ == "__main__":
    sys.exit(main())
