#!/usr/bin/env python3
"""Function-level profile of one wire-to-wire benchmark workload.

    python scripts/profile_workload.py <workload> [--seed N] [--slices K] [--top M]

Runs the workload through the benchmark's own ``harness.run_workload`` —
the set-up, warm-up slice, collector discipline and oracle checks of
``benchmarks/e2e/run.py --workload`` — with ``cProfile`` switched on only
around the K timed slices' ``run_slice``, and prints the top M functions
by ``tottime``.  A profile of a program the oracle rejects says so.

The layer tracer (``--trace 1``) wraps public entry points from outside and
books whatever a layer calls to that layer's self time; this names the
function.  It is how the ``EthernetFrame.size`` → ``IPv4Packet.encode`` →
``_inet_checksum`` chain behind ``netsim.link``'s self time was found.
``cProfile`` charges every Python call and no native work, so proportions
shift: find candidates here, measure with the benchmark.

Reads ``benchmarks.e2e`` and writes nothing.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--slices", type=int, default=5,
                        help="profiled slices after the warm-up slice")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to print, by tottime")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from benchmarks.e2e import harness
    from benchmarks.e2e.run import pin_hash_seed
    from benchmarks.e2e.workloads import WORKLOADS

    pin_hash_seed()
    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload](args.seed)
    profile = cProfile.Profile()
    run_slice = workload.run_slice
    warm = False

    def profiled(ops, tracer):
        nonlocal warm
        if not warm:            # the harness's first slice is its warm-up
            warm = True
            return run_slice(ops, tracer)
        profile.enable()
        try:
            return run_slice(ops, tracer)
        finally:
            profile.disable()

    workload.run_slice = profiled
    record = harness.run_workload(workload, 0.0, False,
                                  max_slices=args.slices)
    print(f"# {args.workload} seed={args.seed}: {record['samples']['ops']} "
          f"{record['op']}s profiled in {record['samples']['slices']} slices; "
          f"oracle: {record['failed']} failed of {record['attempted']}")
    pstats.Stats(profile).sort_stats("tottime").print_stats(args.top)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
