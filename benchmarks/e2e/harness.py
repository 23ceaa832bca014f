"""Timing discipline shared by every workload.

One process, one thread.  A run is: generate inputs from the seed → set
the world up several times (``setup_s`` is the median) → ``gc.collect();
gc.freeze()`` → one untimed warm-up slice → timed slices until
``--seconds`` of timed wall clock have accumulated → final state check.
Inputs for each slice are generated and pre-encoded before the slice is
timed and checked against the oracle after it, so neither is in any
reported time.  GC stays on while timing (users pay it), but
``gc.freeze()`` runs again before every slice so that it collects what
the slice allocates and not the benchmark's own inputs and oracle state.

**Why the numbers repeat.**  This box is a shared VM whose CPU speed
changes by ±25 % and stays changed for anything from a tenth of a second
to minutes — a pure-Python spin loop shows it, in CPU time as much as in
wall time, with no steal reported.  Whole 10-second runs of the same code
and seed differed by up to 1.5×, which no choice of slices inside a run
can repair.  So the host's speed is measured alongside the program's:

*Host-speed normalisation.*  A fixed pure-Python kernel (:func:`kernel`,
~0.4 ms) is timed immediately before and after every slice and every
set-up.  The slice's ``slowdown`` is that time ÷ ``NOMINAL_KERNEL_S`` (the
kernel's time on this box when it is quiet), and every wall-clock figure
of the slice is divided by it.  Reported times are therefore *wall clock
at nominal host speed*; on a quiet box the factor is 1 and they are plain
wall clock.  The figures as measured, and the slowdown itself, are printed
and recorded beside them.  The kernel knows nothing of the program, so a
change to ``src/`` cannot move it.  Over 6 runs each of ``churn_fanout``
and ``dataplane_mix`` this brought the run-to-run *range* of the rate
from 25-40 % to 4-5 %, and of the median latency from 21-43 % to 3-5 %.

*Estimators.*  A rate is the **median slice rate** and ``op_p50_us`` the
**median over slices of the per-slice median**: after normalisation what
is left of the interference is symmetric, and one bad stretch of the run
moves neither.  ``op_p99_us`` is the **first quartile over groups of
≥ 1,000 samples of the per-group p99** (≥ 10 samples beyond it in each
group): a stall of the host lands in the tail whatever the host's speed,
normalisation cannot take it out, and it only ever adds — three runs in
ten read 40-80 % high with the median of groups during one bad quarter of
an hour — while what the program itself puts in the tail (collector
pauses, cache clears) is in every group alike and stays in the figure.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

GROUP = 1000            # latency samples per percentile group
MIN_SLICES = 5
SETUP_BUDGET_S = 0.75   # wall clock spent repeating the set-up
SETUP_REPEATS = (3, 30)
# Time of ``kernel()`` on this box (Xeon 2.1 GHz VM, CPython 3.11) when
# nothing else contends for the core.  Fixed: it only sets the scale.
NOMINAL_KERNEL_S = 380e-6
KERNEL_SAMPLES = 5


def spec() -> dict:
    """``BENCHMARK.json``: the one registry of metric names, units,
    directions and bounds (the code emits exactly what it lists)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def kernel() -> int:
    """A fixed piece of interpreter work shaped like the program's: calls,
    dict / tuple / bytes traffic and struct packing, then a burst of
    small tracked allocations (objects, dicts, list slices).  Of the
    kernels tried, this mix tracked the workloads' own slowdown best
    (slice-level correlation 0.8-0.9 on churn_fanout and dataplane_mix)."""
    table: dict = {}
    pack = struct.pack
    acc = 0
    for i in range(600):
        key = (i & 63, i >> 3)
        table[key] = table.get(key, 0) + 1
        blob = pack("!IHB", i, i & 0xFFFF, i & 0xFF)
        acc += blob[2] + len(blob[1:5])
        if i & 7 == 0:
            acc += len([x for x in (i, acc, key)])
    kept: list = []
    for i in range(700):
        kept.append((_Cell(i, acc), bytes(8), {"a": i}))
        if i & 15 == 0:
            kept = kept[-8:]
    return acc + len(kept)


def host_slowdown() -> float:
    """Median kernel time now ÷ its time on the quiet box.

    The collector is off while the kernel runs: with it on, the kernel's
    own allocations set off collections of whatever heap the benchmark
    happens to hold (a world under construction read as a 1.9× slowdown).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(KERNEL_SAMPLES):
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times) / NOMINAL_KERNEL_S


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


@dataclass
class Slice:
    ops: int                    # operations completed (the rate's numerator)
    wall: float                 # timed seconds, as measured
    latencies: list = field(default_factory=list)   # seconds, as measured
    slowdown: float = 1.0       # host slowdown while it ran


def percentile(ordered: list, q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def grouped_p99s(slices: list, normalise: bool) -> list:
    """The p99 of each group of ≥ ``GROUP`` latency samples.

    Consecutive slices are pooled until a group is full; a short tail
    joins the last group.
    """
    groups: list[list] = []
    current: list = []
    for piece in slices:
        scale = piece.slowdown if normalise else 1.0
        current.extend(value / scale for value in piece.latencies)
        if len(current) >= GROUP:
            groups.append(current)
            current = []
    if current:
        if groups:
            groups[-1].extend(current)
        else:
            groups.append(current)
    return [percentile(sorted(group), 0.99) for group in groups]


def rate(slices: list, normalise: bool = True) -> float:
    return statistics.median(
        piece.ops * (piece.slowdown if normalise else 1.0) / piece.wall
        for piece in slices
    )


def timing_metrics(slices: list, setups: list, normalise: bool) -> dict:
    """ops_per_s, op_p50_us, op_p99_us and setup_s from the run's slices
    and its ``(seconds, slowdown)`` set-ups — at nominal host speed, or
    as measured."""
    medians = [
        statistics.median(piece.latencies)
        / (piece.slowdown if normalise else 1.0)
        for piece in slices if piece.latencies
    ]
    p99s = grouped_p99s(slices, normalise)
    return {
        "ops_per_s": rate(slices, normalise),
        "op_p50_us": statistics.median(medians) * 1e6 if medians else 0.0,
        "op_p99_us": sorted(p99s)[len(p99s) // 4] * 1e6 if p99s else 0.0,
        "setup_s": statistics.median(
            seconds / (slowdown if normalise else 1.0)
            for seconds, slowdown in setups
        ),
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def repeat_setup(build, close) -> tuple[object, list]:
    """Set the world up several times; keep the last world and every
    ``(seconds, host slowdown)``."""
    setups = []
    world = None
    started = perf_counter()
    low, high = SETUP_REPEATS
    while True:
        if world is not None:
            close(world)
            world = None
            gc.collect()
        before = host_slowdown()
        t0 = perf_counter()
        world = build()
        seconds = perf_counter() - t0
        setups.append((seconds, (before + host_slowdown()) / 2))
        done = len(setups)
        if done >= high or (
            done >= low and perf_counter() - started >= SETUP_BUDGET_S
        ):
            return world, setups


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stolen_seconds() -> Optional[float]:
    """CPU seconds the hypervisor has taken from this guest so far, summed
    over its CPUs (``/proc/stat``), or ``None`` where that is not told."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def hygiene(seed: int, transport: str) -> dict:
    """What a reader needs to judge whether two result files compare."""
    from repro import perf

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    info = {
        "commit": commit,
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "perf_flags": {
            name: getattr(perf.FLAGS, name)
            for name in perf.PerfFlags.__dataclass_fields__
        },
        "loadavg_1m_at_start": load,
        "transport": transport,
        "nominal_kernel_s": NOMINAL_KERNEL_S,
    }
    if load > 0.5 * nproc:
        info["warning"] = (
            f"1-min load {load:.2f} > {0.5 * nproc:.1f}: box is not idle"
        )
    return info


def run_workload(workload, seconds: float, trace: bool,
                 max_slices: Optional[int] = None) -> dict:
    """Run one workload and return its full result record.

    ``max_slices`` bounds the run by slice count instead of time (the
    smoke scale and the determinism tests, where counts must repeat).
    """
    from benchmarks.e2e.trace import Tracer

    info = hygiene(workload.seed, workload.transport)
    stolen_before = stolen_seconds()
    gen_started = perf_counter()
    workload.prepare()
    gen_s = perf_counter() - gen_started

    world, setups = repeat_setup(workload.build, workload.close)
    workload.bind(world)
    gc.collect()
    gc.freeze()

    def next_ops():
        nonlocal gen_s
        t0 = perf_counter()
        ops = workload.next_ops()
        gen_s += perf_counter() - t0
        return ops

    attempted = failed = 0
    rss_mb = None

    def drive(ops, tracer):
        """One timed slice, bracketed by host-speed calibrations, then
        checked against the oracle."""
        nonlocal attempted, failed
        # Everything that exists by now — the inputs just generated, the
        # oracle's state, what earlier slices built — is frozen, so a
        # collection inside the slice walks only what the slice allocates.
        # Without this the benchmark's own bookkeeping was billed to the
        # program as millisecond collector pauses (loopback p99 ×4).
        gc.freeze()
        before = workload.host_slowdown = host_slowdown()
        outcome = workload.run_slice(ops, tracer)
        slowdown = (before + host_slowdown()) / 2
        for piece in outcome.slices:
            piece.slowdown = slowdown
        done, bad = workload.verify(ops, outcome)
        attempted += done
        failed += bad
        return outcome

    # Warm-up: caches fill and lazy set-up finishes before timing; its
    # outputs are checked like any other slice.
    drive(next_ops(), None)

    def measure(tracer, budget: Optional[float], cap: Optional[int]) -> list:
        """Timed slices until ``budget`` timed seconds have accumulated,
        ``cap`` slices have run, or a bounded input has run out."""
        nonlocal rss_mb
        slices: list = []
        timed = 0.0
        while cap is None or len(slices) < cap:
            if (budget is not None and timed >= budget
                    and len(slices) >= MIN_SLICES):
                break
            ops = next_ops()
            if not ops:
                break
            outcome = drive(ops, tracer)
            slices.extend(outcome.slices)
            timed += outcome.timed
            if rss_mb is None and len(slices) == workload.rss_slices:
                rss_mb = peak_rss_mb()
        return slices

    budget = None if max_slices is not None else seconds
    tracer = None
    base: list = []
    if trace:
        # A quarter of the run untraced gives the overhead ratio's base —
        # a quarter of the input, where the input is bounded.
        bounded = (max_slices if max_slices is not None
                   else workload.bounded_slices)
        base = measure(
            None,
            None if budget is None else budget / 4,
            None if bounded is None else max(1, bounded // 4),
        )
        tracer = Tracer()
        tracer.install()
        workload.bind_tracer(tracer)
        try:
            slices = measure(
                tracer, None if budget is None else 3 * budget / 4, max_slices
            )
        finally:
            tracer.uninstall()
    else:
        slices = measure(None, budget, max_slices)

    failed += workload.finish()
    gc.unfreeze()

    end_to_end = timing_metrics(slices, setups, normalise=True)
    end_to_end["rss_mb"] = peak_rss_mb() if rss_mb is None else rss_mb
    slowdown = statistics.median(piece.slowdown for piece in slices)
    record = {
        "workload": workload.name,
        "op": workload.op,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "as_measured": timing_metrics(slices, setups, normalise=False),
        "host_slowdown": slowdown,
        "samples": {
            "slices": len(slices),
            "ops": sum(piece.ops for piece in slices),
            "latencies": sum(len(piece.latencies) for piece in slices),
            "p99_groups": len(grouped_p99s(slices, False)),
            "setups": len(setups),
        },
        "input_digest": workload.digest.hexdigest(),
        "output_bytes": workload.output_bytes,
        "hygiene": info,
    }
    if stolen_before is not None:
        # A descheduled vCPU is a stall no estimator here can undo: at a
        # hundred 10-40 ms stalls a second this box read 25 % low on rate
        # and 4x high on p99.  Say so instead of passing it off as a number.
        stolen = (stolen_seconds() - stolen_before) / (
            perf_counter() - gen_started)
        info["stolen_cpu_share"] = stolen
        if stolen > 0.02:
            info["steal_warning"] = (
                f"hypervisor stole {stolen:.1%} of a CPU during the run: "
                "rates and tails are unreliable"
            )
    info.update(workload.fixed_parameters())
    if tracer is not None:
        per_layer = tracer.layer_metrics()
        per_layer.update(workload.ratios(tracer))
        per_layer["driver.gen_s"] = gen_s
        per_layer["host.slowdown_ratio"] = slowdown
        per_layer["trace.overhead_ratio"] = rate(base) / rate(slices)
        record["per_layer"] = per_layer
        record["trace_dump"] = tracer.dump()
    workload.close(world)
    return record
