"""Modelled resource accounting for the paper benches (Fig. 6a/6b, §6).

These are the byte and per-update cost models the ``benchmarks/bench_*.py``
scripts use to regenerate the paper's figures. Cross-revision performance
is measured end to end by ``python -m benchmarks.e2e.compare``, not here.
"""

from repro.metrics.memory import (
    FIB_ENTRY_BYTES,
    KERNEL_SYNC_BYTES,
    MemoryReport,
    fib_memory,
    memory_report,
    rib_memory,
    route_memory_bytes,
)
from repro.metrics.cpu import CpuMeasurement, measure_processing
from repro.metrics.throughput import estimate_tcp_throughput

__all__ = [
    "CpuMeasurement",
    "FIB_ENTRY_BYTES",
    "KERNEL_SYNC_BYTES",
    "MemoryReport",
    "estimate_tcp_throughput",
    "fib_memory",
    "measure_processing",
    "memory_report",
    "rib_memory",
    "route_memory_bytes",
]
