"""Measurement helpers for the paper benches (§6).

Figure 6a reads :mod:`tracemalloc` over a real vBGP table ingest
(:mod:`repro.metrics.memory`); the §6 AMS-IX replay times the node's
pipeline (:mod:`repro.metrics.cpu`); the backbone sweep cross-checks
simulated TCP with the Mathis model. Cross-revision performance is
measured end to end by ``python -m benchmarks.e2e.compare``, not here.
"""

from repro.metrics.cpu import CpuMeasurement, measure_processing
from repro.metrics.memory import traced_bytes, upstream_pop
from repro.metrics.throughput import estimate_tcp_throughput

__all__ = [
    "CpuMeasurement",
    "estimate_tcp_throughput",
    "measure_processing",
    "traced_bytes",
    "upstream_pop",
]
