"""CPU utilization accounting (Figure 6b).

The paper plots BIRD's CPU utilization against the rate of BGP updates
processed, for three filter configurations (accept-all, single-router vBGP,
multi-router vBGP). We measure the *actual* per-update processing cost of
our filter implementations with ``time.perf_counter`` and convert a target
update rate into utilization of one core:

    utilization% = rate × seconds_per_update × 100

Linearity in the rate and the ordering of the three configurations are
properties of the real filter code; absolute percentages depend on the host
(the paper's §6 numbers were measured on their servers, ours on yours).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class CpuMeasurement:
    """Per-update processing cost of one configuration."""

    label: str
    updates: int
    total_seconds: float

    @property
    def seconds_per_update(self) -> float:
        return self.total_seconds / max(self.updates, 1)

    def utilization(self, rate_per_second: float) -> float:
        """Percent of one core consumed at the given update rate."""
        return min(rate_per_second * self.seconds_per_update * 100, 100.0)

    def max_sustainable_rate(self) -> float:
        """Updates/second at which one core saturates."""
        return 1 / self.seconds_per_update


def measure_processing(
    label: str,
    process: Callable[[T], object],
    updates: Sequence[T],
    repeat: int = 1,
) -> CpuMeasurement:
    """Run ``process`` over ``updates`` and record wall-clock cost.

    The cyclic garbage collector is paused for the timed region (the
    standard benchmarking hygiene pytest-benchmark applies too):
    otherwise the measurement charges this workload for collection
    passes over whatever unrelated object graphs the process has
    accumulated, which made results depend on what ran before.
    """
    count = 0
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeat):
            for update in updates:
                process(update)
                count += 1
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return CpuMeasurement(label=label, updates=count, total_seconds=elapsed)
