"""Per-update processing cost of an in-process pipeline.

:func:`measure_processing` times a callable over a list of inputs with
``time.perf_counter`` (GC paused) and :class:`CpuMeasurement` turns that
into seconds per update and the rate at which one core saturates. The
§6 AMS-IX replay and the enforcement ablation use it; Figure 6b does
not: it reads the CPU clock of running fleet PoP processes instead.
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
