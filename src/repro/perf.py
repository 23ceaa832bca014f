"""The LPM fast-path flags (the ablation control surface).

:class:`repro.netsim.lpm.LpmTable` gates two independent accelerations
behind module-level toggles so ``benchmarks/bench_ablation_fastpath.py``
can measure them on/off without code changes:

* ``stride_lpm``   — multi-bit (8-bit stride) trie walk instead of the
  1-bit-per-level binary trie reference,
* ``lpm_cache``    — bounded per-table LRU lookup cache keyed by
  destination address, invalidated on insert/remove of any covering
  prefix (negative results are cached too); ``lpm_cache_size`` is its
  capacity, a tuning knob rather than a behaviour switch.

Every control-plane fast path (attribute, NLRI and message encode memos,
multi-NLRI fan-out batching, the columnar Loc-RIB, the incremental best
path and the zero-copy UPDATE encode) is always on; their former
reference bodies live under ``tests/`` as oracles.

Flags are read at table construction time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

__all__ = ["FLAGS", "PerfFlags", "set_flags", "flags"]


@dataclass(frozen=True)
class PerfFlags:
    """The LPM toggles (all on by default)."""

    stride_lpm: bool = True
    lpm_cache: bool = True
    lpm_cache_size: int = 1024


FLAGS = PerfFlags()


def set_flags(**changes: object) -> PerfFlags:
    """Update the global flags; returns the new flag set.

    Unknown flag names raise ``TypeError`` (via ``dataclasses.replace``).
    """
    global FLAGS
    FLAGS = replace(FLAGS, **changes)
    return FLAGS


@contextmanager
def flags(**changes: object) -> Iterator[PerfFlags]:
    """Temporarily override flags (tests and ablation benchmarks)."""
    global FLAGS
    saved = FLAGS
    try:
        yield set_flags(**changes)
    finally:
        FLAGS = saved
