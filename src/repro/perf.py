"""The LPM lookup-cache flags (the differential lattice's control surface).

:class:`repro.netsim.lpm.LpmTable` gates one acceleration behind a
module-level toggle so the differential lattice
(:mod:`repro.conformance.differential`) and the tests can switch it
on/off without code changes:

* ``lpm_cache``    — bounded per-table LRU lookup cache keyed by
  destination address, invalidated on insert/remove of any covering
  prefix (negative results are cached too); ``lpm_cache_size`` is its
  capacity, a tuning knob rather than a behaviour switch.

The 8-bit-stride trie under the cache is the only LPM backend, and every
control-plane fast path (attribute, NLRI and message encode memos,
multi-NLRI fan-out batching, the columnar Loc-RIB, the incremental best
path and the zero-copy UPDATE encode) is always on; the bodies they
replaced live under ``tests/`` as oracles.

Flags are read at table construction time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

__all__ = ["FLAGS", "PerfFlags", "set_flags", "flags"]


@dataclass(frozen=True)
class PerfFlags:
    """The LPM lookup-cache toggle and its capacity (on by default)."""

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
    """Temporarily override flags (tests and the differential lattice)."""
    global FLAGS
    saved = FLAGS
    try:
        yield set_flags(**changes)
    finally:
        FLAGS = saved
