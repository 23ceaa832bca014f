"""Central fast-path feature flags (the ablation control surface).

The vBGP pipeline gates four independent optimizations (plus one tuning
knob) behind module-level toggles so
``benchmarks/bench_ablation_fastpath.py`` can measure them on/off without
code changes:

* ``stride_lpm``   — multi-bit (8-bit stride) trie walk in
  :class:`repro.netsim.lpm.LpmTable` instead of the 1-bit-per-level
  binary trie reference,
* ``lpm_cache``    — bounded per-table LRU lookup cache keyed by
  destination address, invalidated on insert/remove of any covering
  prefix (negative results are cached too); ``lpm_cache_size`` is its
  capacity, a tuning knob rather than a behaviour switch,
* ``encode_memo``  — attribute-block bytes and next-hop rewrites
  memoized on the frozen ``PathAttributes`` value, per-prefix NLRI bytes,
  plus per-``UpdateMessage`` wire caching, so ADD-PATH fan-out to E
  experiments encodes each attribute set once,
* ``fanout_batch`` — coalesce routes sharing identical post-rewrite
  attributes into single multi-NLRI UPDATEs in the vBGP fan-out and
  backbone export paths.

Decoded attribute values are shared without a toggle: the decoder's
wire-keyed weak flyweight (``repro.bgp.messages._decode_attributes``)
parses each distinct attribute block once while something holds it.

The full-table RIB engine (DESIGN.md §6g) adds three more toggles that
make a ~900k-prefix Loc-RIB tractable:

* ``rib_columnar``         — flyweight/columnar Loc-RIB storage: interned
  attribute handles + packed per-prefix candidate tuples instead of a
  dict-of-dicts holding one ``RibEntry``/``Route`` object pair per
  candidate (chosen at Loc-RIB construction time, like ``stride_lpm``),
* ``incremental_bestpath`` — on single-candidate upserts/withdrawals the
  Loc-RIB compares against the incumbent best instead of re-running the
  decision fold over every candidate,
* ``encode_zero_copy``     — UPDATE encoding writes NLRI runs into one
  reusable ``bytearray`` instead of joining per-prefix ``bytes`` objects.

Flags are read at call time (and, for the LPM backend choice, at table
construction time).  Toggling flags clears all registered caches so
on/off comparisons are honest.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator

__all__ = ["FLAGS", "PerfFlags", "set_flags", "flags", "clear_caches",
           "register_cache_clearer"]


@dataclass(frozen=True)
class PerfFlags:
    """The fast-path toggles (all on by default)."""

    stride_lpm: bool = True
    lpm_cache: bool = True
    lpm_cache_size: int = 1024
    encode_memo: bool = True
    fanout_batch: bool = True
    # Full-table RIB engine (DESIGN.md §6g).
    rib_columnar: bool = True
    incremental_bestpath: bool = True
    encode_zero_copy: bool = True


FLAGS = PerfFlags()

_cache_clearers: list[Callable[[], None]] = []


def register_cache_clearer(clearer: Callable[[], None]) -> None:
    """Modules owning a flag-gated cache register a clearer here."""
    _cache_clearers.append(clearer)


def clear_caches() -> None:
    """Drop every registered flag-gated cache (used when flags change)."""
    for clearer in _cache_clearers:
        clearer()


def set_flags(**changes: object) -> PerfFlags:
    """Update the global flags; returns the new flag set.

    Unknown flag names raise ``TypeError`` (via ``dataclasses.replace``).
    All registered caches are cleared so stale entries from the previous
    configuration cannot leak across an ablation boundary.
    """
    global FLAGS
    FLAGS = replace(FLAGS, **changes)
    clear_caches()
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
        clear_caches()
