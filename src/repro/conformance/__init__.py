"""Conformance & differential-correctness subsystem.

Machine-checked correctness surfaces (DESIGN.md §6e):

* :mod:`repro.conformance.strategies` — Hypothesis strategies generating
  arbitrary *canonical-form* BGP messages for round-trip
  (``decode(encode(m)) == m``) and re-encode-idempotence properties
  (imported lazily: the production platform does not need hypothesis);
* :mod:`repro.conformance.fuzzer` — a seeded byte-mutation fuzzer for
  the wire decoder with a persistent crash corpus under ``tests/corpus/``
  that is replayed before new mutations;
* :mod:`repro.conformance.differential` — replays a generated update
  workload through every :mod:`repro.perf` LPM-toggle combination and
  asserts byte-identical Loc-RIBs, kernel tables, and announced wire
  bytes against the all-off reference;
* :mod:`repro.conformance.invariants` — the platform invariant catalog
  (next-hop/virtual-MAC bijectivity, ADD-PATH completeness, community
  propagation, cross-experiment isolation, RIB/kernel consistency,
  no withdrawal lost to shedding) as six composable checkers consumed by
  tests, the chaos runner, the fleet, the intent controller, and the
  ``peering verify`` CLI;
* :mod:`repro.conformance.state` — the one canonical view of world
  state (speaker Loc-RIBs, PoP Adj-RIB-Ins / attachments / kernel
  tables, ADD-PATH-free path multisets) that every differential and
  convergence check compares.
"""

from repro.conformance.differential import (
    DifferentialHarness,
    DifferentialReport,
    all_flag_combinations,
)
from repro.conformance.fuzzer import (
    CrashRecord,
    DecoderFuzzer,
    FuzzReport,
    default_corpus_dir,
    load_corpus,
)
from repro.conformance.invariants import (
    CATALOG,
    ConformanceContext,
    InvariantReport,
    run_invariants,
)

__all__ = [
    "CATALOG",
    "ConformanceContext",
    "CrashRecord",
    "DecoderFuzzer",
    "DifferentialHarness",
    "DifferentialReport",
    "FuzzReport",
    "InvariantReport",
    "all_flag_combinations",
    "default_corpus_dir",
    "load_corpus",
    "run_invariants",
]
