"""repro.intent — transactional configuration changes (§5, DESIGN.md §6h).

The intent layer turns raw toolkit calls into guarded transactions:

* :mod:`repro.intent.changeset` — the declarative :class:`ChangeSet`
  model with canonical serialization and stable digests,
* :mod:`repro.intent.dryrun` — offline evaluation: predicted
  per-neighbor export diffs plus the six-invariant catalog over a
  simulated post-change state, without touching the live platform,
* :mod:`repro.intent.controller` — ``plan → apply → re-verify →
  commit | auto-revert`` with snapshot rollback and lifecycle events
  through the telemetry hub.
"""

from __future__ import annotations

from repro.intent.changeset import (
    ChangeOp,
    ChangeSet,
    announce_op,
    connect_op,
    disconnect_op,
    parse_community,
    set_communities_op,
    withdraw_op,
)
from repro.intent.controller import (
    IntentController,
    IntentPlan,
    IntentRecord,
)
from repro.intent.dryrun import (
    DryRunEvaluator,
    DryRunReport,
    ExportEntry,
    NeighborDiff,
    RouteChange,
)

__all__ = [
    "ChangeOp",
    "ChangeSet",
    "DryRunEvaluator",
    "DryRunReport",
    "ExportEntry",
    "IntentController",
    "IntentPlan",
    "IntentRecord",
    "NeighborDiff",
    "RouteChange",
    "announce_op",
    "connect_op",
    "disconnect_op",
    "parse_community",
    "set_communities_op",
    "withdraw_op",
]
