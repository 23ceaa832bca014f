"""The transactional intent controller: plan → apply → verify → commit.

Configuration changes on a shared research platform are dangerous: a
bad announcement can leak, hijack, or blow the update budget for every
tenant of the mux.  The intent layer makes them transactional:

``plan``
    Dry-run the ChangeSet (:class:`~repro.intent.dryrun.DryRunEvaluator`)
    — predicted per-neighbor export diffs plus the full six-invariant
    catalog over the simulated post-change state, live platform
    untouched.
``apply``
    Record a snapshot of the restorable platform state (client
    announcements, attachments) together with a structural fingerprint
    (Loc-RIBs, Adj-RIB-Ins, kernel tables, announced wire bytes — the
    :mod:`repro.conformance.state` views every harness uses), stage the
    ChangeSet through the ordinary toolkit primitives, let the platform
    settle, then **re-verify**: the live invariant catalog, the
    control-plane enforcer's violation level, and the predicted export
    diff against what external neighbor speakers actually hold.
``commit`` / ``auto-revert``
    Clean re-verification commits.  Any breach rolls the platform back
    to the recorded snapshot and re-fingerprints it; ``revert_clean``
    reports whether the restored state is byte-identical.

Every transition emits an :class:`~repro.telemetry.IntentEvent` through
the monitoring station, so the BMP feed shows configuration changes
next to the session churn they cause.  The state machine::

    PLANNED ──apply──▶ APPLYING ──verify ok──▶ COMMITTED ──revert──▶ REVERTED
       │                   │
       │                   └──verify breach──▶ REVERTED (automatic)
       └──apply, plan not clean, no force──▶ REJECTED

``apply`` also consults the overload layer (§6i): when a touched PoP's
health watchdog reports *critical*, the plan is rejected outright —
``force`` does not override the health gate, because staging more
configuration into an overloaded PoP can only deepen the overload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.bgp.attributes import Community
from repro.bgp.messages import UpdateMessage
from repro.conformance.invariants import ConformanceContext, run_invariants
from repro.conformance.state import (
    attr_fingerprint,
    paths,
    pop_view,
    speaker_view,
)
from repro.intent.changeset import ChangeOp, ChangeSet, parse_community
from repro.intent.dryrun import DryRunEvaluator, DryRunReport, _parse_prefix
from repro.telemetry.station import IntentEvent

__all__ = [
    "IntentController",
    "IntentPlan",
    "IntentRecord",
]


@dataclass
class IntentPlan:
    """A planned (not yet applied) transaction."""

    intent_id: str
    changeset: ChangeSet
    report: DryRunReport
    created: float

    @property
    def digest(self) -> str:
        return self.report.digest


@dataclass(frozen=True)
class IntentRecord:
    """One entry in the intent history."""

    intent_id: str
    digest: str
    phase: str
    detail: str
    time: float
    breaches: tuple[str, ...] = ()
    revert_clean: Optional[bool] = None

    def format(self) -> str:
        line = (f"{self.time:10.2f}  {self.intent_id}  {self.digest}  "
                f"{self.phase:<9}  {self.detail}")
        for breach in self.breaches:
            line += f"\n{'':12}breach: {breach}"
        if self.revert_clean is not None:
            verdict = "clean" if self.revert_clean else "DIRTY"
            line += f"\n{'':12}revert: {verdict}"
        return line


@dataclass
class _Snapshot:
    """Restorable pre-apply state plus its structural fingerprint."""

    fingerprint: bytes
    # client -> pop -> {prefix: localized route} (the exact announced
    # routes, replayed verbatim on revert).
    announced: dict[str, dict[str, dict]] = field(default_factory=dict)
    # client -> the PoPs its tunnel was up at.
    connected: dict[str, tuple[str, ...]] = field(default_factory=dict)


class IntentController:
    """Drives ChangeSets through the transaction state machine."""

    def __init__(
        self,
        scheduler,
        platform,
        clients: Mapping[str, object],
        neighbor_speakers: Optional[Mapping[str, object]] = None,
        neighbor_pops: Optional[Mapping[str, str]] = None,
        telemetry=None,
        settle_time: float = 15.0,
    ) -> None:
        self.scheduler = scheduler
        self.platform = platform
        self.clients = dict(clients)
        self.neighbor_speakers = dict(neighbor_speakers or {})
        self.neighbor_pops = dict(neighbor_pops or {})
        self.telemetry = telemetry
        self.settle_time = settle_time
        self.evaluator = DryRunEvaluator(platform, self.clients)
        self.plans: dict[str, IntentPlan] = {}
        self.history: list[IntentRecord] = []
        self._phases: dict[str, str] = {}
        self._snapshots: dict[str, _Snapshot] = {}
        self._ids = itertools.count(1)

    # -- planning ----------------------------------------------------------

    def plan(self, changeset: ChangeSet) -> IntentPlan:
        """Dry-run ``changeset``; never touches the live platform."""
        changeset.validate()
        report = self.evaluator.evaluate(changeset)
        intent_id = f"intent-{next(self._ids):04d}"
        plan = IntentPlan(
            intent_id=intent_id,
            changeset=changeset,
            report=report,
            created=self.scheduler.now,
        )
        self.plans[intent_id] = plan
        self._phases[intent_id] = "planned"
        detail = (
            f"{len(changeset.ops)} op(s), "
            f"{'clean' if report.ok else 'not clean'}, "
            f"{len(report.changed_neighbors())} neighbor(s) affected"
        )
        self._record(plan, "planned", detail)
        return plan

    def phase(self, intent_id: str) -> Optional[str]:
        return self._phases.get(intent_id)

    # -- applying ----------------------------------------------------------

    def apply(self, plan, force: bool = False) -> IntentRecord:
        """Stage the plan, re-verify live, commit or auto-revert.

        ``force`` applies even when the dry run predicted trouble — the
        re-verification and auto-revert still guard the platform, which
        is exactly how the revert path is exercised end to end.
        """
        plan = self._resolve(plan)
        phase = self._phases.get(plan.intent_id)
        if phase != "planned":
            raise ValueError(
                f"{plan.intent_id} is {phase}; only a planned intent "
                "can be applied"
            )
        if plan.changeset.is_empty():
            self._phases[plan.intent_id] = "committed"
            return self._record(
                plan, "committed", "empty ChangeSet: no-op commit"
            )
        critical = self._critical_pops(plan.changeset)
        if critical:
            # The health gate is not forceable: a critical PoP is
            # already shedding or has a source quarantined, and staging
            # more configuration into it can only deepen the overload
            # (§6i).  Heal first, then re-apply.
            self._phases[plan.intent_id] = "rejected"
            return self._record(
                plan, "rejected",
                f"PoP(s) in critical health: {', '.join(critical)} "
                "(heal before applying; the gate ignores force)",
            )
        if not plan.report.ok and not force:
            self._phases[plan.intent_id] = "rejected"
            return self._record(
                plan, "rejected",
                "dry run predicted breaches (use force to apply anyway)",
            )
        snapshot = self._snapshot()
        self._snapshots[plan.intent_id] = snapshot
        baseline_violations = self._violation_level()
        breaches: list[str] = []
        try:
            self._stage(plan.changeset)
        except Exception as exc:  # staging must never crash the platform
            breaches.append(f"staging failed: {exc}")
        self._settle()
        self._record(plan, "applied", "staged; re-verifying", update=False)
        breaches.extend(self._verify(plan, baseline_violations))
        if not breaches:
            self._phases[plan.intent_id] = "committed"
            return self._record(
                plan, "committed",
                "re-verification clean: invariants hold, exports match "
                "prediction",
            )
        self._phases[plan.intent_id] = "reverted"
        revert_clean = self._revert_to(snapshot)
        return self._record(
            plan, "reverted",
            f"auto-revert after {len(breaches)} breach(es)",
            breaches=tuple(breaches), revert_clean=revert_clean,
        )

    def revert(self, plan) -> IntentRecord:
        """Roll a committed intent back to its pre-apply snapshot.

        Idempotent: reverting an already-reverted (or never-applied)
        intent is a no-op that reports the current phase.
        """
        plan = self._resolve(plan)
        phase = self._phases.get(plan.intent_id)
        if phase != "committed":
            return self._record(
                plan, phase or "unknown",
                f"nothing to revert (intent is {phase})", update=False,
            )
        snapshot = self._snapshots[plan.intent_id]
        self._phases[plan.intent_id] = "reverted"
        revert_clean = self._revert_to(snapshot)
        return self._record(
            plan, "reverted", "operator revert",
            revert_clean=revert_clean,
        )

    def _critical_pops(self, changeset: ChangeSet) -> list[str]:
        """PoPs the changeset touches whose health watchdog is CRITICAL.

        An op with an empty ``pops`` tuple targets every connected PoP,
        so it is gated by every critical PoP on the platform.
        """
        from repro.overload.watchdog import CRITICAL

        touched: set[str] = set()
        touches_all = False
        for op in changeset.ops:
            if op.kind in ("connect", "disconnect"):
                touched.add(op.pop)
            elif op.pops:
                touched.update(op.pops)
            else:
                touches_all = True
        critical = []
        for name in sorted(self.platform.pops):
            watchdog = getattr(self.platform.pops[name], "watchdog", None)
            if watchdog is None or watchdog.state != CRITICAL:
                continue
            if touches_all or name in touched:
                critical.append(name)
        return critical

    # -- staging (ordinary toolkit primitives) -----------------------------

    def _stage(self, changeset: ChangeSet) -> None:
        for op in changeset.ops:
            client = self.clients[op.experiment]
            self._stage_op(client, op)

    def _stage_op(self, client, op: ChangeOp) -> None:
        if op.kind == "connect":
            client.openvpn_up(op.pop)
            client.bird_start(op.pop)
            return
        if op.kind == "disconnect":
            client.openvpn_down(op.pop)
            return
        prefix = _parse_prefix(op.prefix)
        if prefix is None:
            raise ValueError(f"malformed prefix {op.prefix!r}")
        pops = list(op.pops) if op.pops else None
        if op.kind == "withdraw":
            client.withdraw(prefix, pops=pops)
            return
        communities = []
        for text in op.communities:
            parsed = parse_community(text)
            if parsed is None:
                raise ValueError(f"malformed community {text!r}")
            communities.append(Community(parsed[0], parsed[1]))
        # "announce" and "set-communities" stage identically: the client
        # re-announce replaces the previous attributes on the wire.
        client.announce(
            prefix, pops=pops, communities=communities,
            prepend=op.prepend, poison=list(op.poison),
        )

    # -- re-verification ---------------------------------------------------

    def _verify(self, plan: IntentPlan,
                baseline_violations: int) -> list[str]:
        breaches: list[str] = []
        delta = self._violation_level() - baseline_violations
        if delta > 0:
            breaches.append(
                f"control-plane enforcer flagged {delta} new "
                "violation(s) during apply"
            )
        ctx = ConformanceContext.from_platform(
            self.platform, clients=self.clients,
            neighbor_speakers=self.neighbor_speakers,
            neighbor_pops=self.neighbor_pops,
        )
        for name, report in run_invariants(ctx).items():
            if not report.ok:
                detail = report.violations[0] if report.violations else ""
                breaches.append(f"invariant {name} violated: {detail}")
        breaches.extend(self._prediction_breaches(plan))
        return breaches

    def _prediction_breaches(self, plan: IntentPlan) -> list[str]:
        """Did the live platform do what the dry run predicted?"""
        breaches: list[str] = []
        for neighbor_name in sorted(self.neighbor_speakers):
            speaker = self.neighbor_speakers[neighbor_name]
            pop_name = self.neighbor_pops.get(neighbor_name)
            if pop_name is None:
                continue
            diff = plan.report.diffs.get(f"{pop_name}/{neighbor_name}")
            if diff is None or diff.is_empty():
                continue
            for change in diff.added + diff.changed:
                prefix = _parse_prefix(change.prefix)
                best = speaker.best_route(prefix)
                if best is None:
                    breaches.append(
                        f"{neighbor_name}: predicted export of "
                        f"{change.prefix} was not observed"
                    )
                elif attr_fingerprint(best.attributes) != change.fingerprint:
                    breaches.append(
                        f"{neighbor_name}: observed export of "
                        f"{change.prefix} differs from the prediction"
                    )
            for change in diff.removed:
                prefix = _parse_prefix(change.prefix)
                if speaker.best_route(prefix) is not None:
                    breaches.append(
                        f"{neighbor_name}: predicted removal of "
                        f"{change.prefix} was not observed"
                    )
        return breaches

    def _violation_level(self) -> int:
        level = 0
        for pop in self.platform.pops.values():
            enforcer = getattr(pop, "control_enforcer", None)
            if enforcer is not None:
                level += len(enforcer.violations)
            level += pop.node.counters.get("announcements_blocked", 0)
            level += pop.node.counters.get("enforcer_failures", 0)
        return level

    # -- snapshot / revert -------------------------------------------------

    def _snapshot(self) -> _Snapshot:
        announced: dict[str, dict[str, dict]] = {}
        connected: dict[str, tuple[str, ...]] = {}
        for name in sorted(self.clients):
            client = self.clients[name]
            connected[name] = tuple(sorted(client.pops))
            announced[name] = {
                pop_name: dict(view.announced)
                for pop_name, view in client.pops.items()
            }
        return _Snapshot(
            fingerprint=self._fingerprint(),
            announced=announced,
            connected=connected,
        )

    def _fingerprint(self) -> bytes:
        """Canonical structural state, composed of conformance views.

        Client Loc-RIBs and announcements as ``paths``, every PoP's
        ``pop_view``, the announced wire bytes toward every established
        neighbor, and every neighbor speaker's ``speaker_view``.
        Monotonic counters and violation logs are deliberately excluded
        — they record history, not state.
        """
        clients_part = []
        for name in sorted(self.clients):
            client = self.clients[name]
            views = []
            for pop_name in sorted(client.pops):
                view = client.pops[pop_name]
                established = (
                    view.session is not None and view.session.established
                )
                views.append((
                    pop_name, established, paths(view.routes.values()),
                    paths(view.announced.values()),
                ))
            clients_part.append((name, tuple(views)))
        pops_part = tuple(
            (pop_name, pop_view(self.platform.pops[pop_name]))
            for pop_name in sorted(self.platform.pops)
        )
        wire_part = []
        for key, entries in sorted(self.evaluator.export_state().items()):
            frames = b"".join(
                UpdateMessage.announce([entries[prefix].route]).encode()
                for prefix in sorted(entries)
            )
            wire_part.append((key, frames))
        speakers_part = tuple(
            (name, speaker_view(self.neighbor_speakers[name]))
            for name in sorted(self.neighbor_speakers)
        )
        structure = (
            ("clients", tuple(clients_part)),
            ("pops", pops_part),
            ("announced_wire", tuple(wire_part)),
            ("speakers", speakers_part),
        )
        return repr(structure).encode()

    def _revert_to(self, snapshot: _Snapshot) -> bool:
        """Restore the snapshot; True if byte-identical afterwards."""
        newly_connected = False
        for name in sorted(self.clients):
            client = self.clients[name]
            saved = set(snapshot.connected.get(name, ()))
            current = set(client.pops)
            for pop_name in sorted(current - saved):
                self._guard(lambda: client.openvpn_down(pop_name))
            for pop_name in sorted(saved - current):
                if self._guard(lambda: client.openvpn_up(pop_name)):
                    self._guard(lambda: client.bird_start(pop_name))
                    newly_connected = True
        if newly_connected:
            self._settle()
        for name in sorted(self.clients):
            client = self.clients[name]
            for pop_name in sorted(snapshot.connected.get(name, ())):
                view = client.pops.get(pop_name)
                if view is None:
                    continue
                desired = snapshot.announced.get(name, {}).get(pop_name, {})
                current = dict(view.announced)
                for prefix in sorted(current, key=str):
                    if prefix not in desired:
                        self._guard(
                            lambda: client.withdraw(prefix, pops=[pop_name])
                        )
                for prefix in sorted(desired, key=str):
                    if current.get(prefix) != desired[prefix]:
                        self._guard(
                            lambda: client.replay_route(
                                pop_name, desired[prefix]
                            )
                        )
        self._settle()
        return self._fingerprint() == snapshot.fingerprint

    @staticmethod
    def _guard(action) -> bool:
        """Best-effort restore step: a dead session must not stop the
        rest of the rollback."""
        try:
            action()
            return True
        except Exception:
            return False

    # -- plumbing ----------------------------------------------------------

    def _settle(self) -> None:
        self.scheduler.run_for(self.settle_time)

    def _resolve(self, plan) -> IntentPlan:
        if isinstance(plan, IntentPlan):
            return plan
        resolved = self.plans.get(plan)
        if resolved is None:
            raise KeyError(f"unknown intent {plan!r}")
        return resolved

    def _record(self, plan: IntentPlan, phase: str, detail: str,
                breaches: tuple[str, ...] = (),
                revert_clean: Optional[bool] = None,
                update: bool = True) -> IntentRecord:
        record = IntentRecord(
            intent_id=plan.intent_id,
            digest=plan.digest,
            phase=phase,
            detail=detail,
            time=self.scheduler.now,
            breaches=breaches,
            revert_clean=revert_clean,
        )
        if update:
            self.history.append(record)
        self._publish(plan, phase, detail)
        return record

    def _publish(self, plan: IntentPlan, phase: str, detail: str) -> None:
        if self.telemetry is None:
            return
        self.telemetry.station.publish(IntentEvent(
            peer=f"intent:{plan.intent_id}",
            time=self.scheduler.now,
            phase=phase,
            digest=plan.digest,
            detail=detail,
        ))

    def history_text(self) -> str:
        if not self.history:
            return "no intents recorded"
        return "\n".join(record.format() for record in self.history)
