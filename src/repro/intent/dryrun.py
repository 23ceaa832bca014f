"""Dry-run evaluation of a ChangeSet: predicted export diffs, offline.

The §3.2 design makes this possible: because control communities plus
the control-plane enforcer fully determine which experiment routes exit
through which neighbors, the complete per-neighbor export set is a
*function* of platform state — no live announcement is needed to know
what the wire would carry.  :class:`DryRunEvaluator` exploits that:

1. snapshot the announcement state (every experiment's accepted
   announcements at every PoP),
2. recompute the per-neighbor export sets functionally, sharing
   :meth:`VbgpNode.export_transform` and
   :func:`~repro.toolkit.client.build_announcement` with the live path,
3. simulate the ChangeSet against a *copy* of that state, probing the
   enforcer in its non-recording mode
   (:meth:`ControlPlaneEnforcer.check_routes` with ``record=False``),
4. recompute the export sets from the simulated state and diff, and
5. run the full six-invariant catalog over a simulated conformance
   context whose attachments and predicted neighbor speakers reflect
   the post-change state.

Nothing in the live platform moves: no session sends an UPDATE, no
enforcer counter increments, no rate-limit budget is consumed.  Two
consecutive evaluations of the same ChangeSet against the same platform
state produce byte-identical reports (:meth:`DryRunReport.to_bytes`),
which the determinism leg of the ``intent`` CI job asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.bgp.attributes import Community, Route
from repro.bgp.messages import UpdateMessage
from repro.conformance.invariants import (
    ConformanceContext,
    InvariantReport,
    run_invariants,
)
from repro.conformance.state import attr_fingerprint
from repro.intent.changeset import ChangeOp, ChangeSet, parse_community
from repro.netsim.addr import IPv4Prefix, IPv6Prefix
from repro.toolkit.client import ExperimentClient, build_announcement
from repro.vbgp.communities import choose_exports

__all__ = [
    "DryRunEvaluator",
    "DryRunReport",
    "ExportEntry",
    "NeighborDiff",
    "RouteChange",
]


def _parse_prefix(text: str):
    try:
        if ":" in text:
            return IPv6Prefix.parse(text)
        return IPv4Prefix.parse(text)
    except (ValueError, IndexError):
        return None


@dataclass(frozen=True)
class ExportEntry:
    """One route a neighbor would hold, with its wire footprint."""

    prefix: str
    route: Route
    fingerprint: tuple
    communities: tuple[str, ...]
    wire_bytes: int


@dataclass(frozen=True)
class RouteChange:
    """One per-prefix difference at a neighbor."""

    prefix: str
    change: str  # "added" | "removed" | "changed"
    communities: tuple[str, ...] = ()
    communities_added: tuple[str, ...] = ()
    communities_removed: tuple[str, ...] = ()
    wire_delta: int = 0
    fingerprint: tuple = ()

    def describe(self) -> str:
        line = f"{self.change[0]} {self.prefix}"
        if self.change == "changed":
            if self.communities_added:
                line += f" +[{','.join(self.communities_added)}]"
            if self.communities_removed:
                line += f" -[{','.join(self.communities_removed)}]"
        elif self.communities:
            line += f" [{','.join(self.communities)}]"
        line += f" ({self.wire_delta:+d}B)"
        return line


@dataclass(frozen=True)
class NeighborDiff:
    """Predicted export changes at one neighbor (``pop/name``)."""

    neighbor: str
    added: tuple[RouteChange, ...] = ()
    removed: tuple[RouteChange, ...] = ()
    changed: tuple[RouteChange, ...] = ()
    wire_before: int = 0
    wire_after: int = 0

    @property
    def wire_delta(self) -> int:
        return self.wire_after - self.wire_before

    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.changed)

    def changes(self) -> tuple[RouteChange, ...]:
        return self.added + self.removed + self.changed

    def canonical(self) -> tuple:
        return (
            self.neighbor,
            tuple(
                (c.prefix, c.change, c.communities, c.communities_added,
                 c.communities_removed, c.wire_delta, c.fingerprint)
                for c in self.changes()
            ),
            self.wire_before,
            self.wire_after,
        )

    def describe(self) -> str:
        lines = [
            f"{self.neighbor}: +{len(self.added)} -{len(self.removed)} "
            f"~{len(self.changed)} (wire {self.wire_delta:+d}B, "
            f"{self.wire_before} -> {self.wire_after})"
        ]
        lines.extend(f"    {c.describe()}" for c in self.changes())
        return "\n".join(lines)


@dataclass
class DryRunReport:
    """Everything a plan predicts about one ChangeSet."""

    digest: str
    diffs: dict[str, NeighborDiff] = field(default_factory=dict)
    invariants: dict[str, InvariantReport] = field(default_factory=dict)
    rejections: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.rejections and all(
            report.ok for report in self.invariants.values()
        )

    def changed_neighbors(self) -> list[str]:
        return sorted(
            name for name, diff in self.diffs.items() if not diff.is_empty()
        )

    def to_bytes(self) -> bytes:
        """Canonical serialization: same prediction, same bytes."""
        structure = (
            ("changeset", self.digest),
            ("rejections", tuple(self.rejections)),
            ("diffs", tuple(
                self.diffs[name].canonical()
                for name in sorted(self.diffs)
            )),
            ("invariants", tuple(
                (name, report.ok, report.checked, report.violation_count,
                 tuple(report.violations))
                for name, report in sorted(self.invariants.items())
            )),
        )
        return repr(structure).encode()

    def format(self) -> str:
        lines = [f"plan {self.digest}: "
                 f"{'clean' if self.ok else 'NOT CLEAN'}"]
        for reason in self.rejections:
            lines.append(f"  rejected: {reason}")
        changed = self.changed_neighbors()
        if not changed:
            lines.append("  no export changes at any neighbor")
        for name in changed:
            lines.append("  " + self.diffs[name].describe())
        for name in sorted(self.invariants):
            report = self.invariants[name]
            status = "ok" if report.ok else "VIOLATED"
            lines.append(f"  invariant {name}: {status} "
                         f"(checked={report.checked})")
            lines.extend(f"    - {v}" for v in report.violations)
        return "\n".join(lines)


# -- simulated conformance views -------------------------------------------


class _Proxy:
    """Read-only view of a live object with a few attributes overridden."""

    def __init__(self, target, **overrides) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_overrides", overrides)

    def __getattr__(self, name):
        overrides = object.__getattribute__(self, "_overrides")
        if name in overrides:
            return overrides[name]
        return getattr(object.__getattribute__(self, "_target"), name)


class _PredictedSpeaker:
    """Duck-types ``BgpSpeaker.best_route`` over a predicted export set."""

    def __init__(self, exports: Mapping[str, ExportEntry]) -> None:
        self._exports = dict(exports)

    def best_route(self, prefix) -> Optional[Route]:
        entry = self._exports.get(str(prefix))
        return None if entry is None else entry.route


class DryRunEvaluator:
    """Predict what a ChangeSet would do, without touching the platform.

    ``clients`` maps experiment name → :class:`ExperimentClient`.  The
    optional ``extra_context`` callbacks let the controller reuse one
    evaluator for both planning and live re-verification.
    """

    def __init__(
        self,
        platform,
        clients: Mapping[str, ExperimentClient],
    ) -> None:
        self.platform = platform
        self.clients = dict(clients)

    # -- state extraction --------------------------------------------------

    def announcement_state(self) -> dict:
        """``{pop: {experiment: {(prefix_str, path_id): route}}}``.

        Copied from the live attachments' accepted announcements; the
        simulation mutates the copy, never the live dicts.
        """
        state: dict = {}
        for pop_name in sorted(self.platform.pops):
            node = self.platform.pops[pop_name].node
            per_exp: dict = {}
            for exp_name in sorted(node.experiments):
                exp = node.experiments[exp_name]
                per_exp[exp_name] = {
                    (str(prefix), path_id): route
                    for (prefix, path_id), route in exp.announced.items()
                }
            state[pop_name] = per_exp
        return state

    def export_state(
        self, state: Optional[dict] = None,
        detached: Iterable[tuple[str, str]] = (),
    ) -> dict[str, dict[str, ExportEntry]]:
        """Per-neighbor export sets, keyed ``pop/neighbor`` then prefix.

        Functional recomputation of the live export: each PoP's paths for
        a prefix, local and carried over the backbone (§4.4), go through
        the node's own :func:`~repro.vbgp.communities.choose_exports`.
        """
        if state is None:
            state = self.announcement_state()
        detached = set(detached)
        exports: dict[str, dict[str, ExportEntry]] = {}
        for pop_name in sorted(state):
            pop = self.platform.pops.get(pop_name)
            if pop is None:
                continue
            node = pop.node
            live_neighbors = [
                (name, node.upstreams[name])
                for name in sorted(node.upstreams)
                if node.upstreams[name].session is not None
                and node.upstreams[name].session.established
            ]
            for name, _neighbor in live_neighbors:
                exports.setdefault(f"{pop_name}/{name}", {})
            local: dict = {}
            for exp_name, announced in state[pop_name].items():
                if (pop_name, exp_name) not in detached:
                    for (_prefix, path_id), route in announced.items():
                        local.setdefault(route.prefix, {})[
                            (exp_name, path_id)] = route
            remote = self._simulated_remote(pop_name, node, state, detached)
            entries: dict[int, ExportEntry] = {}  # one per chosen route
            for prefix in {**local, **remote}:
                chosen = choose_exports(
                    local.get(prefix, {}), remote.get(prefix, {}),
                    node.target_candidates,
                )
                for name, neighbor in live_neighbors:
                    route = chosen.get(neighbor.virtual.global_id)
                    if route is None:
                        continue
                    entry = entries.get(id(route))
                    if entry is None:
                        entry = entries[id(route)] = self._entry(node, route)
                    exports[f"{pop_name}/{name}"][entry.prefix] = entry
        return exports

    def _carried_routes(self, origin_node, target_node, per_exp: dict,
                        detached, origin_name: str) -> list[Route]:
        """Routes ``origin_node`` would carry to ``target_node`` (§4.4), as
        announced: the mesh's next hop and id never reach an export.

        In the order the target's export choice takes them: by the mesh
        id the origin gave each path, then paths it has not sent yet (a
        ChangeSet that withdraws and re-announces a path is predicted
        under its old id; live, it gets a new one).
        """
        if origin_node.backbone_address is None:
            return []
        session = origin_node.backbone_peers.get(target_node.name)
        if session is None or not session.established:
            return []
        carried = []
        for exp_name in sorted(per_exp):
            if (origin_name, exp_name) in detached:
                continue
            exp = origin_node.experiments.get(exp_name)
            mesh_ids = {} if exp is None else exp.mesh_ids
            for (_prefix, path_id), route in per_exp[exp_name].items():
                mesh_id = mesh_ids.get((route.prefix, path_id))
                carried.append(((mesh_id is None, mesh_id or 0, exp_name,
                                 _prefix, repr(path_id)), route))
        return [route for _order, route in sorted(carried)]

    def _entry(self, node, route: Route) -> ExportEntry:
        export = node.export_transform(route)
        wire = len(UpdateMessage.announce([export]).encode())
        return ExportEntry(
            prefix=str(export.prefix),
            route=export,
            fingerprint=attr_fingerprint(export.attributes),
            communities=tuple(
                sorted(str(c) for c in export.communities)
            ),
            wire_bytes=wire,
        )

    # -- ChangeSet simulation ----------------------------------------------

    def evaluate(self, changeset: ChangeSet) -> DryRunReport:
        changeset.validate()
        report = DryRunReport(digest=changeset.digest())
        state = self.announcement_state()
        before = self.export_state(state)
        detached: set[tuple[str, str]] = set()
        attached: set[tuple[str, str]] = set()
        pending: dict[tuple[str, str, str], int] = {}
        for op in changeset.ops:
            self._simulate_op(op, state, detached, attached, pending,
                              report.rejections)
        after = self.export_state(state, detached=detached)
        report.diffs = self._diff(before, after)
        report.invariants = self._simulated_invariants(
            state, detached, after
        )
        return report

    def _simulate_op(self, op: ChangeOp, state: dict, detached: set,
                     attached: set, pending: dict,
                     rejections: list[str]) -> None:
        client = self.clients.get(op.experiment)
        if client is None:
            rejections.append(
                f"{op.describe()}: no connected client for experiment "
                f"{op.experiment!r}"
            )
            return
        if op.kind in ("connect", "disconnect"):
            self._simulate_mux(op, client, state, detached, attached,
                               rejections)
            return
        prefix = _parse_prefix(op.prefix)
        if prefix is None:
            rejections.append(f"{op.describe()}: malformed prefix")
            return
        pops = list(op.pops) if op.pops else sorted(client.pops)
        if not pops:
            rejections.append(
                f"{op.describe()}: experiment is connected nowhere"
            )
            return
        for pop_name in pops:
            self._simulate_at_pop(op, client, prefix, pop_name, state,
                                  detached, attached, pending, rejections)

    def _simulate_mux(self, op: ChangeOp, client, state: dict,
                      detached: set, attached: set,
                      rejections: list[str]) -> None:
        key = (op.pop, op.experiment)
        if op.pop not in self.platform.pops:
            rejections.append(f"{op.describe()}: unknown PoP")
            return
        connected = (
            op.pop in client.pops and key not in detached
        ) or key in attached
        if op.kind == "connect":
            if connected:
                rejections.append(f"{op.describe()}: tunnel already up")
                return
            attached.add(key)
            detached.discard(key)
            state.setdefault(op.pop, {}).setdefault(op.experiment, {})
        else:
            # openvpn_down on a down tunnel is a silent no-op live, and
            # so is the simulated disconnect.
            if connected:
                detached.add(key)
                attached.discard(key)
                state.get(op.pop, {}).get(op.experiment, {}).clear()

    def _simulate_at_pop(self, op: ChangeOp, client, prefix, pop_name: str,
                         state: dict, detached: set, attached: set,
                         pending: dict, rejections: list[str]) -> None:
        key = (pop_name, op.experiment)
        if key in detached:
            rejections.append(
                f"{op.describe()} @ {pop_name}: attachment is being "
                "disconnected by this ChangeSet"
            )
            return
        view = client.pops.get(pop_name)
        if key in attached:
            # A session brought up by this very ChangeSet will be
            # freshly established once applied; announcing over it in
            # the same transaction stays unpredictable (the session
            # handshake races the announcement), so reject it.
            rejections.append(
                f"{op.describe()} @ {pop_name}: session is being "
                "connected by this ChangeSet; split into two ChangeSets"
            )
            return
        if view is None:
            rejections.append(
                f"{op.describe()} @ {pop_name}: experiment is not "
                "connected at this PoP"
            )
            return
        if view.session is None or not view.session.established:
            rejections.append(
                f"{op.describe()} @ {pop_name}: BGP session is not up"
            )
            return
        announced = state.setdefault(pop_name, {}).setdefault(
            op.experiment, {}
        )
        # Client announcements travel over an ADD-PATH session whose
        # wire format encodes an unset path id as 0, so the attachment
        # keys them as ``(prefix, 0)``.
        sim_key = (str(prefix), 0)
        if op.kind == "withdraw":
            # Mirrors the live path: withdrawals are not enforced and
            # consume no update budget (the client only sends the one
            # withdraw for the un-pathed announcement).
            announced.pop(sim_key, None)
            return
        if op.kind == "set-communities" and sim_key not in announced:
            rejections.append(
                f"{op.describe()} @ {pop_name}: prefix is not announced "
                "here (set-communities edits an existing announcement)"
            )
            return
        communities = []
        for text in op.communities:
            parsed = parse_community(text)
            if parsed is None:
                rejections.append(
                    f"{op.describe()}: malformed community {text!r}"
                )
                return
            communities.append(Community(parsed[0], parsed[1]))
        route = build_announcement(
            prefix,
            origin=client.asn,
            platform_asn=self.platform.platform_asn,
            communities=communities,
            prepend=op.prepend,
            poison=op.poison,
        ).with_next_hop(view.connection.tunnel.client_ip)
        accepted = self._probe_enforcer(
            op, pop_name, route, pending, rejections
        )
        if accepted is not None:
            announced[sim_key] = accepted.with_path_id(0)

    def _probe_enforcer(self, op: ChangeOp, pop_name: str, route: Route,
                        pending: dict,
                        rejections: list[str]) -> Optional[Route]:
        """Run the real enforcer in non-recording mode; None = rejected."""
        pop = self.platform.pops[pop_name]
        enforcer = pop.control_enforcer
        if enforcer is None:
            return route
        budget_key = (op.experiment, str(route.prefix), pop_name)
        offset = pending.get(budget_key, 0)
        if offset and not enforcer.state.would_accept(
            op.experiment, route.prefix, pop_name,
            enforcer.scheduler.now, pending=offset,
        ):
            rejections.append(
                f"{op.describe()} @ {pop_name}: update rate limit would "
                "be exceeded by earlier ops in this ChangeSet"
            )
            return None
        outcome = enforcer.check_routes(
            op.experiment, [route], pop_name, record=False
        )
        if not outcome.accepted:
            reasons = "; ".join(
                v.reason for v in outcome.violations
            ) or "rejected by enforcer"
            rejections.append(f"{op.describe()} @ {pop_name}: {reasons}")
            return None
        pending[budget_key] = offset + 1
        return outcome.accepted[0]

    # -- simulated invariant evaluation ------------------------------------

    def _simulated_invariants(
        self, state: dict, detached: set,
        after: dict[str, dict[str, ExportEntry]],
    ) -> dict[str, InvariantReport]:
        sim_pops = {}
        for pop_name, pop in self.platform.pops.items():
            node = pop.node
            experiments = {}
            for exp_name, exp in node.experiments.items():
                if (pop_name, exp_name) in detached:
                    continue
                announced = dict(
                    state.get(pop_name, {}).get(exp_name, {})
                )
                experiments[exp_name] = _Proxy(exp, announced=announced)
            remote = self._simulated_remote(pop_name, node, state, detached)
            sim_node = _Proxy(
                node, experiments=experiments, remote_exp_paths=remote
            )
            sim_pops[pop_name] = _Proxy(pop, node=sim_node)
        speakers, speaker_pops = self._predicted_speakers(after)
        allocated = {}
        for name in self.clients:
            lease = self.platform.resources.lease_for(name)
            allocated[name] = (
                frozenset(lease.prefixes) if lease else frozenset()
            )
        ctx = ConformanceContext(
            pops=sim_pops,
            clients=self.clients,
            allocated=allocated,
            neighbor_speakers=speakers,
            neighbor_pops=speaker_pops,
        )
        return run_invariants(ctx)

    def _simulated_remote(self, pop_name: str, node, state: dict,
                          detached) -> dict:
        """``{prefix: {(origin PoP, position): route}}`` the other PoPs
        would carry to ``pop_name``: the node's ``remote_exp_paths``, each
        origin's paths in :meth:`_carried_routes` (mesh id) order."""
        remote: dict = {}
        for origin_name in sorted(state):
            if origin_name == pop_name:
                continue
            origin = self.platform.pops.get(origin_name)
            if origin is None:
                continue
            for position, route in enumerate(self._carried_routes(
                origin.node, node, state[origin_name], detached,
                origin_name,
            )):
                remote.setdefault(route.prefix, {})[
                    (origin_name, position)] = route
        return remote

    def _predicted_speakers(
        self, after: dict[str, dict[str, ExportEntry]],
    ) -> tuple[dict, dict]:
        """One predicted speaker per *uniquely named* upstream neighbor.

        ``community_propagation`` resolves neighbors by bare name, so a
        name used at two PoPs cannot be modeled; such neighbors are
        skipped (none of the platform builders produce duplicates).
        """
        names: dict[str, list[str]] = {}
        for key in after:
            pop_name, _, neighbor = key.partition("/")
            names.setdefault(neighbor, []).append(pop_name)
        speakers: dict = {}
        speaker_pops: dict = {}
        for neighbor, pops in names.items():
            if len(pops) != 1:
                continue
            speakers[neighbor] = _PredictedSpeaker(
                after[f"{pops[0]}/{neighbor}"]
            )
            speaker_pops[neighbor] = pops[0]
        return speakers, speaker_pops

    # -- diffing -----------------------------------------------------------

    def _diff(
        self,
        before: dict[str, dict[str, ExportEntry]],
        after: dict[str, dict[str, ExportEntry]],
    ) -> dict[str, NeighborDiff]:
        diffs: dict[str, NeighborDiff] = {}
        for name in sorted(set(before) | set(after)):
            old = before.get(name, {})
            new = after.get(name, {})
            added, removed, changed = [], [], []
            for prefix in sorted(set(old) | set(new)):
                old_entry = old.get(prefix)
                new_entry = new.get(prefix)
                if old_entry is None and new_entry is not None:
                    added.append(RouteChange(
                        prefix=prefix, change="added",
                        communities=new_entry.communities,
                        wire_delta=new_entry.wire_bytes,
                        fingerprint=new_entry.fingerprint,
                    ))
                elif new_entry is None and old_entry is not None:
                    removed.append(RouteChange(
                        prefix=prefix, change="removed",
                        communities=old_entry.communities,
                        wire_delta=-old_entry.wire_bytes,
                        fingerprint=old_entry.fingerprint,
                    ))
                elif (
                    old_entry is not None and new_entry is not None
                    and old_entry.fingerprint != new_entry.fingerprint
                ):
                    old_comm = set(old_entry.communities)
                    new_comm = set(new_entry.communities)
                    changed.append(RouteChange(
                        prefix=prefix, change="changed",
                        communities=new_entry.communities,
                        communities_added=tuple(sorted(new_comm - old_comm)),
                        communities_removed=tuple(sorted(old_comm - new_comm)),
                        wire_delta=(
                            new_entry.wire_bytes - old_entry.wire_bytes
                        ),
                        fingerprint=new_entry.fingerprint,
                    ))
            diffs[name] = NeighborDiff(
                neighbor=name,
                added=tuple(added),
                removed=tuple(removed),
                changed=tuple(changed),
                wire_before=sum(e.wire_bytes for e in old.values()),
                wire_after=sum(e.wire_bytes for e in new.values()),
            )
        return diffs
