"""Dry-run evaluation of a ChangeSet: the platform's own answer, in a fork.

The enforcer and the community export controls decide what reaches the
Internet (§3.2), so the dry run asks them instead of modelling them.
:meth:`DryRunEvaluator.evaluate` rejects the ops whose failure staging
cannot show, then forks.  The child stages the rest with the
controller's own ``_stage`` and ``_settle``, pipes back each upstream's
export view (:func:`export_state`), the enforcer rejects and the live
invariant reports, and leaves by ``os._exit``; the parent diffs the
views.  The child's copy of the platform is thrown away, so nothing live
moves, and the same ChangeSet on the same state gives byte-identical
reports (:meth:`DryRunReport.to_bytes`).  POSIX-only and in-process
only: the intent controller never drives fleet PoP processes.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import dataclass, field, replace

from repro.bgp.attributes import Route
from repro.bgp.messages import UpdateMessage
from repro.conformance.invariants import InvariantReport
from repro.conformance.state import attr_fingerprint
from repro.intent.changeset import ChangeSet, parse_community
from repro.netsim.addr import IPv4Prefix, IPv6Prefix

__all__ = [
    "DryRunEvaluator",
    "DryRunReport",
    "ExportEntry",
    "NeighborDiff",
    "RouteChange",
    "export_state",
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



def export_state(platform) -> dict[str, dict[str, ExportEntry]]:
    """Per-neighbor export sets, keyed ``pop/neighbor`` then prefix: for
    every established upstream, each path its column of the node's
    ``adj_rib_out`` holds, through :meth:`VbgpNode.export_transform`."""
    exports: dict[str, dict[str, ExportEntry]] = {}
    for pop_name in sorted(platform.pops):
        node = platform.pops[pop_name].node
        entries: dict[int, ExportEntry] = {}  # one per chosen route
        for name in sorted(node.upstreams):
            neighbor = node.upstreams[name]
            if neighbor.session is None or not neighbor.session.established:
                continue
            gid = neighbor.virtual.global_id
            column = exports[f"{pop_name}/{name}"] = {}
            for chosen in node.adj_rib_out.values():
                route = chosen.get(gid)
                if route is None:
                    continue
                entry = entries.get(id(route))
                if entry is None:
                    entry = entries[id(route)] = _entry(node, route)
                column[entry.prefix] = entry
    return exports


def _entry(node, route: Route) -> ExportEntry:
    export = node.export_transform(route)
    return ExportEntry(
        prefix=str(export.prefix),
        route=export,
        fingerprint=attr_fingerprint(export.attributes),
        communities=tuple(sorted(str(c) for c in export.communities)),
        wire_bytes=len(UpdateMessage.announce([export]).encode()),
    )


class DryRunEvaluator:
    """Predict what a ChangeSet would do by doing it in a forked child of
    ``controller`` (:class:`~repro.intent.controller.IntentController`)."""

    def __init__(self, controller) -> None:
        self.controller = controller

    def evaluate(self, changeset: ChangeSet) -> DryRunReport:
        changeset.validate()
        report = DryRunReport(digest=changeset.digest())
        staged, rejected = self._precheck(changeset)
        before = export_state(self.controller.platform)
        after, enforced, report.invariants = self._fork(changeset, staged)
        # Stable: an op's precheck reasons come before its enforcer's.
        rejected = sorted(rejected + enforced, key=lambda item: item[0])
        report.rejections = [reason for _index, reason in rejected]
        report.diffs = self._diff(before, before if after is None else after)
        return report

    def _precheck(self, changeset: ChangeSet) -> tuple[list, list]:
        """What staging cannot show.  Returns the ``(index, op)`` pairs to
        stage, prefix ops narrowed to the PoPs they pass at, and the
        ``(index, reason)`` rejections."""
        platform = self.controller.platform
        # (pop, experiment) -> connected (True) or disconnected (False)
        # by an earlier op; and the prefixes announced after the earlier
        # ops, for set-communities (live staging would just announce).
        mux: dict[tuple[str, str], bool] = {}
        announced: dict[tuple[str, str], set] = {}
        staged, rejected = [], []
        for index, op in enumerate(changeset.ops):
            def reject(reason: str, where: str = "") -> None:
                rejected.append((index, f"{op.describe()}{where}: {reason}"))

            client = self.controller.clients.get(op.experiment)
            bad = [t for t in op.communities if parse_community(t) is None]
            prefix = _parse_prefix(op.prefix)
            mux_op = op.kind in ("connect", "disconnect")
            if client is None:
                reject(f"no connected client for experiment {op.experiment!r}")
            elif mux_op and op.pop not in platform.pops:
                reject("unknown PoP")
            elif mux_op:
                key = (op.pop, op.experiment)
                connected = mux.get(key, op.pop in client.pops)
                if op.kind == "connect" and connected:
                    reject("tunnel already up")
                    continue
                if connected or op.kind == "connect":  # else a no-op live
                    mux[key] = op.kind == "connect"
                    announced[key] = set()
                staged.append((index, op))
            elif prefix is None:
                reject("malformed prefix")
            elif bad:
                reject(f"malformed community {bad[0]!r}")
            elif not (op.pops or client.pops):
                reject("experiment is connected nowhere")
            else:
                passed = []
                for pop_name in op.pops or sorted(client.pops):
                    key = (pop_name, op.experiment)
                    view = client.pops.get(pop_name)
                    held = announced.setdefault(
                        key, set(view.announced if view else ()))
                    if mux.get(key) is False:
                        reason = ("attachment is being disconnected by "
                                  "this ChangeSet")
                    elif mux.get(key):
                        # Its handshake would race the announcement.
                        reason = ("session is being connected by this "
                                  "ChangeSet; split into two ChangeSets")
                    elif view is None:
                        reason = "experiment is not connected at this PoP"
                    elif view.session is None or not view.session.established:
                        reason = "BGP session is not up"
                    elif op.kind == "set-communities" and prefix not in held:
                        reason = ("prefix is not announced here (set-"
                                  "communities edits an existing "
                                  "announcement)")
                    else:
                        passed.append(pop_name)
                        if op.kind == "withdraw":
                            held.discard(prefix)
                        else:
                            held.add(prefix)
                        continue
                    reject(reason, f" @ {pop_name}")
                if passed:
                    staged.append((index, replace(op, pops=tuple(passed))))
        return staged, rejected

    def _fork(self, changeset: ChangeSet, staged: list) -> tuple:
        """``(export view or None, [(index, reject)], invariant reports)``
        from a forked child that runs ``staged``."""
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                try:
                    reply = pickle.dumps(self._run(changeset, staged))
                except Exception as exc:
                    reply = pickle.dumps(
                        (None, [(-1, f"staging failed: {exc}")], {}))
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(reply)
            finally:
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        _pid, status = os.waitpid(pid, 0)
        if not data:
            return None, [(-1, "staging failed: the dry-run child exited "
                               f"(wait status {status}) with no result")], {}
        return pickle.loads(data)

    def _run(self, changeset: ChangeSet, staged: list) -> tuple:
        """The child: stage, settle, and read what the platform did."""
        controller = self.controller
        pops = controller.platform.pops
        marks = {name: len(pops[name].control_enforcer.violations)
                 for name in sorted(pops)}
        controller._stage(ChangeSet(ops=tuple(op for _i, op in staged)))
        controller._settle()
        # An (experiment, PoP, prefix)'s rejects name its last ops: past
        # the rate limit, every later update is refused.
        owners: dict[tuple, list[int]] = {}
        for index, op in staged:
            if op.kind in ("announce", "set-communities"):
                for pop_name in op.pops:
                    key = (op.experiment, pop_name,
                           str(_parse_prefix(op.prefix)))
                    owners.setdefault(key, []).append(index)
        rejects: dict[tuple, list[str]] = {}
        for name, mark in marks.items():
            for violation in pops[name].control_enforcer.violations[mark:]:
                if violation.rejected:
                    key = (violation.experiment, name, violation.prefix)
                    rejects.setdefault(key, []).append(violation.reason)
        rejected = [
            (index, f"{changeset.ops[index].describe()} @ {key[1]}: {reason}")
            for key, reasons in rejects.items()
            for index, reason in zip(owners.get(key, [])[-len(reasons):],
                                     reasons)
        ]
        return (export_state(controller.platform), rejected,
                controller._invariants())

    @staticmethod
    def _diff(
        before: dict[str, dict[str, ExportEntry]],
        after: dict[str, dict[str, ExportEntry]],
    ) -> dict[str, NeighborDiff]:
        diffs: dict[str, NeighborDiff] = {}
        for name in sorted(set(before) | set(after)):
            old, new = before.get(name, {}), after.get(name, {})
            added, removed, changed = [], [], []
            for prefix in sorted(set(old) | set(new)):
                was, now = old.get(prefix), new.get(prefix)
                if was is None:
                    added.append(RouteChange(
                        prefix=prefix, change="added",
                        communities=now.communities,
                        wire_delta=now.wire_bytes,
                        fingerprint=now.fingerprint,
                    ))
                elif now is None:
                    removed.append(RouteChange(
                        prefix=prefix, change="removed",
                        communities=was.communities,
                        wire_delta=-was.wire_bytes,
                        fingerprint=was.fingerprint,
                    ))
                elif was.fingerprint != now.fingerprint:
                    old_comm, new_comm = set(was.communities), set(
                        now.communities)
                    changed.append(RouteChange(
                        prefix=prefix, change="changed",
                        communities=now.communities,
                        communities_added=tuple(sorted(new_comm - old_comm)),
                        communities_removed=tuple(sorted(old_comm - new_comm)),
                        wire_delta=now.wire_bytes - was.wire_bytes,
                        fingerprint=now.fingerprint,
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
