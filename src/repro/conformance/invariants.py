"""The platform invariant catalog: composable checkers (DESIGN.md §6e).

Each checker takes a :class:`ConformanceContext` — a structural view of
a running deployment (PoPs, experiment clients, allocations, external
neighbor speakers) — and returns an :class:`InvariantReport` carrying a
verdict, how much evidence was examined, and every concrete violation.

The same checkers serve every consumer:

* unit/integration tests (each invariant also has a deliberately-broken
  fixture it must catch, see ``tests/conformance/test_invariants.py``),
* the chaos runner, which evaluates them after every fault scenario,
* the intent controller, which re-verifies after every applied change,
* the fleet, where each PoP process runs the four node-local checkers
  and the driver calls :func:`judge_exports` and :func:`judge_isolation`
  against the external speakers it holds,
* the ``peering verify`` CLI, which runs them against the live platform.

Catalog (keys of :data:`CATALOG`):

``vmac_bijectivity``
    Every (local or backbone-learned) neighbor's virtual MAC, global
    IP, local VIP and kernel-table id are exactly the deterministic
    images of its global id, the MAC decodes back to that id, and no two
    neighbors at a PoP share a MAC, local VIP, or table (§3.2.2 identity
    scheme).
``addpath_completeness``
    Full visibility, the §3.2.1 promise.  Node leg: while an experiment
    is established, every Adj-RIB-In path has a node-wide ADD-PATH id,
    and no two share one.  Receiver leg: an established client holds
    exactly the node's live ids, each with its path's prefix and local
    VIP next hop.  Fleet PoP processes have no clients: node leg only.
``community_propagation``
    For every experiment announcement, each external neighbor speaker
    holds the route iff the §3.2.1 whitelist/blacklist communities
    select that neighbor, and exported routes carry no control
    communities (they are consumed, never leaked).
``no_cross_experiment_leakage``
    No client sees a route for a prefix allocated to a different
    experiment (§5 isolation).
``kernel_consistency``
    Every per-neighbor kernel routing table contains exactly the
    prefixes present in that neighbor's Adj-RIB-In (§5
    table-per-neighbor design).
``no_withdrawal_loss_under_shed``
    Overload shedding (DESIGN.md §6i) never drops a withdrawal or a
    control-class update: every ingress queue's shed accounting shows
    zero withdrawal/control sheds and an idle queue's withdrawal intake
    balances its deliveries.  Vacuously satisfied (checked=0) when a
    PoP has no overload governor installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional

from repro.vbgp.allocator import (
    global_neighbor_ip,
    global_neighbor_mac,
    local_neighbor_ip,
    neighbor_mac_global_id,
    neighbor_table_id,
)
from repro.vbgp.communities import choose_exports, is_control

__all__ = [
    "CATALOG",
    "ConformanceContext",
    "InvariantReport",
    "community_export_expectations",
    "judge_exports",
    "judge_isolation",
    "run_invariants",
]

_MAX_VIOLATIONS = 20  # keep reports readable; the count is still exact


@dataclass
class InvariantReport:
    """Verdict of one invariant over one context."""

    name: str
    ok: bool = True
    checked: int = 0
    violation_count: int = 0
    violations: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.violation_count += 1
        if len(self.violations) < _MAX_VIOLATIONS:
            self.violations.append(message)

    def as_dict(self) -> dict:
        """The verdict as primitives, for the fleet's control RPC."""
        return {
            "ok": self.ok,
            "checked": self.checked,
            "violations": list(self.violations),
        }

    def format(self) -> str:
        verdict = "ok" if self.ok else "VIOLATED"
        line = f"{self.name}: {verdict} (checked={self.checked})"
        if self.violations:
            line += "\n" + "\n".join(
                f"  - {violation}" for violation in self.violations
            )
            if self.violation_count > len(self.violations):
                hidden = self.violation_count - len(self.violations)
                line += f"\n  … and {hidden} more"
        return line


@dataclass
class ConformanceContext:
    """A structural view of a deployment, as the checkers need it.

    ``pops`` maps PoP name → an object with ``.node`` (the
    :class:`~repro.vbgp.node.VbgpNode`) and ``.stack``; ``clients`` maps
    experiment name → :class:`~repro.toolkit.client.ExperimentClient`;
    ``allocated`` maps experiment name → its leased prefixes;
    ``neighbor_speakers`` maps an upstream neighbor's name → the
    *external* :class:`~repro.bgp.speaker.BgpSpeaker` representing that
    AS (needed only by ``community_propagation``); ``neighbor_pops``
    maps that neighbor name → its PoP.
    """

    pops: Mapping[str, object]
    clients: Mapping[str, object] = field(default_factory=dict)
    allocated: Mapping[str, frozenset] = field(default_factory=dict)
    neighbor_speakers: Mapping[str, object] = field(default_factory=dict)
    neighbor_pops: Mapping[str, str] = field(default_factory=dict)

    @classmethod
    def from_platform(
        cls,
        platform,
        clients: Optional[Mapping[str, object]] = None,
        neighbor_speakers: Optional[Mapping[str, object]] = None,
        neighbor_pops: Optional[Mapping[str, str]] = None,
    ) -> "ConformanceContext":
        """Build a context from a :class:`PeeringPlatform` and clients."""
        clients = dict(clients or {})
        allocated: Dict[str, frozenset] = {}
        for name in clients:
            lease = platform.resources.lease_for(name)
            allocated[name] = (
                frozenset(lease.prefixes) if lease else frozenset()
            )
        return cls(
            pops=platform.pops,
            clients=clients,
            allocated=allocated,
            neighbor_speakers=dict(neighbor_speakers or {}),
            neighbor_pops=dict(neighbor_pops or {}),
        )

    def _neighbors(self, node) -> Iterable[tuple[str, object]]:
        """(label, neighbor-with-rib-and-virtual) over local + remote."""
        for name, upstream in node.upstreams.items():
            yield name, upstream
        for gid, remote in node.remote_neighbors.items():
            yield f"remote-gid{gid}", remote


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def check_vmac_bijectivity(ctx: ConformanceContext) -> InvariantReport:
    report = InvariantReport("vmac_bijectivity")
    for pop_name, pop in ctx.pops.items():
        macs: Dict[object, str] = {}
        vips: Dict[object, str] = {}
        tables: Dict[int, str] = {}
        for label, neighbor in ctx._neighbors(pop.node):
            virtual = neighbor.virtual
            gid = virtual.global_id
            report.checked += 1
            where = f"{pop_name}/{label}(gid={gid})"
            if virtual.mac != global_neighbor_mac(gid):
                report.fail(f"{where}: MAC {virtual.mac} is not the "
                            f"deterministic image of gid {gid}")
            if neighbor_mac_global_id(virtual.mac) != gid:
                report.fail(f"{where}: MAC {virtual.mac} does not decode "
                            f"back to gid {gid}")
            if virtual.global_ip != global_neighbor_ip(gid):
                report.fail(f"{where}: global IP {virtual.global_ip} "
                            f"mismatches gid {gid}")
            if virtual.local_ip != local_neighbor_ip(gid):
                report.fail(f"{where}: local VIP {virtual.local_ip} "
                            f"mismatches gid {gid}")
            if virtual.table_id != neighbor_table_id(gid):
                report.fail(f"{where}: table id {virtual.table_id} "
                            f"mismatches gid {gid}")
            for mapping, key, what in (
                (macs, virtual.mac, "virtual MAC"),
                (vips, virtual.local_ip, "local VIP"),
                (tables, virtual.table_id, "kernel table"),
            ):
                owner = mapping.get(key)
                if owner is not None and owner != where:
                    report.fail(f"{where}: {what} {key} already owned by "
                                f"{owner}")
                mapping[key] = where
    return report


def _established(session) -> bool:
    return session is not None and session.established


def check_addpath_completeness(ctx: ConformanceContext) -> InvariantReport:
    report = InvariantReport("addpath_completeness")
    # ``live[pop]``: id -> (prefix, local VIP, neighbor label) of every
    # live path, which is what an established receiver must hold.
    live: Dict[str, Dict[int, tuple]] = {}
    for pop_name, pop in ctx.pops.items():
        node = pop.node
        # Fan-out ids are node-wide: one id names one live path.
        owners: Dict[int, object] = {}
        for key, path_id in node.path_id_items():
            report.checked += 1
            other = owners.setdefault(path_id, key)
            if other is not key:
                report.fail(
                    f"{pop_name}: ADD-PATH id {path_id} names both "
                    f"{other[1]} (gid {other[0]}) and {key[1]} "
                    f"(gid {key[0]})"
                )
        listening = any(
            _established(exp.session) for exp in node.experiments.values()
        )
        paths = live[pop_name] = {}
        for label, neighbor in ctx._neighbors(node):
            ids = neighbor.path_ids
            for prefix, source_id, _attrs in neighbor.rib.paths():
                report.checked += 1
                path_id = ids.get(
                    prefix if source_id is None else (prefix, source_id))
                if path_id is not None:
                    paths[path_id] = (prefix, neighbor.virtual.local_ip, label)
                elif listening:
                    report.fail(
                        f"{pop_name}: route {prefix} (path {source_id})"
                        f" from {label} has no ADD-PATH id"
                    )
    # Receiver leg: what each established client actually holds.
    for exp_name, client in ctx.clients.items():
        for pop_name, view in client.pops.items():
            pop = ctx.pops.get(pop_name)
            exp = pop.node.experiments.get(exp_name) if pop else None
            if (exp is None or not _established(exp.session)
                    or not _established(view.session)):
                continue
            where = f"client {exp_name}@{pop_name}"
            held, paths = view.routes, live[pop_name]
            for path_id, (prefix, vip, label) in paths.items():
                report.checked += 1
                route = held.get(path_id)
                if route is None:
                    report.fail(f"{where}: missing ADD-PATH id {path_id} "
                                f"for {prefix} from {label}")
                elif (route.prefix, route.next_hop) != (prefix, vip):
                    report.fail(f"{where}: ADD-PATH id {path_id} carries "
                                f"{route.prefix} via {route.next_hop}, not "
                                f"{prefix} via {vip} from {label}")
            for path_id in sorted(held.keys() - paths.keys()):
                report.checked += 1
                report.fail(f"{where}: stale ADD-PATH id {path_id} "
                            f"({held[path_id].prefix}) names no live path")
    return report


def community_export_expectations(
    node, neighbor_name: str
) -> Optional[Dict[object, bool]]:
    """Expected §3.2.1 export presence at one upstream neighbor.

    Returns prefix → "the node's export choice (``choose_exports``) gives
    this neighbor a path", over local and backbone-learned experiment
    paths, or ``None`` when the neighbor is unknown or its session is
    down (no exports can be expected over a down session).

    This is the single definition of "what should this neighbor hold":
    :func:`check_community_propagation` consumes it in-process, and the
    fleet runtime (DESIGN.md §6k) computes it *inside* each PoP process
    so the driver can compare against its external speakers without
    reaching into another process's node.
    """
    upstream = node.upstreams.get(neighbor_name)
    if upstream is None:
        return None
    session = upstream.session
    if session is None or not session.established:
        return None
    gid = upstream.virtual.global_id
    local: Dict[object, dict] = {}
    for exp_name, exp in node.experiments.items():
        for (_prefix, path_id), route in exp.announced.items():
            local.setdefault(route.prefix, {})[(exp_name, path_id)] = route
    remote = node.remote_exp_paths
    return {
        prefix: gid in choose_exports(
            local.get(prefix, {}), remote.get(prefix, {}),
            node.target_candidates,
        )
        for prefix in {**local, **remote}
    }


def judge_exports(report: InvariantReport, neighbor: str,
                  expectations: Mapping[object, bool], speaker) -> None:
    """One neighbor's half of ``community_propagation``: ``speaker`` (the
    external AS) holds exactly the ``expectations`` it is selected for,
    free of control communities.  The fleet driver calls it too."""
    for prefix, expected in expectations.items():
        report.checked += 1
        exported = speaker.best_route(prefix)
        if expected and exported is None:
            report.fail(
                f"{neighbor}: expected export of {prefix} but the "
                "neighbor does not hold it"
            )
        elif not expected and exported is not None:
            report.fail(
                f"{neighbor}: holds {prefix} although the control "
                "communities exclude it"
            )
        if exported is not None:
            leaked = sorted(
                str(c) for c in exported.communities if is_control(c)
            )
            if leaked:
                report.fail(
                    f"{neighbor}: export of {prefix} leaks "
                    f"control communities {', '.join(leaked)}"
                )


def check_community_propagation(ctx: ConformanceContext) -> InvariantReport:
    report = InvariantReport("community_propagation")
    for neighbor_name, speaker in ctx.neighbor_speakers.items():
        pop_name = ctx.neighbor_pops.get(neighbor_name)
        pop = ctx.pops.get(pop_name) if pop_name is not None else None
        if pop is None:
            continue
        node = pop.node
        expectations = community_export_expectations(node, neighbor_name)
        if expectations is None:
            continue
        gid = node.upstreams[neighbor_name].virtual.global_id
        judge_exports(report, f"{neighbor_name}(gid={gid})", expectations,
                      speaker)
    return report


def judge_isolation(report: InvariantReport, where: str, experiment: str,
                    allocated: Mapping[str, Iterable], prefixes) -> None:
    """One client's half of ``no_cross_experiment_leakage``: none of the
    ``prefixes`` it holds is leased to another experiment.  The fleet
    driver calls it too."""
    foreign = set()
    for other, leased in allocated.items():
        if other != experiment:
            foreign.update(leased)
    for prefix in prefixes:
        report.checked += 1
        if prefix in foreign:
            report.fail(
                f"{where}: holds {prefix}, which is allocated to another "
                "experiment"
            )


def check_no_cross_experiment_leakage(
    ctx: ConformanceContext,
) -> InvariantReport:
    report = InvariantReport("no_cross_experiment_leakage")
    for name, client in ctx.clients.items():
        for pop_name, view in client.pops.items():
            judge_isolation(
                report, f"client {name}@{pop_name}", name, ctx.allocated,
                (route.prefix for route in view.routes.values()),
            )
    return report


def check_kernel_consistency(ctx: ConformanceContext) -> InvariantReport:
    report = InvariantReport("kernel_consistency")
    for pop_name, pop in ctx.pops.items():
        node = pop.node
        for label, neighbor in ctx._neighbors(node):
            prefixes = list(neighbor.rib.prefixes())
            table = pop.stack.tables.get(neighbor.virtual.table_id)
            report.checked += max(1, len(prefixes))
            if table is None:
                if prefixes:
                    report.fail(
                        f"{pop_name}/{label}: {len(prefixes)} RIB prefixes"
                        " but no kernel table"
                    )
                continue
            if len(table) != len(prefixes):
                report.fail(
                    f"{pop_name}/{label}: kernel table holds {len(table)} "
                    f"routes, Adj-RIB-In holds {len(prefixes)} prefixes"
                )
            for prefix in prefixes:
                if prefix not in table:
                    report.fail(
                        f"{pop_name}/{label}: {prefix} in Adj-RIB-In but "
                        "missing from the kernel table"
                    )
    return report


def check_no_withdrawal_loss_under_shed(
    ctx: ConformanceContext,
) -> InvariantReport:
    report = InvariantReport("no_withdrawal_loss_under_shed")
    for pop_name, pop in ctx.pops.items():
        governor = getattr(pop.node, "overload", None)
        if governor is None:
            continue
        for peer, queue in governor.queues.items():
            stats = queue.stats
            report.checked += 1
            where = f"{pop_name}/{peer}"
            if stats.shed_withdrawals > 0:
                report.fail(
                    f"{where}: {stats.shed_withdrawals} withdrawals shed "
                    "from the ingress queue"
                )
            if stats.shed_control > 0:
                report.fail(
                    f"{where}: {stats.shed_control} control-class updates "
                    "shed from the ingress queue"
                )
            if queue.pending == 0:
                accounted = (
                    stats.withdrawals_delivered
                    + stats.withdrawals_dropped_on_close
                )
                if stats.withdrawals_admitted != accounted:
                    report.fail(
                        f"{where}: {stats.withdrawals_admitted} withdrawals"
                        f" admitted but only {accounted} accounted for "
                        "(delivered + dropped-on-close)"
                    )
    return report


CATALOG: Dict[str, Callable[[ConformanceContext], InvariantReport]] = {
    "vmac_bijectivity": check_vmac_bijectivity,
    "addpath_completeness": check_addpath_completeness,
    "community_propagation": check_community_propagation,
    "no_cross_experiment_leakage": check_no_cross_experiment_leakage,
    "kernel_consistency": check_kernel_consistency,
    "no_withdrawal_loss_under_shed": check_no_withdrawal_loss_under_shed,
}


def run_invariants(
    ctx: ConformanceContext,
    names: Optional[Iterable[str]] = None,
) -> Dict[str, InvariantReport]:
    """Run (a subset of) the catalog; returns name → report, in order."""
    selected = list(CATALOG) if names is None else list(names)
    reports: Dict[str, InvariantReport] = {}
    for name in selected:
        checker = CATALOG.get(name)
        if checker is None:
            raise KeyError(
                f"unknown invariant {name!r}; choose from "
                f"{', '.join(CATALOG)}"
            )
        reports[name] = checker(ctx)
    return reports
