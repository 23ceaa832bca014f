"""Fleet differential harness: in-process vs real multi-process (§6k).

The proof obligation of the fleet subsystem: one :class:`WorldSpec`,
one churn workload, run twice —

* the **reference leg** builds every PoP from its compiled artifact in
  one process over in-memory channel pairs;
* the **fleet leg** boots the same artifacts as one OS process per PoP
  (:class:`~repro.fleet.controller.FleetController`) and drives them
  over real loopback TCP.

Afterwards the harness diffs, byte-for-byte: every PoP's canonical
structural snapshot (Adj-RIB-Ins, remote RIBs, ADD-PATH announcements,
kernel tables, install counters), every external speaker's Loc-RIB, and
the raw UPDATE wire bytes each external endpoint received — plus the
full six-invariant catalog evaluated over the *fleet* (four checkers
inside each PoP process via the control RPC; the catalog's own
``judge_exports`` / ``judge_isolation`` driver-side against the
external speakers).

Determinism rests on the frozen-time lockstep protocol: scheduler time
never advances in either leg (all sessions negotiate hold time 0, so no
timer ever arms), every churn step fully settles before the next, and
each endpoint's wire stream is compared per-channel so cross-channel
arrival order — the one thing real sockets cannot pin — never enters
the comparison.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bgp.attributes import Route, local_route
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.transport import SocketChannel, connect_pair
from repro.conformance.invariants import (
    CATALOG,
    InvariantReport,
    judge_exports,
    judge_isolation,
)
from repro.conformance.state import WireTap, changes_from_frames, speaker_view
from repro.fleet.compiler import CompiledFleet, compile_world
from repro.fleet.controller import FleetController
from repro.fleet.runtime import LOCAL_INVARIANTS, build_fleet_pop
from repro.fleet.spec import WorldSpec, demo_world_spec
from repro.internet.churn import AMSIX_PROFILE, ChurnGenerator
from repro.netsim.addr import IPv4Address, IPv4Prefix
from repro.sim.scheduler import Scheduler
from repro.telemetry import TelemetryHub
from repro.vbgp.communities import announce_to_neighbor, block_neighbor

__all__ = [
    "FleetDifferentialHarness",
    "FleetDifferentialReport",
    "InProcessFleetLeg",
    "SocketFleetLeg",
    "run_fleet_differential",
]


@dataclass
class _Endpoint:
    """One external upstream AS: a real BGP speaker the PoP peers with."""

    pop: str
    upstream: str
    key: str  # "pop/upstream" — comparison key across legs
    speaker: BgpSpeaker
    channel: object
    tap: WireTap
    updates: list = field(default_factory=list)

    @property
    def established(self) -> bool:
        return self.speaker.neighbors[self.key].established


@dataclass
class _Client:
    """One experiment's client speaker at one PoP (over its tunnel)."""

    experiment: str
    pop: str
    key: str  # "experiment@pop"
    prefix: str
    tunnel_ip: str
    speaker: BgpSpeaker
    channel: object
    tap: WireTap

    @property
    def established(self) -> bool:
        return self.speaker.neighbors[self.key].established


@dataclass
class LegResult:
    """Everything one leg produced, canonicalised for comparison."""

    snapshots: Dict[str, str]  # pop -> structural snapshot
    expectations: Dict[str, dict]  # pop -> per-upstream §3.2.1 map
    summaries: Dict[str, dict]
    driver_ribs: Dict[str, str]  # endpoint/client key -> Loc-RIB repr
    wire: Dict[str, bytes]  # key -> raw UPDATE frames received
    changes: Dict[str, str]  # key -> decoded change stream repr
    invariants: Dict[str, dict]  # six invariant reports
    federation_events: int = 0


class _DriverLeg:
    """Shared driver-side wiring and workload; subclasses supply the
    transport (:meth:`open_channel`), the settle barrier, and the PoP
    introspection path (in-process call vs control RPC)."""

    def __init__(self, fleet: CompiledFleet) -> None:
        self.fleet = fleet
        self.spec_pops: List[dict] = fleet.world["spec"]["pops"]
        self.spec_experiments: List[dict] = fleet.world["spec"]["experiments"]
        self.endpoints: List[_Endpoint] = []
        self.clients: Dict[Tuple[str, str], _Client] = {}
        self.scheduler: Scheduler  # set by subclass before wire_driver()

    # -- subclass hooks ----------------------------------------------------

    def open_channel(self, kind: str, pop: str, name: str):
        raise NotImplementedError

    def settle(self) -> None:
        raise NotImplementedError

    def pop_call(self, pop: str, what: str):
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- driver construction (identical across legs) -----------------------

    def wire_driver(self) -> None:
        """Attach every external speaker, settling after each attach so
        per-PoP neighbor insertion order is the spec order in both legs."""
        for pop_entry in self.spec_pops:
            pop_name = pop_entry["name"]
            artifact = self.fleet.artifacts[pop_name]
            for up_name in artifact["upstream_order"]:
                info = artifact["upstreams"][up_name]
                key = f"{pop_name}/{up_name}"
                speaker = BgpSpeaker(self.scheduler, SpeakerConfig(
                    asn=info["asn"],
                    router_id=IPv4Address.parse(info["address"]),
                    hold_time=0,  # frozen time: no timers on either side
                ))
                channel = self.open_channel("upstream", pop_name, up_name)
                speaker.attach_neighbor(NeighborConfig(
                    name=key,
                    peer_asn=None,
                    local_address=IPv4Address.parse(info["address"]),
                    graceful_restart=True,
                ), channel)
                tap = WireTap(channel)
                self.endpoints.append(_Endpoint(
                    pop=pop_name, upstream=up_name, key=key,
                    speaker=speaker, channel=channel, tap=tap,
                ))
                self.settle()
        platform_asn = self.fleet.world["spec"]["platform_asn"]
        for exp_entry in self.spec_experiments:
            for pop_name in exp_entry["pops"]:
                artifact = self.fleet.artifacts[pop_name]
                info = next(e for e in artifact["experiments"]
                            if e["name"] == exp_entry["name"])
                key = f"{exp_entry['name']}@{pop_name}"
                speaker = BgpSpeaker(self.scheduler, SpeakerConfig(
                    asn=platform_asn,
                    router_id=IPv4Address.parse(info["tunnel_ip"]),
                    hold_time=0,
                ))
                # Fan-out paths carry the platform ASN; the client must
                # not drop them as loops (same as the toolkit client).
                speaker.allow_own_asn_in = True
                channel = self.open_channel(
                    "experiment", pop_name, exp_entry["name"])
                speaker.attach_neighbor(NeighborConfig(
                    name=key,
                    peer_asn=None,
                    local_address=IPv4Address.parse(info["tunnel_ip"]),
                    addpath=True,
                ), channel)
                tap = WireTap(channel)
                self.clients[(exp_entry["name"], pop_name)] = _Client(
                    experiment=exp_entry["name"], pop=pop_name, key=key,
                    prefix=info["prefix"], tunnel_ip=info["tunnel_ip"],
                    speaker=speaker, channel=channel, tap=tap,
                )
                self.settle()

    def unestablished(self) -> List[str]:
        """Session names not (yet) Established — must be empty post-boot."""
        out = [ep.key for ep in self.endpoints if not ep.established]
        out += [c.key for c in self.clients.values() if not c.established]
        for pop_entry in self.spec_pops:
            summary = self.pop_call(pop_entry["name"], "summary")
            for section in ("upstreams", "experiments", "backbone_peers"):
                for name, up in summary[section].items():
                    if not up:
                        out.append(
                            f"{pop_entry['name']}:{section}:{name}")
        return sorted(out)

    # -- workload ----------------------------------------------------------

    def apply_update(self, endpoint: _Endpoint, update) -> None:
        for prefix, _path_id in update.withdrawn:
            endpoint.speaker.withdraw(prefix)
        if update.attributes is not None:
            for prefix, _path_id in update.nlri:
                endpoint.speaker.originate(
                    Route(prefix=prefix, attributes=update.attributes))

    def announce(self, experiment: str, pop: str, communities=()) -> None:
        client = self.clients[(experiment, pop)]
        client.speaker.originate(local_route(
            IPv4Prefix.parse(client.prefix),
            next_hop=IPv4Address.parse(client.tunnel_ip),
            communities=communities,
        ))

    # -- collection --------------------------------------------------------

    def collect(self) -> LegResult:
        self.settle()
        snapshots: Dict[str, str] = {}
        expectations: Dict[str, dict] = {}
        summaries: Dict[str, dict] = {}
        local_reports: Dict[str, dict] = {
            name: {"ok": True, "checked": 0, "violations": []}
            for name in LOCAL_INVARIANTS
        }
        for pop_entry in self.spec_pops:
            pop = pop_entry["name"]
            snapshots[pop] = self.pop_call(pop, "snapshot")
            expectations[pop] = self.pop_call(pop, "expectations")
            summaries[pop] = self.pop_call(pop, "summary")
            for name, report in self.pop_call(pop, "invariants").items():
                merged = local_reports[name]
                merged["ok"] = merged["ok"] and report["ok"]
                merged["checked"] += report["checked"]
                merged["violations"] += [
                    f"{pop}: {v}" for v in report["violations"]]
        driver_ribs: Dict[str, str] = {}
        wire: Dict[str, bytes] = {}
        changes: Dict[str, str] = {}
        for ep in self.endpoints:
            driver_ribs[ep.key] = repr(speaker_view(ep.speaker))
            wire[ep.key] = b"".join(ep.tap.frames)
            changes[ep.key] = repr(
                changes_from_frames(ep.tap.frames, addpath=False))
        for client in self.clients.values():
            driver_ribs[client.key] = repr(speaker_view(client.speaker))
            wire[client.key] = b"".join(client.tap.frames)
            changes[client.key] = repr(
                changes_from_frames(client.tap.frames, addpath=True))
        invariants = dict(local_reports)
        exports = InvariantReport("community_propagation")
        for ep in self.endpoints:
            per_upstream = expectations[ep.pop].get(ep.upstream) or {}
            judge_exports(exports, ep.key, {
                IPv4Prefix.parse(prefix): expected
                for prefix, expected in per_upstream.items()
            }, ep.speaker)
        allocated = {
            exp["name"]: {IPv4Prefix.parse(exp["prefix"])}
            for exp in self.spec_experiments
        }
        isolation = InvariantReport("no_cross_experiment_leakage")
        for client in self.clients.values():
            judge_isolation(isolation, client.key, client.experiment,
                            allocated, client.speaker.loc_rib.prefixes())
        for report in (exports, isolation):
            invariants[report.name] = report.as_dict()
        return LegResult(
            snapshots=snapshots,
            expectations=expectations,
            summaries=summaries,
            driver_ribs=driver_ribs,
            wire=wire,
            changes=changes,
            invariants=invariants,
        )


class InProcessFleetLeg(_DriverLeg):
    """Reference leg: every PoP built from its artifact in this process,
    all transports in-memory channel pairs on one frozen scheduler."""

    def __init__(self, fleet: CompiledFleet) -> None:
        super().__init__(fleet)
        self.scheduler = Scheduler()
        self.pops = {}
        for name in fleet.pop_names():
            hub = TelemetryHub(self.scheduler, name=f"fleet-{name}")
            self.pops[name] = build_fleet_pop(
                self.scheduler, fleet.artifacts[name], telemetry=hub)
        members = [
            name for name in fleet.pop_names()
            if fleet.artifacts[name]["backbone"]["address"] is not None
        ]
        for index, a in enumerate(members):
            for b in members[index + 1:]:
                end_a, end_b = connect_pair(self.scheduler, rtt=0.0)
                self.pops[a].attach_backbone_channel(b, end_a)
                self.pops[b].attach_backbone_channel(a, end_b)
                self.settle()

    def open_channel(self, kind: str, pop: str, name: str):
        ours, theirs = connect_pair(self.scheduler, rtt=0.0)
        if kind == "upstream":
            self.pops[pop].attach_upstream_channel(name, ours)
        else:
            self.pops[pop].attach_experiment_channel(name, ours)
        return theirs

    def settle(self) -> None:
        # Frozen time: drain every event scheduled at the current instant
        # (delivery cascades schedule more at the same instant).
        while self.scheduler.run_until(self.scheduler.now):
            pass

    def pop_call(self, pop: str, what: str):
        fleet_pop = self.pops[pop]
        if what == "snapshot":
            return fleet_pop.structural_snapshot()
        if what == "invariants":
            return fleet_pop.local_invariants()
        if what == "expectations":
            return fleet_pop.community_expectations()
        if what == "summary":
            return fleet_pop.summary()
        raise ValueError(what)

    def close(self) -> None:
        """Nothing to release: this leg owns no socket or process."""


class SocketFleetLeg(_DriverLeg):
    """Fleet leg: one OS process per PoP over loopback TCP, driven via
    the controller; external speakers live here on their own frozen
    scheduler and dial the PoPs' compiled ports."""

    #: Consecutive all-quiet sweeps before declaring convergence; each
    #: quiet sweep is confirmed with a short blocking pump because
    #: loopback TCP delivers asynchronously (bytes can be in flight when
    #: a zero-timeout pump reports nothing ready).
    QUIET_SWEEPS = 2
    MAX_SWEEPS = 10_000

    def __init__(self, fleet: CompiledFleet,
                 boot_timeout: float = 30.0) -> None:
        super().__init__(fleet)
        self.scheduler = Scheduler()
        self.controller = FleetController(fleet)
        self.controller.up()
        self._wait_boot(boot_timeout)

    def _wait_boot(self, timeout: float) -> None:
        """Wall-clock barrier: backbone mesh full and federation joined.

        Backbone dials and federation connects are wall-clock throttled
        inside each PoP process, so a pure sweep loop could go quiet
        before they happen; poll until every member sees every other
        member and every PoP said hello to the federation listener.
        """
        members = [
            name for name in self.fleet.pop_names()
            if self.fleet.artifacts[name]["backbone"]["address"] is not None
        ]
        expected_hellos = len(self.fleet.pop_names())
        deadline = time.monotonic() + timeout
        while True:
            self.settle()
            missing: List[str] = []
            for name in members:
                peers = self.pop_call(name, "summary")["backbone_peers"]
                for other in members:
                    if other != name and not peers.get(other):
                        missing.append(f"{name}->{other}")
            if not missing and (
                    self.controller.federation_events >= expected_hellos):
                return
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"fleet boot did not converge: backbone {missing}, "
                    f"federation events "
                    f"{self.controller.federation_events}/{expected_hellos}")
            time.sleep(0.05)

    def open_channel(self, kind: str, pop: str, name: str):
        ports = self.fleet.world["ports"]["pops"][pop]
        port = ports["upstreams" if kind == "upstream" else
                     "experiments"][name]
        return SocketChannel.connect(self.controller.poller,
                                     "127.0.0.1", port)

    def _drain_driver(self) -> int:
        fired = 0
        while True:
            step = self.scheduler.run_until(self.scheduler.now)
            if not step:
                return fired
            fired += step

    def settle(self) -> None:
        quiet = 0
        for _sweep in range(self.MAX_SWEEPS):
            activity = self._drain_driver()
            activity += self.controller.step_all()
            activity += self._drain_driver()
            if activity == 0:
                # Confirm quiet with a blocking pump: gives in-flight
                # bytes (pop -> driver, pop -> pop) time to land.
                activity = self.controller.poller.pump(0.01)
                activity += self._drain_driver()
            if activity == 0:
                quiet += 1
                if quiet >= self.QUIET_SWEEPS:
                    return
            else:
                quiet = 0
        raise RuntimeError("fleet settle did not quiesce")

    def pop_call(self, pop: str, what: str):
        return self.controller.clients[pop].call(what)[
            {"snapshot": "snapshot", "invariants": "invariants",
             "expectations": "expectations", "summary": "summary"}[what]]

    def collect(self) -> LegResult:
        result = super().collect()
        result.federation_events = self.controller.federation_events
        return result

    def close(self) -> None:
        for ep in self.endpoints:
            ep.channel.close()
        for client in self.clients.values():
            client.channel.close()
        self.controller.down()


@dataclass
class FleetDifferentialReport:
    """Outcome of one spec + workload run both ways."""

    spec_digest: str
    pops: int
    updates: int
    mismatches: List[str]
    invariants: Dict[str, dict]  # fleet-leg six-invariant catalog
    reference_invariants: Dict[str, dict]
    federation_events: int

    @property
    def ok(self) -> bool:
        return (
            not self.mismatches
            and all(r["ok"] for r in self.invariants.values())
            and all(r["ok"] for r in self.reference_invariants.values())
            and self.federation_events > 0
        )

    def format(self) -> str:
        lines = [
            f"fleet differential: spec {self.spec_digest}, "
            f"{self.pops} PoPs, {self.updates} updates — "
            f"{'OK' if self.ok else 'FAIL'}",
            f"  federation events: {self.federation_events}",
        ]
        for name in sorted(self.invariants):
            report = self.invariants[name]
            lines.append(
                f"  invariant {name}: "
                f"{'ok' if report['ok'] else 'VIOLATED'} "
                f"({report['checked']} checked)")
            lines.extend(f"    {v}" for v in report["violations"][:5])
        if self.mismatches:
            lines.append(f"  {len(self.mismatches)} mismatch(es):")
            lines.extend(f"    {m}" for m in self.mismatches[:10])
        return "\n".join(lines)


class FleetDifferentialHarness:
    """Run one WorldSpec + churn workload in both legs and diff them."""

    def __init__(self, pops: int = 3, updates: int = 90,
                 prefix_count: int = 40, seed: int = 0,
                 port_base: Optional[int] = None) -> None:
        if pops < 2:
            raise ValueError("fleet differential needs at least 2 PoPs")
        self.spec = demo_world_spec(pops=pops, port_base=port_base)
        self.updates = updates
        self.prefix_count = prefix_count
        self.seed = seed

    # -- workload (identical object stream in both legs) -------------------

    def _checkpoints(self, fleet: CompiledFleet) -> Dict[int, tuple]:
        """Experiment announcements interleaved into the churn, exercising
        plain announce, ANNOUNCE-whitelist, and BLOCK communities."""
        pops = fleet.pop_names()
        first = pops[0]
        first_artifact = fleet.artifacts[first]
        second_artifact = fleet.artifacts[pops[1]]
        gid_here = first_artifact["upstreams"][
            first_artifact["upstream_order"][0]]["gid"]
        gid_there = second_artifact["upstreams"][
            second_artifact["upstream_order"][0]]["gid"]
        total = self.updates
        return {
            total // 6: ("beta", first, ()),
            total // 3: ("alpha", first, (announce_to_neighbor(gid_there),)),
            (2 * total) // 3: ("alpha", first, (block_neighbor(gid_here),)),
        }

    def _drive(self, leg: _DriverLeg, fleet: CompiledFleet,
               mismatches: List[str], label: str) -> Optional[LegResult]:
        leg.wire_driver()
        pending = leg.unestablished()
        if pending:
            mismatches.append(f"{label}: sessions not established "
                              f"after boot: {', '.join(pending)}")
            return None
        count = len(leg.endpoints)
        per_endpoint = -(-self.updates // count)
        for index, endpoint in enumerate(leg.endpoints):
            generator = ChurnGenerator(
                AMSIX_PROFILE, prefix_count=self.prefix_count,
                seed=self.seed + index)
            endpoint.updates = generator.make_updates(per_endpoint)
        checkpoints = self._checkpoints(fleet)
        for step in range(self.updates):
            checkpoint = checkpoints.get(step)
            if checkpoint is not None:
                experiment, pop, communities = checkpoint
                leg.announce(experiment, pop, communities)
                leg.settle()
            endpoint = leg.endpoints[step % count]
            leg.apply_update(endpoint, endpoint.updates[step // count])
            leg.settle()
        return leg.collect()

    # -- comparison --------------------------------------------------------

    @staticmethod
    def _diff(reference: LegResult, fleet: LegResult) -> List[str]:
        mismatches: List[str] = []
        for pop, snapshot in reference.snapshots.items():
            if fleet.snapshots.get(pop) != snapshot:
                mismatches.append(f"structural snapshot differs at {pop}")
        for pop, expected in reference.expectations.items():
            if fleet.expectations.get(pop) != expected:
                mismatches.append(f"export expectations differ at {pop}")
        for key, rib in reference.driver_ribs.items():
            if fleet.driver_ribs.get(key) != rib:
                mismatches.append(f"external Loc-RIB differs at {key}")
        for key, frames in reference.wire.items():
            got = fleet.wire.get(key, b"")
            if got != frames:
                mismatches.append(
                    f"wire bytes differ at {key}: reference "
                    f"{len(frames)}B, fleet {len(got)}B")
        for key, stream in reference.changes.items():
            if fleet.changes.get(key) != stream:
                mismatches.append(f"decoded change stream differs at {key}")
        return mismatches

    def run(self, workdir: Optional[str] = None) -> FleetDifferentialReport:
        if workdir is None:
            with tempfile.TemporaryDirectory(prefix="fleet-diff-") as tmp:
                return self._run_in(tmp)
        return self._run_in(workdir)

    def _run_in(self, workdir: str) -> FleetDifferentialReport:
        fleet = compile_world(self.spec, workdir)
        mismatches: List[str] = []

        reference_leg = InProcessFleetLeg(fleet)
        try:
            reference = self._drive(
                reference_leg, fleet, mismatches, "reference")
        finally:
            reference_leg.close()

        fleet_result = None
        if reference is not None:
            fleet_leg = SocketFleetLeg(fleet)
            try:
                fleet_result = self._drive(
                    fleet_leg, fleet, mismatches, "fleet")
            finally:
                fleet_leg.close()

        if reference is not None and fleet_result is not None:
            mismatches.extend(self._diff(reference, fleet_result))
        empty = {name: {"ok": False, "checked": 0,
                        "violations": ["leg did not run"]}
                 for name in CATALOG}
        return FleetDifferentialReport(
            spec_digest=fleet.digest,
            pops=len(self.spec.pops),
            updates=self.updates,
            mismatches=mismatches,
            invariants=(fleet_result.invariants
                        if fleet_result is not None else dict(empty)),
            reference_invariants=(reference.invariants
                                  if reference is not None else dict(empty)),
            federation_events=(fleet_result.federation_events
                               if fleet_result is not None else 0),
        )


def run_fleet_differential(pops: int = 3, updates: int = 90,
                           prefix_count: int = 40, seed: int = 0,
                           port_base: Optional[int] = None,
                           workdir: Optional[str] = None,
                           ) -> FleetDifferentialReport:
    """One-call entry point used by the CLI and CI."""
    return FleetDifferentialHarness(
        pops=pops, updates=updates, prefix_count=prefix_count, seed=seed,
        port_base=port_base).run(workdir)
