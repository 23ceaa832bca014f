"""fleet-pop-crash: SIGKILL a PoP process mid-churn, restart, re-heal.

The fleet analogue of the chaos catalog's PoP-failure scenarios
(DESIGN.md §6k): boot a compiled fleet as real OS processes, drive churn
and experiment announcements through it, then SIGKILL one PoP at the
worst moment.  The victim restarts **stateless** from its unchanged
artifact; recovery rests entirely on the protocol — driver speakers
re-advertise their local routes on session re-establishment (PR 3's
Graceful Restart machinery holds their stale state meanwhile), the
experiment client re-announces, and the surviving members' wall-clock
backbone redial reconnects the mesh.

Convergence is asserted at the path level: every external speaker's
and client's Loc-RIB (attributes kept, ADD-PATH ids ignored) and every
PoP's §3.2.1 export-expectation map must return to the exact pre-fault
state, and the full six-invariant catalog must hold over the healed
fleet.  Local VIPs are a function of the pinned gid, so the restarted
PoP hands each neighbor the next hop it had before.  Mid-outage churn
is *balanced* (announce then withdraw the same prefixes on survivors)
so the pre-fault snapshot remains the ground truth.
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict, List, Optional

from repro.bgp.attributes import local_route
from repro.chaos.runner import ScenarioResult
from repro.conformance.state import speaker_paths
from repro.fleet.compiler import CompiledFleet, compile_world
from repro.fleet.differential import SocketFleetLeg, _DriverLeg
from repro.fleet.spec import demo_world_spec
from repro.internet.churn import AMSIX_PROFILE, ChurnGenerator
from repro.netsim.addr import IPv4Prefix

__all__ = ["FleetPopCrashScenario", "run_fleet_pop_crash"]

SCENARIO_NAME = "fleet-pop-crash"


def _path_state(leg: _DriverLeg) -> Dict[str, object]:
    """Path-level ground truth: every driver speaker's
    :func:`~repro.conformance.state.speaker_paths`, plus each PoP's
    export-expectation map."""
    state: Dict[str, object] = {}
    for endpoint in leg.endpoints:
        state[f"upstream:{endpoint.key}"] = speaker_paths(endpoint.speaker)
    for client in leg.clients.values():
        state[f"client:{client.key}"] = speaker_paths(client.speaker)
    for pop_entry in leg.spec_pops:
        name = pop_entry["name"]
        state[f"expectations:{name}"] = leg.pop_call(name, "expectations")
    return state


class FleetPopCrashScenario:
    """One seeded run of the fleet-pop-crash chaos scenario."""

    def __init__(self, seed: int = 0, pops: int = 3,
                 updates: int = 12, prefix_count: int = 10,
                 outage_updates: int = 4,
                 port_base: Optional[int] = None,
                 heal_timeout: float = 30.0) -> None:
        self.seed = seed
        self.spec = demo_world_spec(pops=pops, port_base=port_base)
        self.updates = updates
        self.prefix_count = prefix_count
        self.outage_updates = outage_updates
        self.heal_timeout = heal_timeout

    # -- workload pieces ---------------------------------------------------

    def _warmup(self, leg: SocketFleetLeg) -> None:
        """Announce every experiment and churn every upstream so the
        victim dies holding real state from all three route sources."""
        for key in sorted(leg.clients):
            experiment, pop = key
            leg.announce(experiment, pop)
            leg.settle()
        count = len(leg.endpoints)
        per_endpoint = -(-self.updates // count)
        for index, endpoint in enumerate(leg.endpoints):
            generator = ChurnGenerator(
                AMSIX_PROFILE, prefix_count=self.prefix_count,
                seed=self.seed + index)
            endpoint.updates = generator.make_updates(per_endpoint)
        for step in range(self.updates):
            endpoint = leg.endpoints[step % count]
            leg.apply_update(endpoint, endpoint.updates[step // count])
            leg.settle()

    def _balanced_outage_churn(self, leg: SocketFleetLeg,
                               victim: str) -> int:
        """Announce-then-withdraw transient prefixes on survivors: the
        fleet keeps moving during the outage, yet the net path state is
        unchanged, so the pre-fault snapshot stays the ground truth."""
        survivors = [ep for ep in leg.endpoints if ep.pop != victim]
        applied = 0
        for index in range(self.outage_updates):
            endpoint = survivors[index % len(survivors)]
            prefix = IPv4Prefix.parse(f"61.{self.seed % 200}.{index}.0/24")
            endpoint.speaker.originate(local_route(prefix))
            leg.settle()
            endpoint.speaker.withdraw(prefix)
            leg.settle()
            applied += 1
        return applied

    def _reattach_driver(self, leg: SocketFleetLeg, victim: str) -> None:
        """Fresh sockets into the restarted PoP; the speakers keep their
        GR-stale state and resynchronize over the new channels."""
        for endpoint in leg.endpoints:
            if endpoint.pop != victim:
                continue
            channel = leg.open_channel(
                "upstream", endpoint.pop, endpoint.upstream)
            endpoint.speaker.reattach_neighbor(endpoint.key, channel)
            endpoint.channel = channel
        for (experiment, pop), client in leg.clients.items():
            if pop != victim:
                continue
            channel = leg.open_channel("experiment", pop, experiment)
            client.speaker.reattach_neighbor(client.key, channel)
            client.channel = channel

    def _wait_heal(self, leg: SocketFleetLeg) -> float:
        """Wall-clock barrier: backbone redial is throttled inside the
        surviving processes, so poll until every session (driver and
        mesh) is Established again.  Returns elapsed seconds."""
        start = time.monotonic()
        deadline = start + self.heal_timeout
        while True:
            leg.settle()
            pending = leg.unestablished()
            if not pending:
                return time.monotonic() - start
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "fleet did not heal: still down after "
                    f"{self.heal_timeout:.0f}s: {', '.join(pending)}")
            time.sleep(0.05)

    # -- scenario ----------------------------------------------------------

    def run(self, workdir: Optional[str] = None) -> ScenarioResult:
        if workdir is None:
            with tempfile.TemporaryDirectory(prefix="fleet-crash-") as tmp:
                return self._run_in(tmp)
        return self._run_in(workdir)

    def _run_in(self, workdir: str) -> ScenarioResult:
        fleet = compile_world(self.spec, workdir)
        victim = fleet.pop_names()[self.seed % len(fleet.pop_names())]
        leg = SocketFleetLeg(fleet)
        try:
            return self._drive(leg, fleet, victim)
        finally:
            leg.close()

    def _drive(self, leg: SocketFleetLeg, fleet: CompiledFleet,
               victim: str) -> ScenarioResult:
        leg.wire_driver()
        pending = leg.unestablished()
        if pending:
            raise RuntimeError(
                f"fleet boot incomplete: {', '.join(pending)}")
        self._warmup(leg)
        pre_fault = _path_state(leg)

        leg.controller.kill_pop(victim)
        leg.settle()  # drain the connection-reset storm
        outage_churn = self._balanced_outage_churn(leg, victim)

        restart_at = time.monotonic()
        leg.controller.restart_pop(victim)
        self._reattach_driver(leg, victim)
        heal_time = self._wait_heal(leg)
        convergence_time = time.monotonic() - restart_at

        result = leg.collect()
        post_heal = _path_state(leg)
        diverged: List[str] = sorted(
            key for key in set(pre_fault) | set(post_heal)
            if pre_fault.get(key) != post_heal.get(key))
        invariants = {
            name: report["ok"] for name, report in result.invariants.items()
        }
        invariants["path_state_restored"] = not diverged
        details: Dict[str, float] = {
            "pops": float(len(fleet.pop_names())),
            "warmup_updates": float(self.updates),
            "outage_updates": float(outage_churn),
            "heal_time": heal_time,
            "diverged_keys": float(len(diverged)),
            "federation_events": float(leg.controller.federation_events),
        }
        return ScenarioResult(
            name=SCENARIO_NAME,
            seed=self.seed,
            converged=not diverged,
            convergence_time=convergence_time,
            invariants=invariants,
            details=details,
        )


def run_fleet_pop_crash(seed: int = 0, pops: int = 3, updates: int = 12,
                        prefix_count: int = 10,
                        port_base: Optional[int] = None,
                        workdir: Optional[str] = None) -> ScenarioResult:
    """One-call entry point used by the CLI, tests, and the CI soak."""
    return FleetPopCrashScenario(
        seed=seed, pops=pops, updates=updates, prefix_count=prefix_count,
        port_base=port_base).run(workdir)
