"""The chaos harness: named fault scenarios against a running platform.

:func:`build_chaos_world` constructs a small but complete deployment —
two backbone PoPs, one resilient GR-negotiated transit neighbor per
PoP (supervised re-dial through :class:`~repro.bgp.supervisor.
SessionSupervisor`), and two experiments with live toolkit clients —
converged and ready to be broken.

:class:`ChaosRunner` then runs named scenarios against that world (or
any world shaped like it): inject a seeded fault, let it do damage,
heal it, and step the simulator until the platform re-converges to the
pre-fault routing state or a bound expires.  Each scenario returns a
:class:`ScenarioResult` carrying the convergence verdict plus the
standing resilience invariants:

``reconverged``
    every client's received paths and every upstream speaker's Loc-RIB
    returned to the pre-fault snapshot within the bound — path by path,
    attributes included, ADD-PATH ids ignored;
``kernel_tables_consistent``
    every upstream neighbor's Adj-RIB-In matches its per-neighbor
    kernel routing table (the §5 table-per-neighbor design);
``no_cross_experiment_leakage``
    no client holds a route for a prefix allocated to a different
    experiment (§5 isolation);
``sessions_settled``
    every session is established, suppressed by flap damping, or given
    up — nothing is stuck mid-re-dial.

Determinism: all fault randomness is seeded, the simulator is a
deterministic event queue, and supervisor jitter derives from the
platform seed — the same ``(scenario, seed)`` pair always reproduces
the same run, which the CI soak job exploits to sweep seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bgp.attributes import local_route
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.supervisor import SupervisorConfig
from repro.chaos.faults import ChannelFaultInjector
from repro.conformance.invariants import ConformanceContext, run_invariants
from repro.conformance.state import paths, speaker_paths
from repro.netsim.addr import IPv4Prefix
from repro.platform.experiment import ExperimentProposal
from repro.platform.peering import PeeringPlatform
from repro.platform.pop import NeighborPort, PopConfig
from repro.sim.scheduler import Scheduler
from repro.telemetry import TelemetryHub
from repro.telemetry.station import ResilienceEvent
from repro.toolkit.client import ExperimentClient

__all__ = [
    "ChaosRunner",
    "ChaosWorld",
    "NeighborHandle",
    "ScenarioResult",
    "build_chaos_world",
]


@dataclass
class NeighborHandle:
    """One synthetic upstream AS attached to a PoP, with its plug."""

    pop: str
    name: str
    speaker: BgpSpeaker
    port: NeighborPort
    dest: IPv4Prefix


@dataclass
class ChaosWorld:
    """A converged deployment the runner knows how to break."""

    scheduler: Scheduler
    platform: PeeringPlatform
    telemetry: Optional[TelemetryHub]
    neighbors: Dict[str, NeighborHandle]
    clients: Dict[str, ExperimentClient]
    seed: int = 0


@dataclass
class ScenarioResult:
    """Outcome of one chaos scenario run."""

    name: str
    seed: int
    converged: bool
    convergence_time: float
    invariants: Dict[str, bool] = field(default_factory=dict)
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.converged and all(self.invariants.values())

    def format(self) -> str:
        verdict = (
            f"CONVERGED in {self.convergence_time:.1f}s"
            if self.converged else "DID NOT CONVERGE"
        )
        lines = [f"scenario {self.name} seed={self.seed}: {verdict}"]
        lines.append("  invariants: " + " ".join(
            f"{key}={'ok' if value else 'VIOLATED'}"
            for key, value in sorted(self.invariants.items())
        ))
        if self.details:
            lines.append("  details: " + " ".join(
                f"{key}={value:g}" for key, value in sorted(self.details.items())
            ))
        return "\n".join(lines)


def build_chaos_world(
    seed: int = 0, with_telemetry: bool = True
) -> ChaosWorld:
    """Two backbone PoPs, two resilient transits, two experiments."""
    scheduler = Scheduler()
    telemetry = TelemetryHub(scheduler) if with_telemetry else None
    platform = PeeringPlatform(
        scheduler,
        pop_configs=[
            PopConfig(name="west", pop_id=0, kind="ixp", backbone=True),
            PopConfig(name="east", pop_id=1, kind="university",
                      backbone=True),
        ],
        telemetry=telemetry,
    )
    supervisor_config = SupervisorConfig(
        min_backoff=0.5,
        max_backoff=8.0,
        jitter=0.25,
        idle_hold_floor=0.5,
        flap_threshold=4,
        flap_window=60.0,
        suppress_time=30.0,
        max_attempts=12,
        seed=seed,
    )
    neighbors: Dict[str, NeighborHandle] = {}
    for pop_name, nname, asn, dest in (
        ("west", "transit-west", 65010, IPv4Prefix.parse("10.10.0.0/16")),
        ("east", "transit-east", 65020, IPv4Prefix.parse("10.20.0.0/16")),
    ):
        pop = platform.pops[pop_name]
        port = pop.provision_neighbor(
            nname,
            asn,
            kind="transit",
            resilient=True,
            graceful_restart=True,
            restart_time=180,
            supervisor_config=supervisor_config,
        )
        speaker = BgpSpeaker(
            scheduler, SpeakerConfig(asn=asn, router_id=port.address)
        )
        speaker.attach_neighbor(
            NeighborConfig(
                name="to-pop",
                peer_asn=None,
                local_address=port.address,
                graceful_restart=True,
                restart_time=180,
            ),
            port.channel,
        )
        # When the PoP's supervisor re-dials, re-attach our side of the
        # session over the fresh transport.
        port.on_redial = (
            lambda channel, s=speaker: s.reattach_neighbor(
                "to-pop", channel
            )
        )
        speaker.originate(local_route(dest, next_hop=port.address))
        neighbors[nname] = NeighborHandle(
            pop=pop_name, name=nname, speaker=speaker, port=port, dest=dest
        )

    clients: Dict[str, ExperimentClient] = {}
    for name, pops, prefix_count in (
        ("alpha", ("west", "east"), 2),
        ("beta", ("west",), 1),
    ):
        platform.submit_proposal(ExperimentProposal(
            name=name,
            contact="chaos@example.edu",
            goals="resilience drill",
            execution_plan="inject faults, heal, verify re-convergence",
            prefix_count=prefix_count,
        ))
        client = ExperimentClient(scheduler, name, platform)
        for pop_name in pops:
            client.openvpn_up(pop_name)
            client.bird_start(pop_name)
        clients[name] = client
    scheduler.run_for(30)
    # Alpha announces its first prefix so the baseline includes an
    # experiment route at the upstream speakers.
    clients["alpha"].announce(clients["alpha"].profile.prefixes[0])
    scheduler.run_for(30)
    return ChaosWorld(
        scheduler=scheduler,
        platform=platform,
        telemetry=telemetry,
        neighbors=neighbors,
        clients=clients,
        seed=seed,
    )


class ChaosRunner:
    """Schedules, heals, and judges fault scenarios against a world."""

    SCENARIOS = (
        "drop",
        "corruption",
        "latency",
        "partition",
        "flap",
        "tunnel-bounce",
        "enforcer-overload",
        "intent-revert-under-fault",
        "ingress-flood",
        "slow-consumer",
    )

    def __init__(
        self,
        world: ChaosWorld,
        seed: Optional[int] = None,
        step: float = 1.0,
        bound: float = 600.0,
    ) -> None:
        self.world = world
        self.seed = world.seed if seed is None else seed
        self.step = step
        self.bound = bound
        self.scheduler = world.scheduler
        self.platform = world.platform
        self.telemetry = world.telemetry
        self._baseline: Dict[str, tuple] = {}

    # -- public API --------------------------------------------------------

    def run(self, name: str) -> ScenarioResult:
        method = getattr(
            self, "_scenario_" + name.replace("-", "_"), None
        )
        if method is None:
            raise KeyError(
                f"unknown scenario {name!r}; choose from "
                f"{', '.join(self.SCENARIOS)}"
            )
        self._settle()
        self._baseline = self._snapshot()
        self._event("chaos", "fault-inject", name)
        result: ScenarioResult = method()
        self._event(
            "chaos", "scenario-done",
            f"{name}: {'ok' if result.ok else 'FAILED'}",
        )
        return result

    def run_all(self) -> List[ScenarioResult]:
        return [self.run(name) for name in self.SCENARIOS]

    # -- scenarios ---------------------------------------------------------

    def _scenario_drop(self) -> ScenarioResult:
        """30% message loss on a transit transport for two minutes."""
        return self._channel_scenario(
            "drop", self.world.neighbors["transit-west"],
            duration=120.0, drop=0.30,
        )

    def _scenario_corruption(self) -> ScenarioResult:
        """Byte corruption: decoder NOTIFICATIONs and session resets."""
        return self._channel_scenario(
            "corruption", self.world.neighbors["transit-west"],
            duration=45.0, corrupt=0.30,
        )

    def _scenario_latency(self) -> ScenarioResult:
        """A 70 s latency spike: the first delayed keepalive gap exceeds
        the 90 s hold time onset budget only transiently."""
        return self._channel_scenario(
            "latency", self.world.neighbors["transit-west"],
            duration=100.0, extra_latency=70.0,
        )

    def _scenario_partition(self) -> ScenarioResult:
        """Full partition outlasting the hold timer: GR retains routes,
        the supervisor keeps re-dialing into the partition, and the
        session heals once it lifts."""
        return self._channel_scenario(
            "partition", self.world.neighbors["transit-west"],
            duration=150.0, drop=1.0,
        )

    def _scenario_flap(self) -> ScenarioResult:
        """Six quick transport losses: flap damping must engage."""
        handle = self.world.neighbors["transit-west"]
        closes = 6
        for index in range(closes):
            self.scheduler.call_later(
                4.0 * index,
                lambda h=handle: self._close_port_channel(h),
            )
        self._event(handle.name, "fault-inject",
                    f"flap: {closes} transport losses 4s apart")
        self.scheduler.run_for(4.0 * closes + 1.0)
        self._event(handle.name, "fault-heal", "flap: storm over")
        heal_time = self.scheduler.now
        converged, elapsed = self._converge()
        supervisor = self._supervisor(handle)
        invariants = self._invariants(converged)
        invariants["flap_damping_engaged"] = (
            supervisor is not None and supervisor.suppressions >= 1
        )
        details: Dict[str, float] = {"closes": float(closes)}
        if supervisor is not None:
            details["reconnects"] = float(supervisor.reconnects)
            details["suppressions"] = float(supervisor.suppressions)
        return self._result("flap", converged, elapsed, invariants,
                            details, heal_time)

    def _scenario_tunnel_bounce(self) -> ScenarioResult:
        """An experiment's VPN tunnel bounces; BIRD restarts over it."""
        client = self.world.clients["alpha"]
        pop_name = "west"
        view = client.pops[pop_name]
        tunnel = view.connection.tunnel
        announced = list(view.announced)
        tunnel.set_up(False)
        view.connection.channel.close()
        self._event(f"client:{client.name}:{pop_name}", "fault-inject",
                    "tunnel-bounce: tunnel down, transport lost")
        self.scheduler.run_for(10.0)
        tunnel.set_up(True)
        client.bird_stop(pop_name)
        client.bird_start(pop_name)
        self.scheduler.run_for(2.0)
        for prefix in announced:
            client.announce(prefix, pops=[pop_name])
        self._event(f"client:{client.name}:{pop_name}", "fault-heal",
                    "tunnel-bounce: tunnel up, BIRD restarted")
        heal_time = self.scheduler.now
        converged, elapsed = self._converge()
        return self._result(
            "tunnel-bounce", converged, elapsed,
            self._invariants(converged),
            {"reannounced": float(len(announced))}, heal_time,
        )

    def _scenario_enforcer_overload(self) -> ScenarioResult:
        """Enforcement engine overload must fail closed, then recover."""
        pop = self.platform.pops["west"]
        client = self.world.clients["alpha"]
        spare = client.profile.prefixes[1]
        speaker = self.world.neighbors["transit-west"].speaker
        pop.control_enforcer.overloaded = True
        self._event("west", "fault-inject", "enforcer-overload")
        client.announce(spare, pops=["west"])
        self.scheduler.run_for(5.0)
        fail_closed = speaker.best_route(spare) is None
        pop.control_enforcer.overloaded = False
        client.announce(spare, pops=["west"])
        self.scheduler.run_for(5.0)
        recovered = speaker.best_route(spare) is not None
        client.withdraw(spare, pops=["west"])
        self._event("west", "fault-heal", "enforcer-overload: recovered")
        heal_time = self.scheduler.now
        converged, elapsed = self._converge()
        # Post-heal hygiene: the violation log must be clearable and the
        # overload flag must be down, so back-to-back scenario runs on
        # one world start from clean counters.
        cleared = pop.control_enforcer.reset_violations()
        invariants = self._invariants(converged)
        invariants["fail_closed"] = fail_closed
        invariants["recovered_after_overload"] = recovered
        invariants["counters_reset"] = (
            not pop.control_enforcer.violations
            and not pop.control_enforcer.overloaded
        )
        return self._result("enforcer-overload", converged, elapsed,
                            invariants,
                            {"violations_cleared": float(cleared)},
                            heal_time)

    def _scenario_intent_revert_under_fault(self) -> ScenarioResult:
        """A link fault lands mid-apply; the intent layer must revert.

        A *clean* plan (alpha announces its spare prefix at west) is
        applied while the transit-west transport silently drops every
        message.  The staged announcement never reaches the upstream
        speaker, so re-verification catches both a live
        ``community_propagation`` violation and a predicted-vs-observed
        export mismatch — and the controller must auto-revert.  After
        the fault heals, the platform must hold the exact pre-plan
        prefix state under the **full** five-invariant catalog.
        """
        from repro.intent import ChangeSet, IntentController, announce_op

        handle = self.world.neighbors["transit-west"]
        client = self.world.clients["alpha"]
        spare = client.profile.prefixes[1]
        controller = IntentController(
            self.scheduler,
            self.platform,
            self.world.clients,
            neighbor_speakers={
                name: h.speaker
                for name, h in self.world.neighbors.items()
            },
            neighbor_pops={
                name: h.pop for name, h in self.world.neighbors.items()
            },
            telemetry=self.telemetry,
        )
        plan = controller.plan(ChangeSet(
            name="chaos-intent",
            ops=(announce_op("alpha", str(spare), pops=("west",)),),
        ))
        injector = ChannelFaultInjector(
            self.scheduler,
            handle.port.channel,
            seed=self.seed,
            drop=1.0,
            label=f"intent-revert:{handle.name}",
        )
        injector.inject()
        self._event(handle.name, "fault-inject",
                    "intent-revert-under-fault: full loss during apply")
        record = controller.apply(plan)
        injector.heal()
        self._event(handle.name, "fault-heal", "intent-revert-under-fault")
        heal_time = self.scheduler.now
        converged, elapsed = self._converge()
        invariants = self._full_invariants(converged)
        invariants["plan_was_clean"] = plan.report.ok
        invariants["auto_reverted"] = record.phase == "reverted"
        invariants["revert_clean"] = bool(record.revert_clean)
        return self._result(
            "intent-revert-under-fault", converged, elapsed, invariants,
            {
                "breaches": float(len(record.breaches)),
                "dropped": float(injector.dropped),
            },
            heal_time,
        )

    def _scenario_ingress_flood(self) -> ScenarioResult:
        """A 5× sustained announcement flood against bounded ingress.

        The west PoP gets the §6i overload layer (lazily; the earlier
        scenarios in a ``run_all`` sweep see the pre-§6i unbounded
        path).  transit-west then floods 1200 unique announcements at
        five times the queue's drain capacity: the queue must shed
        announcements oldest-first within its fixed bound, the
        neighbor's circuit breaker must trip OPEN and turn the tail of
        the flood into cheap admission rejections, and the watchdog
        must flag the PoP.  Healing withdraws every flood prefix — the
        never-shed class — after which the platform must reconverge to
        the exact pre-fault snapshot under the **full** conformance
        catalog, including ``no_withdrawal_loss_under_shed``, with the
        breaker recovered to CLOSED through its half-open trials.
        """
        from repro.chaos.faults import IngressFloodInjector

        handle = self.world.neighbors["transit-west"]
        pop = self.platform.pops[handle.pop]
        governor = self._enable_overload(handle.pop)
        breaker = governor.breaker_for(handle.name)
        capacity = governor.policy.queue.depth
        drain_per_s = (
            governor.policy.queue.drain_batch
            / governor.policy.queue.drain_interval
        )
        rate = 5.0 * drain_per_s
        flood = [
            IPv4Prefix.parse(f"10.{77 + index // 250}.{index % 250}.0/24")
            for index in range(1200)
        ]
        injector = IngressFloodInjector(
            self.scheduler,
            handle.speaker,
            handle.port.address,
            flood,
            rate=rate,
            label=f"ingress-flood:{handle.name}",
        )
        injector.inject()
        self._event(
            handle.name, "fault-inject",
            f"ingress-flood: {len(flood)} announcements at {rate:g}/s "
            f"({5.0:g}x drain capacity)",
        )
        self.scheduler.run_for(len(flood) / rate + 2.0)
        flagged = (
            pop.watchdog.state if pop.watchdog is not None else "healthy"
        )
        trips = breaker.trips
        injector.heal()
        self._event(
            handle.name, "fault-heal",
            f"ingress-flood: {injector.withdrawn} withdrawals sent",
        )
        heal_time = self.scheduler.now
        converged, elapsed = self._converge()
        totals = governor.totals()
        shed = (
            totals["shed_announcements"] + totals["rejected_announcements"]
        )
        invariants = self._full_invariants(converged)
        invariants["announcements_shed"] = shed > 0
        invariants["shed_only_announcements"] = (
            totals["shed_withdrawals"] == 0
            and totals["shed_control"] == 0
        )
        invariants["bounded_queue_memory"] = (
            totals["peak_announce_depth"] <= capacity
        )
        invariants["breaker_tripped"] = trips >= 1
        invariants["breaker_recovered"] = breaker.state == "closed"
        invariants["watchdog_flagged"] = flagged != "healthy"
        details = {
            "flood_routes": float(len(flood)),
            "offered_rate_per_s": rate,
            "announcements_shed": float(totals["shed_announcements"]),
            "announcements_rejected": float(
                totals["rejected_announcements"]
            ),
            "peak_announce_depth": float(totals["peak_announce_depth"]),
            "breaker_trips": float(trips),
            "window_sheds_cleared": float(
                governor.reset_window_counters()
            ),
        }
        return self._result("ingress-flood", converged, elapsed,
                            invariants, details, heal_time)

    def _scenario_slow_consumer(self) -> ScenarioResult:
        """A slowed drain plus a shrunken queue under moderate churn.

        The drain interval is inflated 16× and the announce-class bound
        shrunk to 12 while transit-west announces 60 prefixes at
        10/s — enough pressure to shed steadily but (unlike
        ``ingress-flood``) *below* the breaker's trip threshold.  The
        platform must shed only announcements, keep the breaker CLOSED
        throughout, and reconverge exactly once the injectors heal and
        the flood prefixes are withdrawn.
        """
        from repro.chaos.faults import (
            IngressFloodInjector,
            QueueExhaustionInjector,
            SlowConsumerInjector,
        )

        handle = self.world.neighbors["transit-west"]
        governor = self._enable_overload(handle.pop)
        queue = governor.queue_for(handle.name)
        breaker = governor.breaker_for(handle.name)
        trips_before = breaker.trips
        shed_before = governor.totals()["shed_announcements"]
        slow = SlowConsumerInjector(queue, factor=16.0)
        shrink = QueueExhaustionInjector(queue, capacity=12)
        churn = [
            IPv4Prefix.parse(f"10.88.{index}.0/24") for index in range(60)
        ]
        feeder = IngressFloodInjector(
            self.scheduler,
            handle.speaker,
            handle.port.address,
            churn,
            rate=10.0,
            label=f"slow-consumer:{handle.name}",
        )
        slow.inject()
        shrink.inject()
        feeder.inject()
        self._event(
            handle.name, "fault-inject",
            f"slow-consumer: drain x{slow.factor:g}, capacity "
            f"{shrink.capacity}, {len(churn)} announcements at 10/s",
        )
        self.scheduler.run_for(len(churn) / 10.0 + 2.0)
        feeder.heal()
        slow.heal()
        shrink.heal()
        self._event(
            handle.name, "fault-heal",
            f"slow-consumer: injectors healed, {feeder.withdrawn} "
            "withdrawals sent",
        )
        heal_time = self.scheduler.now
        converged, elapsed = self._converge()
        totals = governor.totals()
        shed = totals["shed_announcements"] - shed_before
        invariants = self._full_invariants(converged)
        invariants["announcements_shed"] = shed > 0
        invariants["shed_only_announcements"] = (
            totals["shed_withdrawals"] == 0
            and totals["shed_control"] == 0
        )
        invariants["breaker_not_tripped"] = breaker.trips == trips_before
        details = {
            "churn_routes": float(len(churn)),
            "announcements_shed": float(shed),
            "shed_on_shrink": float(shrink.shed_on_shrink),
            "slow_factor": float(slow.factor),
            "shrunk_capacity": float(shrink.capacity),
            "window_sheds_cleared": float(
                governor.reset_window_counters()
            ),
        }
        return self._result("slow-consumer", converged, elapsed,
                            invariants, details, heal_time)

    # -- scenario machinery ------------------------------------------------

    def _enable_overload(self, pop_name: str):
        """The scenario-grade §6i overload layer, installed lazily.

        Deliberately small knobs (queue depth 48 draining 40 updates/s,
        breaker tripping at 64 failures in 5 s) so a modest synthetic
        flood exercises every state transition within a short sim run.
        Idempotent: once enabled, the governor persists for the rest of
        the world's life (later scenarios simply run with bounded
        ingress too — at these bounds, baseline churn never sheds).
        """
        pop = self.platform.pops[pop_name]
        if pop.overload is None:
            from repro.overload import (
                BreakerConfig,
                OverloadPolicy,
                QueuePolicy,
            )

            pop.enable_overload(OverloadPolicy(
                queue=QueuePolicy(
                    depth=48, drain_batch=8, drain_interval=0.2
                ),
                breaker=BreakerConfig(
                    failure_threshold=64,
                    failure_window=5.0,
                    open_time=20.0,
                    half_open_trials=2,
                ),
            ))
        return pop.overload

    def _channel_scenario(
        self,
        name: str,
        handle: NeighborHandle,
        duration: float,
        **fault: float,
    ) -> ScenarioResult:
        injectors: List[ChannelFaultInjector] = []

        def cover(channel) -> None:
            injector = ChannelFaultInjector(
                self.scheduler,
                channel,
                seed=self.seed,
                label=f"{name}:{handle.name}:{len(injectors)}",
                **fault,
            )
            injector.inject()
            injectors.append(injector)

        cover(handle.port.channel)
        # Re-dials during the fault window land inside the blast radius:
        # fresh transports inherit the same fault profile until heal.
        original_redial = handle.port.on_redial

        def on_redial(channel) -> None:
            cover(channel)
            if original_redial is not None:
                original_redial(channel)

        handle.port.on_redial = on_redial
        detail = ", ".join(f"{k}={v:g}" for k, v in sorted(fault.items()))
        self._event(handle.name, "fault-inject",
                    f"{name}: {detail} for {duration:g}s")
        self.scheduler.run_for(duration)
        handle.port.on_redial = original_redial
        for injector in injectors:
            injector.heal()
        self._event(handle.name, "fault-heal", name)
        heal_time = self.scheduler.now
        converged, elapsed = self._converge()
        details: Dict[str, float] = {
            "dropped": float(sum(i.dropped for i in injectors)),
            "corrupted": float(sum(i.corrupted for i in injectors)),
            "delayed": float(sum(i.delayed for i in injectors)),
            "transports_faulted": float(len(injectors)),
        }
        supervisor = self._supervisor(handle)
        if supervisor is not None:
            details["reconnects"] = float(supervisor.reconnects)
            details["suppressions"] = float(supervisor.suppressions)
        return self._result(name, converged, elapsed,
                            self._invariants(converged), details, heal_time)

    def _close_port_channel(self, handle: NeighborHandle) -> None:
        channel = handle.port.channel
        if not channel.closed:
            channel.close()

    def _supervisor(self, handle: NeighborHandle):
        neighbor = self.platform.pops[handle.pop].node.upstreams.get(
            handle.name
        )
        return neighbor.supervisor if neighbor is not None else None

    def _result(
        self,
        name: str,
        converged: bool,
        elapsed: float,
        invariants: Dict[str, bool],
        details: Dict[str, float],
        heal_time: float,
    ) -> ScenarioResult:
        details = dict(details)
        details["heal_time"] = heal_time
        return ScenarioResult(
            name=name,
            seed=self.seed,
            converged=converged,
            convergence_time=elapsed,
            invariants=invariants,
            details=details,
        )

    # -- convergence and invariants ---------------------------------------

    def _converge(self) -> tuple[bool, float]:
        """Step until the snapshot matches baseline or the bound expires."""
        start = self.scheduler.now
        while self.scheduler.now - start < self.bound:
            self.scheduler.run_for(self.step)
            if self._settled() and self._snapshot() == self._baseline:
                return True, self.scheduler.now - start
        return False, self.scheduler.now - start

    def _settle(self) -> None:
        """Best-effort settle before taking a baseline."""
        for _ in range(60):
            if self._settled():
                return
            self.scheduler.run_for(self.step)

    def _snapshot(self):
        """Routing state as multisets of paths, attributes included.

        Every client view and every neighbor's Loc-RIB, projected
        through :func:`~repro.conformance.state.paths`: ADD-PATH ids
        are deliberately excluded — they are client-local handles that
        may be reallocated when a fault outlasts the GR retention window
        (flush + re-announce) — but a path that comes back with another
        AS path, next hop or community set has not re-converged.  The
        zero-withdrawal property of in-window GR recovery is asserted
        separately by the graceful-restart tests via the telemetry
        station feed.
        """
        state: Dict[str, tuple] = {}
        for name, client in self.world.clients.items():
            for pop_name, view in client.pops.items():
                state[f"client:{name}:{pop_name}"] = paths(
                    view.routes.values())
        for name, handle in self.world.neighbors.items():
            state[f"neighbor:{name}"] = speaker_paths(handle.speaker)
        return state

    def _settled(self) -> bool:
        for pop in self.platform.pops.values():
            governor = getattr(pop, "overload", None)
            if governor is not None and governor.pending():
                return False  # bounded ingress queues still draining
            for neighbor in pop.node.upstreams.values():
                supervisor = neighbor.supervisor
                if supervisor is not None and supervisor.pending:
                    return False
                if neighbor.rib.stale_count:
                    return False
                session = neighbor.session
                if session is None or not session.established:
                    if supervisor is not None and (
                        supervisor.suppressed or supervisor.gave_up
                    ):
                        continue
                    return False
        for client in self.world.clients.values():
            for view in client.pops.values():
                if view.session is None or not view.session.established:
                    return False
        return True

    def _invariants(self, converged: bool) -> Dict[str, bool]:
        """Post-scenario verdicts, via the shared conformance catalog.

        The structural invariants (RIB↔kernel consistency, identity
        bijectivity, cross-experiment isolation) come from
        :mod:`repro.conformance.invariants` — the same checkers the
        test-suite fixtures and ``peering verify`` run — so chaos
        results cannot drift from the platform's one definition of
        correct.  ``community_propagation`` and ``addpath_completeness``
        are deliberately not asserted here: mid-recovery both are
        transiently (and legitimately) violated while sessions re-sync.
        """
        context = ConformanceContext.from_platform(
            self.platform, clients=self.world.clients
        )
        reports = run_invariants(context, names=(
            "kernel_consistency",
            "no_cross_experiment_leakage",
            "vmac_bijectivity",
        ))
        return {
            "reconverged": converged,
            "kernel_tables_consistent": reports["kernel_consistency"].ok,
            "no_cross_experiment_leakage": reports[
                "no_cross_experiment_leakage"
            ].ok,
            "vmac_bijectivity": reports["vmac_bijectivity"].ok,
            "sessions_settled": self._settled(),
        }

    def _full_invariants(self, converged: bool) -> Dict[str, bool]:
        """The whole invariant catalog: nothing may be transiently
        excused — recovery must be *complete*."""
        context = ConformanceContext.from_platform(
            self.platform,
            clients=self.world.clients,
            neighbor_speakers={
                name: handle.speaker
                for name, handle in self.world.neighbors.items()
            },
            neighbor_pops={
                name: handle.pop
                for name, handle in self.world.neighbors.items()
            },
        )
        reports = run_invariants(context)
        verdicts = {name: report.ok for name, report in reports.items()}
        verdicts["reconverged"] = converged
        verdicts["sessions_settled"] = self._settled()
        return verdicts

    # -- telemetry ---------------------------------------------------------

    def _event(self, peer: str, event: str, detail: str) -> None:
        if self.telemetry is not None:
            self.telemetry.station.publish(ResilienceEvent(
                peer=peer,
                time=self.scheduler.now,
                event=event,
                detail=detail,
            ))
