"""Telemetry overhead guard: the disabled path must stay on the fast path.

Replays the §6 AMS-IX churn harness (the ``bench_update_load`` pipeline)
through a telemetry-less PoP and checks the failure mode that matters —
the hot path paying for instrumentation when no hub is attached — by
what it is, not by a clock: no function of ``repro.telemetry`` may be
entered while the updates flow.  The only timing left is the paper's
"thousands of updates per second" floor.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

from repro.bgp.session import BgpSession, SessionConfig
from repro.bgp.transport import connect_pair
from repro.internet.churn import AMSIX_PROFILE, ChurnGenerator
from repro.metrics import measure_processing
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.state import EnforcerState
from repro.sim import Scheduler
import repro.telemetry
from repro.telemetry import TelemetryHub
from repro.vbgp.allocator import GlobalNeighborRegistry

ABSOLUTE_FLOOR = 1000.0  # "thousands of updates per second" (§6)


def trap_telemetry(monkeypatch) -> list[str]:
    """Make every function and method defined in ``repro.telemetry``
    record its name when entered (then run as usual)."""
    entered: list[str] = []

    def trap(owner, name, function):
        def trapped(*args, **kwargs):
            entered.append(f"{owner.__name__}.{name}")
            return function(*args, **kwargs)
        monkeypatch.setattr(owner, name, trapped)

    for info in pkgutil.iter_modules(repro.telemetry.__path__):
        module = importlib.import_module(f"repro.telemetry.{info.name}")
        for name, member in list(vars(module).items()):
            if getattr(member, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(member):
                trap(module, name, member)
            elif inspect.isclass(member):
                for attr, function in list(vars(member).items()):
                    if inspect.isfunction(function):
                        trap(member, attr, function)
    return entered


def build_pop(with_telemetry: bool = False):
    scheduler = Scheduler()
    telemetry = TelemetryHub(scheduler) if with_telemetry else None
    pop = PointOfPresence(
        scheduler,
        PopConfig(name="ams", pop_id=0, kind="ixp"),
        platform_asn=47065,
        platform_asns=frozenset({47065}),
        registry=GlobalNeighborRegistry(),
        enforcer_state=EnforcerState(),
        telemetry=telemetry,
    )
    pop.provision_neighbor("upstream", 65010, kind="peer")
    ours, theirs = connect_pair(scheduler, rtt=0.001)
    pop.node.attach_experiment(
        name="x", asn=47065,
        prefixes=(IPv4Prefix.parse("184.164.224.0/24"),),
        tunnel_ip=IPv4Address.parse("100.125.0.2"),
        tunnel_mac=MacAddress.parse("02:aa:00:00:00:02"),
        channel=ours,
    )
    client = BgpSession(
        scheduler,
        SessionConfig(local_asn=47065,
                      local_id=IPv4Address.parse("100.125.0.2"),
                      peer_asn=47065, addpath=True),
        theirs, on_update=lambda _s, _u: None,
    )
    client.start()
    scheduler.run_for(5)
    return scheduler, pop, telemetry


def measure_rate(with_telemetry: bool = False, n_updates: int = 1500):
    scheduler, pop, hub = build_pop(with_telemetry)
    generator = ChurnGenerator(AMSIX_PROFILE, prefix_count=2000, seed=7)
    updates = generator.make_updates(n_updates)

    def process(update):
        pop.node._upstream_update("upstream", update)
        scheduler.run_until(scheduler.now)

    rate = measure_processing(
        "overhead-check", process, updates
    ).max_sustainable_rate()
    return rate, hub


def test_disabled_telemetry_keeps_fast_path_throughput(monkeypatch):
    entered = trap_telemetry(monkeypatch)
    rate, _hub = measure_rate(with_telemetry=False)
    assert entered == []
    assert rate > ABSOLUTE_FLOOR


def test_the_trap_sees_an_attached_hub(monkeypatch):
    """The guard above is not vacuous: with a hub the same flow enters
    the tracer and the registry."""
    entered = trap_telemetry(monkeypatch)
    measure_rate(with_telemetry=True, n_updates=50)
    assert "Tracer.begin" in entered
    assert "MetricsRegistry.counter" in entered


def test_enabled_telemetry_overhead_is_bounded():
    """With a hub attached the pipeline still sustains the p99 workload."""
    enabled, hub = measure_rate(with_telemetry=True)
    assert enabled > ABSOLUTE_FLOOR  # still "thousands per second"
    # And it observed the load: the pipeline mirror gauge reflects every
    # injected update (the harness bypasses the session framing layer).
    pipeline = hub.registry.gauge(
        "vbgp_pipeline_counters", labels=("node", "counter")
    )
    assert pipeline.labels("ams", "updates_from_upstream").value >= 1000
    # Tracer captured pipeline spans, bounded by its ring buffer.
    assert any(
        event.name == "vbgp.upstream_update" for event in hub.tracer.events
    )
    assert len(hub.tracer) <= hub.tracer.capacity
