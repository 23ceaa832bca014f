"""End-to-end telemetry: a full platform lifecycle observed at the station.

The acceptance criterion for the subsystem: build a platform around one
:class:`TelemetryHub`, run an experiment through connect → announce →
disconnect, and verify the BMP station saw the whole session lifecycle,
the registry accumulated datapath counters, and the CLI can render it all.
"""

from __future__ import annotations

from repro.platform import PeeringPlatform, PopConfig
from repro.sim import Scheduler
from repro.telemetry import TelemetryHub
from repro.toolkit import ExperimentClient
from repro.toolkit.cli import ToolkitCli
from tests.conftest import approve_experiment


def build_observed_platform():
    scheduler = Scheduler()
    hub = TelemetryHub(scheduler)
    platform = PeeringPlatform(scheduler, pop_configs=[
        PopConfig(name="uni-a", pop_id=0, kind="university", backbone=True),
        PopConfig(name="uni-b", pop_id=1, kind="university", backbone=True),
    ], telemetry=hub)
    approve_experiment(platform, "exp")
    client = ExperimentClient(scheduler, "exp", platform)
    return scheduler, hub, platform, client


def test_station_observes_full_session_lifecycle():
    scheduler, hub, platform, client = build_observed_platform()
    station = hub.station

    client.openvpn_up("uni-a")
    client.bird_start("uni-a")
    scheduler.run_for(10)
    assert "exp:exp" in station.up_peers()

    prefix = client.profile.prefixes[0]
    client.announce(prefix, pops=["uni-a"])
    scheduler.run_for(10)
    # The experiment session's UPDATE reached the station pre-policy.
    assert station.rib_in_size("exp:exp") >= 1
    assert station.routes_for(prefix, peer="exp:exp")

    client.bird_stop("uni-a")
    scheduler.run_for(10)

    kinds = [m.kind for m in station.messages_for("exp:exp")]
    assert kinds[0] == "peer-up"
    assert "route-monitoring" in kinds
    assert kinds[-1] == "peer-down"
    assert kinds[-2] == "stats-report"
    assert station.peers["exp:exp"].state == "down"
    # Mirror flushed on PeerDown.
    assert station.rib_in("exp:exp") == []


def test_registry_accumulates_datapath_metrics():
    scheduler, hub, platform, client = build_observed_platform()
    client.openvpn_up("uni-a")
    client.bird_start("uni-a")
    scheduler.run_for(10)
    client.announce(client.profile.prefixes[0], pops=["uni-a"])
    scheduler.run_for(10)

    registry = hub.registry
    updates = registry.counter("bgp_session_updates", labels=("peer",
                                                              "direction"))
    assert updates.labels("exp:exp", "in").value >= 1
    accepts = registry.counter("security_control_accepts", labels=("pop",))
    assert accepts.labels("uni-a").value >= 1
    transitions = registry.counter("bgp_session_transitions",
                                   labels=("peer", "state"))
    assert transitions.labels("exp:exp", "established").value == 1
    pipeline = registry.gauge("vbgp_pipeline_counters",
                              labels=("node", "counter"))
    assert pipeline.labels(
        "uni-a", "updates_from_experiments"
    ).value >= 1
    # Tracer recorded the vBGP pipeline span for the experiment UPDATE.
    assert any(
        event.name == "vbgp.experiment_update" for event in hub.tracer.events
    )


def test_cli_renders_telemetry():
    scheduler, hub, platform, client = build_observed_platform()
    cli = ToolkitCli(client)
    client.openvpn_up("uni-a")
    client.bird_start("uni-a")
    scheduler.run_for(10)

    summary = cli.run("peering telemetry summary")
    # exp session (both the platform and the client side) plus the two
    # backbone mesh sessions are all observed.
    assert "peers_up=4" in summary
    peers = cli.run("peering telemetry peers")
    assert "exp:exp: up" in peers
    metrics = cli.run("peering telemetry metrics")
    assert "repro_bgp_session_transitions_total" in metrics
    as_json = cli.run("peering telemetry metrics json")
    assert '"namespace": "repro"' in as_json
    events = cli.run("peering telemetry events 5")
    assert "bgp.session.fsm" in events or "vbgp." in events


def test_telemetry_disabled_platform_reports_so():
    scheduler = Scheduler()
    platform = PeeringPlatform(scheduler, pop_configs=[
        PopConfig(name="uni-a", pop_id=0, kind="university"),
    ])
    approve_experiment(platform, "exp")
    client = ExperimentClient(scheduler, "exp", platform)
    cli = ToolkitCli(client)
    assert cli.run("peering telemetry summary") == (
        "telemetry disabled (platform built without a hub)"
    )


def test_reconnect_produces_second_peer_up():
    """A vBGP restart cycle is visible as down/up churn at the station."""
    scheduler, hub, platform, client = build_observed_platform()
    client.openvpn_up("uni-a")
    client.bird_start("uni-a")
    scheduler.run_for(10)
    client.bird_stop("uni-a")
    scheduler.run_for(5)
    client.bird_start("uni-a")
    scheduler.run_for(10)
    record = hub.station.peers["exp:exp"]
    assert record.ups == 2
    assert record.downs >= 1
    assert record.state == "up"
