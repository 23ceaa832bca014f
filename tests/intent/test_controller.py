"""IntentController: commit, auto-revert, snapshots, lifecycle events."""

import pytest

from repro.chaos.faults import ChannelFaultInjector
from repro.conformance.state import attr_fingerprint
from repro.netsim.addr import IPv4Prefix
from repro.intent import ChangeSet, announce_op, withdraw_op
from repro.telemetry.station import IntentEvent, RouteMonitoring

from tests.intent.conftest import build_intent_world


def _spare(world) -> str:
    return str(world.clients["alpha"].profile.prefixes[1])


def _benign(world) -> ChangeSet:
    return ChangeSet(name="benign", ops=(
        announce_op("alpha", _spare(world), pops=("west",)),
    ))


def _hijack() -> ChangeSet:
    return ChangeSet(name="hijack", ops=(
        announce_op("alpha", "8.8.8.0/24", pops=("west",)),
    ))


def test_benign_commit_matches_observed_bmp_stream(intent_world):
    """The committed plan's predicted export diff must match the change
    stream the BMP station observes at the neighbors — exactly."""
    world = intent_world
    plan = world.controller.plan(_benign(world))
    assert plan.report.ok
    predicted = plan.report.diffs["west/transit-west"]
    marker = len(world.telemetry.station.history)

    record = world.controller.apply(plan)
    assert record.phase == "committed"
    assert world.controller.phase(plan.intent_id) == "committed"

    observed = [
        msg for msg in list(world.telemetry.station.history)[marker:]
        if isinstance(msg, RouteMonitoring)
    ]
    by_peer: dict = {}
    for msg in observed:
        entry = by_peer.setdefault(msg.peer, {"announced": [], "wd": []})
        entry["announced"].extend(msg.announced)
        entry["wd"].extend(msg.withdrawn)

    west_key = world.neighbors["transit-west"].session_name
    east_key = world.neighbors["transit-east"].session_name
    # Only the predicted neighbor saw UPDATEs.
    assert east_key not in by_peer
    seen = by_peer[west_key]
    assert not seen["wd"]
    assert (
        sorted((str(r.prefix), attr_fingerprint(r.attributes))
               for r in seen["announced"])
        == sorted((c.prefix, c.fingerprint) for c in predicted.added)
    )


def test_lifecycle_events_reach_the_station(intent_world):
    world = intent_world
    plan = world.controller.plan(_benign(world))
    world.controller.apply(plan)
    phases = [
        msg.phase for msg in world.telemetry.station.history
        if isinstance(msg, IntentEvent)
        and msg.peer == f"intent:{plan.intent_id}"
    ]
    assert phases == ["planned", "applied", "committed"]
    assert plan.intent_id in world.controller.history_text()


def test_forced_breach_auto_reverts_to_exact_snapshot(intent_world):
    """The acceptance drill: an invariant-breaking ChangeSet is applied
    with force, breaches are detected live, and auto-revert restores a
    byte-identical platform fingerprint (Loc-RIBs, kernel tables,
    announced wire bytes)."""
    world = intent_world
    before = world.controller._fingerprint()
    plan = world.controller.plan(_hijack())
    assert not plan.report.ok

    record = world.controller.apply(plan, force=True)
    assert record.phase == "reverted"
    assert record.breaches
    assert record.revert_clean is True
    assert world.controller._fingerprint() == before
    # The hijack never leaked to a neighbor.
    hijacked = IPv4Prefix.parse("8.8.8.0/24")
    for handle in world.neighbors.values():
        assert handle.speaker.best_route(hijacked) is None


def test_unforced_breach_is_rejected_without_touching_platform(intent_world):
    world = intent_world
    before = world.controller._fingerprint()
    plan = world.controller.plan(_hijack())
    record = world.controller.apply(plan)
    assert record.phase == "rejected"
    assert world.controller._fingerprint() == before
    with pytest.raises(ValueError, match="rejected"):
        world.controller.apply(plan)


def test_empty_changeset_is_a_noop_commit(intent_world):
    world = intent_world
    before = world.controller._fingerprint()
    record = world.controller.apply(
        world.controller.plan(ChangeSet(name="noop"))
    )
    assert record.phase == "committed"
    assert "no-op" in record.detail
    assert world.controller._fingerprint() == before


def test_apply_is_single_shot(intent_world):
    world = intent_world
    plan = world.controller.plan(_benign(world))
    assert world.controller.apply(plan).phase == "committed"
    with pytest.raises(ValueError, match="committed"):
        world.controller.apply(plan)


def test_apply_with_dead_client_session_reverts(intent_world):
    """Staging over a torn-down BGP session fails; the transaction
    reverts instead of leaving a half-applied ChangeSet behind."""
    world = intent_world
    plan = world.controller.plan(_benign(world))
    world.clients["alpha"].bird_stop("west")
    world.scheduler.run_for(5)

    record = world.controller.apply(plan)
    assert record.phase == "reverted"
    assert any("staging failed" in b for b in record.breaches)
    assert record.revert_clean is True
    assert _spare(world) not in {
        str(p) for p in world.clients["alpha"].pops["west"].announced
    }


def test_neighbor_fault_mid_apply_reverts(intent_world):
    """A neighbor that stops hearing us mid-apply turns the predicted
    export diff into a breach; auto-revert restores the pre-plan state
    once the fault heals."""
    world = intent_world
    before = world.controller._fingerprint()
    plan = world.controller.plan(_benign(world))
    fault = ChannelFaultInjector(
        world.scheduler, world.neighbors["transit-west"].port.channel,
        drop=1.0, label="dead-neighbor",
    )
    fault.inject()
    record = world.controller.apply(plan)
    assert record.phase == "reverted"
    assert record.breaches
    fault.heal()
    world.scheduler.run_for(30)
    assert world.controller._fingerprint() == before


def test_operator_revert_and_double_revert_idempotency(intent_world):
    world = intent_world
    before = world.controller._fingerprint()
    plan = world.controller.plan(_benign(world))
    assert world.controller.apply(plan).phase == "committed"
    assert world.controller._fingerprint() != before

    first = world.controller.revert(plan)
    assert first.phase == "reverted"
    assert first.revert_clean is True
    assert world.controller._fingerprint() == before

    second = world.controller.revert(plan)
    assert "nothing to revert" in second.detail
    assert world.controller._fingerprint() == before


def test_withdraw_roundtrip_commits(intent_world):
    world = intent_world
    announced = world.clients["alpha"].profile.prefixes[0]
    plan = world.controller.plan(ChangeSet(name="wd", ops=(
        withdraw_op("alpha", str(announced)),
    )))
    record = world.controller.apply(plan)
    assert record.phase == "committed"
    for handle in world.neighbors.values():
        assert handle.speaker.best_route(announced) is None


def test_snapshot_correctness_under_perf_flags():
    """Snapshot/revert must hold with the columnar Loc-RIB every speaker
    uses (the state lives in packed per-prefix tuples)."""
    world = build_intent_world()
    before = world.controller._fingerprint()
    record = world.controller.apply(
        world.controller.plan(_hijack()), force=True
    )
    assert record.phase == "reverted"
    assert record.revert_clean is True
    assert world.controller._fingerprint() == before

    commit = world.controller.apply(world.controller.plan(_benign(world)))
    assert commit.phase == "committed"
    west = world.neighbors["transit-west"].speaker
    spare = world.clients["alpha"].profile.prefixes[1]
    assert west.best_route(spare) is not None
