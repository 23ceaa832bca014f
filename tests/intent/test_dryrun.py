"""DryRunEvaluator: determinism, no live mutation, predicted diffs."""

import os

import pytest

from repro.intent import (
    ChangeSet,
    announce_op,
    connect_op,
    disconnect_op,
    set_communities_op,
    withdraw_op,
)
from repro.intent import dryrun
from repro.intent.dryrun import export_state


def _changeset(*ops):
    return ChangeSet(name="t", ops=tuple(ops))


def spare_prefix(world):
    return str(world.clients["alpha"].profile.prefixes[1])


def test_consecutive_plans_are_byte_identical(intent_world):
    """The dry-run determinism property: same state, same bytes."""
    controller = intent_world.controller
    changeset = _changeset(
        announce_op("alpha", spare_prefix(intent_world), pops=("west",),
                    communities=("47065:10001",)),
        withdraw_op(
            "alpha", str(intent_world.clients["alpha"].profile.prefixes[0])
        ),
    )
    first = controller.evaluator.evaluate(changeset)
    second = controller.evaluator.evaluate(changeset)
    assert first.to_bytes() == second.to_bytes()


def test_evaluate_does_not_touch_the_live_platform(intent_world):
    controller = intent_world.controller
    before_fp = controller._fingerprint()
    before_checked = {
        name: pop.control_enforcer.routes_checked
        for name, pop in intent_world.platform.pops.items()
    }
    report = controller.evaluator.evaluate(_changeset(
        announce_op("alpha", spare_prefix(intent_world)),
        announce_op("alpha", "8.8.8.0/24"),  # rejected, still no mutation
    ))
    assert report.rejections  # the hijack was predicted as rejected
    assert controller._fingerprint() == before_fp
    for name, pop in intent_world.platform.pops.items():
        assert pop.control_enforcer.routes_checked == before_checked[name]
        assert not pop.control_enforcer.violations


def test_plain_announce_predicts_local_export_only(intent_world):
    report = intent_world.controller.evaluator.evaluate(_changeset(
        announce_op("alpha", spare_prefix(intent_world), pops=("west",)),
    ))
    assert report.ok
    assert report.changed_neighbors() == ["west/transit-west"]
    diff = report.diffs["west/transit-west"]
    assert [c.prefix for c in diff.added] == [spare_prefix(intent_world)]
    assert diff.wire_delta > 0
    assert report.diffs["east/transit-east"].is_empty()


def test_whitelist_community_predicts_remote_export(intent_world):
    """47065:10001 whitelists PoP 1 (east): the announcement made at
    west must exit only through the east transit, via the backbone."""
    report = intent_world.controller.evaluator.evaluate(_changeset(
        announce_op("alpha", spare_prefix(intent_world), pops=("west",),
                    communities=("47065:10001",)),
    ))
    assert report.ok
    assert report.changed_neighbors() == ["east/transit-east"]
    added = report.diffs["east/transit-east"].added
    assert [c.prefix for c in added] == [spare_prefix(intent_world)]
    # Control communities are consumed on export, never leaked.
    assert all("47065" not in c for c in added[0].communities)


def test_withdraw_predicts_removals_everywhere(intent_world):
    announced = str(intent_world.clients["alpha"].profile.prefixes[0])
    report = intent_world.controller.evaluator.evaluate(_changeset(
        withdraw_op("alpha", announced),
    ))
    assert report.ok
    assert report.changed_neighbors() == [
        "east/transit-east", "west/transit-west"
    ]
    for name in report.changed_neighbors():
        diff = report.diffs[name]
        assert [c.prefix for c in diff.removed] == [announced]
        assert diff.wire_delta < 0


def test_set_communities_predicts_changed_route(intent_world):
    announced = str(intent_world.clients["alpha"].profile.prefixes[0])
    report = intent_world.controller.evaluator.evaluate(_changeset(
        set_communities_op("alpha", announced, ("65000:42",)),
    ))
    assert report.ok
    diff = report.diffs["west/transit-west"]
    assert [c.prefix for c in diff.changed] == [announced]
    assert diff.changed[0].communities_added == ("65000:42",)


def test_set_communities_requires_existing_announcement(intent_world):
    report = intent_world.controller.evaluator.evaluate(_changeset(
        set_communities_op("alpha", spare_prefix(intent_world),
                           ("65000:42",)),
    ))
    assert not report.ok
    assert any("not announced" in r for r in report.rejections)


def test_disconnect_predicts_export_removal(intent_world):
    announced = str(intent_world.clients["alpha"].profile.prefixes[0])
    report = intent_world.controller.evaluator.evaluate(_changeset(
        disconnect_op("alpha", "west"),
    ))
    assert report.ok
    west = report.diffs["west/transit-west"]
    assert [c.prefix for c in west.removed] == [announced]
    # Still announced at east: no change there.
    assert report.diffs["east/transit-east"].is_empty()


def test_rejections_for_bad_targets(intent_world):
    evaluator = intent_world.controller.evaluator
    # Not connected at that PoP.
    report = evaluator.evaluate(_changeset(
        announce_op("beta", str(
            intent_world.clients["beta"].profile.prefixes[0]
        ), pops=("east",)),
    ))
    assert any("not connected" in r for r in report.rejections)
    # Unknown experiment.
    report = evaluator.evaluate(_changeset(
        announce_op("ghost", "184.164.224.0/24"),
    ))
    assert any("no connected client" in r for r in report.rejections)
    # Announce over a session this very ChangeSet is bringing up.
    report = evaluator.evaluate(_changeset(
        connect_op("beta", "east"),
        announce_op("beta", str(
            intent_world.clients["beta"].profile.prefixes[0]
        ), pops=("east",)),
    ))
    assert any("split into two ChangeSets" in r for r in report.rejections)
    # Connecting an already-connected PoP would raise live.
    report = evaluator.evaluate(_changeset(connect_op("alpha", "west")))
    assert any("already up" in r for r in report.rejections)


def test_rate_limit_budget_accumulates_within_changeset(intent_world):
    limit = intent_world.platform.enforcer_state.per_pop_limit
    prefix = spare_prefix(intent_world)
    ops = tuple(
        announce_op("alpha", prefix, pops=("west",))
        for _ in range(limit + 1)
    )
    report = intent_world.controller.evaluator.evaluate(_changeset(*ops))
    assert any("rate limit" in r for r in report.rejections)
    # One fewer op fits the budget.
    report = intent_world.controller.evaluator.evaluate(
        _changeset(*ops[:limit])
    )
    assert report.ok


def test_empty_changeset_predicts_nothing(intent_world):
    report = intent_world.controller.evaluator.evaluate(ChangeSet(name="e"))
    assert report.ok
    assert report.changed_neighbors() == []
    assert all(r.ok for r in report.invariants.values())


@pytest.mark.parametrize("whitelist", (False, True))
def test_withdraw_and_reannounce_predicts_what_apply_does(intent_world,
                                                          whitelist):
    """Withdrawing a prefix and announcing it again at the same PoP gives
    its mesh path a new id.  Whitelisted to east (and withdrawn there),
    it exits at east over that new id.  Either way the plan is what
    ``apply`` then does: the observed change of the node's export view
    is the predicted diff, and no prediction breach is raised."""
    world = intent_world
    controller = world.controller
    prefix = str(world.clients["alpha"].profile.prefixes[0])
    plan = controller.plan(_changeset(
        withdraw_op("alpha", prefix, pops=() if whitelist else ("west",)),
        announce_op("alpha", prefix, pops=("west",),
                    communities=("47065:10001",) if whitelist else ()),
    ))
    assert plan.report.ok, plan.report.format()
    if whitelist:
        assert plan.report.changed_neighbors() == ["west/transit-west"]
        assert prefix in export_state(world.platform)["east/transit-east"]
    before = export_state(world.platform)
    assert controller.apply(plan).phase == "committed"
    assert controller._prediction_breaches(plan) == []
    observed = controller.evaluator._diff(before, export_state(world.platform))
    assert observed == plan.report.diffs


def _record_forks(monkeypatch) -> list:
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(dryrun.os, "fork", recording_fork)
    return pids


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_exception_in_the_child_is_a_staging_failure(intent_world,
                                                     monkeypatch):
    controller = intent_world.controller
    before = controller._fingerprint()
    pids = _record_forks(monkeypatch)
    fds = _open_fds()

    def broken_announce(*_args, **_kwargs):
        raise RuntimeError("announce blew up")

    monkeypatch.setattr(intent_world.clients["alpha"], "announce",
                        broken_announce)
    report = controller.evaluator.evaluate(_changeset(
        announce_op("alpha", spare_prefix(intent_world), pops=("west",)),
    ))
    assert report.rejections == ["staging failed: announce blew up"]
    assert not report.ok
    assert report.changed_neighbors() == []
    monkeypatch.undo()
    assert controller._fingerprint() == before
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):  # reaped: no such child left
        os.waitpid(pids[0], os.WNOHANG)
    assert _open_fds() == fds  # both pipe ends closed


def test_child_that_dies_never_returns_into_the_caller(intent_world,
                                                       monkeypatch):
    """A ``BaseException`` in the child skips its reply; the child still
    leaves by ``os._exit`` rather than unwinding into this test run, and
    the parent reports the silent exit."""
    def exiting_announce(*_args, **_kwargs):
        raise SystemExit(3)

    monkeypatch.setattr(intent_world.clients["alpha"], "announce",
                        exiting_announce)
    pids = _record_forks(monkeypatch)
    report = intent_world.controller.evaluator.evaluate(_changeset(
        announce_op("alpha", spare_prefix(intent_world), pops=("west",)),
    ))
    assert len(report.rejections) == 1
    assert report.rejections[0].startswith("staging failed: the dry-run "
                                           "child exited")
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)
