"""``peering verify`` CLI tests: the §6e checkers over a live platform."""

import pytest

from repro.toolkit import ExperimentClient, ToolkitCli
from tests.conftest import approve_experiment


@pytest.fixture
def cli(small_world):
    scheduler, platform, internet = small_world
    approve_experiment(platform, "exp")
    client = ExperimentClient(scheduler, "exp", platform)
    for pop in platform.pops:
        client.openvpn_up(pop)
        client.bird_start(pop)
    scheduler.run_for(10)
    return ToolkitCli(client)


def test_verify_usage_listed(cli):
    assert "peering verify" in cli.run("peering bogus")


def test_verify_invariants_live_platform(cli):
    out = cli.run("peering verify invariants")
    for name in (
        "vmac_bijectivity",
        "addpath_completeness",
        "community_propagation",
        "no_cross_experiment_leakage",
        "kernel_consistency",
    ):
        assert f"{name}: ok" in out, out
    assert "VIOLATED" not in out


def test_verify_invariants_subset(cli):
    out = cli.run("peering verify invariants kernel_consistency")
    assert out.startswith("kernel_consistency: ok")
    assert "vmac_bijectivity" not in out


def test_verify_invariants_unknown_name(cli):
    out = cli.run("peering verify invariants bogus")
    assert out.startswith("error:")
    assert "unknown invariant" in out


def test_verify_codec(cli):
    out = cli.run("peering verify codec --frames 400 --seed 9")
    assert "-> OK" in out
    assert "corpus replays" in out


def test_verify_differential_small(cli):
    # The CLI sweeps the whole LPM lattice (2**1 = 2 runs).
    out = cli.run("peering verify differential --updates 40")
    assert "differential: ok" in out
    assert "2 flag combinations" in out


def test_verify_differential_fulltable_workload(cli):
    out = cli.run(
        "peering verify differential --updates 30 --prefixes 300 "
        "--workload fulltable"
    )
    assert "differential: ok" in out
    assert "2 flag combinations" in out
    assert "workload=fulltable" in out


def test_verify_usage_mentions_workload(cli):
    out = cli.run("peering bogus")
    assert "--workload" in out
    assert "fulltable" in out


def test_verify_differential_unknown_workload(cli):
    out = cli.run("peering verify differential --workload bogus")
    assert out.startswith("error:")
    assert "unknown workload" in out


def test_verify_option_missing_value(cli):
    for option in ("--workload", "--updates"):
        out = cli.run(f"peering verify differential {option}")
        assert out == f"error: {option} requires a value"


@pytest.mark.parametrize("command, token", [
    ("differential --subsample 4", "--subsample"),
    ("differential --shards 4", "--shards"),
    ("differential --update 40", "--update"),
    ("codec --frame 10", "--frame"),
    ("all --bogus", "--bogus"),
], ids=["retired-subsample", "retired-shards", "typo-update", "typo-frame",
        "all-bogus"])
def test_verify_rejects_unknown_option(cli, command, token):
    """A mistyped or retired option is a usage error, not a silent run
    of the default budget."""
    output, status = cli.run_with_status(f"peering verify {command}")
    assert output == f"error: unknown option {token}"
    assert status == 2
