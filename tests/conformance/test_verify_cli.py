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
    # The CLI defaults to the curated 16-combination lattice subsample
    # (the full lattice is 2**8 = 256 runs; --subsample 0 requests it).
    out = cli.run("peering verify differential --updates 40")
    assert "differential: ok" in out
    assert "16 flag combinations" in out


def test_verify_differential_subsample_option(cli):
    out = cli.run("peering verify differential --updates 40 --subsample 12")
    assert "differential: ok" in out
    assert "12 flag combinations" in out


def test_verify_differential_fulltable_workload(cli):
    out = cli.run(
        "peering verify differential --updates 30 --prefixes 300 "
        "--workload fulltable --subsample 11"
    )
    assert "differential: ok" in out
    assert "11 flag combinations" in out
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
    for option in ("--workload", "--updates", "--subsample"):
        out = cli.run(f"peering verify differential {option}")
        assert out == f"error: {option} requires a value"
