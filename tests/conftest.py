"""Shared fixtures: schedulers, a small platform, a platform + Internet."""

from __future__ import annotations

import pytest

from repro.internet import InternetConfig, build_internet
from repro.platform import PeeringPlatform, PopConfig
from repro.platform.experiment import ExperimentProposal
from repro.sim import Scheduler
from repro.toolkit import ExperimentClient


@pytest.fixture
def scheduler() -> Scheduler:
    return Scheduler()


@pytest.fixture(autouse=True)
def _no_leaked_sockets():
    """ISSUE 10: zero leaked transport sockets after every test.

    Any test that opens a ``SocketChannel`` / ``SocketListener`` must
    close it (directly or by tearing down its poller/fleet).  The guard
    sweeps stragglers so one offender cannot starve later tests of FDs,
    then fails the offending test by name.
    """
    from repro.bgp.transport import close_all_sockets, open_socket_count

    yield
    leaked = open_socket_count()
    if leaked:
        close_all_sockets()
        pytest.fail(
            f"{leaked} transport socket(s) leaked by this test "
            "(channel/listener not closed)"
        )


@pytest.fixture(autouse=True)
def _no_leaked_fleet_processes():
    """ISSUE 10: zero leaked per-PoP fleet processes after every test."""
    from repro.fleet.controller import (
        live_fleet_process_count,
        shutdown_all_fleets,
    )

    yield
    leaked = live_fleet_process_count()
    if leaked:
        shutdown_all_fleets()
        pytest.fail(
            f"{leaked} fleet PoP process(es) leaked by this test "
            "(controller not shut down)"
        )


def small_pop_configs() -> list[PopConfig]:
    """Two university + one IXP PoPs, all on the backbone."""
    return [
        PopConfig(name="uni-a", pop_id=0, kind="university", backbone=True),
        PopConfig(name="uni-b", pop_id=1, kind="university", backbone=True),
        PopConfig(name="ix-c", pop_id=2, kind="ixp", backbone=True),
    ]


@pytest.fixture
def small_platform(scheduler: Scheduler) -> PeeringPlatform:
    return PeeringPlatform(scheduler, pop_configs=small_pop_configs())


@pytest.fixture
def small_world(scheduler: Scheduler):
    """Platform + synthetic Internet, converged."""
    platform = PeeringPlatform(scheduler, pop_configs=small_pop_configs())
    internet = build_internet(
        scheduler,
        platform,
        InternetConfig(n_tier1=2, n_transit=3, n_stub=5,
                       ixp_members_per_ixp=3, with_looking_glass=False),
    )
    scheduler.run_for(30)
    return scheduler, platform, internet


def approve_experiment(platform: PeeringPlatform, name: str = "exp",
                       **kwargs) -> None:
    proposal = ExperimentProposal(
        name=name,
        contact="tester@example.edu",
        goals="reproduction test",
        execution_plan="announce, observe, measure",
        **kwargs,
    )
    decision, reason = platform.submit_proposal(proposal)
    assert decision.value == "approve", reason


@pytest.fixture
def connected_client(small_world):
    """An approved experiment connected at all three PoPs, with BGP up."""
    scheduler, platform, internet = small_world
    approve_experiment(platform, "exp")
    client = ExperimentClient(scheduler, "exp", platform)
    for pop in platform.pops:
        client.openvpn_up(pop)
        client.bird_start(pop)
    scheduler.run_for(10)
    return scheduler, platform, internet, client
