"""FleetController: launch, RPC, kill/restart, teardown — real processes."""

import time

import pytest

from repro.fleet.compiler import compile_world
from repro.fleet.controller import (
    FleetController,
    fleet_down,
    fleet_status,
    live_fleet_process_count,
)
from repro.fleet.spec import demo_world_spec


@pytest.fixture
def fleet(tmp_path):
    return compile_world(
        demo_world_spec(pops=2, port_base=24600), tmp_path)


def test_up_hello_status_down(fleet):
    controller = FleetController(fleet)
    try:
        controller.up()
        assert live_fleet_process_count() >= 2
        for name in fleet.pop_names():
            hello = controller.clients[name].call("hello")
            assert hello["pop"] == name
            assert hello["digest"] == fleet.digest
        status = controller.status()
        assert all(row["running"] for row in status.values())
        # The stateless helpers see the same fleet via state.json.
        stateless = fleet_status(fleet)
        assert all(row["running"] for row in stateless.values())
    finally:
        controller.down()
    assert live_fleet_process_count() == 0
    assert not (fleet.directory / "state.json").exists()


def test_kill_and_restart_pop(fleet):
    controller = FleetController(fleet)
    try:
        controller.up()
        victim = fleet.pop_names()[0]
        pid = controller.processes[victim].pid
        controller.kill_pop(victim)
        assert controller.processes[victim].poll() is not None
        client = controller.restart_pop(victim)
        assert controller.processes[victim].pid != pid
        assert client.call("hello")["digest"] == fleet.digest
    finally:
        controller.down()


def test_wait_ready_rejects_wrong_digest(fleet, tmp_path):
    other = compile_world(
        demo_world_spec(pops=2, name="other", port_base=24600),
        tmp_path / "other")
    assert other.digest != fleet.digest
    controller = FleetController(fleet)
    impostor = FleetController(other)
    try:
        controller.launch_pop(fleet.pop_names()[0])
        with pytest.raises(RuntimeError, match="digest"):
            # Same control port (same port_base), different world.
            impostor.wait_ready(other.pop_names()[0])
    finally:
        impostor.close()
        controller.down()


def test_stateless_down_stops_an_orphaned_fleet(fleet):
    controller = FleetController(fleet)
    controller.up()
    # Drop the controller's sockets but leave the processes running —
    # the crashed-operator case the stateless CLI path exists for.
    controller.close()
    assert live_fleet_process_count() == 2
    # The PoPs are this process's children: once they obey ``stop`` they
    # must be reaped, not waited on as zombies until the kill deadline.
    start = time.monotonic()
    outcome = fleet_down(fleet)
    assert time.monotonic() - start < 5.0
    assert outcome == {name: "stopped" for name in fleet.pop_names()}
    assert live_fleet_process_count() == 0


def test_federation_receives_events(fleet):
    controller = FleetController(fleet)
    try:
        controller.up()
        deadline = time.monotonic() + 10
        # The two members' backbone peering alone produces peer-up BMP
        # events on the federation feed; pump until they arrive and the
        # central station has seen peers from both PoPs.
        while True:
            controller.poller.pump(0.05)
            peers = controller.station.peer_names()
            pops_seen = {name.split("/", 1)[0] for name in peers}
            if (controller.federation_events > 0
                    and pops_seen >= set(fleet.pop_names())):
                break
            if time.monotonic() > deadline:
                pytest.fail(
                    f"federation feed incomplete: {sorted(peers)}")
    finally:
        controller.down()
