"""``peering intent`` CLI surface and the shared exit-code convention."""

import re

from repro.bgp.policy import export_transform
from repro.toolkit import ToolkitCli
from repro.vbgp.node import VbgpNode


def _cli(intent_world):
    neighbors = intent_world.neighbors
    return ToolkitCli(
        intent_world.clients["alpha"],
        neighbor_speakers={
            name: handle.speaker for name, handle in neighbors.items()
        },
        neighbor_pops={name: handle.pop for name, handle in neighbors.items()},
    )


def _spare(intent_world) -> str:
    return str(intent_world.clients["alpha"].profile.prefixes[1])


def test_usage_and_unknown_commands_exit_2(intent_world):
    toolkit = _cli(intent_world)
    for command in ("peering intent", "peering intent bogus",
                    "peering bogus", "peering intent revert"):
        _out, status = toolkit.run_with_status(command)
        assert status == 2, command


def test_usage_documents_the_exit_code_convention(intent_world):
    toolkit = _cli(intent_world)
    usage = toolkit.run("peering")
    assert "exit codes" in usage
    assert "0  clean" in usage
    assert "1  breach" in usage
    assert "2  usage" in usage
    for sub in ("intent op", "intent plan", "intent diff",
                "intent apply", "intent history"):
        assert sub in usage


def test_op_accumulation_show_and_clear(intent_world):
    toolkit = _cli(intent_world)
    out, status = toolkit.run_with_status(
        f"peering intent op announce {_spare(intent_world)} -m west"
    )
    assert status == 0
    assert "op 1" in out
    out = toolkit.run("peering intent show")
    assert _spare(intent_world) in out
    out, status = toolkit.run_with_status("peering intent clear")
    assert status == 0
    assert "cleared 1" in out
    assert _spare(intent_world) not in toolkit.run("peering intent show")


def test_clean_plan_apply_history_exit_0(intent_world):
    toolkit = _cli(intent_world)
    toolkit.run(f"peering intent op announce {_spare(intent_world)} -m west")
    out, status = toolkit.run_with_status("peering intent diff")
    assert status == 0
    assert "west/transit-west" in out

    out, status = toolkit.run_with_status("peering intent plan")
    assert status == 0
    assert "intent-" in out

    out, status = toolkit.run_with_status("peering intent apply")
    assert status == 0
    assert "committed" in out

    out, status = toolkit.run_with_status("peering intent history")
    assert status == 0
    assert "committed" in out

    # run() remains the compatible single-string entry point; the last
    # status stays readable on .exit_code.
    toolkit.run("peering intent history")
    assert toolkit.exit_code == 0


def test_breaching_plan_exits_1(intent_world):
    toolkit = _cli(intent_world)
    toolkit.run("peering intent op announce 8.8.8.0/24 -m west")
    out, status = toolkit.run_with_status("peering intent plan")
    assert status == 1
    assert "not owned" in out or "reject" in out

    # Unforced apply of the breaching plan: rejected, exit 1.
    out, status = toolkit.run_with_status("peering intent apply")
    assert status == 1
    assert "rejected" in out


def test_forced_apply_auto_reverts_and_exits_1(intent_world):
    toolkit = _cli(intent_world)
    toolkit.run("peering intent op announce 8.8.8.0/24 -m west")
    toolkit.run("peering intent plan")
    out, status = toolkit.run_with_status("peering intent apply --force")
    assert status == 1
    assert "reverted" in out


def test_verify_shares_the_convention(intent_world):
    toolkit = _cli(intent_world)
    _out, status = toolkit.run_with_status("peering verify invariants")
    assert status == 0


def test_plan_checks_the_real_neighbors(intent_world):
    toolkit = _cli(intent_world)
    toolkit.run(f"peering intent op announce {_spare(intent_world)} -m west")
    out, status = toolkit.run_with_status("peering intent plan")
    assert status == 0
    checked = re.search(
        r"invariant community_propagation: ok \(checked=(\d+)\)", out)
    assert checked is not None and int(checked.group(1)) > 0


def test_plan_flags_a_leak_at_a_neighbor(intent_world, monkeypatch):
    # An export step that forgets to consume control communities: only
    # the neighbor speakers see the leak.
    def leaky(self, route):
        return export_transform(
            route, asn=self.platform_asn,
            next_hop=self._upstream_address(), path_id=None,
            drop_community=lambda _community: False,
        )

    monkeypatch.setattr(VbgpNode, "export_transform", leaky)
    toolkit = _cli(intent_world)
    toolkit.run(f"peering intent op announce {_spare(intent_world)} "
                "-m west -c 47065:10000")
    out, status = toolkit.run_with_status("peering intent plan")
    assert status == 1
    assert "invariant community_propagation: VIOLATED" in out
    assert "leaks control communities 47065:10000" in out
