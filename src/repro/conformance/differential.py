"""Differential correctness of the :mod:`repro.perf` LPM fast paths.

Toggling an LPM acceleration must change *speed, never results*.  This
module turns that promise into a machine-checked property:
:class:`DifferentialHarness` replays one seeded churn workload — plus two
experiment-announcement checkpoints exercising the §3.2.1 control
communities — through **every** combination of the LPM toggles (2**1 = 2
runs) and compares each run against the all-flags-off reference:

* the experiment client's Loc-RIB (every candidate path + the best
  path, per prefix),
* the external upstream speaker's Loc-RIB (what the Internet sees),
* the vBGP node's per-neighbor Adj-RIB-In and the kernel routing
  tables (the §5 table-per-neighbor state),
* the node's route-churn counters,
* the decoded per-route change stream in both directions, and
* the *announced wire bytes* in both directions.

The control-plane fast paths (encode memos, fan-out batching, the
columnar Loc-RIB, the incremental best path, the zero-copy encode) have
no toggle; their oracles live under ``tests/``.  The same scenario runner
backs the cross-commit wire pin (``tests/conformance/test_wire_pin.py``).

Everything is canonicalised to bytes through
:mod:`repro.conformance.state` before comparison, so a report's
``mismatches`` genuinely means "the fast path computed something
different", not "a set iterated in a different order".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import perf
from repro.bgp.attributes import local_route
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.conformance.state import (
    WireTap,
    changes_from_frames,
    pop_view,
    speaker_view,
)
from repro.internet.churn import AMSIX_PROFILE, ChurnGenerator
from repro.internet.fulltable import FullTableGenerator
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.capabilities import ExperimentProfile
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry
from repro.vbgp.communities import announce_to_neighbor, block_neighbor

__all__ = [
    "DifferentialHarness",
    "DifferentialReport",
    "all_flag_combinations",
]

#: The boolean LPM toggles (``lpm_cache_size`` is a tuning knob, not a
#: behaviour switch, and stays at its default).
TOGGLES: Tuple[str, ...] = ("lpm_cache",)

PLATFORM_ASN = 47065
UPSTREAM_ASN = 65010
EXPERIMENT_PREFIX = "184.164.224.0/24"
TUNNEL_IP = "100.125.0.2"
TUNNEL_MAC = "02:aa:00:00:00:02"


def all_flag_combinations() -> List[Dict[str, bool]]:
    """Every LPM-toggle combination, the all-off reference first."""
    combos = []
    for values in itertools.product((False, True), repeat=len(TOGGLES)):
        combos.append(dict(zip(TOGGLES, values)))
    return combos


def combo_label(combo: Dict[str, bool]) -> str:
    on = [name for name in TOGGLES if combo.get(name)]
    return "+".join(on) if on else "all_off"


# ---------------------------------------------------------------------------
# The scenario (one run under one flag combination)
# ---------------------------------------------------------------------------


@dataclass
class _RunResult:
    """Everything one scenario run produced, canonicalised."""

    structural: bytes  # must match the reference byte-for-byte
    changes_to_experiment: bytes  # decoded change stream, order-free
    changes_to_upstream: bytes
    wire_to_experiment: bytes  # raw frames
    wire_to_upstream: bytes


#: Every ``_RunResult`` field, with what it means in a mismatch line.
_COMPARED: Tuple[Tuple[str, str], ...] = (
    ("structural", "Loc-RIB/kernel/counter state"),
    ("changes_to_experiment", "decoded route changes toward the experiment"),
    ("changes_to_upstream", "decoded route changes toward the upstream"),
    ("wire_to_experiment", "experiment-bound wire bytes"),
    ("wire_to_upstream", "upstream-bound wire bytes"),
)


@dataclass
class DifferentialReport:
    """Outcome of a full differential sweep."""

    combinations: int = 0
    updates: int = 0
    workload: str = "churn"  # "churn" | "fulltable"
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def format(self) -> str:
        verdict = "ok" if self.ok else "DIVERGED"
        line = (
            f"differential: {verdict} ({self.combinations} flag "
            f"combinations x {self.updates} updates)"
        )
        if self.workload != "churn":
            line += f" [workload={self.workload}]"
        if self.mismatches:
            line += "\n" + "\n".join(
                f"  - {mismatch}" for mismatch in self.mismatches
            )
        return line


class DifferentialHarness:
    """Replays one workload under every LPM-flag combination.

    ``update_count`` sizes the churn workload (the CI gate uses 5000);
    ``seed`` makes the workload reproducible.  :meth:`run` returns a
    :class:`DifferentialReport`; a non-empty ``mismatches`` list means a
    fast path changed functional output.

    ``workload`` selects the replayed stream: ``"churn"`` (the default,
    a seeded AMS-IX-shaped update process over ``prefix_count``
    prefixes) or ``"fulltable"`` (a ``prefix_count``-prefix DFZ-shaped
    table load followed by ``update_count`` churn-tail events — the
    full-table scale the §6g RIB engine exists for).
    """

    def __init__(self, update_count: int = 5000, seed: int = 20260806,
                 prefix_count: int = 5000,
                 workload: str = "churn") -> None:
        if workload not in ("churn", "fulltable"):
            raise ValueError(f"unknown workload: {workload!r}")
        self.update_count = update_count
        self.seed = seed
        self.prefix_count = prefix_count
        self.workload = workload

    # -- scenario ----------------------------------------------------------

    def _run_scenario(self) -> _RunResult:
        scheduler = Scheduler()
        pop = PointOfPresence(
            scheduler,
            PopConfig(name="diff", pop_id=0, kind="ixp"),
            platform_asn=PLATFORM_ASN,
            platform_asns=frozenset({PLATFORM_ASN}),
            registry=GlobalNeighborRegistry(),
            enforcer_state=EnforcerState(),
        )
        port = pop.provision_neighbor("upstream", UPSTREAM_ASN, kind="peer")

        # The external AS at the far end of the upstream session, so
        # experiment exports land in a real Loc-RIB and on a real wire.
        upstream = BgpSpeaker(
            scheduler,
            SpeakerConfig(asn=UPSTREAM_ASN, router_id=port.address),
        )
        upstream.attach_neighbor(
            NeighborConfig(
                name="to-pop",
                peer_asn=None,
                local_address=port.address,
            ),
            port.channel,
        )
        upstream_tap = WireTap(port.channel)

        # The experiment: an ADD-PATH client speaker behind the tunnel.
        from repro.bgp.transport import connect_pair

        ours, theirs = connect_pair(scheduler, rtt=0.001)
        exp_prefix = IPv4Prefix.parse(EXPERIMENT_PREFIX)
        tunnel_ip = IPv4Address.parse(TUNNEL_IP)
        pop.node.attach_experiment(
            name="x",
            asn=PLATFORM_ASN,
            prefixes=(exp_prefix,),
            tunnel_ip=tunnel_ip,
            tunnel_mac=MacAddress.parse(TUNNEL_MAC),
            channel=ours,
        )
        pop.control_enforcer.register_experiment(ExperimentProfile(
            name="x",
            asns=frozenset({PLATFORM_ASN}),
            prefixes=(exp_prefix,),
        ))
        client = BgpSpeaker(
            scheduler,
            SpeakerConfig(asn=PLATFORM_ASN, router_id=tunnel_ip),
        )
        client.allow_own_asn_in = True  # churn AS paths may contain 47065
        client.attach_neighbor(
            NeighborConfig(
                name="to-pop",
                peer_asn=None,
                local_address=tunnel_ip,
                addpath=True,
            ),
            theirs,
        )
        client_tap = WireTap(theirs)
        scheduler.run_for(5)

        # Workload: a seeded update stream with two announcement
        # checkpoints that flip the §3.2.1 whitelist/blacklist behaviour
        # mid-stream.  For "churn" that is the AMS-IX-shaped process; for
        # "fulltable" the full DFZ-shaped table load plus a churn tail.
        if self.workload == "fulltable":
            generator = FullTableGenerator(
                prefix_count=self.prefix_count, seed=self.seed
            )
            updates = list(generator.table_updates())
            updates.extend(generator.churn(self.update_count))
        else:
            generator = ChurnGenerator(
                AMSIX_PROFILE, prefix_count=self.prefix_count, seed=self.seed
            )
            updates = generator.make_updates(self.update_count)
        gid = pop.node.upstreams["upstream"].virtual.global_id
        checkpoints = {
            len(updates) // 3: (announce_to_neighbor(gid),),
            (2 * len(updates)) // 3: (block_neighbor(gid),),
        }
        for index, update in enumerate(updates):
            communities = checkpoints.get(index)
            if communities is not None:
                client.originate(local_route(
                    exp_prefix, next_hop=tunnel_ip,
                    communities=communities,
                ))
            pop.node._upstream_update("upstream", update)
            scheduler.run_until(scheduler.now)
        scheduler.run_for(5)

        view = pop_view(pop)
        counters = pop.node.counters
        structural = (
            ("client_loc_rib", speaker_view(client)),
            ("upstream_loc_rib", speaker_view(upstream)),
            ("adj_rib_in", view.upstreams["upstream"]),
            ("kernel", list(view.kernel.items())),
            ("installed", counters["routes_installed"]),
            ("removed", counters["routes_removed"]),
        )
        to_exp = changes_from_frames(client_tap.frames, addpath=True)
        to_up = changes_from_frames(upstream_tap.frames, addpath=False)
        return _RunResult(
            structural=repr(structural).encode(),
            changes_to_experiment=repr(sorted(to_exp)).encode(),
            changes_to_upstream=repr(sorted(to_up)).encode(),
            wire_to_experiment=b"".join(client_tap.frames),
            wire_to_upstream=b"".join(upstream_tap.frames),
        )

    # -- sweep -------------------------------------------------------------

    def run(self, combinations: Optional[List[Dict[str, bool]]] = None,
            progress=None) -> DifferentialReport:
        """Run the sweep; ``progress(label)`` is called per combination.

        ``combinations`` defaults to all ``2**len(TOGGLES)``, all-off
        first; the first one is the reference the others are compared
        against on every ``_RunResult`` field.
        """
        combos = (all_flag_combinations() if combinations is None
                  else list(combinations))
        report = DifferentialReport(
            combinations=len(combos), updates=self.update_count,
            workload=self.workload,
        )
        reference: Optional[Tuple[str, _RunResult]] = None
        for combo in combos:
            label = combo_label(combo)
            if progress is not None:
                progress(label)
            with perf.flags(**combo):
                result = self._run_scenario()
            if reference is None:
                reference = (label, result)
                continue
            anchor_label, anchor = reference
            for attribute, what in _COMPARED:
                if getattr(result, attribute) != getattr(anchor, attribute):
                    report.mismatches.append(
                        f"{label}: {what} diverged from {anchor_label}"
                    )
        return report
