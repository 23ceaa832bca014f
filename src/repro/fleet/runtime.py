"""Build one PoP from a compiled fleet artifact (DESIGN.md §6k).

:func:`build_fleet_pop` is the shared construction path of the fleet: the
per-PoP OS process (:mod:`repro.fleet.runpop`) and the in-process
reference leg of the fleet differential harness both call it, so "the
same PoP" means *the same code built it from the same artifact* — the
only difference between the legs is the transport under the BGP
sessions (loopback TCP vs in-memory channel pairs).

Everything nondeterministic about multi-process construction is resolved
here from the artifact's pinned values: global ids are preassigned into
the process-local registry, the backbone address is pinned rather than
counter-allocated, and upstream LAN addresses/MACs come from the
compiler.  Local VIPs are functions of the pinned gids; the node's
ADD-PATH id allocator stays untouched — it is a function of route
arrival order, which the fleet protocol makes identical across legs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bgp.transport import Channel
from repro.conformance.invariants import (
    ConformanceContext,
    community_export_expectations,
    run_invariants,
)
from repro.conformance.state import pop_view
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.platform.backbone import Backbone
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.capabilities import ExperimentProfile
from repro.security.state import EnforcerState
from repro.sim.scheduler import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry

__all__ = ["FleetPop", "LOCAL_INVARIANTS", "build_fleet_pop"]

#: The invariants a PoP can evaluate over its own state, without seeing
#: the driver's speakers (those run driver-side in the harness).
LOCAL_INVARIANTS = (
    "vmac_bijectivity",
    "addpath_completeness",
    "kernel_consistency",
    "no_withdrawal_loss_under_shed",
)


class FleetPop:
    """One artifact-built PoP plus its attachment/introspection surface.

    ``.pop``/``.node`` are the ordinary platform objects; the methods
    here are what the run-pop control protocol (and the reference leg)
    drive: attach a transport channel to a named upstream / experiment /
    backbone peer, snapshot canonical state, evaluate local invariants.
    """

    def __init__(self, scheduler: Scheduler, artifact: dict,
                 pop: PointOfPresence,
                 backbone: Optional[Backbone]) -> None:
        self.scheduler = scheduler
        self.artifact = artifact
        self.pop = pop
        self.backbone = backbone

    @property
    def node(self):
        return self.pop.node

    @property
    def name(self) -> str:
        return self.artifact["pop"]

    # -- attachment (channels come from sockets or connect_pair) ----------

    def attach_upstream_channel(self, name: str, channel: Channel) -> None:
        """Attach (or re-attach, when the driver re-dials) an upstream.

        First attach registers the neighbor with the artifact's pinned
        address/MAC/gid; a later attach rebuilds only the session on the
        new channel — Graceful Restart state and the Adj-RIB-In survive,
        which is what lets a crash-restarted driver connection recover
        the session without a withdraw storm.
        """
        endpoint = self.artifact["upstreams"][name]
        node = self.node
        existing = node.upstreams.get(name)
        if existing is None:
            node.attach_upstream(
                name=name,
                peer_asn=endpoint["asn"],
                peer_address=IPv4Address.parse(endpoint["address"]),
                peer_mac=MacAddress.parse(endpoint["mac"]),
                channel=channel,
                kind=endpoint["kind"],
                graceful_restart=True,
            )
            attached = node.upstreams[name]
            if attached.virtual.global_id != endpoint["gid"]:
                raise RuntimeError(
                    f"{self.name}/{name}: registry allocated gid "
                    f"{attached.virtual.global_id}, artifact pins "
                    f"{endpoint['gid']}"
                )
            return
        old = existing.session
        if old is not None:
            old.shutdown()
        session = node._upstream_session(existing, channel)
        session.start()

    def attach_experiment_channel(self, name: str, channel: Channel) -> None:
        """Attach an experiment client connection over its tunnel."""
        for entry in self.artifact["experiments"]:
            if entry["name"] == name:
                break
        else:
            raise KeyError(f"experiment {name!r} not at {self.name}")
        node = self.node
        existing = node.experiments.get(name)
        if existing is not None and existing.session is not None:
            # A re-dial replaces the transport; tearing down via the
            # node would withdraw the experiment's announcements, so
            # only the session is rebuilt.
            existing.session.shutdown()
            node.experiments.pop(name, None)
        node.attach_experiment(
            name=name,
            asn=self.artifact["platform_asn"],
            prefixes=(IPv4Prefix.parse(entry["prefix"]),),
            tunnel_ip=IPv4Address.parse(entry["tunnel_ip"]),
            tunnel_mac=MacAddress.parse(entry["tunnel_mac"]),
            channel=channel,
        )

    def attach_backbone_channel(self, peer: str, channel: Channel) -> None:
        """Join the backbone mesh with another PoP over ``channel``."""
        old = self.node.backbone_peers.get(peer)
        if old is not None:
            old.shutdown()
        self.node.attach_backbone_peer(peer, channel)

    # -- canonical state ---------------------------------------------------

    def structural_snapshot(self) -> str:
        """This PoP's :func:`~repro.conformance.state.pop_view` plus its
        install/remove counters, as a stable ``repr`` string."""
        counters = self.node.counters
        return repr((
            self.name,
            pop_view(self.pop),
            counters["routes_installed"],
            counters["routes_removed"],
        ))

    def local_invariants(self) -> Dict[str, dict]:
        """The invariant subset evaluable inside this process."""
        ctx = ConformanceContext(pops={self.name: self.pop})
        reports = run_invariants(ctx, LOCAL_INVARIANTS)
        return {name: report.as_dict() for name, report in reports.items()}

    def community_expectations(self) -> Dict[str, Optional[dict]]:
        """Per-upstream §3.2.1 export expectations (for the driver-side
        ``community_propagation`` check against its external speakers)."""
        out: Dict[str, Optional[dict]] = {}
        for name in sorted(self.node.upstreams):
            expectations = community_export_expectations(self.node, name)
            if expectations is None:
                out[name] = None
            else:
                out[name] = {
                    str(prefix): expected
                    for prefix, expected in expectations.items()
                }
        return out

    def summary(self) -> dict:
        node = self.node
        return {
            "pop": self.name,
            "upstreams": {
                name: bool(up.session is not None
                           and up.session.established)
                for name, up in node.upstreams.items()
            },
            "experiments": {
                name: bool(exp.session is not None
                           and exp.session.established)
                for name, exp in node.experiments.items()
            },
            "backbone_peers": {
                name: session.established
                for name, session in node.backbone_peers.items()
            },
            "remote_neighbors": len(node.remote_neighbors),
            "routes": len(node.known_routes()),
            "counters": dict(node.counters),
        }


def build_fleet_pop(scheduler: Scheduler, artifact: dict,
                    telemetry=None) -> FleetPop:
    """Construct one PoP from its compiled artifact.

    Order matters and is fixed: registry preassignment (so any attach
    order yields the pinned gids), then the platform objects, then the
    backbone interface (pinned address), then experiment security
    profiles.  Channels are attached afterwards by the caller — the
    run-pop process attaches accepted sockets, the reference leg
    attaches in-memory pairs.
    """
    registry = GlobalNeighborRegistry()
    for pop_name, upstream_name, gid in artifact["gids"]:
        registry.preassign(pop_name, upstream_name, gid)
    platform_asn = artifact["platform_asn"]
    config = PopConfig(
        name=artifact["pop"],
        pop_id=artifact["pop_id"],
        kind=artifact["kind"],
        backbone=artifact["backbone"]["address"] is not None,
    )
    pop = PointOfPresence(
        scheduler,
        config,
        platform_asn=platform_asn,
        platform_asns=frozenset({platform_asn}),
        registry=registry,
        enforcer_state=EnforcerState(),
        telemetry=telemetry,
    )
    backbone = None
    if artifact["backbone"]["address"] is not None:
        backbone = Backbone(scheduler, name=f"bb-{artifact['pop']}")
        pop.enable_backbone(
            backbone,
            address=IPv4Address.parse(artifact["backbone"]["address"]),
        )
    for entry in artifact["experiments"]:
        pop.control_enforcer.register_experiment(ExperimentProfile(
            name=entry["name"],
            asns=frozenset({platform_asn}),
            prefixes=(IPv4Prefix.parse(entry["prefix"]),),
        ))
    return FleetPop(scheduler, artifact, pop, backbone)
