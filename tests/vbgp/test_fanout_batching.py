"""Fan-out batching must be functionally invisible.

Routes sharing one attribute set are coalesced into multi-NLRI UPDATEs;
experiments must see exactly the same routes (prefixes, next hops, AS
paths, stable path ids) as with per-route messages — only the message
count may drop.  The per-route fan-out it replaced is rebuilt here as the
oracle by making every route its own attribute group.
"""

import pytest

from repro.bgp.attributes import Community, local_route
from repro.netsim.addr import IPv4Prefix
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.capabilities import ExperimentProfile
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp import node as vbgp_node
from repro.vbgp.allocator import GlobalNeighborRegistry

from tests.vbgp.test_node import EXP_PREFIX, ExperimentEndpoint, add_neighbor

PREFIXES = tuple(IPv4Prefix.parse("70.0.0.0/8").subnets(24))[:64]


class _OneRoutePerGroup:
    """Stands in for ``_group_by_attributes``: every route is its own
    group, so the node sends one UPDATE per announced route."""

    def __init__(self, routes):
        self._groups = [(route.attributes, [route]) for route in routes]

    def items(self):
        return self._groups

    def values(self):
        return [group for _attrs, group in self._groups]


def _run_scenario(monkeypatch, batch: bool):
    """Announce a table, then attach a late experiment (full-table fanout),
    then withdraw half; return what the experiment ended up with."""
    with monkeypatch.context() as patch:
        if not batch:
            patch.setattr(vbgp_node, "_group_by_attributes",
                          _OneRoutePerGroup)
        scheduler = Scheduler()
        pop = PointOfPresence(
            scheduler,
            PopConfig(name="testpop", pop_id=0),
            platform_asn=47065,
            platform_asns=frozenset({47065}),
            registry=GlobalNeighborRegistry(),
            enforcer_state=EnforcerState(),
        )
        pop.control_enforcer.register_experiment(
            ExperimentProfile(name="x1", asns=frozenset({47065}),
                              prefixes=(EXP_PREFIX,))
        )
        speaker, port = add_neighbor(
            scheduler, pop, "n1", 65010, announce=PREFIXES
        )
        scheduler.run_for(5)
        experiment = ExperimentEndpoint(scheduler, pop)
        scheduler.run_for(5)
        for prefix in PREFIXES[::2]:
            speaker.withdraw(prefix)
        scheduler.run_for(5)
        routes = {
            (route.prefix, route.path_id): (
                route.next_hop, route.as_path.asns,
                tuple(sorted(map(str, route.communities))),
            )
            for route in experiment.routes.values()
        }
        return routes, len(experiment.updates)


def test_batching_is_functionally_invisible(monkeypatch):
    batched_routes, batched_updates = _run_scenario(monkeypatch, batch=True)
    plain_routes, plain_updates = _run_scenario(monkeypatch, batch=False)
    assert batched_routes == plain_routes
    assert len(batched_routes) == len(PREFIXES) - len(PREFIXES[::2])
    # The whole point: fewer messages for the same state.
    assert batched_updates < plain_updates


@pytest.mark.parametrize("shared", [True, False])
def test_oversized_batches_are_chunked(shared):
    """A full-table fanout larger than one UPDATE's NLRI budget must be
    split, never raise message-too-large — whether the routes share one
    attribute set (one group, chunked) or each has its own."""
    scheduler = Scheduler()
    pop = PointOfPresence(
        scheduler,
        PopConfig(name="testpop", pop_id=0),
        platform_asn=47065,
        platform_asns=frozenset({47065}),
        registry=GlobalNeighborRegistry(),
        enforcer_state=EnforcerState(),
    )
    pop.control_enforcer.register_experiment(
        ExperimentProfile(name="x1", asns=frozenset({47065}),
                          prefixes=(EXP_PREFIX,))
    )
    many = tuple(IPv4Prefix.parse("80.0.0.0/8").subnets(24))[:700]
    speaker, port = add_neighbor(scheduler, pop, "n1", 65010)
    for index, prefix in enumerate(many):
        communities = () if shared else (Community(65010, index),)
        speaker.originate(local_route(prefix, next_hop=port.address,
                                      communities=communities))
    scheduler.run_for(5)
    # A late experiment gets the whole table in one fan-out.
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(10)
    assert len(experiment.routes) == len(many)
    if shared:
        assert 2 <= len(experiment.updates) < len(many)
    else:
        assert len(experiment.updates) >= len(many)
    # Withdraw everything at once: 700 withdrawals > one message.
    for prefix in many:
        speaker.withdraw(prefix)
    scheduler.run_for(10)
    assert len(experiment.routes) == 0
