"""vBGP node tests: the Figure 2 control/data-plane delegation mechanisms.

These wire a PointOfPresence (which embeds a VbgpNode) to a plain BGP
speaker acting as the upstream neighbor, and a raw ADD-PATH session acting
as the experiment — no platform orchestration, so each mechanism is
observable in isolation.
"""

import pytest

from repro.bgp.attributes import local_route
from repro.bgp.messages import UpdateMessage
from repro.bgp.session import BgpSession, SessionConfig
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.transport import connect_pair
from repro.netsim.addr import IPv4Address, IPv4Prefix
from repro.netsim.stack import MAIN_TABLE
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.state import EnforcerState
from repro.security.capabilities import ExperimentProfile
from repro.vbgp.allocator import GlobalNeighborRegistry
from repro.vbgp.communities import announce_to_neighbor, block_neighbor

EXP_PREFIX = IPv4Prefix.parse("184.164.224.0/24")
DEST = IPv4Prefix.parse("192.168.0.0/24")


@pytest.fixture
def pop(scheduler):
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
    return pop


def add_neighbor(scheduler, pop, name, asn, announce=()):
    """A real BGP speaker as the PoP's neighbor, announcing prefixes."""
    port = pop.provision_neighbor(name, asn, kind="peer")
    speaker = BgpSpeaker(
        scheduler, SpeakerConfig(asn=asn, router_id=port.address)
    )
    speaker.attach_neighbor(
        NeighborConfig(name="to-peering", peer_asn=None,
                       local_address=port.address),
        port.channel,
    )
    for prefix in announce:
        speaker.originate(local_route(prefix, next_hop=port.address))
    return speaker, port


class ExperimentEndpoint:
    """A raw ADD-PATH BGP endpoint standing in for an experiment."""

    def __init__(self, scheduler, pop, name="x1",
                 prefixes=(EXP_PREFIX,)):
        self.updates = []
        self.routes = {}
        ours, theirs = connect_pair(scheduler, rtt=0.01)
        tunnel_ip = IPv4Address.parse("100.125.0.2")
        from repro.netsim.addr import MacAddress

        self.tunnel_mac = MacAddress.parse("02:aa:00:00:00:02")
        pop.node.attach_experiment(
            name=name, asn=47065, prefixes=prefixes,
            tunnel_ip=tunnel_ip, tunnel_mac=self.tunnel_mac, channel=ours,
        )
        self.session = BgpSession(
            scheduler,
            SessionConfig(local_asn=47065,
                          local_id=tunnel_ip, peer_asn=47065,
                          addpath=True),
            theirs,
            on_update=self._on_update,
        )
        self.session.start()

    def _on_update(self, _session, update):
        self.updates.append(update)
        for prefix, path_id in update.withdrawn:
            self.routes.pop(path_id, None)
        for route in update.routes():
            self.routes[route.path_id] = route

    def announce(self, route):
        self.session.send_update(UpdateMessage.announce([route]))

    def withdraw(self, route):
        self.session.send_update(UpdateMessage.withdraw([route]))


def test_next_hop_rewritten_to_local_vip(scheduler, pop):
    """Figure 2a: announcements reach experiments with virtual next hops."""
    speaker, port = add_neighbor(scheduler, pop, "n1", 65010,
                                 announce=(DEST,))
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    assert len(experiment.routes) == 1
    route = next(iter(experiment.routes.values()))
    virtual = pop.node.upstreams["n1"].virtual
    assert route.next_hop == virtual.local_ip
    assert str(route.next_hop).startswith("127.65.")
    assert route.path_id is not None


def test_two_neighbors_two_paths(scheduler, pop):
    add_neighbor(scheduler, pop, "n1", 65010, announce=(DEST,))
    add_neighbor(scheduler, pop, "n2", 65020, announce=(DEST,))
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    assert len(experiment.routes) == 2
    next_hops = {str(r.next_hop) for r in experiment.routes.values()}
    assert len(next_hops) == 2
    paths = {r.as_path.origin_as for r in experiment.routes.values()}
    assert paths == {65010, 65020}


def test_withdraw_fans_out(scheduler, pop):
    speaker, _port = add_neighbor(scheduler, pop, "n1", 65010,
                                  announce=(DEST,))
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    assert len(experiment.routes) == 1
    speaker.withdraw(DEST)
    scheduler.run_for(5)
    assert len(experiment.routes) == 0


def test_late_experiment_gets_full_table(scheduler, pop):
    add_neighbor(scheduler, pop, "n1", 65010,
                 announce=(DEST, IPv4Prefix.parse("192.168.1.0/24")))
    scheduler.run_for(5)
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    assert len(experiment.routes) == 2


def test_per_neighbor_kernel_tables(scheduler, pop):
    add_neighbor(scheduler, pop, "n1", 65010, announce=(DEST,))
    add_neighbor(scheduler, pop, "n2", 65020, announce=(DEST,))
    scheduler.run_for(5)
    n1 = pop.node.upstreams["n1"].virtual
    n2 = pop.node.upstreams["n2"].virtual
    t1 = pop.stack.tables[n1.table_id]
    t2 = pop.stack.tables[n2.table_id]
    assert len(t1) == 1 and len(t2) == 1
    r1 = t1.lookup(DEST.address_at(1)).value
    r2 = t2.lookup(DEST.address_at(1)).value
    assert r1.next_hop != r2.next_hop  # each points at its own neighbor


def test_proxy_arp_and_rules_provisioned(scheduler, pop):
    add_neighbor(scheduler, pop, "n1", 65010)
    virtual = pop.node.upstreams["n1"].virtual
    assert pop.stack.proxy_arp["exp0"][virtual.local_ip] == virtual.mac
    assert virtual.mac in pop.stack.interfaces["exp0"].extra_macs
    assert any(
        rule.match_dmac == virtual.mac and rule.table == virtual.table_id
        for rule in pop.stack.rules
    )


def test_experiment_announcement_exported_to_all(scheduler, pop):
    n1, _p1 = add_neighbor(scheduler, pop, "n1", 65010)
    n2, _p2 = add_neighbor(scheduler, pop, "n2", 65020)
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    experiment.announce(
        local_route(EXP_PREFIX, next_hop=IPv4Address.parse("100.125.0.2"))
    )
    scheduler.run_for(5)
    assert n1.best_route(EXP_PREFIX) is not None
    assert n2.best_route(EXP_PREFIX) is not None
    # Platform ASN prepended on export.
    assert n1.best_route(EXP_PREFIX).as_path.asns == (47065,)


def test_whitelist_community_limits_export(scheduler, pop):
    n1, p1 = add_neighbor(scheduler, pop, "n1", 65010)
    n2, _p2 = add_neighbor(scheduler, pop, "n2", 65020)
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    gid1 = pop.node.upstreams["n1"].virtual.global_id
    experiment.announce(
        local_route(EXP_PREFIX, next_hop=IPv4Address.parse("100.125.0.2"))
        .add_communities(announce_to_neighbor(gid1))
    )
    scheduler.run_for(5)
    assert n1.best_route(EXP_PREFIX) is not None
    assert n2.best_route(EXP_PREFIX) is None
    # Control communities are stripped before export.
    assert n1.best_route(EXP_PREFIX).communities == frozenset()


def test_blacklist_community_excludes_neighbor(scheduler, pop):
    n1, _p1 = add_neighbor(scheduler, pop, "n1", 65010)
    n2, _p2 = add_neighbor(scheduler, pop, "n2", 65020)
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    gid2 = pop.node.upstreams["n2"].virtual.global_id
    experiment.announce(
        local_route(EXP_PREFIX, next_hop=IPv4Address.parse("100.125.0.2"))
        .add_communities(block_neighbor(gid2))
    )
    scheduler.run_for(5)
    assert n1.best_route(EXP_PREFIX) is not None
    assert n2.best_route(EXP_PREFIX) is None


def test_different_announcements_per_neighbor(scheduler, pop):
    """§2.2.2's motivating case: prepended to n1, plain to n2 — via two
    ADD-PATH announcements with different communities."""
    n1, _p1 = add_neighbor(scheduler, pop, "n1", 65010)
    n2, _p2 = add_neighbor(scheduler, pop, "n2", 65020)
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    gid1 = pop.node.upstreams["n1"].virtual.global_id
    gid2 = pop.node.upstreams["n2"].virtual.global_id
    tunnel_ip = IPv4Address.parse("100.125.0.2")
    prepended = (
        local_route(EXP_PREFIX, next_hop=tunnel_ip)
        .prepended(47065, 3)
        .add_communities(announce_to_neighbor(gid1))
        .with_path_id(1)
    )
    plain = (
        local_route(EXP_PREFIX, next_hop=tunnel_ip)
        .add_communities(announce_to_neighbor(gid2))
        .with_path_id(2)
    )
    experiment.announce(prepended)
    experiment.announce(plain)
    scheduler.run_for(5)
    assert n1.best_route(EXP_PREFIX).as_path.length == 4  # 3 prepends + 1
    assert n2.best_route(EXP_PREFIX).as_path.length == 1


def test_experiment_withdraw_reaches_neighbors(scheduler, pop):
    n1, _p1 = add_neighbor(scheduler, pop, "n1", 65010)
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    route = local_route(EXP_PREFIX,
                        next_hop=IPv4Address.parse("100.125.0.2"))
    experiment.announce(route)
    scheduler.run_for(5)
    assert n1.best_route(EXP_PREFIX) is not None
    experiment.withdraw(route)
    scheduler.run_for(5)
    assert n1.best_route(EXP_PREFIX) is None


def test_withdrawing_one_path_keeps_the_prefix_another_path_exports(
        scheduler, pop):
    """An experiment announces one prefix under ADD-PATH ids 1 and 2 and
    withdraws id 1: n1 now holds the export of id 2, and the tunnel route
    stays, so the control plane and the data plane agree."""
    n1, _p1 = add_neighbor(scheduler, pop, "n1", 65010)
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    tunnel_ip = IPv4Address.parse("100.125.0.2")
    first = local_route(EXP_PREFIX, next_hop=tunnel_ip).with_path_id(1)
    second = (
        local_route(EXP_PREFIX, next_hop=tunnel_ip)
        .prepended(47065, 2).with_path_id(2)
    )
    experiment.announce(first)
    experiment.announce(second)
    scheduler.run_for(5)
    experiment.withdraw(first)
    scheduler.run_for(5)
    held = n1.best_route(EXP_PREFIX)
    assert held is not None
    (accepted,) = pop.node.experiments["x1"].announced.values()
    assert held.as_path == pop.node.export_transform(accepted).as_path
    assert held.as_path.length == 3
    main = pop.stack.tables[MAIN_TABLE]
    assert main.get(EXP_PREFIX).out_iface == pop.node.exp_iface


def test_hijack_blocked_by_enforcer(scheduler, pop):
    """Announcing address space outside the allocation never propagates."""
    n1, _p1 = add_neighbor(scheduler, pop, "n1", 65010)
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    hijack = local_route(IPv4Prefix.parse("8.8.8.0/24"),
                         next_hop=IPv4Address.parse("100.125.0.2"))
    experiment.announce(hijack)
    scheduler.run_for(5)
    assert n1.best_route(IPv4Prefix.parse("8.8.8.0/24")) is None
    assert pop.control_enforcer.routes_rejected == 1


def test_enforcer_overload_fails_closed(scheduler, pop):
    n1, _p1 = add_neighbor(scheduler, pop, "n1", 65010)
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    pop.control_enforcer.overloaded = True
    experiment.announce(
        local_route(EXP_PREFIX, next_hop=IPv4Address.parse("100.125.0.2"))
    )
    scheduler.run_for(5)
    assert n1.best_route(EXP_PREFIX) is None
    assert pop.node.counters["enforcer_failures"] == 1
    assert pop.node.counters["announcements_blocked"] == 1


def test_experiment_detach_withdraws_everything(scheduler, pop):
    n1, _p1 = add_neighbor(scheduler, pop, "n1", 65010)
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    experiment.announce(
        local_route(EXP_PREFIX, next_hop=IPv4Address.parse("100.125.0.2"))
    )
    scheduler.run_for(5)
    assert n1.best_route(EXP_PREFIX) is not None
    experiment.session.shutdown()
    scheduler.run_for(5)
    assert n1.best_route(EXP_PREFIX) is None
    assert "x1" not in pop.node.experiments


def test_experiment_close_removes_its_tunnel_route(scheduler, pop):
    """The last announcement of a prefix takes its kernel route along,
    whether it is withdrawn or its experiment's session closes."""
    add_neighbor(scheduler, pop, "n1", 65010)
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    experiment.announce(
        local_route(EXP_PREFIX, next_hop=IPv4Address.parse("100.125.0.2"))
    )
    scheduler.run_for(5)
    main = pop.stack.tables[MAIN_TABLE]
    assert main.get(EXP_PREFIX).out_iface == pop.node.exp_iface
    experiment.session.shutdown()
    scheduler.run_for(5)
    assert "x1" not in pop.node.experiments
    assert EXP_PREFIX not in main


def test_known_routes_and_fib_counts(scheduler, pop):
    add_neighbor(scheduler, pop, "n1", 65010,
                 announce=(DEST, IPv4Prefix.parse("192.168.1.0/24")))
    add_neighbor(scheduler, pop, "n2", 65020, announce=(DEST,))
    scheduler.run_for(5)
    assert len(pop.node.known_routes()) == 3
    assert pop.node.fib_entry_count() >= 3
