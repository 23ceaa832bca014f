"""The receiver is the oracle for full visibility (paper §3.2.1).

A path's ADD-PATH id belongs to the node, and nothing about what an
experiment was told is kept per experiment.  Seeded programs prove that
nothing needs to be: one PoP, two re-dialing upstreams (one with Graceful
Restart) and three or four raw ADD-PATH experiments are driven through
announce, withdraw, implicit replace, upstream transport loss, late
attach, ROUTE-REFRESH and experiment close.  At every settle point each
established experiment's decoded table must be exactly the projection of
the node's id map.
"""

import random
from collections import Counter

import pytest

from repro.bgp.attributes import Community, local_route
from repro.bgp.messages import UpdateMessage
from repro.bgp.session import BgpSession, SessionConfig
from repro.bgp.supervisor import SupervisorConfig
from tests.vbgp.test_export_once import PLATFORM_ASN
from tests.vbgp.test_fanout_once import PREFIXES, World, node_view

PROGRAMS = 32
STEPS = 12
UNIVERSE = PREFIXES[:24]
OPS = ("announce", "withdraw", "replace", "close-gr", "close",
       "late-attach", "refresh", "exp-close")


class Upstream:
    """A raw upstream that re-dials after losing its transport and then
    re-sends the table it holds (closed by End-of-RIB under GR)."""

    def __init__(self, scheduler, pop, name, asn, graceful):
        self.scheduler = scheduler
        self.asn = asn
        self.graceful = graceful
        self.table = {}
        self.port = pop.provision_neighbor(
            name, asn, resilient=True, graceful_restart=graceful,
            restart_time=3,
            supervisor_config=SupervisorConfig(
                min_backoff=0.5, max_backoff=1.0, jitter=0.0,
                flap_threshold=1000, max_attempts=1000,
            ),
        )
        self.port.on_redial = self._connect
        self._connect(self.port.channel)

    def _connect(self, channel):
        self.session = BgpSession(
            self.scheduler,
            SessionConfig(local_asn=self.asn, local_id=self.port.address,
                          peer_asn=PLATFORM_ASN,
                          graceful_restart=self.graceful, restart_time=3),
            channel,
            on_update=lambda _session, _update: None,
            on_established=self._resend,
        )
        self.session.start()

    def _resend(self, session):
        for route in self.table.values():
            session.send_update(UpdateMessage.announce([route]))
        if session.gr_negotiated:
            session.send_end_of_rib()

    def _send(self, update):
        if self.session.established and not self.session.channel.closed:
            self.session.send_update(update)

    def announce(self, prefixes, tag):
        routes = [
            local_route(prefix, next_hop=self.port.address,
                        communities=(Community(self.asn, tag),))
            for prefix in prefixes
        ]
        self.table.update((route.prefix, route) for route in routes)
        self._send(UpdateMessage.announce(routes))

    def withdraw(self, prefixes):
        routes = [self.table.pop(prefix) for prefix in prefixes]
        self._send(UpdateMessage.withdraw(routes))

    def lose_transport(self):
        """The connection dies under the session: no NOTIFICATION."""
        self.session.channel.close()


def listening(world):
    return [sink for sink in world.sinks
            if sink.attachment.name in world.node.experiments]


def step(world, upstreams, rng, op):
    """Apply ``op``; False when the world has nothing it applies to."""
    upstream = rng.choice(upstreams)
    held = sorted(upstream.table)
    if op == "announce":
        fresh = [prefix for prefix in UNIVERSE if prefix not in held]
        if not fresh:
            return False
        upstream.announce(rng.sample(fresh, min(len(fresh), 6)),
                          rng.randrange(4))
    elif op in ("withdraw", "replace"):
        if not held:
            return False
        chosen = rng.sample(held, rng.randint(1, min(len(held), 6)))
        if op == "withdraw":
            upstream.withdraw(chosen)
        else:
            upstream.announce(chosen, 4 + rng.randrange(4))
    elif op in ("close-gr", "close"):
        upstreams[op == "close"].lose_transport()
    elif op == "late-attach":
        if len(listening(world)) >= 4:
            return False
        world.sinks.append(world.add_sink(rtt=rng.choice((8.0, 12.0))))
    elif op == "refresh":
        up = [sink for sink in listening(world) if sink.session.established]
        if not up:
            return False
        rng.choice(up).session.send_route_refresh()
    elif op == "exp-close":
        live = listening(world)
        if len(live) <= 2:
            return False
        rng.choice(live).session.shutdown()
    return True


def settle(world):
    """Run until no UPDATE is in flight toward an established sink."""
    world.settle(5)
    while any(sink.sent != sink.received for sink in world.sinks
              if sink.session.established):
        world.settle(1)


def assert_receivers_hold_the_node_view(world):
    """Compare every established sink; count the non-empty comparisons."""
    expected = node_view(world.node)
    checked = 0
    for sink in world.sinks:
        if sink.session.established and sink.attachment.session.established:
            assert sink.view() == expected, sink.name
            checked += bool(expected)
    return checked


def run_program(seed):
    rng = random.Random(seed)
    world = World(experiments=3, upstreams=0)
    upstreams = [
        Upstream(world.scheduler, world.pop, "gr", 65001, graceful=True),
        Upstream(world.scheduler, world.pop, "plain", 65002, graceful=False),
    ]
    settle(world)
    applied = Counter()
    checks = 0
    for _ in range(STEPS):
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(OPS)
            if step(world, upstreams, rng, op):
                applied[op] += 1
        settle(world)
        checks += assert_receivers_hold_the_node_view(world)
    applied["gr-retained"] = world.node.counters["gr_routes_retained"]
    return applied, checks


@pytest.mark.parametrize("block", range(4))
def test_every_established_receiver_holds_the_node_view(block):
    applied, checks = Counter(), 0
    for seed in range(block, PROGRAMS, 4):
        program, program_checks = run_program(seed)
        applied += program
        checks += program_checks
    # every kind of step ran, GR retained routes, receivers were compared
    assert set(OPS) <= set(applied), applied
    assert applied["gr-retained"] > 0
    assert checks >= 8 * STEPS
