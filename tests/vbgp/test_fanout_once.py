"""Fan-out compile (paper §4.2): a path gets one ADD-PATH id for the whole
node, so an upstream UPDATE is rewritten, built and encoded once and the
same message goes to every experiment.  The per-experiment fan-out it
replaced (``fanout_reference``) is driven beside it as the oracle: same
bytes where the old numbering coincides, same tables up to a renaming of
ids everywhere else.
"""

import pytest

from repro.bgp.attributes import Community, local_route
from repro.bgp.messages import (
    HEADER_SIZE,
    MAX_MESSAGE_SIZE,
    MSG_UPDATE,
    UpdateMessage,
)
from repro.bgp.session import BgpSession, SessionConfig
from repro.bgp.transport import connect_pair
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry
from tests.bgp.encode_reference import joined_encode
from tests.vbgp import fanout_reference
from tests.vbgp.test_export_once import (
    MSG_TYPE_OFFSET,
    PLATFORM_ASN,
    count_calls,
)

PREFIXES = tuple(IPv4Prefix.parse("70.0.0.0/8").subnets(24))[:1200]
# Withdrawals per ADD-PATH UPDATE: 9 worst-case bytes per NLRI after the
# header and the two length fields.
_MAX_WITHDRAW_PER_UPDATE = (MAX_MESSAGE_SIZE - HEADER_SIZE - 4) // 9


class Feeder:
    """A raw upstream neighbor: sends exactly the UPDATEs it is told to."""

    def __init__(self, scheduler, pop, name, asn):
        self.port = pop.provision_neighbor(name, asn)
        self.neighbor = pop.node.upstreams[name]
        self.session = BgpSession(
            scheduler,
            SessionConfig(local_asn=asn, local_id=self.port.address,
                          peer_asn=PLATFORM_ASN),
            self.port.channel,
            on_update=lambda _session, _update: None,
        )
        self.session.start()

    def route(self, prefix, *communities):
        return local_route(prefix, next_hop=self.port.address,
                           communities=communities)

    def announce(self, prefixes, *communities):
        self.session.send_update(UpdateMessage.announce(
            [self.route(prefix, *communities) for prefix in prefixes]
        ))

    def withdraw(self, prefixes):
        self.session.send_update(UpdateMessage.withdraw(
            [self.route(prefix) for prefix in prefixes]
        ))


class ExpSink:
    """A raw experiment: keeps every UPDATE frame the mux puts on its
    channel, and the ``path id -> (prefix, attributes)`` table they
    decode to."""

    def __init__(self, scheduler, pop, index, rtt=0.01):
        self.name = f"x{index}"
        self.frames: list[bytes] = []
        self.announced_ids: list[int] = []
        self.table: dict = {}
        # UPDATEs put on the wire / decoded: unequal while any is in flight.
        self.sent = self.received = 0
        ours, theirs = connect_pair(scheduler, rtt=rtt)
        send = ours.send

        def tapped(data):
            if data[MSG_TYPE_OFFSET] == MSG_UPDATE:
                self.frames.append(data)
                self.sent += 1
            send(data)

        ours.send = tapped
        tunnel_ip = IPv4Address.parse(f"100.125.{index}.2")
        self.attachment = pop.node.attach_experiment(
            name=self.name, asn=PLATFORM_ASN, prefixes=(),
            tunnel_ip=tunnel_ip,
            tunnel_mac=MacAddress.parse(f"02:aa:00:00:{index:02x}:02"),
            channel=ours,
        )
        self.session = BgpSession(
            scheduler,
            SessionConfig(local_asn=PLATFORM_ASN, local_id=tunnel_ip,
                          peer_asn=PLATFORM_ASN, addpath=True),
            theirs,
            on_update=self._on_update,
        )
        self.session.start()

    def _on_update(self, _session, update):
        self.received += 1
        for _prefix, path_id in update.withdrawn:
            del self.table[path_id]
        for route in update.routes():
            self.announced_ids.append(route.path_id)
            self.table[route.path_id] = (route.prefix, route.attributes)

    def by_path(self):
        """``(virtual next hop, prefix) -> (path id, attributes)``."""
        return {
            (attrs.next_hop, prefix): (path_id, attrs)
            for path_id, (prefix, attrs) in self.table.items()
        }

    def view(self):
        """``path id -> (prefix, virtual next hop)``: what it was told."""
        return {
            path_id: (prefix, attrs.next_hop)
            for path_id, (prefix, attrs) in self.table.items()
        }


def node_view(node):
    """The projection of ``node``'s ADD-PATH id map that every established
    experiment must hold: ``path id -> (prefix, the neighbor's local VIP)``."""
    vips = {
        neighbor.virtual.global_id: neighbor.virtual.local_ip
        for neighbor in (*node.upstreams.values(),
                         *node.remote_neighbors.values())
    }
    return {
        path_id: (prefix, vips[gid])
        for (gid, prefix, _source_id), path_id in node._path_ids.items()
    }


class World:
    """One PoP, raw feeders upstream, raw ADD-PATH sinks as experiments."""

    def __init__(self, experiments=8, upstreams=1, reference=False):
        self.scheduler = Scheduler()
        self.pop = PointOfPresence(
            self.scheduler,
            PopConfig(name="testpop", pop_id=0),
            platform_asn=PLATFORM_ASN,
            platform_asns=frozenset({PLATFORM_ASN}),
            registry=GlobalNeighborRegistry(),
            enforcer_state=EnforcerState(),
        )
        self.node = self.pop.node
        if reference:
            fanout_reference.install(self.node)
        self.feeders = [
            Feeder(self.scheduler, self.pop, f"n{i}", 65001 + i)
            for i in range(upstreams)
        ]
        self.attached = 0
        self.sinks = [self.add_sink() for _ in range(experiments)]
        self.settle()

    def add_sink(self, rtt=0.01):
        sink = ExpSink(self.scheduler, self.pop, self.attached, rtt=rtt)
        self.attached += 1
        return sink

    def settle(self, seconds=5):
        self.scheduler.run_for(seconds)

    def clear(self):
        for sink in self.sinks:
            del sink.frames[:]


def churn(world):
    """A table, withdrawals, re-announcements with new attributes, a late
    joiner, and churn after it joined — all sinks end in ``world.sinks``."""
    first, second = world.feeders
    first.announce(PREFIXES[:40])
    second.announce(PREFIXES[20:60], Community(65001, 7))
    world.settle()
    first.withdraw(PREFIXES[:10])
    second.announce(PREFIXES[20:30], Community(65001, 8))
    world.settle()
    world.sinks.append(world.add_sink())
    world.settle()
    first.announce(PREFIXES[5:15], Community(65001, 9))
    second.withdraw(PREFIXES[50:60])
    world.settle()


def capture_sends(monkeypatch, node):
    """Every ``(session, message)`` ``node`` sends to its experiments."""
    sends = []
    original = BgpSession.send_update

    def send_update(self, update):
        if any(exp.session is self for exp in node.experiments.values()):
            sends.append((self, update))
        original(self, update)

    monkeypatch.setattr(BgpSession, "send_update", send_update)
    return sends


# -- (i) one message, one encode, the reference's bytes ----------------------


def test_one_message_one_encode_for_8_experiments(monkeypatch):
    world, reference = World(), World(reference=True)
    sends = capture_sends(monkeypatch, world.node)
    encodes = count_calls(monkeypatch, UpdateMessage, "_encode_into_buffer")
    world.feeders[0].announce(PREFIXES[:3])
    world.settle()
    to_experiments = [
        message for session, message in sends
        if session.peer_key.startswith("exp:")
    ]
    assert len(to_experiments) == 8
    (message,) = {id(m): m for m in to_experiments}.values()
    assert len(message.nlri) == 3
    assert [args[0] for args in encodes].count(message) == 1
    reference.feeders[0].announce(PREFIXES[:3])
    reference.settle()
    (wire,) = {tuple(sink.frames) for sink in world.sinks}
    assert len(wire) == 1
    for sink in reference.sinks:
        assert tuple(sink.frames) == wire


# -- (ii) same tables as the per-experiment fan-out, ids renamed -------------


def test_tables_equal_reference_modulo_id_renaming():
    world, reference = World(upstreams=2), World(upstreams=2, reference=True)
    churn(world)
    churn(reference)
    assert len(world.sinks) == 9
    for sink, ref_sink in zip(world.sinks, reference.sinks):
        ours, theirs = sink.by_path(), ref_sink.by_path()
        assert len(ours) == len(sink.table) == 65
        assert ours.keys() == theirs.keys()
        renaming = {}
        for key, (path_id, attrs) in ours.items():
            ref_id, ref_attrs = theirs[key]
            assert attrs == ref_attrs
            renaming[path_id] = ref_id
        assert len(renaming) == len(set(renaming.values())) == len(ours)
    # The renaming is the identity for everyone who was there from the
    # first route; only the late joiner's numbers differ from the old 1..N.
    for sink, ref_sink in zip(world.sinks[:8], reference.sinks[:8]):
        assert sink.table == ref_sink.table
    assert world.sinks[8].table == world.sinks[0].table
    assert sorted(reference.sinks[8].table) != sorted(world.sinks[8].table)


# -- (iii) a late joiner hears the ids everyone else holds -------------------


def test_late_joiner_gets_shared_ids_and_the_shared_message(monkeypatch):
    world = World(experiments=2)
    feeder = world.feeders[0]
    for start in range(0, 1000, 100):
        feeder.announce(PREFIXES[start:start + 100],
                        Community(65001, start))
    feeder.withdraw(PREFIXES[:50])
    feeder.announce(PREFIXES[:50])
    world.settle()
    late = world.add_sink()
    world.sinks.append(late)
    world.settle()
    early = world.sinks[0]
    assert len(late.table) == 1000
    assert late.table == early.table
    assert late.view() == node_view(world.node)
    assert max(late.table) == 1050      # sparse: not the old 1..N
    sends = capture_sends(monkeypatch, world.node)
    world.clear()
    feeder.announce(PREFIXES[1000:1001])
    world.settle()
    messages = {id(message) for _session, message in sends}
    assert len(sends) == 3 and len(messages) == 1
    assert late.frames == early.frames and len(late.frames) == 1


# -- (iv) ids are stable, fresh after a withdraw, never reused ---------------


def test_refresh_resends_ids_and_reannounce_gets_a_fresh_one():
    world = World(experiments=2)
    feeder = world.feeders[0]
    feeder.announce(PREFIXES[:20])
    world.settle()
    sink = world.sinks[0]
    before = dict(sink.table)
    world.clear()
    sink.session.send_route_refresh()
    world.settle()
    assert sink.table == before
    assert len(sink.announced_ids) == 40    # all 20 re-sent, same ids
    assert not world.sinks[1].frames        # only to the one who asked
    old_id = sink.by_path()[
        (feeder.neighbor.virtual.local_ip, PREFIXES[0])
    ][0]
    feeder.withdraw(PREFIXES[:1])
    world.settle()
    assert old_id not in sink.table
    feeder.announce(PREFIXES[:1])
    world.settle()
    new_id = sink.by_path()[
        (feeder.neighbor.virtual.local_ip, PREFIXES[0])
    ][0]
    assert new_id == 21 and new_id not in before
    for _ in range(5):
        feeder.withdraw(PREFIXES[:1])
        feeder.announce(PREFIXES[:1])
    world.settle()
    fresh = sink.announced_ids[40:]
    assert len(fresh) == len(set(fresh)) == 6
    assert not set(fresh) & set(before)
    assert world.sinks[1].table == sink.table


# -- (v) attached but not established: skipped, then the full table ----------


def test_unestablished_experiment_is_skipped_then_gets_full_table():
    world = World(experiments=2)
    slow = world.add_sink(rtt=8.0)
    feeder = world.feeders[0]
    feeder.announce(PREFIXES[:30])
    world.settle(2)
    assert not slow.attachment.session.established
    assert not slow.frames and not slow.table
    assert len(world.sinks[0].table) == 30
    feeder.withdraw(PREFIXES[:5])
    world.settle(2)
    assert not slow.frames
    world.settle(20)
    assert slow.attachment.session.established
    assert slow.table == world.sinks[0].table
    assert len(slow.table) == 25
    assert slow.view() == node_view(world.node)


# -- (vi) the bytes are the joined-bytes oracle's ---------------------------


def test_every_session_gets_the_joined_oracle_bytes(monkeypatch):
    """Every message the fan-out builds is encoded once, and every frame
    any sink receives is what the joined-bytes encoder makes of it."""
    encodes = count_calls(monkeypatch, UpdateMessage, "_encode_into_buffer")
    world = World(upstreams=2)
    churn(world)
    to_sinks = [args for args in encodes if args[1]]    # addpath=True
    assert to_sinks
    assert len({id(args[0]) for args in to_sinks}) == len(to_sinks)
    oracle = {joined_encode(message, True) for message, _ in to_sinks}
    for sink in world.sinks:
        assert sink.frames and set(sink.frames) <= oracle
    assert len({tuple(sink.frames) for sink in world.sinks[:8]}) == 1


# -- (vii) chunking ----------------------------------------------------------


@pytest.mark.parametrize("shared", [True, False])
def test_oversized_group_and_withdrawal_still_chunk(shared):
    """One attribute group too big for one UPDATE is chunked; routes with
    an attribute set each (``shared`` off) go out one UPDATE apiece."""
    count = 900
    assert count > _MAX_WITHDRAW_PER_UPDATE
    world = World(experiments=3)
    feeder = world.feeders[0]
    # 900 /24s fit one plain UPDATE (4 bytes each) but not one
    # ADD-PATH UPDATE (8 bytes each).
    if shared:
        feeder.announce(PREFIXES[:count])
    else:
        for index, prefix in enumerate(PREFIXES[:count]):
            feeder.announce([prefix], Community(65001, index))
    world.settle()
    sink = world.sinks[0]
    assert len(sink.table) == count
    assert len(sink.frames) >= 2
    assert max(map(len, sink.frames)) <= MAX_MESSAGE_SIZE
    assert (len(sink.frames) < count) is shared
    assert all(s.frames == sink.frames for s in world.sinks)
    world.clear()
    feeder.withdraw(PREFIXES[:count])
    world.settle()
    assert not sink.table
    assert len(sink.frames) == -(-count // _MAX_WITHDRAW_PER_UPDATE)
    assert max(map(len, sink.frames)) <= MAX_MESSAGE_SIZE
    assert all(s.frames == sink.frames for s in world.sinks)
    assert not world.node._path_ids
