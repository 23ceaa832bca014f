"""Export compile (§3.2.1): an experiment route is transformed and encoded
once, every target neighbor gets the same bytes the per-neighbor path
(``export_reference``) would have sent it, and a re-announcement costs a
neighbor that keeps the route one message, not two.
"""

from repro.bgp.attributes import local_route
from repro.bgp.messages import MSG_UPDATE, UpdateMessage
from repro.bgp.session import BgpSession, SessionConfig
from repro.bgp.supervisor import SupervisorConfig
from repro.bgp.transport import connect_pair
from repro.conformance.state import attr_fingerprint
from repro.intent import dryrun
from repro.intent.dryrun import export_state
from repro.netsim.addr import IPv4Address
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.capabilities import ExperimentProfile
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry
from repro.vbgp.communities import announce_to_neighbor, block_neighbor
from repro.vbgp.node import VbgpNode
from tests.bgp.encode_reference import joined_encode
from tests.intent.conftest import build_intent_world
from tests.vbgp.export_reference import export_to_neighbor_frame
from tests.vbgp.test_node import EXP_PREFIX, ExperimentEndpoint

PLATFORM_ASN = 47065
TUNNEL_IP = IPv4Address.parse("100.125.0.2")
MSG_TYPE_OFFSET = 18


class Sink:
    """A raw upstream neighbor: keeps every UPDATE frame the mux puts on
    its channel and the table those frames decode to."""

    def __init__(self, scheduler, pop, name, asn, resilient=False):
        self.scheduler = scheduler
        self.asn = asn
        self.frames: list[bytes] = []
        self.updates: list[UpdateMessage] = []
        self.table: dict = {}
        self.port = pop.provision_neighbor(
            name, asn, resilient=resilient,
            supervisor_config=SupervisorConfig(min_backoff=0.5, seed=9),
        )
        self.neighbor = pop.node.upstreams[name]
        self.gid = self.neighbor.virtual.global_id
        self.port.on_redial = self._attach
        self._attach(self.port.channel)

    def _attach(self, channel):
        """(Re-)start our end on ``channel`` and tap the mux's end."""
        send = channel.peer.send

        def tapped(data):
            if data[MSG_TYPE_OFFSET] == MSG_UPDATE:
                self.frames.append(data)
            send(data)

        channel.peer.send = tapped
        self.session = BgpSession(
            self.scheduler,
            SessionConfig(local_asn=self.asn, local_id=self.port.address,
                          peer_asn=PLATFORM_ASN),
            channel,
            on_update=self._on_update,
        )
        self.session.start()

    def _on_update(self, _session, update):
        self.updates.append(update)
        for prefix, _path_id in update.withdrawn:
            self.table.pop(prefix, None)
        for route in update.routes():
            self.table[route.prefix] = route.attributes

    def clear(self):
        del self.frames[:]
        del self.updates[:]


class World:
    """One PoP, ``upstreams`` raw sinks, one experiment endpoint."""

    def __init__(self, upstreams, resilient=False):
        self.scheduler = Scheduler()
        self.pop = PointOfPresence(
            self.scheduler,
            PopConfig(name="testpop", pop_id=0),
            platform_asn=PLATFORM_ASN,
            platform_asns=frozenset({PLATFORM_ASN}),
            registry=GlobalNeighborRegistry(),
            enforcer_state=EnforcerState(),
        )
        self.pop.control_enforcer.register_experiment(
            ExperimentProfile(name="x1", asns=frozenset({PLATFORM_ASN}),
                              prefixes=(EXP_PREFIX,))
        )
        self.node = self.pop.node
        self.sinks = [
            Sink(self.scheduler, self.pop, f"n{i}", 65001 + i, resilient)
            for i in range(upstreams)
        ]
        self.experiment = ExperimentEndpoint(self.scheduler, self.pop)
        self.scheduler.run_for(5)

    def route(self, *communities, prepend=0):
        route = local_route(EXP_PREFIX, next_hop=TUNNEL_IP)
        if prepend:
            route = route.prepended(PLATFORM_ASN, prepend)
        return route.add_communities(*communities)

    def announce(self, route):
        self.experiment.announce(route)
        self.scheduler.run_for(5)

    def accepted(self):
        """The route as the enforcer let it into the node."""
        (route,) = self.node.experiments["x1"].announced.values()
        return route

    def gids(self, *indexes):
        return [self.sinks[i].gid for i in indexes]


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_transform_one_encode_for_32_neighbors(monkeypatch):
    world = World(upstreams=32)
    blocked = world.sinks[7]
    world.experiment.announce(
        world.route(block_neighbor(blocked.gid), prepend=2)
    )
    # The experiment's own send is encoded by now; count the mux only.
    transforms = count_calls(monkeypatch, VbgpNode, "export_transform")
    encodes = count_calls(monkeypatch, UpdateMessage, "_encode_into_buffer")
    world.scheduler.run_for(5)
    assert len(transforms) == 1
    assert len(encodes) == 1
    for sink in world.sinks:
        if sink is blocked:
            assert sink.frames == []
            continue
        assert sink.frames == [export_to_neighbor_frame(
            world.node, sink.neighbor, world.accepted()
        )]
    assert world.node.counters["updates_to_neighbors"] == 31


def test_reannounce_sends_each_neighbor_only_its_delta():
    world = World(upstreams=8)
    world.announce(world.route(
        *(announce_to_neighbor(g) for g in world.gids(0, 1, 2, 3))
    ))
    for sink in world.sinks:
        sink.clear()
    final = world.route(
        *(announce_to_neighbor(g) for g in world.gids(2, 3, 4, 5)),
        block_neighbor(world.sinks[3].gid), prepend=1,
    )
    world.announce(final)
    for index, sink in enumerate(world.sinks):
        withdraws = [u for u in sink.updates if u.withdrawn]
        announces = [u for u in sink.updates if u.nlri]
        if index in (0, 1, 3):          # old - new
            assert (len(withdraws), len(announces)) == (1, 0)
        elif index in (2, 4, 5):        # new; 2 is also in old
            assert (len(withdraws), len(announces)) == (0, 1)
        else:
            assert sink.updates == []
        assert len(sink.frames) == len(sink.updates)
    scratch = World(upstreams=8)
    scratch.announce(final)
    assert [s.table for s in world.sinks] == [s.table for s in scratch.sinks]
    assert [bool(s.table) for s in world.sinks] == [
        i in (2, 4, 5) for i in range(8)
    ]


def test_identical_reannounce_is_sent_again():
    """A re-announcement whose export equals what a neighbor holds still
    reaches it: the path just announced is always re-sent, so the bytes
    per announcement do not depend on what the neighbor holds."""
    world = World(upstreams=3)
    route = world.route(block_neighbor(world.sinks[2].gid), prepend=1)
    world.announce(route)
    first = [list(sink.frames) for sink in world.sinks]
    for sink in world.sinks:
        sink.clear()
    world.announce(route)
    assert [sink.frames for sink in world.sinks] == first
    assert [len(frames) for frames in first] == [1, 1, 0]


def test_down_target_is_skipped_then_replayed_on_establish():
    world = World(upstreams=4, resilient=True)
    down = world.sinks[1]
    down.port.channel.close()
    world.scheduler.run_for(0.1)
    assert not down.neighbor.session.established
    down.clear()
    world.experiment.announce(world.route(prepend=1))
    world.scheduler.run_for(0.2)
    assert down.frames == []
    assert world.node.counters["updates_to_neighbors"] == 3
    world.scheduler.run_for(30)
    assert down.neighbor.session.established
    assert down.frames == [export_to_neighbor_frame(
        world.node, down.neighbor, world.accepted()
    )]
    assert down.table == world.sinks[0].table != {}


def test_upstream_attached_later_gets_the_export():
    """An upstream that joins after the announcement, and the one its
    whitelist community names, is sent the export once it is up."""
    world = World(upstreams=2)
    node = world.node
    world.announce(world.route(
        announce_to_neighbor(world.sinks[1].gid),
        announce_to_neighbor(world.sinks[1].gid + 1),
    ))
    late = Sink(world.scheduler, world.pop, "late", 65100)
    assert late.gid == world.sinks[1].gid + 1
    world.scheduler.run_for(5)
    assert late.neighbor.session.established
    assert late.frames == [export_to_neighbor_frame(
        node, late.neighbor, world.accepted()
    )]
    assert [len(sink.frames) for sink in world.sinks] == [0, 1]


def test_export_frames_are_the_joined_oracle_bytes():
    """Announce, re-announce and withdraw toward six neighbors: every
    frame is what the joined-bytes encoder makes of the message it
    decodes to, and each neighbor gets only its own delta."""
    world = World(upstreams=6)
    world.announce(world.route(
        *(announce_to_neighbor(g) for g in world.gids(0, 1, 2))
    ))
    world.announce(world.route(
        *(announce_to_neighbor(g) for g in world.gids(1, 2, 3)),
        prepend=3,
    ))
    world.experiment.withdraw(world.route())
    world.scheduler.run_for(5)
    for sink in world.sinks:
        assert len(sink.frames) == len(sink.updates)
        for frame, update in zip(sink.frames, sink.updates):
            assert frame == joined_encode(update)
    assert [len(sink.frames) for sink in world.sinks] == [2, 3, 3, 2, 0, 0]


def test_backbone_peers_get_the_replace_as_one_announce():
    """A replace is implicit on the mesh too (RFC 4271): one announce of
    the new path under the node's one id for it, no withdraw first."""
    world = World(upstreams=2)
    node = world.node
    node.backbone_address = IPv4Address.parse("10.255.0.1")
    ours, theirs = connect_pair(world.scheduler, rtt=0.01)
    node.attach_backbone_peer("other", ours)
    received = []
    peer = BgpSession(
        world.scheduler,
        SessionConfig(local_asn=PLATFORM_ASN,
                      local_id=IPv4Address.parse("10.255.0.2"),
                      peer_asn=PLATFORM_ASN, addpath=True),
        theirs,
        on_update=lambda _s, update: received.append(update),
    )
    peer.start()
    world.scheduler.run_for(5)

    def carried():
        """The accepted route as the mesh carries it."""
        (mesh_id,) = node.experiments["x1"].mesh_ids.values()
        return world.accepted().with_next_hop(
            node.backbone_address).with_path_id(mesh_id)

    world.announce(world.route(announce_to_neighbor(world.sinks[0].gid)))
    first = carried()
    world.announce(world.route(prepend=2))
    second = carried()
    assert first.path_id == second.path_id
    assert received == [
        UpdateMessage.announce([first]),
        UpdateMessage.announce([second]),
    ]
    # Toward the upstreams the same replace is implicit for sink 0.
    assert [bool(u.withdrawn) for u in world.sinks[0].updates] == [
        False, False
    ]


def test_dryrun_export_state_matches_per_neighbor_entries(monkeypatch):
    """``export_state`` is what each transit holds from the platform: its
    column of the node's Adj-RIB-Out through the export transform, one
    entry per chosen route."""
    world = build_intent_world()
    alpha = world.clients["alpha"]
    east_gid = world.platform.pops["east"].node.upstreams[
        "transit-east"
    ].virtual.global_id
    # A west-only announcement steered to east's transit: the carried
    # (backbone) path has something to export.
    alpha.announce(alpha.profile.prefixes[1], pops=("west",),
                   communities=(announce_to_neighbor(east_gid),))
    world.scheduler.run_for(30)
    entries = count_calls(monkeypatch, dryrun, "_entry")
    exports = export_state(world.platform)
    assert sorted(exports) == ["east/transit-east", "west/transit-west"]
    for key, held in exports.items():
        handle = world.neighbors[key.partition("/")[2]]
        received = {
            str(entry.route.prefix): attr_fingerprint(entry.route.attributes)
            for entry in handle.speaker.loc_rib.best_routes()
            if entry.route.prefix != handle.dest
        }
        assert {prefix: entry.fingerprint
                for prefix, entry in held.items()} == received, key
    assert str(alpha.profile.prefixes[1]) in exports["east/transit-east"]
    routes = {id(args[1]) for args in entries}
    assert len(entries) == len(routes)  # one entry per route, not per target
