"""The workloads: what goes in, how it is driven, what must come out.

Every workload generates its inputs from the seed, pre-encodes them to
wire bytes (control plane) or builds the frames (data plane) outside the
timed region, drives the world one slice at a time, and hands each
slice's arrivals to the oracle.  Each class's ``why`` is the sentence
recorded in ``BENCHMARK.json``.

Closed loop unless stated: one operation in flight; after each injection
the simulated scheduler runs ``SETTLE`` seconds so everything the
operation causes reaches a sink.  An operation's latency is injection →
arrival of the *last* frame it caused (sinks timestamp arrivals);
operations that must cause no output (rejections, drops) count toward
throughput and correctness but have no latency sample.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import replace
from itertools import accumulate
from time import perf_counter, perf_counter_ns

from repro.bgp.attributes import AsPath, Community, PathAttributes, Route
from repro.bgp.messages import UpdateMessage
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.transport import FrameReassembler, connect_pair
from repro.internet.churn import AMSIX_PROFILE, ChurnGenerator
from repro.internet.fulltable import FullTableGenerator
from repro.netsim.addr import IPv4Address, IPv4Prefix
from repro.netsim.frames import (
    EtherType,
    EthernetFrame,
    IpProto,
    IPv4Packet,
    UdpDatagram,
)
from repro.toolkit.client import build_announcement
from repro.vbgp.communities import (
    announce_to_neighbor,
    announce_to_pop,
    block_neighbor,
)

from benchmarks.e2e import oracle
from benchmarks.e2e.harness import Slice, percentile
from benchmarks.e2e.world import (
    PLATFORM_ASN,
    POP_ID,
    SETTLE,
    Endpoint,
    control_world,
    dataplane_world,
    experiment_prefix,
    loopback_world,
)


class Outcome:
    """One driven slice: its timing, and where each op's arrivals end."""

    __slots__ = ("slices", "marks", "timed")

    def __init__(self, slices, marks, timed=None) -> None:
        self.slices = slices
        self.marks = marks      # per op: arrival-log length once it settled
        self.timed = (
            sum(piece.wall for piece in slices) if timed is None else timed
        )


class Workload:
    """Base: seeded generation, closed-loop driving, per-op verification.

    An op is a tuple whose first two items are ``(send, payload)``; the
    rest is whatever ``check_op`` needs.
    """

    name = ""
    why = ""
    op = "update"
    transport = "simulated"
    slice_len = 1000
    smoke_len = 60
    # Peak RSS is read after this many timed slices (0: at the end), so
    # that a faster run, which gets through more operations in the same
    # seconds and so holds more state, does not read as using more memory.
    rss_slices = 0
    # Seams for the tests that prove the oracle catches a broken sink.
    endpoint_cls = Endpoint
    client_hold_time = 90

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(seed)
        self.digest = hashlib.sha256()
        self.output_bytes = 0
        self.world = None
        self.model = None
        # Latencies of ops outside the headline percentiles (route flaps
        # interleaved with packets).
        self.side_latencies: list[float] = []
        # Host slowdown measured just before the slice about to run (set
        # by the harness); only an open-loop schedule needs it.
        self.host_slowdown = 1.0

    @property
    def length(self) -> int:
        return self.smoke_len if self.smoke else self.slice_len

    @property
    def bounded_slices(self):
        """Slices of input left, where the input is bounded; else None."""
        return None

    # -- lifecycle ----------------------------------------------------------

    def prepare(self) -> None:
        """Build generators and any preload inputs (untimed)."""

    def build(self):
        """One set-up: world built, sessions ESTABLISHED, preload done."""
        raise NotImplementedError

    def close(self, world) -> None:
        world.close()

    def bind(self, world) -> None:
        """Adopt the world the run will use; configure the oracle."""
        self.world = world

    def next_ops(self) -> list:
        raise NotImplementedError

    def finish(self) -> int:
        """Sinks whose decoded end state differs from the model."""
        return self.model.final_mismatches()

    def fixed_parameters(self) -> dict:
        return {}

    # -- driving ------------------------------------------------------------

    def count(self, ops: list) -> int:
        return len(ops)

    def headline(self, op) -> bool:
        return True

    def run_slice(self, ops: list, tracer) -> Outcome:
        log = self.world.log
        run_for = self.world.scheduler.run_for
        headline = self.headline
        side = self.side_latencies
        marks = []
        latencies = []
        started = perf_counter()
        for op in ops:
            before = len(log)
            if tracer is not None:
                tracer.begin()
            t0 = perf_counter()
            op[0](op[1])
            run_for(SETTLE)
            if tracer is not None:
                tracer.end()
            if len(log) > before:
                (latencies if headline(op) else side).append(log[-1][2] - t0)
            marks.append(len(log))
        wall = perf_counter() - started
        if tracer is not None:
            # One root span per injection; per-op figures are per
            # operation (a route, a packet), like the end-to-end ones.
            tracer.ops += self.count(ops) - len(ops)
        return Outcome([Slice(self.count(ops), wall, latencies)], marks)

    # -- verification -------------------------------------------------------

    def verify(self, ops: list, outcome: Outcome) -> tuple[int, int]:
        """``(attempted, failed)`` for one slice; empties the arrival log."""
        log = self.world.log
        failed = 0
        start = 0
        for op, end in zip(ops, outcome.marks):
            if not self.check_op(op, log[start:end]):
                failed += 1
            start = end
        failed += len(log) - start      # arrivals no operation accounts for
        del log[:]
        if not self.world.all_established():
            failed += 1                 # a session died: output has stopped
        return len(ops), failed

    def check_op(self, op, arrivals) -> bool:
        """Control-plane default: ops are ``(send, wire, sender, …)`` and
        ``_sink_of`` maps sink indexes to the model's sink positions."""
        return self.model.check(
            op[2], op[1], self.frames_by_sink(arrivals, self._sink_of)
        )

    def frames_by_sink(self, arrivals, sink_of: dict) -> list[list[bytes]]:
        frames: list[list[bytes]] = [[] for _ in sink_of]
        for index, frame, _arrived in arrivals:
            self.output_bytes += len(frame)
            frames[sink_of[index]].append(frame)
        return frames

    # -- tracing ------------------------------------------------------------

    def bind_tracer(self, tracer) -> None:
        tracer.bind_world(self.world)
        self._counters0 = self.counters()

    def wire_model(self):
        """The model that counted control-plane output frames."""
        return self.model

    def counters(self) -> dict:
        """Public counters of the program (and the oracle's tallies of
        what reached the sinks) that the per-layer ratios are made of."""
        pop = self.world.pop
        node = pop.node
        tables = pop.stack.tables.values()
        channels = [n.session.channel for n in node.upstreams.values()] + [
            e.session.channel for e in node.experiments.values()
        ]
        model = self.wire_model()
        return {
            "frames_sent": node.counters["updates_to_experiments"]
            + node.counters["updates_to_neighbors"],
            "lpm_hits": sum(table.cache_hits for table in tables),
            "lpm_misses": sum(table.cache_misses for table in tables),
            "routes_checked": pop.control_enforcer.routes_checked,
            "routes_rejected": pop.control_enforcer.routes_rejected,
            "frames_seen": pop.data_enforcer.frames_seen,
            "frames_dropped": pop.data_enforcer.frames_dropped,
            "tx_bytes": sum(channel.tx_bytes for channel in channels),
            "frames_out": model.frames_out,
            "bytes_out": model.bytes_out,
            "routes_out": model.routes_out,
        }

    def ratios(self, tracer) -> dict:
        now = self.counters()
        delta = {key: now[key] - self._counters0[key] for key in now}
        ops = max(tracer.ops, 1)
        sends = tracer.calls[tracer.index["bgp.transport.tx"]]
        events = tracer.calls[tracer.index["sim.scheduler"]]
        waits = sorted(tracer.queue_waits_ns)
        side = sorted(self.side_latencies)
        return {
            "vbgp.node.frames_out_per_update": delta["frames_sent"] / ops,
            "vbgp.node.nlri_per_frame": _ratio(
                delta["routes_out"], delta["frames_out"]),
            "bgp.messages.bytes_per_route": _ratio(
                delta["bytes_out"], delta["routes_out"]),
            "netsim.lpm.cache_hit_ratio": _ratio(
                delta["lpm_hits"], delta["lpm_hits"] + delta["lpm_misses"]),
            "netsim.stack.rule_checks_per_packet": 0.0,
            "security.control.rejected_share": _ratio(
                delta["routes_rejected"], delta["routes_checked"]),
            "security.data.dropped_share": _ratio(
                delta["frames_dropped"], delta["frames_seen"]),
            "sim.scheduler.events_per_op": events / ops,
            "bgp.transport.sends_per_update": sends / ops,
            "bgp.transport.bytes_per_send": _ratio(delta["tx_bytes"], sends),
            "bgp.transport.queue_wait_us": (
                percentile(waits, 0.5) / 1e3 if waits else 0.0
            ),
            "driver.lag_p99_us": 0.0,
            "driver.sojourn_p50_us": 0.0,
            "driver.sojourn_p99_us": 0.0,
            "driver.flap_p50_us": (
                percentile(side, 0.5) * 1e6 if side else 0.0
            ),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# Upstream → experiments
# ---------------------------------------------------------------------------


class FanoutWorkload(Workload):
    """Ops are ``(send, wire, upstream, …)``; sinks are the experiments."""

    upstreams = 8
    experiments = 8

    def build(self):
        return control_world(
            self.upstreams, self.experiments,
            endpoint_cls=self.endpoint_cls,
            client_hold_time=self.client_hold_time,
        )

    def bind(self, world) -> None:
        super().bind(world)
        self.model = fanout_model(world)
        self._sink_of = {
            endpoint.index: position
            for position, endpoint in enumerate(world.experiments)
        }


def fanout_model(world) -> oracle.FanoutModel:
    return oracle.FanoutModel(
        len(world.experiments),
        [world.upstream_virtual(index).local_ip.packed()
         for index in range(len(world.upstreams))],
    )


class ChurnFanout(FanoutWorkload):
    name = "churn_fanout"
    why = ("AMS-IX-shaped churn over 512 reused attribute sets, 8 upstreams "
           "to 8 ADD-PATH experiments: the paper's steady state, every "
           "control-plane layer works and the encode/intern caches hit")
    prefix_count = 5000
    rss_slices = 15

    def prepare(self) -> None:
        self.generators = [
            ChurnGenerator(AMSIX_PROFILE, prefix_count=self.prefix_count,
                           seed=self.seed * 1000 + index)
            for index in range(self.upstreams)
        ]

    def make_update(self, upstream: int) -> UpdateMessage:
        return self.generators[upstream].make_update()

    def next_ops(self) -> list:
        ops = []
        senders = [endpoint.send for endpoint in self.world.upstreams]
        for _ in range(self.length):
            upstream = self.rng.randrange(len(senders))
            wire = self.make_update(upstream).encode()
            self.digest.update(wire)
            ops.append((senders[upstream], wire, upstream))
        return ops


class CommunityChurn(ChurnFanout):
    name = "community_churn"
    why = ("the same churn but every announcement carries a never-seen set "
           "of 8-24 communities (Krenc et al.): the codec and intern caches "
           "miss, so a cache that helps churn_fanout and costs here shows")

    def prepare(self) -> None:
        super().prepare()
        self._serial = 0

    def make_update(self, upstream: int) -> UpdateMessage:
        update = super().make_update(upstream)
        if update.attributes is None:
            return update
        rng = self.rng
        # One community from a counter makes the set new; the rest vary
        # its size and content.  The AS path stays the pooled one.
        self._serial += 1
        fresh = {Community(60000 + (self._serial >> 16),
                           self._serial & 0xFFFF)}
        for _ in range(rng.randint(7, 23)):
            fresh.add(Community(rng.randint(1, 59999), rng.randint(0, 65535)))
        return UpdateMessage(
            attributes=replace(update.attributes,
                               communities=frozenset(fresh)),
            nlri=update.nlri,
        )


def table_messages(seed: int, prefix_count: int, upstreams: int,
                   max_nlri: int = 200, parts: int = 12
                   ) -> list[tuple[int, UpdateMessage]]:
    """One DFZ-shaped table announced by every upstream, interleaved.

    All upstreams announce the *same* prefixes (so a late joiner has a
    best path to select); upstream ``u`` groups them by the origins of a
    generator seeded differently and carries that generator's attributes.
    The table is ``parts`` generated tables side by side: one table's
    cost is set by its few most popular origins (the top one holds 15 %
    of the prefixes), which made per-route cost swing ±8 % with the seed;
    a dozen tables average that out to ±2-3 %.
    """
    per_upstream: list[list] = [[] for _ in range(upstreams)]
    for part in range(parts):
        base = FullTableGenerator(
            prefix_count=prefix_count // parts, seed=seed + 1000 * part
        )
        for upstream in range(upstreams):
            source = base if upstream == 0 else FullTableGenerator(
                prefix_count=prefix_count // parts,
                seed=seed + 1000 * part + upstream,
            )
            groups: dict[PathAttributes, list] = {}
            for index, prefix in enumerate(base.prefixes):
                groups.setdefault(
                    source.attributes_for(index), []).append(prefix)
            per_upstream[upstream].extend(
                (upstream, UpdateMessage(
                    attributes=attributes,
                    nlri=tuple((prefix, None)
                               for prefix in members[start:start + max_nlri]),
                ))
                for attributes, members in groups.items()
                for start in range(0, len(members), max_nlri)
            )
    interleaved = []
    for position in range(max(map(len, per_upstream))):
        for messages in per_upstream:
            if position < len(messages):
                interleaved.append(messages[position])
    return interleaved


class TableIngest(FanoutWorkload):
    name = "table_ingest"
    why = ("2 upstreams send one 40k-prefix DFZ-shaped table as multi-NLRI "
           "UPDATEs to 4 experiments: per-route costs (Adj-RIB-In, LPM insert, "
           "NLRI packing) dominate; ops are routes, latency is per UPDATE")
    op = "route"
    upstreams = 2
    experiments = 4
    slice_len = 75           # UPDATE messages per slice (~2k routes)
    smoke_len = 20
    # One table and no more: the run ends when it is in (or --seconds are
    # up), so peak RSS is that of a fixed table whatever the speed.
    table_prefixes = 40000

    def prepare(self) -> None:
        messages = table_messages(
            self.seed * 100003 + 17,
            3000 if self.smoke else self.table_prefixes, self.upstreams,
        )
        # A few origins fill whole 200-NLRI messages, most send a handful,
        # and per-route cost depends on message size.  Dealt out by size
        # like cards, every slice carries the same mix, so slice rates
        # differ by interference and not by luck of the draw.
        messages.sort(key=lambda item: -len(item[1].nlri))
        hands = -(-len(messages) // self.length)
        self._hands = [messages[hand::hands] for hand in range(hands)][::-1]
        for hand in self._hands:
            self.rng.shuffle(hand)

    @property
    def bounded_slices(self):
        return len(self._hands)

    def next_ops(self) -> list:
        if not self._hands:
            return []
        senders = [endpoint.send for endpoint in self.world.upstreams]
        ops = []
        for upstream, message in self._hands.pop():
            wire = message.encode()
            self.digest.update(wire)
            ops.append((senders[upstream], wire, upstream, len(message.nlri)))
        return ops

    def count(self, ops: list) -> int:
        return sum(op[3] for op in ops)


class LateJoin(FanoutWorkload):
    name = "late_join"
    why = ("a real BgpSpeaker router joins a PoP that holds the table and must "
           "end with every path in its Loc-RIB, best paths selected: the "
           "session-establishment burst; only here speaker, Loc-RIB, "
           "decision work")
    op = "route"
    upstreams = 2
    experiments = 0
    table_prefixes = 6000
    rss_slices = 6

    def prepare(self) -> None:
        self._preload = [
            (upstream, message.encode())
            for upstream, message in table_messages(
                self.seed * 100003 + 5,
                600 if self.smoke else self.table_prefixes,
                self.upstreams,
            )
        ]
        for _upstream, wire in self._preload:
            self.digest.update(wire)
        self._joins = 0

    def build(self):
        world = super().build()
        for upstream, wire in self._preload:
            world.upstreams[upstream].send(wire)
        world.scheduler.run_for(1.0)
        return world

    def bind(self, world) -> None:
        super().bind(world)
        for upstream, wire in self._preload:
            self.model.apply_input(upstream, wire)
        self.paths = len(self.model.announced)
        self._want = self.model.expected_paths()
        self._tunnel = world.open_tunnel("joiner", experiment_prefix(0))
        self._joined = None

    def next_ops(self) -> list:
        return [None]       # one join per slice

    def run_slice(self, ops: list, tracer) -> Outcome:
        """Dial, establish, receive the table.  Every route is timed from
        the moment the joiner dialed: they were all due then."""
        world = self.world
        scheduler = world.scheduler
        name = f"join{self._joins}"
        self._joins += 1
        speaker = BgpSpeaker(scheduler, SpeakerConfig(
            asn=PLATFORM_ASN, router_id=self._tunnel.client_ip,
        ))
        ours, theirs = connect_pair(
            scheduler, rtt=2 * self._tunnel.link.latency
        )
        if tracer is not None:
            tracer.begin()
        started = perf_counter()
        world.attach_experiment(name, experiment_prefix(0), self._tunnel, ours)
        speaker.attach_neighbor(
            NeighborConfig(name="mux", peer_asn=PLATFORM_ASN, addpath=True,
                           local_address=self._tunnel.client_ip),
            theirs,
        )
        if tracer is not None:
            tracer.bind_channel(ours)
            tracer.bind_channel(theirs)
        # Tap behind the speaker's session: once it has processed a chunk,
        # note the time and how many routes the chunk announced.
        session_rx = theirs.on_data
        reassembler = FrameReassembler()
        arrivals: list[tuple[float, int]] = []

        model = self.model

        def tap(data: bytes) -> None:
            session_rx(data)
            routes = 0
            for frame in reassembler.feed(data):
                if oracle.is_update(frame):
                    routes += oracle.count_nlri(frame, True)
                    model.frames_out += 1
                    model.bytes_out += len(frame)
            if routes:
                model.routes_out += routes
                arrivals.append((perf_counter(), routes))

        theirs.on_data = tap
        scheduler.run_for(0.5)
        wall = perf_counter() - started
        latencies = []
        for when, routes in arrivals:
            latencies.extend([when - started] * routes)
        if tracer is not None:
            tracer.end(ops=max(1, len(latencies)))
        self._joined = (name, speaker, theirs)
        return Outcome([Slice(len(latencies), wall, latencies)], [])

    def verify(self, ops: list, outcome: Outcome) -> tuple[int, int]:
        name, speaker, channel = self._joined
        failed = oracle.loc_rib_mismatches(speaker, self._want)
        self.output_bytes += channel.rx_bytes
        # Leave: the mux forgets the experiment, the next join starts clean.
        speaker.remove_neighbor("mux")
        self.world.scheduler.run_for(0.1)
        if name in self.world.pop.node.experiments:
            failed += 1
        if not self.world.all_established():
            failed += 1
        return self.paths, min(failed, self.paths)

    def finish(self) -> int:
        return 0        # every join was compared with the model in full


# ---------------------------------------------------------------------------
# Experiments → upstreams
# ---------------------------------------------------------------------------


class ExpAnnounce(Workload):
    name = "exp_announce"
    why = ("8 experiments announce/withdraw toward 32 upstreams with "
           "whitelist/blacklist communities, prepends, 5% policy violations: "
           "control enforcer, export control and per-neighbor transform + "
           "encode work")
    upstreams = 32
    experiments = 8
    slice_len = 250
    rss_slices = 16

    def build(self):
        # The 144/day budget is checked on every announcement but must
        # never be the reason one is rejected.
        return control_world(self.upstreams, self.experiments,
                             per_pop_limit=10 ** 9)

    def bind(self, world) -> None:
        super().bind(world)
        self.gids = [
            world.upstream_virtual(index).global_id
            for index in range(len(world.upstreams))
        ]
        self.model = oracle.ExportModel(
            PLATFORM_ASN, POP_ID, world.pop.server_address.packed(),
            self.gids, [prefix.key() for prefix in world.allocations],
        )
        self._sink_of = {
            endpoint.index: position
            for position, endpoint in enumerate(world.upstreams)
        }
        self._prefixes = [
            [allocation, *allocation.subnets(23), *allocation.subnets(24)]
            for allocation in world.allocations
        ]
        self._announced: list[set] = [set() for _ in world.allocations]

    def _communities(self) -> list[Community]:
        rng = self.rng
        roll = rng.random()
        if roll < 0.40:
            chosen = []
        elif roll < 0.70:
            chosen = [announce_to_neighbor(gid) for gid in
                      rng.sample(self.gids, rng.randint(1, 4))]
        elif roll < 0.90:
            chosen = [block_neighbor(gid) for gid in
                      rng.sample(self.gids, rng.randint(1, 8))]
        else:
            chosen = [announce_to_pop(POP_ID)]
        if rng.random() < 0.10:     # free-form: must be stripped
            chosen += [Community(65000 + rng.randint(0, 9), rng.randint(1, 99))
                       for _ in range(rng.randint(1, 3))]
        return chosen

    def _make(self, experiment: int) -> UpdateMessage:
        rng = self.rng
        own = self._prefixes[experiment]
        announced = self._announced[experiment]
        tunnel_ip = self.world.tunnels[experiment].client_ip
        roll = rng.random()
        if roll < 0.05:
            idle = [prefix for prefix in own if prefix not in announced]
            if idle and rng.random() < 0.5:
                # Unauthorised poisoning, on a prefix not currently
                # exported so that "rejected" is unambiguous.
                route = build_announcement(
                    rng.choice(idle), PLATFORM_ASN, PLATFORM_ASN,
                    poison=[rng.randint(1000, 40000)],
                )
            else:
                other = (experiment + rng.randrange(1, len(self._prefixes))
                         ) % len(self._prefixes)
                route = build_announcement(
                    rng.choice(self._prefixes[other]), PLATFORM_ASN,
                    PLATFORM_ASN,
                )
            return UpdateMessage.announce([route.with_next_hop(tunnel_ip)])
        prefix = rng.choice(own)
        if roll < 0.25 and prefix in announced:
            announced.discard(prefix)
            return UpdateMessage.withdraw(
                [Route(prefix=prefix, attributes=PathAttributes())]
            )
        announced.add(prefix)
        route = build_announcement(
            prefix, PLATFORM_ASN, PLATFORM_ASN,
            communities=self._communities(),
            prepend=rng.choice((0, 0, 1, 2, 3)),
        )
        return UpdateMessage.announce([route.with_next_hop(tunnel_ip)])

    def next_ops(self) -> list:
        senders = [endpoint.send for endpoint in self.world.experiments]
        ops = []
        for _ in range(self.length):
            experiment = self.rng.randrange(len(senders))
            wire = self._make(experiment).encode(addpath=True)
            self.digest.update(wire)
            ops.append((senders[experiment], wire, experiment))
        return ops


# ---------------------------------------------------------------------------
# Data plane
# ---------------------------------------------------------------------------

_TTL = 64


def _frame(src: IPv4Address, dst: IPv4Address, src_mac, dst_mac,
           payload: bytes) -> EthernetFrame:
    return EthernetFrame(
        src=src_mac, dst=dst_mac, ethertype=EtherType.IPV4,
        payload=IPv4Packet(
            src=src, dst=dst, proto=IpProto.UDP, ttl=_TTL,
            payload=UdpDatagram(4000, 9, payload),
        ),
    )


class DataplaneMix(Workload):
    """Packet ops are ``(send, frame, egress, neighbor, src, dst, payload)``.

    The neighbors' tables are installed over BGP in set-up, one UPDATE at
    a time, so the oracle checks the preload's fan-out to the experiment
    like any other update.
    """

    name = "dataplane_mix"
    why = ("UDP over 64k Zipf flows, 70% experiment-to-neighbor by destination "
           "MAC over 32 per-neighbor tables, 30% inbound, 1% spoofed: rule "
           "scan, data enforcer, LPM reads, rewrite work; control plane idle")
    op = "packet"
    upstreams = 32
    routes_per_neighbor = 512
    pool_prefixes = 2048
    flows = 65536
    slice_len = 3000
    rss_slices = 20

    def prepare(self) -> None:
        rng = self.rng
        if self.smoke:
            self.upstreams, self.routes_per_neighbor = 4, 32
            self.pool_prefixes, self.flows = 128, 512
        pool = IPv4Prefix.parse("70.0.0.0/8").subnets(24)
        self.pool = [next(pool) for _ in range(self.pool_prefixes)]
        self.tables = [
            sorted(rng.sample(range(self.pool_prefixes),
                              self.routes_per_neighbor))
            for _ in range(self.upstreams)
        ]
        self.attributes = [
            PathAttributes(
                as_path=AsPath.from_asns(
                    65000 + index,
                    *(rng.randint(1000, 40000)
                      for _ in range(rng.randint(1, 3))),
                ),
                next_hop=IPv4Address(0x64400000 + 10 + index),
            )
            for index in range(self.upstreams)
        ]
        self._preload = []
        for neighbor, members in enumerate(self.tables):
            for start in range(0, len(members), 200):
                wire = UpdateMessage(
                    attributes=self.attributes[neighbor],
                    nlri=tuple((self.pool[i], None)
                               for i in members[start:start + 200]),
                ).encode()
                self.digest.update(wire)
                self._preload.append((neighbor, wire))
        self._sequence = 0
        self._setup_failed = 0

    def build(self):
        world = dataplane_world(self.upstreams)
        world.preload_marks = []
        for neighbor, wire in self._preload:
            world.upstreams[neighbor].send(wire)
            world.scheduler.run_for(SETTLE)
            world.preload_marks.append(len(world.log))
        return world

    def bind(self, world) -> None:
        super().bind(world)
        rng = self.rng
        pop = world.pop
        allocation = world.allocations[0]
        tunnel = world.tunnels[0]
        virtuals = [world.upstream_virtual(i) for i in range(self.upstreams)]
        self.model = oracle.DataplaneModel(
            allocation.key(), pop.server_lan_mac.value,
            tunnel.client_mac.value, world.tunnel_device.index,
            [endpoint.plug.mac.value for endpoint in world.upstreams],
            [virtual.mac.value for virtual in virtuals],
            [device.index for device in world.neighbor_devices],
        )
        # The preload: routes for the packet model, fan-out for the
        # experiment's BGP sink.
        self.fanout = fanout_model(world)
        self._bgp_sink = {world.experiments[0].index: 0}
        log = world.log
        start = 0
        for (neighbor, wire), end in zip(self._preload, world.preload_marks):
            if not self.fanout.check(
                neighbor, wire,
                self.frames_by_sink(log[start:end], self._bgp_sink),
            ):
                self._setup_failed += 1
            start = end
        del log[:]
        self._routed = [
            {self.pool[i].network.value >> 8 for i in members}
            for members in self.tables
        ]
        for neighbor, networks in enumerate(self._routed):
            for network24 in networks:
                self.model.set_route(neighbor, network24, True)
        # Flows: (egress, neighbor, src address, dst address, frame
        # source MAC, frame destination MAC), Zipf-weighted by rank.
        self._flows = []
        base = allocation.network.value
        for _ in range(self.flows):
            neighbor = rng.randrange(self.upstreams)
            inside = IPv4Address(base + rng.randrange(1, 1 << 10))
            if rng.random() < 0.70:
                prefix = self.pool[rng.choice(self.tables[neighbor])]
                outside = IPv4Address(
                    prefix.network.value + rng.randrange(1, 255))
                self._flows.append((
                    True, neighbor, inside, outside,
                    tunnel.client_mac, virtuals[neighbor].mac,
                ))
            else:
                outside = IPv4Address(rng.randrange(0x0B000000, 0x3B000000))
                self._flows.append((
                    False, neighbor, outside, inside,
                    world.upstreams[neighbor].plug.mac, pop.server_lan_mac,
                ))
        self._cumulative = list(accumulate(
            1.0 / rank for rank in range(1, self.flows + 1)
        ))
        self._egress_send = world.tunnel_device.send
        self._ingress_send = [device.send for device in world.neighbor_devices]
        # Rules the policy-routing scan visits up to and including the one
        # matching each virtual MAC, read off the public rule list.
        self._rule_position = {
            rule.match_dmac.value: position + 1
            for position, rule in enumerate(pop.stack.rules)
            if rule.match_dmac is not None
        }
        self._rule_checks = 0
        self._learn_macs()

    def _learn_macs(self) -> None:
        """Every device transmits once so both switches have learned its
        MAC; otherwise each frame toward it floods all ports."""
        world = self.world
        inside = IPv4Address(world.allocations[0].network.value + 1)
        for neighbor, device in enumerate(world.neighbor_devices):
            device.send(_frame(
                IPv4Address(0x0B000001), inside,
                world.upstreams[neighbor].plug.mac, world.pop.server_lan_mac,
                b"learn",
            ))
        world.scheduler.run_for(SETTLE)
        egress = next(flow for flow in self._flows if flow[0])
        world.tunnel_device.send(_frame(*egress[2:], b"learn"))
        world.scheduler.run_for(SETTLE)
        del world.log[:]

    def _draw_flow(self) -> tuple:
        return self._flows[bisect_left(
            self._cumulative, self.rng.random() * self._cumulative[-1]
        )]

    def _packet_op(self) -> tuple:
        rng = self.rng
        egress, neighbor, src, dst, src_mac, dst_mac = self._draw_flow()
        if egress and rng.random() < 0.01:
            src = IPv4Address(rng.randrange(0x0B000000, 0x3B000000))
        self._sequence += 1
        payload = self._sequence.to_bytes(4, "big")
        self.digest.update(
            payload + src.value.to_bytes(4, "big")
            + dst.value.to_bytes(4, "big")
        )
        send = self._egress_send if egress else self._ingress_send[neighbor]
        return (send, _frame(src, dst, src_mac, dst_mac, payload),
                egress, neighbor, src.value, dst.value, payload)

    def next_ops(self) -> list:
        return [self._packet_op() for _ in range(self.length)]

    def check_op(self, op, arrivals) -> bool:
        _send, sent, egress, neighbor, src, dst, payload = op
        for _sink, frame, _arrived in arrivals:
            self.output_bytes += frame.size
        if egress:
            self._rule_checks += self._rule_position[sent.dst.value]
        return self.model.check(egress, neighbor, src, dst, _TTL, payload,
                                arrivals)

    def finish(self) -> int:
        return self._setup_failed + self.fanout.final_mismatches()

    def wire_model(self):
        return self.fanout

    def bind_tracer(self, tracer) -> None:
        super().bind_tracer(tracer)
        self._rule_checks = 0

    def ratios(self, tracer) -> dict:
        out = super().ratios(tracer)
        out["netsim.stack.rule_checks_per_packet"] = (
            self._rule_checks / max(tracer.ops, 1)
        )
        return out


class DataplaneChurn(DataplaneMix):
    """Flap ops are ``(send, wire, None, neighbor, /24 network, present)``."""

    name = "dataplane_churn"
    why = ("the same traffic with one upstream route flap (wire bytes) per 50 "
           "packets, verdicts derived from the flap schedule: LPM writes "
           "beside reads, so a read-side gain that costs writes shows")
    flap_every = 50

    def _flap_op(self) -> tuple:
        # Flap what traffic uses: draw an egress flow by popularity.
        flow = self._draw_flow()
        while not flow[0]:
            flow = self._draw_flow()
        neighbor = flow[1]
        network24 = flow[3].value >> 8
        prefix = IPv4Prefix(IPv4Address(network24 << 8), 24)
        present = network24 in self._routed[neighbor]
        if present:
            self._routed[neighbor].discard(network24)
            message = UpdateMessage(withdrawn=((prefix, None),))
        else:
            self._routed[neighbor].add(network24)
            message = UpdateMessage(
                attributes=self.attributes[neighbor], nlri=((prefix, None),)
            )
        wire = message.encode()
        self.digest.update(wire)
        return (self.world.upstreams[neighbor].send, wire, None, neighbor,
                network24, not present)

    def next_ops(self) -> list:
        every = self.flap_every
        return [
            self._flap_op() if position % every == every - 1
            else self._packet_op()
            for position in range(self.length)
        ]

    def headline(self, op) -> bool:
        return op[2] is not None

    def count(self, ops: list) -> int:
        return sum(1 for op in ops if op[2] is not None)

    def check_op(self, op, arrivals) -> bool:
        if op[2] is not None:
            return super().check_op(op, arrivals)
        _send, wire, _none, neighbor, network24, present = op
        self.model.set_route(neighbor, network24, present)
        if any(entry[0] not in self._bgp_sink for entry in arrivals):
            return False        # a flap must not cause a data frame
        return self.fanout.check(
            neighbor, wire, self.frames_by_sink(arrivals, self._bgp_sink)
        )


# ---------------------------------------------------------------------------
# Real loopback TCP
# ---------------------------------------------------------------------------


class ChurnLoopback(ChurnFanout):
    """Each slice is an open-loop half (ops carry a due time) and a
    closed-loop half.  With one upstream and one sink every update causes
    exactly one frame, so arrival *k* answers op *k*; the oracle checks
    that pairing frame by frame.

    The end-to-end metrics come from the closed-loop half.  Open-loop
    sojourn times are what the issue wanted as the headline, but they did
    not repeat: their tail is a handful of millisecond pauses (collector,
    host) per thousand updates, each delaying the ten updates queued
    behind it, and even p90 moved ±20 % between runs of the same code —
    so, by the issue's own rule, they are demoted to per-layer metrics
    (``driver.sojourn_p50_us``, ``driver.sojourn_p99_us``) beside
    ``driver.lag_p99_us`` and ``bgp.transport.queue_wait_us``.
    """

    name = "churn_loopback"
    why = ("churn_fanout's bytes over real loopback TCP, one feeder, one sink, "
           "same thread: Poisson arrivals at a fixed 4000/s (sojourn, traced) "
           "then a closed window of 32 (headline): transport syscalls dominate")
    transport = "loopback"
    upstreams = 1
    experiments = 1
    # Fixed open-loop offered rate, about a third of this box's
    # one-in-flight loopback capacity.  Never retuned: a faster program
    # shows as lower sojourn times, not as a different rate.  It is per
    # second *at nominal host speed*, like every reported time: due times
    # stretch with the host slowdown measured just before the slice, so a
    # slow host does not push utilisation up and the queue with it.
    OPEN_RATE = 4000.0
    WINDOW = 32
    STALL_S = 10.0
    slice_len = 2000
    rss_slices = 6

    def build(self):
        return loopback_world()

    def bind(self, world) -> None:
        super().bind(world)
        self._lags: list[float] = []
        self._sojourns: list[float] = []
        # (byte offset, due ns) of what the open phase injected since
        # tracing began, for bgp.transport.queue_wait_us.
        self._injected: list[tuple[int, int]] = []
        self._sent_bytes = 0
        self._epoch = perf_counter()

    def fixed_parameters(self) -> dict:
        return {"open_loop_rate_per_s": self.OPEN_RATE,
                "closed_loop_window": self.WINDOW,
                "open_loop": self.open_loop() if self._sojourns else {}}

    def next_ops(self) -> list:
        ops = super().next_ops()
        due = 0.0
        for position in range(len(ops) // 2):
            due += self.rng.expovariate(self.OPEN_RATE)
            ops[position] += (due,)     # in nominal seconds
        return ops

    def run_slice(self, ops: list, tracer) -> Outcome:
        scheduler = self.world.scheduler
        # Simulated time (session timers) follows the wall clock.
        scheduler.run_until(max(scheduler.now, perf_counter() - self._epoch))
        half = len(ops) // 2
        stretch = self.host_slowdown
        scheduled = [op[:3] + (op[3] * stretch,) for op in ops[:half]]
        if tracer is not None:
            tracer.begin()
        open_wall = self._open_phase(scheduled, tracer)
        latencies, closed_wall = self._closed_phase(ops[half:])
        if tracer is not None:
            tracer.end(ops=len(ops))
        return Outcome(
            [Slice(len(ops) - half, closed_wall, latencies)],
            list(range(1, len(ops) + 1)),
            timed=open_wall + closed_wall,
        )

    def _open_phase(self, ops: list, tracer):
        pump = self.world.poller.pump
        log = self.world.log
        first = len(log)
        count = len(ops)
        sent = 0
        started = perf_counter()
        started_ns = perf_counter_ns()
        while len(log) - first < count:
            now = perf_counter() - started
            while sent < count and ops[sent][3] <= now:
                send, wire, _upstream, due = ops[sent]
                self._sent_bytes += len(wire)
                if tracer is not None:
                    self._injected.append(
                        (self._sent_bytes, started_ns + int(due * 1e9))
                    )
                send(wire)
                self._lags.append(now - due)
                sent += 1
                now = perf_counter() - started
            if sent == count:
                pump(0.005)
            elif len(log) - first == sent:
                self._idle_until(started + ops[sent][3], tracer)
            else:
                pump(_poll_timeout(ops[sent][3] - now))
            if now > ops[-1][3] + self.STALL_S:
                raise RuntimeError("loopback output stopped (open phase)")
        wall = perf_counter() - started
        # As measured ÷ the slowdown the schedule was stretched by.
        self._sojourns.extend(
            (entry[2] - started - op[3]) / self.host_slowdown
            for op, entry in zip(ops, log[first:])
        )
        return wall

    def _idle_until(self, deadline: float, tracer) -> None:
        """Nothing is in flight: wait for the next due time.  That wait is
        the offered rate, not a layer, so the tracer books it as idle."""
        poller = self.world.poller
        pump = poller.pump
        if tracer is not None:
            pump = type(poller).pump.__wrapped__.__get__(poller)
            idle_from = perf_counter_ns()
        remaining = deadline - perf_counter()
        while remaining > 0:
            pump(_poll_timeout(remaining))
            remaining = deadline - perf_counter()
        if tracer is not None:
            tracer.idle(perf_counter_ns() - idle_from)

    def _closed_phase(self, ops: list):
        pump = self.world.poller.pump
        log = self.world.log
        first = len(log)
        count = len(ops)
        sent = done = 0
        sent_at = []
        started = perf_counter()
        while done < count:
            while sent < count and sent - done < self.WINDOW:
                sent_at.append(perf_counter())
                ops[sent][0](ops[sent][1])
                self._sent_bytes += len(ops[sent][1])
                sent += 1
            pump(0.005)
            done = len(log) - first
            if perf_counter() - started > self.STALL_S:
                raise RuntimeError("loopback output stopped (closed phase)")
        wall = perf_counter() - started
        latencies = [
            entry[2] - at for at, entry in zip(sent_at, log[first:])
        ]
        return latencies, wall

    def bind_tracer(self, tracer) -> None:
        mux_side = self.world.pop.node.upstreams["up0"].session.channel
        self._sent_bytes = 0    # the mux-side wrapper counts from here too
        tracer.bind_world(self.world, injected={mux_side: self._injected})
        self._counters0 = self.counters()

    def ratios(self, tracer) -> dict:
        out = super().ratios(tracer)
        out.update(self.open_loop())
        return out

    def open_loop(self) -> dict:
        """Open-loop half: sojourn (due → frame, at nominal host speed)
        and how late the generator itself ran."""
        sojourns, lags = sorted(self._sojourns), sorted(self._lags)
        return {
            "driver.sojourn_p50_us": percentile(sojourns, 0.50) * 1e6,
            "driver.sojourn_p99_us": percentile(sojourns, 0.99) * 1e6,
            "driver.lag_p99_us": percentile(lags, 0.99) * 1e6,
        }


def _poll_timeout(until_due: float) -> float:
    """epoll timeouts round up to a whole millisecond, so only sleep in
    select when the next due time is further off than that; otherwise
    poll, or the generator itself runs late."""
    return max(0.0, min(until_due - 0.002, 0.005))


WORKLOADS = {
    cls.name: cls
    for cls in (ChurnFanout, CommunityChurn, TableIngest, LateJoin,
                ExpAnnounce, DataplaneMix, DataplaneChurn, ChurnLoopback)
}
