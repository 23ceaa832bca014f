"""Cross-cutting property-based tests on system invariants.

These go beyond per-module round trips: they state safety properties of
the platform (the enforcer never leaks unowned prefixes; the codec is
chunking-invariant; token buckets bound long-run rate; the vBGP kernel
state always mirrors the per-neighbor RIBs under arbitrary churn).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import (
    AsPath,
    Community,
    Origin,
    PathAttributes,
    Route,
)
from repro.bgp.messages import MessageDecoder, UpdateMessage
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.netsim.frames import EtherType, EthernetFrame
from repro.security import ControlPlaneEnforcer, ExperimentProfile
from repro.security.data import BpfContext, BpfVerdict, TokenBucketProgram
from repro.sim import Scheduler

ALLOCATION = IPv4Prefix.parse("184.164.224.0/23")


# ---------------------------------------------------------------------------
# Enforcer safety: no unowned prefix ever escapes
# ---------------------------------------------------------------------------

prefixes = st.builds(
    lambda value, length: IPv4Prefix.from_address(IPv4Address(value), length),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=8, max_value=32),
)
paths = st.lists(
    st.integers(min_value=1, max_value=70000), max_size=6
).map(lambda asns: AsPath.from_asns(*asns))


@st.composite
def candidate_routes(draw):
    return Route(
        prefix=draw(prefixes),
        attributes=PathAttributes(
            origin=Origin.IGP,
            as_path=draw(paths),
            next_hop=IPv4Address(draw(st.integers(0, (1 << 32) - 1))),
            communities=frozenset(draw(st.lists(
                st.builds(Community, st.integers(0, 65535),
                          st.integers(0, 65535)),
                max_size=4,
            ))),
        ),
    )


@settings(max_examples=80, deadline=None)
@given(st.lists(candidate_routes(), max_size=10))
def test_enforcer_never_leaks_unowned_prefixes(routes):
    """For ANY input, every accepted route's prefix is inside the
    experiment's allocation — the §4.7 hijack guarantee as a property."""
    scheduler = Scheduler()
    enforcer = ControlPlaneEnforcer(
        scheduler, platform_asns=frozenset({47065})
    )
    enforcer.register_experiment(ExperimentProfile(
        name="x", asns=frozenset({47065}), prefixes=(ALLOCATION,)
    ))
    accepted = enforcer.filter_routes("x", routes, "pop")
    for route in accepted:
        assert ALLOCATION.contains_prefix(route.prefix)
        assert route.prefix.length <= 24
        # Origins are platform/experiment ASNs only.
        origin = route.as_path.origin_as
        assert origin is None or origin == 47065


@settings(max_examples=80, deadline=None)
@given(st.lists(candidate_routes(), max_size=10))
def test_enforcer_output_is_subset_by_prefix(routes):
    """The enforcer only filters/transforms; it never invents routes."""
    scheduler = Scheduler()
    enforcer = ControlPlaneEnforcer(
        scheduler, platform_asns=frozenset({47065})
    )
    enforcer.register_experiment(ExperimentProfile(
        name="x", asns=frozenset({47065}), prefixes=(ALLOCATION,)
    ))
    accepted = enforcer.filter_routes("x", routes, "pop")
    input_prefixes = {route.prefix for route in routes}
    assert all(route.prefix in input_prefixes for route in accepted)
    assert len(accepted) <= len(routes)


# ---------------------------------------------------------------------------
# Codec: chunking invariance
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(candidate_routes(), min_size=1, max_size=5),
    st.lists(st.integers(min_value=1, max_value=64), max_size=30),
)
def test_decoder_is_chunking_invariant(routes, chunk_sizes):
    """Feeding a byte stream in arbitrary chunks yields the same
    messages as feeding it at once."""
    stream = b"".join(
        UpdateMessage.announce([route]).encode() for route in routes
    )
    whole = MessageDecoder()
    whole.feed(stream)
    expected = list(whole)

    chunked = MessageDecoder()
    received = []
    position = 0
    sizes = iter(chunk_sizes)
    while position < len(stream):
        size = next(sizes, 4096)
        chunked.feed(stream[position:position + size])
        received.extend(chunked)
        position += size
    assert received == expected


# ---------------------------------------------------------------------------
# Token bucket: long-run rate bound
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=0.5),  # inter-arrival
            st.integers(min_value=64, max_value=1500),  # frame size
        ),
        min_size=10, max_size=120,
    )
)
def test_token_bucket_bounds_longrun_rate(arrivals):
    """Accepted bytes never exceed burst + rate×elapsed for any arrival
    pattern."""
    rate_bps = 80_000.0  # 10 KB/s
    burst = 5_000
    program = TokenBucketProgram(rate_bps=rate_bps, burst_bytes=burst)
    now = 0.0
    accepted_bytes = 0
    src = MacAddress(0x02AA00000001)
    for gap, size in arrivals:
        now += gap
        frame = EthernetFrame(
            src=src, dst=MacAddress(0x02BB00000001),
            ethertype=EtherType.IPV4, payload=b"x" * size,
        )
        verdict, _ = program.run(
            frame, BpfContext(now=now, iface="exp0", pop="p")
        )
        if verdict == BpfVerdict.PASS:
            accepted_bytes += frame.size
        assert accepted_bytes <= burst + (rate_bps / 8) * now + 1


# ---------------------------------------------------------------------------
# vBGP: kernel tables mirror per-neighbor RIBs under churn
# ---------------------------------------------------------------------------


def test_vbgp_kernel_state_mirrors_rib_under_churn():
    """Seeded random announce/withdraw churn: after every step, the set
    of prefixes in each neighbor's kernel table equals the set in its
    RIB (no leaks, no stale FIB entries)."""
    from repro.platform.pop import PointOfPresence, PopConfig
    from repro.security.state import EnforcerState
    from repro.vbgp.allocator import GlobalNeighborRegistry
    from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
    from repro.bgp.attributes import local_route

    scheduler = Scheduler()
    pop = PointOfPresence(
        scheduler, PopConfig(name="p", pop_id=0),
        platform_asn=47065, platform_asns=frozenset({47065}),
        registry=GlobalNeighborRegistry(),
        enforcer_state=EnforcerState(),
    )
    speakers = {}
    for name, asn in (("n1", 65010), ("n2", 65020)):
        port = pop.provision_neighbor(name, asn, kind="peer")
        speaker = BgpSpeaker(
            scheduler, SpeakerConfig(asn=asn, router_id=port.address)
        )
        speaker.attach_neighbor(
            NeighborConfig(name="up", peer_asn=None,
                           local_address=port.address),
            port.channel,
        )
        speakers[name] = speaker
    scheduler.run_for(2)

    rng = random.Random(99)
    pool = list(IPv4Prefix.parse("77.0.0.0/8").subnets(20))[:40]
    announced = {"n1": set(), "n2": set()}
    for _step in range(300):
        name = rng.choice(("n1", "n2"))
        prefix = rng.choice(pool)
        speaker = speakers[name]
        if prefix in announced[name] and rng.random() < 0.5:
            speaker.withdraw(prefix)
            announced[name].discard(prefix)
        else:
            speaker.originate(local_route(
                prefix, next_hop=speaker.config.router_id
            ))
            announced[name].add(prefix)
        scheduler.run_for(1)
        for check_name in ("n1", "n2"):
            neighbor = pop.node.upstreams[check_name]
            rib_prefixes = {key[0] for key in neighbor.rib.keys()}
            table = pop.stack.tables[neighbor.virtual.table_id]
            fib_prefixes = {entry.prefix for entry in table.entries()}
            assert rib_prefixes == fib_prefixes == announced[check_name]
