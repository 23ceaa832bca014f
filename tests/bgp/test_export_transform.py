"""One export step: ``repro.bgp.policy.export_transform`` is what both
``BgpSpeaker`` and ``VbgpNode`` export through.

Over drawn routes and every neighbor shape the speaker knows (iBGP, eBGP,
transparent, next-hop-self on and off, ADD-PATH, with and without an
export policy) and with and without a community predicate, it must give
the route the speaker's own four-step chain gave
(``speaker_export_reference.export_transform``), and with the node's
arguments the route ``export_reference.reference_transform`` gives.  When
no stage changes anything, the input's attribute object goes out.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import Community, PathAttributes, Route
from repro.bgp.policy import (
    Match,
    PolicyAction,
    PolicyResult,
    PolicyRule,
    RouteMap,
    export_transform,
)
from repro.bgp.rib import RibEntry
from repro.bgp.speaker import (
    BgpSpeaker,
    Neighbor,
    NeighborConfig,
    SpeakerConfig,
)
from repro.conformance import strategies
from repro.netsim.addr import IPv4Address, IPv4Prefix
from repro.sim import Scheduler
from repro.vbgp.communities import ANNOUNCE_ASN, BLOCK_ASN, is_control
from repro.vbgp.node import VbgpNode
from tests.bgp import speaker_export_reference
from tests.vbgp.export_reference import reference_transform

SPEAKER_ASN = 65000
LOCAL = IPv4Address.parse("192.0.2.1")
CONTROL = (Community(ANNOUNCE_ASN, 7), Community(BLOCK_ASN, 9),
           Community(ANNOUNCE_ASN, 10003))

POLICIES = (
    None,
    RouteMap(rules=[PolicyRule(
        action=PolicyAction(set_med=7, add_communities=(Community(1, 99),)),
    )]),
    RouteMap(rules=[PolicyRule(
        action=PolicyAction(add_communities=(CONTROL[0],)),
    )]),
    RouteMap(rules=[PolicyRule(
        match=Match(custom=lambda route: route.prefix.length >= 16),
        result=PolicyResult.REJECT,
    )]),
)


@st.composite
def routes(draw, with_next_hop: bool = False) -> Route:
    """A drawn route whose communities may include vBGP control ones."""
    attrs = draw(strategies.path_attributes(with_next_hop=with_next_hop))
    control = draw(st.lists(st.sampled_from(CONTROL), max_size=2))
    if control:
        attrs = replace(attrs, communities=attrs.communities | set(control))
    path_id = draw(st.none() | st.integers(1, (1 << 32) - 1))
    return Route(prefix=draw(strategies.prefixes()), attributes=attrs,
                 path_id=path_id)


def strip(route: Route) -> Route:
    control = {c for c in route.communities if is_control(c)}
    return route.without_communities(*control) if control else route


@settings(max_examples=300, deadline=None)
@given(route=routes(), is_ibgp=st.booleans(), transparent=st.booleans(),
       next_hop_self=st.booleans(), addpath=st.booleans(),
       policy=st.sampled_from(POLICIES), predicate=st.booleans())
def test_shared_transform_is_the_speakers_chain(
        route, is_ibgp, transparent, next_hop_self, addpath, policy,
        predicate):
    speaker = BgpSpeaker(Scheduler(), SpeakerConfig(
        asn=SPEAKER_ASN, router_id=IPv4Address.parse("192.0.2.254")))
    config = NeighborConfig(
        name="n", peer_asn=65001, local_address=LOCAL, is_ibgp=is_ibgp,
        transparent=transparent, next_hop_self=next_hop_self,
        addpath=addpath, export_policy=policy,
    )
    oracle, live = Neighbor(config), Neighbor(config)
    entry = RibEntry(peer="src", route=route)
    expected = speaker_export_reference.export_transform(
        speaker, oracle, entry)
    if expected is not None and predicate:
        expected = strip(expected)
    exported = export_transform(
        route, policy=policy,
        asn=None if is_ibgp or transparent else SPEAKER_ASN,
        next_hop=LOCAL, next_hop_self=next_hop_self and not transparent,
        path_id=partial(live.path_id_for, route.prefix, "src",
                        route.path_id) if addpath else None,
        drop_community=is_control if predicate else None,
    )
    assert exported == expected
    # An outbound id is allocated only for a route that is exported.
    assert live._path_ids == oracle._path_ids


@settings(max_examples=200, deadline=None)
@given(route=routes(), upstream=strategies.addresses(),
       asn=strategies.asns)
def test_node_binding_is_the_reference_transform(route, upstream, asn):
    node = SimpleNamespace(platform_asn=asn,
                           _upstream_address=lambda: upstream)
    exported = VbgpNode.export_transform(node, route)
    assert exported == reference_transform(node, route)
    assert exported.path_id is None
    assert not any(is_control(c) for c in exported.communities)


@settings(max_examples=200, deadline=None)
@given(route=routes(with_next_hop=True), keep_next_hop=st.booleans(),
       predicate=st.booleans())
def test_no_stage_applies_keeps_the_attribute_object(
        route, keep_next_hop, predicate):
    """iBGP without next-hop-self, no ADD-PATH, nothing to strip: the
    route and its attribute object go out as they came in."""
    route = strip(route).with_path_id(None)
    exported = export_transform(
        route,
        next_hop=route.next_hop if keep_next_hop else LOCAL,
        next_hop_self=keep_next_hop,
        drop_community=is_control if predicate else None,
    )
    assert exported is route
    assert exported.attributes is route.attributes


def test_every_stage_builds_one_attribute_set(monkeypatch):
    route = Route(
        prefix=IPv4Prefix.parse("10.0.0.0/24"),
        attributes=PathAttributes(
            next_hop=IPv4Address.parse("10.9.9.9"), local_pref=200,
            communities=frozenset({CONTROL[0], Community(1, 1)}),
        ),
        path_id=4,
    )
    built = []
    original = PathAttributes.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PathAttributes, "__init__", counted)
    exported = export_transform(
        route, asn=SPEAKER_ASN, next_hop=LOCAL, path_id=lambda: 11,
        drop_community=is_control,
    )
    assert len(built) == 1
    assert exported.attributes is built[0]
    assert exported.path_id == 11
    assert exported.as_path.asns == (SPEAKER_ASN,)
    assert exported.next_hop == LOCAL
    assert exported.attributes.local_pref is None
    assert exported.communities == {Community(1, 1)}
