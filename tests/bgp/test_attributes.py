"""Path attribute and route-model tests."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.bgp.attributes import (
    AsPath,
    AsPathSegment,
    Community,
    LargeCommunity,
    SegmentType,
    local_route,
    originate,
)
from repro.netsim.addr import IPv4Address, IPv4Prefix


class TestAsPath:
    def test_from_asns(self):
        path = AsPath.from_asns(100, 200, 300)
        assert path.asns == (100, 200, 300)
        assert path.length == 3
        assert path.origin_as == 300
        assert path.first_as == 100

    def test_empty_path(self):
        path = AsPath()
        assert path.length == 0
        assert path.origin_as is None
        assert str(path) == ""

    def test_as_set_counts_one_hop(self):
        path = AsPath((
            AsPathSegment(SegmentType.AS_SEQUENCE, (100,)),
            AsPathSegment(SegmentType.AS_SET, (1, 2, 3)),
        ))
        assert path.length == 2
        assert path.asns == (100, 1, 2, 3)

    def test_prepend_merges_into_sequence(self):
        path = AsPath.from_asns(100).prepended(47065, 3)
        assert path.asns == (47065, 47065, 47065, 100)
        assert len(path.segments) == 1

    def test_prepend_to_empty(self):
        assert AsPath().prepended(47065).asns == (47065,)

    def test_prepend_before_as_set(self):
        path = AsPath((AsPathSegment(SegmentType.AS_SET, (1, 2)),))
        prepended = path.prepended(100)
        assert prepended.segments[0].kind == SegmentType.AS_SEQUENCE
        assert prepended.asns == (100, 1, 2)

    def test_contains(self):
        assert AsPath.from_asns(100, 200).contains(200)
        assert not AsPath.from_asns(100, 200).contains(300)

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            AsPathSegment(SegmentType.AS_SEQUENCE, ())
        with pytest.raises(ValueError):
            AsPathSegment(SegmentType.AS_SEQUENCE, (0,))
        with pytest.raises(ValueError):
            AsPathSegment(SegmentType.AS_SEQUENCE, tuple(range(1, 300)))

    def test_str_with_set(self):
        path = AsPath((
            AsPathSegment(SegmentType.AS_SEQUENCE, (100,)),
            AsPathSegment(SegmentType.AS_SET, (1, 2)),
        ))
        assert str(path) == "100 {1 2}"

    @given(st.lists(st.integers(min_value=1, max_value=(1 << 32) - 1),
                    max_size=20))
    def test_length_matches_flat_sequence(self, asns):
        assert AsPath.from_asns(*asns).length == len(asns)


class TestCommunities:
    def test_parse_and_str(self):
        community = Community.parse("47065:2914")
        assert community == Community(47065, 2914)
        assert str(community) == "47065:2914"

    def test_packed_roundtrip(self):
        community = Community(47065, 100)
        assert Community.from_packed(community.packed()) == community

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Community(70000, 0)

    def test_large_community(self):
        lc = LargeCommunity.parse("47065:1:2")
        assert str(lc) == "47065:1:2"
        with pytest.raises(ValueError):
            LargeCommunity.parse("1:2")

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_packed_property(self, packed):
        assert Community.from_packed(packed).packed() == packed


halves = st.integers(min_value=0, max_value=65535)
out_of_range_halves = st.integers(max_value=-1) | st.integers(
    min_value=1 << 16)


class TestCommunityAsPackedInt:
    """A Community is its packed 32-bit value: an ``int`` that keeps the
    ``asn:value`` API."""

    @given(halves, halves)
    def test_fields_round_trip(self, asn, value):
        community = Community(asn, value)
        assert (community.asn, community.value) == (asn, value)
        assert Community(asn=asn, value=value) == community
        assert community.packed() == (asn << 16) | value
        assert repr(community) == f"Community(asn={asn}, value={value})"

    @given(halves, halves)
    def test_from_packed_inverts_packed(self, asn, value):
        community = Community(asn, value)
        again = Community.from_packed(community.packed())
        assert again == community and type(again) is Community

    @given(halves, halves)
    def test_parse_inverts_str(self, asn, value):
        community = Community(asn, value)
        assert str(community) == f"{asn}:{value}"
        assert Community.parse(str(community)) == community

    @given(halves, halves)
    def test_pickle_and_deepcopy_keep_the_type(self, asn, value):
        community = Community(asn, value)
        copies = [copy.copy(community), copy.deepcopy(community)] + [
            pickle.loads(pickle.dumps(community, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for again in copies:
            assert again == community and type(again) is Community
            assert (again.asn, again.value) == (asn, value)

    @given(st.lists(st.tuples(halves, halves), max_size=30))
    def test_sorted_order_is_asn_value_order(self, pairs):
        ordered = sorted(Community(asn, value) for asn, value in pairs)
        assert [(c.asn, c.value) for c in ordered] == sorted(pairs)

    @given(out_of_range_halves, halves, st.booleans())
    def test_out_of_range_half_raises(self, bad, good, bad_asn):
        asn, value = (bad, good) if bad_asn else (good, bad)
        with pytest.raises(ValueError):
            Community(asn, value)

    @given(st.integers(max_value=-1) | st.integers(min_value=1 << 32))
    def test_out_of_range_packed_raises(self, packed):
        with pytest.raises(ValueError):
            Community.from_packed(packed)

    def test_no_instance_dict(self):
        community = Community(47065, 1)
        assert not hasattr(community, "__dict__")
        assert isinstance(community, int)
        assert hash(community) == hash((47065 << 16) | 1)


class TestRoute:
    def prefix(self):
        return IPv4Prefix.parse("184.164.224.0/24")

    def test_originate_carries_origin_asn(self):
        route = originate(self.prefix(), 47065,
                          IPv4Address.parse("10.0.0.1"))
        assert route.origin_as == 47065
        assert route.as_path.length == 1

    def test_local_route_empty_path(self):
        route = local_route(self.prefix())
        assert route.as_path.length == 0
        assert route.next_hop is None

    def test_with_next_hop_returns_new_object(self):
        route = local_route(self.prefix())
        updated = route.with_next_hop(IPv4Address.parse("1.2.3.4"))
        assert route.next_hop is None
        assert str(updated.next_hop) == "1.2.3.4"

    def test_community_manipulation(self):
        a = Community(47065, 1)
        b = Community(47065, 2)
        route = local_route(self.prefix()).add_communities(a, b)
        assert route.communities == {a, b}
        route = route.without_communities(a)
        assert route.communities == {b}
        route = route.with_communities(())
        assert route.communities == frozenset()

    def test_prepended(self):
        route = originate(self.prefix(), 100, IPv4Address(0))
        assert route.prepended(47065, 2).as_path.asns == (47065, 47065, 100)

    def test_path_id(self):
        route = local_route(self.prefix()).with_path_id(7)
        assert route.path_id == 7
        assert route.with_path_id(None).path_id is None

    def test_routes_hashable_and_comparable(self):
        a = local_route(self.prefix())
        b = local_route(self.prefix())
        assert a == b
        assert hash(a) == hash(b)

    def test_str_representation(self):
        route = originate(self.prefix(), 100, IPv4Address.parse("1.1.1.1"))
        text = str(route)
        assert "184.164.224.0/24" in text
        assert "1.1.1.1" in text
