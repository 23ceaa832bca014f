"""§6g Loc-RIB engine tests: columnar storage and incremental best-path.

The shipping :class:`ColumnarLocRib` must agree with the dict-backed,
full-refold oracle (``tests/bgp/loc_rib_reference.py``) — on the best
entry, the candidate order, the best-change signals and the
decision-process stats.  The hypothesis property drives arbitrary
insert/withdraw sequences with MED-heavy attribute sets (the
non-transitive corner of RFC 4271 §9.1.2.2) and checks the incremental
state against the oracle and against a full refold of its own candidates
after every single operation.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import AsPath, Origin, PathAttributes, Route
from repro.bgp.decision import best_path
from repro.bgp.rib import ColumnarLocRib
from repro.netsim.addr import IPv4Address, IPv4Prefix
from tests.bgp.loc_rib_reference import LocRib, refold_best

PREFIXES = [IPv4Prefix.parse(f"10.{i}.0.0/16") for i in range(4)]
PEERS = ["pa", "pb", "pc"]
NH = IPv4Address.parse("1.1.1.1")

# Same-length AS paths differing in first AS and MED: the MED step only
# compares routes entering from the same neighboring AS, which makes the
# comparator non-transitive — the corner the incremental fast paths must
# not cut.
ATTRS = [
    PathAttributes(origin=Origin.IGP, as_path=AsPath.from_asns(first, 900),
                   next_hop=NH, med=med)
    for first, med in [
        (100, 0), (100, 50), (200, 10), (200, 40), (300, 20),
    ]
]


def _ops():
    return st.lists(
        st.tuples(
            st.sampled_from(["replace", "remove", "remove_peer"]),
            st.sampled_from(PEERS),
            st.integers(min_value=0, max_value=len(PREFIXES) - 1),
            st.integers(min_value=0, max_value=len(ATTRS) - 1),
            st.sampled_from([None, 1, 2]),
        ),
        min_size=1, max_size=40,
    )


def _apply(rib, op):
    kind, peer, prefix_index, attr_index, path_id = op
    prefix = PREFIXES[prefix_index]
    if kind == "replace":
        rib.replace(peer, Route(prefix=prefix, attributes=ATTRS[attr_index],
                                path_id=path_id))
    elif kind == "remove":
        rib.remove(peer, prefix, path_id)
    else:
        rib.remove_peer(peer)


def _entry_key(entry):
    return None if entry is None else (entry.peer, entry.route)


def _state(rib):
    return {
        prefix: (
            _entry_key(rib.best(prefix)),
            [_entry_key(entry) for entry in rib.candidates(prefix)],
        )
        for prefix in PREFIXES
    }


@given(ops=_ops())
@settings(max_examples=60, deadline=None)
def test_incremental_equals_full_reselect_after_every_op(ops):
    """The incremental columnar RIB matches the dict oracle running full
    reselects, and its best path is the full refold of its own
    candidates, checked after *every* operation."""
    rib = ColumnarLocRib(select=best_path)
    reference = LocRib(select=best_path)
    for op in ops:
        _apply(rib, op)
        _apply(reference, op)
        assert _state(rib) == _state(reference)
        for prefix in PREFIXES:
            assert _entry_key(rib.best(prefix)) == _entry_key(
                refold_best(best_path, rib, prefix))


@given(ops=_ops())
@settings(max_examples=40, deadline=None)
def test_backends_agree_on_stats_and_change_signals(ops):
    """The columnar RIB and the oracle report identical best-change
    booleans and identical always-on decision stats for the same
    operation stream."""
    dict_rib = LocRib(select=best_path)
    col_rib = ColumnarLocRib(select=best_path)
    for op in ops:
        kind, peer, prefix_index, attr_index, path_id = op
        prefix = PREFIXES[prefix_index]
        if kind == "replace":
            route = Route(prefix=prefix, attributes=ATTRS[attr_index],
                          path_id=path_id)
            assert dict_rib.replace(peer, route) == \
                col_rib.replace(peer, route)
        elif kind == "remove":
            assert dict_rib.remove(peer, prefix, path_id) == \
                col_rib.remove(peer, prefix, path_id)
        else:
            assert dict_rib.remove_peer(peer) == col_rib.remove_peer(peer)
    assert dict_rib.stats == col_rib.stats
    assert len(dict_rib) == len(col_rib)
    assert dict_rib.prefix_count == col_rib.prefix_count


def test_columnar_replacement_moves_to_end():
    """pop-then-append: re-announcing a candidate moves it to the end of
    the fold order, exactly like the dict oracle."""
    for rib in (LocRib(select=best_path), ColumnarLocRib(select=best_path)):
        for peer, attrs in zip(PEERS, ATTRS):
            rib.replace(peer, Route(prefix=PREFIXES[0], attributes=attrs))
        rib.replace(PEERS[0], Route(prefix=PREFIXES[0], attributes=ATTRS[3]))
        assert [e.peer for e in rib.candidates(PREFIXES[0])] == \
            [PEERS[1], PEERS[2], PEERS[0]]


def test_columnar_path_id_zero_distinct_from_none():
    """Wire path id 0 is a valid id; the ``-1`` sentinel for ``None``
    must not collide with it."""
    rib = ColumnarLocRib(select=best_path)
    rib.replace("pa", Route(prefix=PREFIXES[0], attributes=ATTRS[0],
                            path_id=0))
    rib.replace("pa", Route(prefix=PREFIXES[0], attributes=ATTRS[1],
                            path_id=None))
    assert len(rib) == 2
    assert rib.remove("pa", PREFIXES[0], 0)
    assert [e.path_id for e in rib.candidates(PREFIXES[0])] == [None]


def test_columnar_interns_equal_attributes():
    """Distinct-but-equal attribute objects share one handle (and one
    canonical object), so candidate storage is three ints per route."""
    rib = ColumnarLocRib(select=best_path)
    for index, prefix in enumerate(PREFIXES):
        copy = PathAttributes(
            origin=ATTRS[0].origin, as_path=ATTRS[0].as_path,
            next_hop=ATTRS[0].next_hop, med=ATTRS[0].med,
        )
        rib.replace("pa", Route(prefix=prefix, attributes=copy))
    assert len(rib._attr_values) == 1
    materialized = {
        id(rib.best(prefix).route.attributes) for prefix in PREFIXES
    }
    assert len(materialized) == 1  # one shared canonical object


def test_equal_attributes_share_one_handle_across_peers():
    """Equal attributes from different peers share one handle in a RIB;
    the handle table is RIB state, and decisions match the oracle."""
    copy = PathAttributes(
        origin=ATTRS[0].origin, as_path=ATTRS[0].as_path,
        next_hop=ATTRS[0].next_hop, med=ATTRS[0].med,
    )
    rib = ColumnarLocRib(select=best_path)
    reference = LocRib(select=best_path)
    for target in (rib, reference):
        target.replace("pa", Route(prefix=PREFIXES[0], attributes=ATTRS[0]))
        target.replace("pb", Route(prefix=PREFIXES[1], attributes=copy))
    assert len(rib._attr_values) == 1
    assert rib.best(PREFIXES[1]).route.attributes is ATTRS[0]
    for target in (rib, reference):
        target.replace("pb", Route(prefix=PREFIXES[0], attributes=ATTRS[2]))
    assert len(rib._attr_values) == 2
    assert _state(rib) == _state(reference)


def test_best_routes_iterates_all_prefixes():
    for rib in (LocRib(select=best_path), ColumnarLocRib(select=best_path)):
        for prefix, (peer, attrs) in zip(
            PREFIXES, itertools.cycle([("pa", ATTRS[0]), ("pb", ATTRS[1])])
        ):
            rib.replace(peer, Route(prefix=prefix, attributes=attrs))
        assert {entry.route.prefix for entry in rib.best_routes()} == \
            set(PREFIXES)
