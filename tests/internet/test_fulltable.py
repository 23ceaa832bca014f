"""Tests for the seeded full-table workload generator (§6g)."""

from repro.bgp.messages import MAX_MESSAGE_SIZE
from repro.internet.fulltable import (
    DFZ_PROFILE,
    FullTableGenerator,
    FullTableProfile,
    _EXCLUDED_FIRST_OCTETS,
)


def make(count=3000, seed=7):
    return FullTableGenerator(prefix_count=count, seed=seed)


def test_deterministic_for_a_seed():
    a, b = make(), make()
    assert a.prefixes == b.prefixes
    assert a.origin_attributes == b.origin_attributes
    assert [u.encode() for u in a.table_updates()] == \
        [u.encode() for u in b.table_updates()]
    assert [u.encode() for u in a.churn(200)] == \
        [u.encode() for u in b.churn(200)]


def test_prefix_count_and_uniqueness():
    generator = make()
    assert len(generator.prefixes) == 3000
    assert len({prefix.key() for prefix in generator.prefixes}) == 3000


def test_cidr_distribution_tracks_profile():
    generator = make(count=20000)
    lengths = [prefix.length for prefix in generator.prefixes]
    share_24 = lengths.count(24) / len(lengths)
    weight_24 = dict(DFZ_PROFILE.cidr_weights)[24]
    total = sum(weight for _, weight in DFZ_PROFILE.cidr_weights)
    assert abs(share_24 - weight_24 / total) < 0.02  # /24 dominates


def test_reserved_and_experiment_space_excluded():
    generator = make(count=20000)
    for prefix in generator.prefixes:
        assert (prefix.network.value >> 24) not in _EXCLUDED_FIRST_OCTETS


def test_attributes_shared_per_origin():
    generator = make()
    distinct = {id(generator.attributes_for(i)) for i in range(3000)}
    # Zipf-ish popularity: far fewer attribute objects than prefixes.
    assert len(distinct) <= len(generator.origin_attributes)
    assert len(distinct) < 3000 / 5


def test_table_updates_cover_table_and_fit_ceiling():
    generator = make()
    seen = set()
    for update in generator.table_updates():
        assert len(update.encode()) <= MAX_MESSAGE_SIZE
        for prefix, path_id in update.nlri:
            assert path_id is None
            seen.add(prefix.key())
    assert len(seen) == 3000


def test_table_updates_are_fresh_objects_each_call():
    generator = make()
    first = list(generator.table_updates())
    second = list(generator.table_updates())
    assert first[0] is not second[0]  # no wire-cache leakage across legs
    assert first[0].encode() == second[0].encode()


def test_churn_mixes_withdrawals_and_flaps():
    generator = make()
    list(generator.table_updates())
    events = list(generator.churn(1000))
    withdraws = [u for u in events if u.withdrawn]
    announces = [u for u in events if u.nlri]
    assert len(withdraws) + len(announces) == 1000
    fraction = len(withdraws) / 1000
    assert 0.05 < fraction < DFZ_PROFILE.withdraw_fraction + 0.1
    table = {prefix.key() for prefix in generator.prefixes}
    for update in events:
        for prefix, _ in list(update.withdrawn) + list(update.nlri):
            assert prefix.key() in table  # churn stays on the loaded table


def test_custom_profile_is_respected():
    profile = FullTableProfile(
        name="flat", cidr_weights=((20, 1.0),), prefixes_per_origin=10,
    )
    generator = FullTableGenerator(
        profile=profile, prefix_count=500, seed=3)
    assert all(prefix.length == 20 for prefix in generator.prefixes)
    assert len(generator.origin_attributes) == 50
