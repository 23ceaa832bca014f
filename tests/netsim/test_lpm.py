"""LPM trie tests, including a hypothesis model check against a naive
reference implementation, differential tests of the stride trie (with
and without the lookup cache) against the binary-trie and linear-scan
oracles in ``lpm_reference.py``, and exact-cost tests of its incremental
writes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.netsim.addr import IPv4Address, IPv4Prefix, IPv6Address, IPv6Prefix
from repro.netsim.lpm import LpmTable
from tests.netsim.lpm_reference import LinearScanLpm, binary_table


def prefix(text: str) -> IPv4Prefix:
    return IPv4Prefix.parse(text)


def addr(text: str) -> IPv4Address:
    return IPv4Address.parse(text)


def _nodes(table):
    """Every node of a stride-trie table, the root included."""
    stack = [table._backend._root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


def test_empty_lookup():
    assert LpmTable().lookup(addr("1.2.3.4")) is None


def test_exact_insert_get_remove():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/24"), "a")
    assert table.get(prefix("10.0.0.0/24")) == "a"
    assert table.get(prefix("10.0.0.0/25")) is None
    assert table.remove(prefix("10.0.0.0/24"))
    assert table.get(prefix("10.0.0.0/24")) is None
    assert not table.remove(prefix("10.0.0.0/24"))


def test_longest_match_wins():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/8"), "big")
    table.insert(prefix("10.1.0.0/16"), "mid")
    table.insert(prefix("10.1.2.0/24"), "small")
    assert table.lookup(addr("10.1.2.3")).value == "small"
    assert table.lookup(addr("10.1.9.9")).value == "mid"
    assert table.lookup(addr("10.9.9.9")).value == "big"
    assert table.lookup(addr("11.0.0.1")) is None


def test_default_route():
    table = LpmTable()
    table.insert(prefix("0.0.0.0/0"), "default")
    table.insert(prefix("10.0.0.0/8"), "ten")
    assert table.lookup(addr("200.0.0.1")).value == "default"
    assert table.lookup(addr("10.0.0.1")).value == "ten"


def test_replace_value():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/24"), "old")
    table.insert(prefix("10.0.0.0/24"), "new")
    assert len(table) == 1
    assert table.get(prefix("10.0.0.0/24")) == "new"


def test_entries_iteration_and_len():
    table = LpmTable()
    for index in range(50):
        table.insert(prefix(f"10.{index}.0.0/16"), index)
    assert len(table) == 50
    assert {e.value for e in table.entries()} == set(range(50))


def test_remove_prunes_nodes():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/30"), "x")
    table.remove(prefix("10.0.0.0/30"))
    # No internal nodes should be left after pruning.
    assert table.node_count() == 0


def test_clear():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/8"), 1)
    table.clear()
    assert len(table) == 0
    assert table.lookup(addr("10.0.0.1")) is None


def test_contains():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/8"), 1)
    assert prefix("10.0.0.0/8") in table
    assert prefix("10.0.0.0/9") not in table


prefixes_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(prefixes_st, st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_matches_naive_reference(pairs, probe):
    """The trie agrees with a brute-force longest-match search."""
    table = LpmTable()
    model: dict[IPv4Prefix, int] = {}
    for index, (value, length) in enumerate(pairs):
        p = IPv4Prefix.from_address(IPv4Address(value), length)
        table.insert(p, index)
        model[p] = index
    address = IPv4Address(probe)
    matches = [p for p in model if p.contains_address(address)]
    expected = max(matches, key=lambda p: p.length, default=None)
    got = table.lookup(address)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert got.prefix.length == expected.length
        assert got.value == model[expected]


@settings(max_examples=40, deadline=None)
@given(prefixes_st)
def test_insert_remove_restores_empty(pairs):
    table = LpmTable()
    inserted = []
    for index, (value, length) in enumerate(pairs):
        p = IPv4Prefix.from_address(IPv4Address(value), length)
        table.insert(p, index)
        inserted.append(p)
    for node in _nodes(table):
        assert bool(node.partials) is (node.expanded is not None) is (
            node.depth is not None)
    for p in set(inserted):
        assert table.remove(p)
    assert len(table) == 0
    assert table.node_count() == 0
    # The arrays go with a node's last partial.
    for node in _nodes(table):
        assert node.partials is node.expanded is node.depth is None


# ---------------------------------------------------------------------------
# Fast-path edge cases and cache-invalidation behaviour (PR 1)
# ---------------------------------------------------------------------------


# The stride trie, and the binary-trie oracle under the same cache layer.
BACKENDS = [
    pytest.param(lambda: LpmTable(cache=False), id="stride"),
    pytest.param(lambda: LpmTable(cache=True), id="stride+cache"),
    pytest.param(lambda: binary_table(cache=False), id="binary"),
    pytest.param(lambda: binary_table(cache=True), id="binary+cache"),
]


@pytest.mark.parametrize("make", BACKENDS)
def test_default_route_all_backends(make):
    table = make()
    table.insert(prefix("0.0.0.0/0"), "default")
    assert table.lookup(addr("1.2.3.4")).value == "default"
    assert table.lookup(addr("255.255.255.255")).value == "default"
    table.insert(prefix("10.0.0.0/8"), "ten")
    assert table.lookup(addr("10.200.0.1")).value == "ten"
    assert table.lookup(addr("11.0.0.1")).value == "default"
    assert table.remove(prefix("0.0.0.0/0"))
    assert table.lookup(addr("11.0.0.1")) is None


@pytest.mark.parametrize("make", BACKENDS)
def test_host_route_wins_all_backends(make):
    table = make()
    table.insert(prefix("10.0.0.0/24"), "net")
    table.insert(prefix("10.0.0.7/32"), "host")
    assert table.lookup(addr("10.0.0.7")).value == "host"
    assert table.lookup(addr("10.0.0.8")).value == "net"
    assert table.get(prefix("10.0.0.7/32")) == "host"
    assert table.remove(prefix("10.0.0.7/32"))
    assert table.lookup(addr("10.0.0.7")).value == "net"


def test_remove_then_lookup_invalidates_cache():
    table = LpmTable(cache=True)
    table.insert(prefix("10.0.0.0/8"), "big")
    table.insert(prefix("10.1.0.0/16"), "small")
    probe = addr("10.1.2.3")
    assert table.lookup(probe).value == "small"
    assert table.lookup(probe).value == "small"  # cached
    assert table.cache_hits >= 1
    assert table.remove(prefix("10.1.0.0/16"))
    # The cached result covering 10.1/16 must have been dropped.
    assert table.lookup(probe).value == "big"
    assert table.remove(prefix("10.0.0.0/8"))
    assert table.lookup(probe) is None


def test_covering_insert_invalidates_cached_miss():
    table = LpmTable(cache=True)
    probe = addr("192.0.2.55")
    assert table.lookup(probe) is None
    assert table.lookup(probe) is None  # the miss itself is cached
    assert table.cache_hits >= 1
    table.insert(prefix("192.0.2.0/24"), "now")
    assert table.lookup(probe).value == "now"
    # A covering insert must also supersede a cached *shorter* hit.
    other = addr("192.0.2.200")
    assert table.lookup(other).value == "now"
    table.insert(prefix("192.0.2.128/25"), "more-specific")
    assert table.lookup(other).value == "more-specific"


def test_unrelated_insert_keeps_cache_entries():
    table = LpmTable(cache=True)
    table.insert(prefix("10.0.0.0/8"), "ten")
    probe = addr("10.1.2.3")
    assert table.lookup(probe).value == "ten"
    before = table.cache_len()
    table.insert(prefix("172.16.0.0/12"), "unrelated")
    assert table.cache_len() == before  # not covered -> not invalidated
    hits = table.cache_hits
    assert table.lookup(probe).value == "ten"
    assert table.cache_hits == hits + 1


def test_cache_is_bounded_lru():
    table = LpmTable(cache=True, cache_size=4)
    table.insert(prefix("0.0.0.0/0"), "d")
    for i in range(10):
        table.lookup(IPv4Address(i))
    assert table.cache_len() <= 4


def test_lpm_table_honours_perf_flags():
    with perf.flags(lpm_cache=False):
        table = LpmTable()
        assert table.cache_len() == 0
        table.insert(prefix("10.0.0.0/8"), 1)
        table.lookup(addr("10.0.0.1"))
        assert table.cache_misses == 0  # no cache layer at all
    with perf.flags(lpm_cache=True):
        table = LpmTable()
        table.insert(prefix("10.0.0.0/8"), 1)
        table.lookup(addr("10.0.0.1"))
        assert table.cache_misses == 1


def test_ipv6_prefixes_supported_by_stride_trie():
    table = LpmTable(cache=True)
    table.insert(IPv6Prefix.parse("2804:269c::/32"), "peering")
    table.insert(IPv6Prefix.parse("2804:269c:fe::/48"), "pop")
    assert table.lookup(
        IPv6Address.parse("2804:269c:fe::1")
    ).value == "pop"
    assert table.lookup(
        IPv6Address.parse("2804:269c:1::1")
    ).value == "peering"
    assert table.lookup(IPv6Address.parse("2001:db8::1")) is None


@pytest.mark.parametrize("make", BACKENDS)
def test_randomized_differential_against_linear_scan(make):
    """≥1k random prefixes: the trie agrees with the linear-scan oracle
    through a churn of inserts, removes, and lookups."""
    rng = random.Random(20260806)
    table = make()
    oracle = LinearScanLpm()
    live = []
    for index in range(1200):
        value = rng.getrandbits(32)
        length = rng.choice(
            [0, 1, 7, 8, 9, 15, 16, 17, 20, 23, 24, 25, 30, 31, 32]
        )
        p = IPv4Prefix.from_address(IPv4Address(value), length)
        table.insert(p, index)
        oracle.insert(p, index)
        live.append(p)
        if rng.random() < 0.25 and live:
            victim = live.pop(rng.randrange(len(live)))
            assert table.remove(victim) == (victim in oracle._entries)
            oracle.remove(victim)
        if index % 3 == 0:
            probe = IPv4Address(rng.getrandbits(32))
            got = table.lookup(probe)
            want = oracle.lookup(probe)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got.prefix == want.prefix
    assert len(table) == len(oracle)
    # Full sweep at the end, including repeat (cached) probes.
    for _ in range(500):
        probe = IPv4Address(rng.getrandbits(32))
        for attempt in range(2):
            got = table.lookup(probe)
            want = oracle.lookup(probe)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.prefix == want.prefix


@settings(max_examples=40, deadline=None)
@given(prefixes_st, st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_stride_and_binary_backends_agree(pairs, probe):
    stride = LpmTable(cache=False)
    binary = binary_table(cache=False)
    for index, (value, length) in enumerate(pairs):
        p = IPv4Prefix.from_address(IPv4Address(value), length)
        stride.insert(p, index)
        binary.insert(p, index)
    address = IPv4Address(probe)
    got_s = stride.lookup(address)
    got_b = binary.lookup(address)
    assert (got_s is None) == (got_b is None)
    if got_s is not None:
        assert got_s.prefix == got_b.prefix
        assert got_s.value == got_b.value
    assert sorted(e.prefix.key() for e in stride.entries()) == sorted(
        e.prefix.key() for e in binary.entries()
    )


# ---------------------------------------------------------------------------
# Incremental writes: exact cost and nested partials in one node
# ---------------------------------------------------------------------------


class _CountingDict(dict):
    """A ``partials`` dict that counts its key probes."""

    probes = 0

    def get(self, *args):
        self.probes += 1
        return super().get(*args)

    def pop(self, *args):
        self.probes += 1
        return super().pop(*args)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


def _expansion(partials):
    """The node arrays re-derived from scratch: per next byte, the longest
    partial covering it and its remainder length."""
    expanded, depth = [None] * 256, [0] * 256
    for (top, remainder), entry in partials.items():
        span = 256 >> remainder
        for byte in range(top * span, (top + 1) * span):
            if remainder > depth[byte]:
                expanded[byte], depth[byte] = entry, remainder
    return expanded, depth


def test_write_cost_and_slots_are_exact():
    """An insert probes ``partials`` 0 times and writes only the slots of
    its span held by an entry no longer than itself; a remove probes it
    at most 7 times (once per remainder length, its own included)."""
    rng = random.Random(7)
    table = LpmTable(cache=False)
    table.insert(prefix("10.1.0.0/17"), "anchor")  # keeps the node's arrays
    node = table._backend._root.children[10].children[1]
    node.partials = counting = _CountingDict(node.partials)
    live = [prefix("10.1.0.0/17")]
    for step in range(600):
        if live[1:] and rng.random() < 0.4:
            victim = live.pop(rng.randrange(1, len(live)))
            before = counting.probes
            assert table.remove(victim)
            assert counting.probes - before <= victim.length - 16 <= 7
        else:
            length = rng.randint(17, 23)
            p = IPv4Prefix.from_address(
                IPv4Address((10 << 24) | (1 << 16) | rng.getrandbits(16)),
                length)
            old_expanded, old_depth = list(node.expanded), bytes(node.depth)
            before = counting.probes
            table.insert(p, step)
            assert counting.probes == before
            remainder = length - 16
            span = 256 >> remainder
            lo = ((p.network.value >> 8) & 0xFF) // span * span
            for byte in range(256):
                if lo <= byte < lo + span and old_depth[byte] <= remainder:
                    assert node.expanded[byte].value == step
                    assert node.depth[byte] == remainder
                else:
                    assert node.expanded[byte] is old_expanded[byte]
                    assert node.depth[byte] == old_depth[byte]
            if p not in live:
                live.append(p)
        assert node.partials is counting
        assert (node.expanded, list(node.depth)) == _expansion(counting)
    # A /23 no shorter partial covers: every shorter remainder is probed.
    table = LpmTable(cache=False)
    table.insert(prefix("10.1.0.0/17"), "anchor")
    table.insert(prefix("10.1.128.0/23"), "deep")
    node = table._backend._root.children[10].children[1]
    node.partials = counting = _CountingDict(node.partials)
    assert table.remove(prefix("10.1.128.0/23"))
    assert counting.probes == 7


_NESTED_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove_live", "remove_any"]),
        st.integers(min_value=16, max_value=24),
        # A few shared third bytes make prefixes nest; any byte may appear.
        st.sampled_from([0, 1, 0x42, 0x80, 0x9f, 0xff])
        | st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_NESTED_OPS)
def test_nested_partials_match_linear_scan(ops):
    """Insert / replace / remove / re-insert programs of /17–/23 prefixes
    inside one /16, with the /16 itself and /24 neighbours: after every
    step all 256 third-byte probes agree with the linear scan."""
    table = LpmTable(cache=False)
    oracle = LinearScanLpm()
    live = []
    for index, (kind, length, third) in enumerate(ops):
        p = IPv4Prefix.from_address(
            IPv4Address((10 << 24) | (1 << 16) | (third << 8)), length)
        if kind == "insert":
            table.insert(p, index)
            oracle.insert(p, index)
            if p not in live:
                live.append(p)
        else:
            if kind == "remove_live" and live:
                p = live[third % len(live)]
            if p in live:
                live.remove(p)
            assert table.remove(p) == oracle.remove(p)
        assert len(table) == len(oracle)
        for byte in range(256):
            probe = IPv4Address((10 << 24) | (1 << 16) | (byte << 8) | 1)
            got, want = table.lookup(probe), oracle.lookup(probe)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.prefix, got.value) == (want.prefix, want.value)
    for node in _nodes(table):
        if node.partials:
            assert (node.expanded, list(node.depth)) == _expansion(
                node.partials)
