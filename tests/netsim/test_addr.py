"""Address-type tests, including hypothesis round-trip properties."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.bgp.messages import _decode_nlri_block
from repro.netsim.addr import (
    AddressError,
    IPv4Address,
    IPv4Prefix,
    IPv6Address,
    IPv6Prefix,
    MacAddress,
    parse_address,
    parse_prefix,
)


class TestMacAddress:
    def test_parse_and_format(self):
        mac = MacAddress.parse("02:7f:00:00:00:01")
        assert str(mac) == "02:7f:00:00:00:01"
        assert mac.value == 0x027F00000001

    def test_parse_dash_separator(self):
        assert MacAddress.parse("aa-bb-cc-dd-ee-ff") == MacAddress.parse(
            "aa:bb:cc:dd:ee:ff"
        )

    def test_broadcast(self):
        assert MacAddress.broadcast().is_broadcast
        assert str(MacAddress.broadcast()) == "ff:ff:ff:ff:ff:ff"

    def test_multicast_bit(self):
        assert MacAddress.parse("01:00:5e:00:00:01").is_multicast
        assert not MacAddress.parse("02:00:00:00:00:01").is_multicast

    def test_locally_administered(self):
        assert MacAddress.parse("02:00:00:00:00:01").is_locally_administered

    def test_ordering_and_hash(self):
        a = MacAddress(1)
        b = MacAddress(2)
        assert a < b
        assert len({a, MacAddress(1)}) == 1

    @pytest.mark.parametrize("bad", ["", "aa:bb", "gg:00:00:00:00:00",
                                     "aa:bb:cc:dd:ee:ff:00"])
    def test_malformed(self, bad):
        with pytest.raises(AddressError):
            MacAddress.parse(bad)

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_roundtrip(self, value):
        assert MacAddress.parse(str(MacAddress(value))).value == value


class TestIPv4Address:
    def test_parse_and_format(self):
        address = IPv4Address.parse("184.164.224.1")
        assert str(address) == "184.164.224.1"

    def test_packed_roundtrip(self):
        address = IPv4Address.parse("10.1.2.3")
        assert IPv4Address.from_packed(address.packed()) == address

    def test_arithmetic(self):
        assert str(IPv4Address.parse("10.0.0.1") + 5) == "10.0.0.6"

    def test_private_and_loopback(self):
        assert IPv4Address.parse("10.1.1.1").is_private
        assert IPv4Address.parse("192.168.0.1").is_private
        assert IPv4Address.parse("127.65.0.1").is_loopback
        assert not IPv4Address.parse("8.8.8.8").is_private

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "01.2.3.4", "a.b.c.d", ""]
    )
    def test_malformed(self, bad):
        with pytest.raises(AddressError):
            IPv4Address.parse(bad)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_roundtrip(self, value):
        assert IPv4Address.parse(str(IPv4Address(value))).value == value

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1),
           st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_ordering_matches_values(self, a, b):
        assert (IPv4Address(a) < IPv4Address(b)) == (a < b)


class TestIPv6Address:
    def test_parse_full_form(self):
        address = IPv6Address.parse("2804:269c:0:0:0:0:0:1")
        assert str(address) == "2804:269c::1"

    def test_parse_compressed(self):
        assert IPv6Address.parse("::1").value == 1
        assert IPv6Address.parse("2804:269c::").value == 0x2804269C << 96

    def test_double_compression_rejected(self):
        with pytest.raises(AddressError):
            IPv6Address.parse("1::2::3")

    def test_format_compresses_longest_run(self):
        assert str(IPv6Address.parse("1:0:0:2:0:0:0:3")) == "1:0:0:2::3"

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_roundtrip(self, value):
        assert IPv6Address.parse(str(IPv6Address(value))).value == value


class TestPrefixes:
    def test_parse_and_format(self):
        prefix = IPv4Prefix.parse("184.164.224.0/19")
        assert str(prefix) == "184.164.224.0/19"
        assert prefix.num_addresses == 8192

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            IPv4Prefix.parse("10.0.0.1/24")

    def test_from_address_masks(self):
        prefix = IPv4Prefix.from_address(IPv4Address.parse("10.1.2.3"), 24)
        assert str(prefix) == "10.1.2.0/24"

    def test_contains_address(self):
        prefix = IPv4Prefix.parse("10.0.0.0/8")
        assert prefix.contains_address(IPv4Address.parse("10.255.0.1"))
        assert not prefix.contains_address(IPv4Address.parse("11.0.0.1"))

    def test_contains_prefix(self):
        big = IPv4Prefix.parse("10.0.0.0/8")
        small = IPv4Prefix.parse("10.1.0.0/16")
        assert big.contains_prefix(small)
        assert not small.contains_prefix(big)
        assert big.contains_prefix(big)

    def test_subnets(self):
        subnets = list(IPv4Prefix.parse("10.0.0.0/22").subnets(24))
        assert [str(s) for s in subnets] == [
            "10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24",
        ]

    def test_address_at(self):
        prefix = IPv4Prefix.parse("10.0.0.0/24")
        assert str(prefix.address_at(1)) == "10.0.0.1"
        with pytest.raises(AddressError):
            prefix.address_at(256)

    def test_zero_length_prefix(self):
        default = IPv4Prefix.parse("0.0.0.0/0")
        assert default.contains_address(IPv4Address.parse("200.1.2.3"))

    def test_ipv6_prefix(self):
        prefix = IPv6Prefix.parse("2804:269c::/32")
        assert prefix.contains_address(IPv6Address.parse("2804:269c::1"))

    def test_parse_prefix_dispatch(self):
        assert isinstance(parse_prefix("10.0.0.0/8"), IPv4Prefix)
        assert isinstance(parse_prefix("2804:269c::/32"), IPv6Prefix)
        assert isinstance(parse_address("::1"), IPv6Address)

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    )
    def test_from_address_roundtrip(self, value, length):
        prefix = IPv4Prefix.from_address(IPv4Address(value), length)
        assert IPv4Prefix.parse(str(prefix)) == prefix
        assert prefix.contains_address(IPv4Address(value))

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_containment_consistency(self, value, length, probe):
        prefix = IPv4Prefix.from_address(IPv4Address(value), length)
        address = IPv4Address(probe)
        contained = prefix.contains_address(address)
        host_prefix = IPv4Prefix.from_address(address, 32)
        assert contained == prefix.contains_prefix(host_prefix)


def prefixes(cls):
    """Any prefix of ``cls``'s family, ``/0`` and host routes included."""
    bits = cls.BITS
    return st.builds(
        lambda value, length: cls.from_address(cls.ADDRESS_CLS(value), length),
        st.integers(0, (1 << bits) - 1), st.integers(0, bits))


any_prefix = prefixes(IPv4Prefix) | prefixes(IPv6Prefix)


class TestPackedPrefixes:
    """A prefix is an ``int``: these pin what the packing must keep."""

    @given(any_prefix)
    def test_text_round_trip(self, prefix):
        again = parse_prefix(str(prefix))
        assert again == prefix and type(again) is type(prefix)

    @given(any_prefix)
    def test_pickle_and_deepcopy_keep_the_type(self, prefix):
        copies = [pickle.loads(pickle.dumps(prefix, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in [*copies, copy.deepcopy(prefix), copy.copy(prefix)]:
            assert again == prefix and type(again) is type(prefix)
            assert str(again) == str(prefix)

    @given(st.lists(prefixes(IPv4Prefix)), st.lists(prefixes(IPv6Prefix)))
    def test_sorted_is_key_order_and_ipv4_first(self, v4, v6):
        for family in (v4, v6):
            assert sorted(family) == sorted(family, key=lambda p: p.key())
        assert sorted(v6 + v4) == sorted(v4) + sorted(v6)

    @given(any_prefix, any_prefix)
    def test_equal_only_within_a_family(self, a, b):
        same = type(a) is type(b) and a.key() == b.key()
        assert (a == b) is same
        assert (hash(a) == hash(b)) or not same

    def test_families_with_equal_keys_differ(self):
        """``0.0.0.0/n`` and ``::/n`` are the pairs with equal keys."""
        for length in range(33):
            v4 = IPv4Prefix(IPv4Address(0), length)
            v6 = IPv6Prefix(IPv6Address(0), length)
            assert v4.key() == v6.key()
            assert v4 != v6 and len({v4, v6}) == 2

    @given(any_prefix, st.integers(0, (1 << 32) - 1))
    def test_never_a_small_int_and_never_falsy(self, prefix, number):
        assert prefix and prefix != number

    @given(any_prefix)
    def test_formats_as_cidr_text(self, prefix):
        assert f"{prefix}" == str(prefix) == (
            f"{prefix.network}/{prefix.length}")

    @given(prefixes(IPv4Prefix))
    def test_decoded_nlri_equals_the_constructed_prefix(self, prefix):
        length = prefix.length
        wire = bytes([length]) + prefix.network.packed()[:(length + 7) // 8]
        ((decoded, path_id),) = _decode_nlri_block(wire, False)
        assert decoded == prefix and hash(decoded) == hash(prefix)
        assert type(decoded) is IPv4Prefix and path_id is None
        assert decoded.key() == prefix.key() and str(decoded) == str(prefix)

    def test_constructor_rejects_the_other_family(self):
        with pytest.raises(AddressError):
            IPv4Prefix(IPv6Address(1 << 100), 32)
