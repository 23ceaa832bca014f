"""Wire-codec tests for BGP messages, with hypothesis round trips."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import (
    AsPath,
    Community,
    LargeCommunity,
    Origin,
    PathAttributes,
    Route,
    UnknownAttribute,
)
from repro.bgp.errors import ErrorCode, NotificationError, UpdateSubcode
from repro.bgp.messages import (
    HEADER_SIZE,
    MAX_MESSAGE_SIZE,
    AddPathCapability,
    FourOctetAsCapability,
    KeepaliveMessage,
    MessageDecoder,
    MultiprotocolCapability,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    _encode_attributes_uncached,
    pack_updates,
)
from repro.netsim.addr import IPv4Address, IPv4Prefix


def decode_one(data: bytes, addpath: bool = False):
    decoder = MessageDecoder()
    decoder.addpath = addpath
    decoder.feed(data)
    message = decoder.next_message()
    assert decoder.next_message() is None
    return message


class TestOpen:
    def make(self, **kwargs):
        defaults = dict(
            asn=47065,
            hold_time=90,
            bgp_id=IPv4Address.parse("100.64.0.1"),
            capabilities=(
                MultiprotocolCapability(),
                FourOctetAsCapability(asn=47065),
                AddPathCapability(),
            ),
        )
        defaults.update(kwargs)
        return OpenMessage(**defaults)

    def test_roundtrip(self):
        message = self.make()
        decoded = decode_one(message.encode())
        assert decoded == message

    def test_four_octet_asn(self):
        message = self.make(
            asn=263842,
            capabilities=(FourOctetAsCapability(asn=263842),),
        )
        decoded = decode_one(message.encode())
        assert decoded.asn == 263842

    def test_addpath_capability_found(self):
        decoded = decode_one(self.make().encode())
        assert decoded.find_addpath() is not None

    def test_no_addpath(self):
        decoded = decode_one(self.make(capabilities=()).encode())
        assert decoded.find_addpath() is None

    def test_unacceptable_hold_time(self):
        data = self.make(hold_time=2).encode()
        with pytest.raises(NotificationError):
            decode_one(data)


class TestUpdate:
    def attrs(self, **kwargs):
        defaults = dict(
            origin=Origin.IGP,
            as_path=AsPath.from_asns(47065, 3356),
            next_hop=IPv4Address.parse("100.64.0.1"),
        )
        defaults.update(kwargs)
        return PathAttributes(**defaults)

    def test_roundtrip_basic(self):
        update = UpdateMessage(
            attributes=self.attrs(),
            nlri=((IPv4Prefix.parse("184.164.224.0/24"), None),),
        )
        assert decode_one(update.encode()) == update

    def test_roundtrip_all_attributes(self):
        update = UpdateMessage(
            attributes=self.attrs(
                med=50,
                local_pref=200,
                atomic_aggregate=True,
                aggregator=(47065, IPv4Address.parse("1.1.1.1")),
                communities=frozenset({Community(47065, 1),
                                       Community(47065, 2)}),
                large_communities=frozenset({LargeCommunity(47065, 1, 2)}),
            ),
            nlri=((IPv4Prefix.parse("10.0.0.0/8"), None),),
        )
        assert decode_one(update.encode()) == update

    def test_roundtrip_withdraw(self):
        update = UpdateMessage(
            withdrawn=((IPv4Prefix.parse("184.164.224.0/24"), None),),
        )
        assert decode_one(update.encode()) == update

    def test_addpath_path_ids(self):
        update = UpdateMessage(
            attributes=self.attrs(),
            nlri=(
                (IPv4Prefix.parse("10.0.0.0/8"), 1),
                (IPv4Prefix.parse("10.0.0.0/8"), 2),
            ),
        )
        decoded = decode_one(update.encode(addpath=True), addpath=True)
        assert decoded.nlri == update.nlri

    def test_addpath_mismatch_garbles(self):
        """Decoding ADD-PATH NLRI without the capability must error (the
        4-byte path id is read as prefix data)."""
        update = UpdateMessage(
            attributes=self.attrs(),
            nlri=((IPv4Prefix.parse("10.0.0.0/8"), 300),),
        )
        data = update.encode(addpath=True)
        with pytest.raises(NotificationError):
            decode_one(data, addpath=False)

    def test_unknown_transitive_attribute_roundtrip(self):
        unknown = UnknownAttribute(
            type_code=99,
            flags=UnknownAttribute.FLAG_OPTIONAL | UnknownAttribute.FLAG_TRANSITIVE,
            value=b"\xde\xad",
        )
        update = UpdateMessage(
            attributes=self.attrs(unknown=(unknown,)),
            nlri=((IPv4Prefix.parse("10.0.0.0/8"), None),),
        )
        decoded = decode_one(update.encode())
        assert len(decoded.attributes.unknown) == 1
        assert decoded.attributes.unknown[0].type_code == 99

    def test_missing_next_hop_rejected(self):
        update = UpdateMessage(
            attributes=self.attrs(next_hop=None),
            nlri=((IPv4Prefix.parse("10.0.0.0/8"), None),),
        )
        with pytest.raises(NotificationError):
            decode_one(update.encode())

    def test_announce_helper_groups_attributes(self):
        attrs = self.attrs()
        routes = [
            Route(prefix=IPv4Prefix.parse("10.0.0.0/8"), attributes=attrs),
            Route(prefix=IPv4Prefix.parse("11.0.0.0/8"), attributes=attrs),
        ]
        update = UpdateMessage.announce(routes)
        assert len(update.nlri) == 2
        assert update.routes() == routes

    def test_announce_mixed_attributes_rejected(self):
        a = Route(prefix=IPv4Prefix.parse("10.0.0.0/8"),
                  attributes=self.attrs())
        b = Route(prefix=IPv4Prefix.parse("11.0.0.0/8"),
                  attributes=self.attrs(med=99))
        with pytest.raises(ValueError):
            UpdateMessage.announce([a, b])

    def test_malformed_as_path_rejected(self):
        data = UpdateMessage(
            attributes=self.attrs(), nlri=((IPv4Prefix.parse("10.0.0.0/8"),
                                            None),),
        ).encode()
        # Corrupt the AS_PATH segment type byte (scan for attr type 2).
        corrupted = bytearray(data)
        index = corrupted.find(bytes([0x40, 0x02]))
        corrupted[index + 3] = 9  # invalid segment type
        with pytest.raises(NotificationError):
            decode_one(bytes(corrupted))

    @staticmethod
    def announce_with(attribute: bytes) -> bytes:
        """An UPDATE for 10.0.0.0/8 whose attribute block is ``attribute``
        followed by a valid AS_PATH and NEXT_HOP."""
        block = (attribute
                 + bytes([0x40, 2, 6, 2, 1]) + struct.pack("!I", 65001)
                 + bytes([0x40, 3, 4, 192, 0, 2, 1]))
        body = struct.pack("!HH", 0, len(block)) + block + bytes([8, 10])
        return b"\xff" * 16 + struct.pack("!HB", 19 + len(body), 2) + body

    @pytest.mark.parametrize("attribute", [
        bytes([0x40, 1, 2, 0, 0]),    # ORIGIN, 2 bytes (value IGP)
        bytes([0x40, 1, 0]),          # ORIGIN, empty
        bytes([0x40, 6, 2, 0, 0]),    # ATOMIC_AGGREGATE, 2 bytes
        bytes([0x40, 6, 1, 0]),       # ATOMIC_AGGREGATE, 1 byte
    ], ids=["origin-2", "origin-0", "atomic-2", "atomic-1"])
    def test_fixed_length_attribute_length_error(self, attribute):
        """RFC 4271 §6.3: a wrong length on ORIGIN or ATOMIC_AGGREGATE is
        an Attribute Length Error, not a value error, and never
        silently accepted."""
        with pytest.raises(NotificationError) as info:
            decode_one(self.announce_with(attribute))
        assert info.value.code == ErrorCode.UPDATE_MESSAGE
        assert info.value.subcode == UpdateSubcode.ATTRIBUTE_LENGTH_ERROR

    def test_origin_value_error_after_length_check(self):
        with pytest.raises(NotificationError) as info:
            decode_one(self.announce_with(bytes([0x40, 1, 1, 3])))
        assert info.value.subcode == UpdateSubcode.INVALID_ORIGIN

    def test_well_formed_fixed_length_attributes_accepted(self):
        decoded = decode_one(self.announce_with(
            bytes([0x40, 1, 1, 1, 0x40, 6, 0])))
        assert decoded.attributes.origin == Origin.EGP
        assert decoded.attributes.atomic_aggregate
        assert decoded.attributes.as_path == AsPath.from_asns(65001)


class TestFraming:
    def test_keepalive_roundtrip(self):
        assert isinstance(decode_one(KeepaliveMessage().encode()),
                          KeepaliveMessage)

    def test_notification_roundtrip(self):
        message = NotificationMessage(code=6, subcode=2, data=b"bye")
        decoded = decode_one(message.encode())
        assert decoded == message

    def test_partial_feed(self):
        decoder = MessageDecoder()
        data = KeepaliveMessage().encode()
        decoder.feed(data[:10])
        assert decoder.next_message() is None
        decoder.feed(data[10:])
        assert isinstance(decoder.next_message(), KeepaliveMessage)

    def test_multiple_messages_in_one_feed(self):
        decoder = MessageDecoder()
        decoder.feed(KeepaliveMessage().encode() * 3)
        messages = list(decoder)
        assert len(messages) == 3

    def test_bad_marker(self):
        decoder = MessageDecoder()
        decoder.feed(b"\x00" * 19)
        with pytest.raises(NotificationError):
            decoder.next_message()

    def test_bad_length(self):
        data = bytearray(KeepaliveMessage().encode())
        data[16:18] = (5).to_bytes(2, "big")
        decoder = MessageDecoder()
        decoder.feed(bytes(data))
        with pytest.raises(NotificationError):
            decoder.next_message()

    def test_bad_type(self):
        data = bytearray(KeepaliveMessage().encode())
        data[18] = 99
        decoder = MessageDecoder()
        decoder.feed(bytes(data))
        with pytest.raises(NotificationError):
            decoder.next_message()


# ---------------------------------------------------------------------------
# UPDATE packing
# ---------------------------------------------------------------------------

PACK_ATTRS = {
    "short": PathAttributes(next_hop=IPv4Address.parse("100.64.0.1")),
    "long": PathAttributes(
        as_path=AsPath.from_asns(*range(64500, 64560)),
        next_hop=IPv4Address.parse("100.64.0.1"),
        communities=frozenset(Community(65000, i) for i in range(300)),
    ),
}
# /32s: the widest IPv4 NLRI, so a message at the limit is as full as
# the packer ever makes one.
HOSTS = tuple(IPv4Prefix.parse("10.0.0.0/20").subnets(32))


def pack_limit(attributes, addpath: bool) -> int:
    """NLRI per UPDATE: header and the two length fields, the attribute
    block, then 5 worst-case bytes per NLRI (9 with a path id)."""
    attrs = (len(_encode_attributes_uncached(attributes))
             if attributes is not None else 0)
    return (MAX_MESSAGE_SIZE - HEADER_SIZE - 4 - attrs) // (
        9 if addpath else 5)


def nlri(count: int, start: int = 0):
    return [(prefix, start + i + 1)
            for i, prefix in enumerate(HOSTS[start:start + count])]


@pytest.mark.parametrize("addpath", [False, True], ids=["plain", "addpath"])
@pytest.mark.parametrize("name", sorted(PACK_ATTRS))
class TestPackUpdates:
    def sizes(self, updates, addpath):
        frames = [update.encode(addpath) for update in updates]
        assert max(map(len, frames)) <= MAX_MESSAGE_SIZE
        return [len(update.nlri) + len(update.withdrawn)
                for update in updates]

    def test_a_group_of_exactly_limit_is_one_message(self, name, addpath):
        attrs = PACK_ATTRS[name]
        limit = pack_limit(attrs, addpath)
        updates = pack_updates((), [(attrs, nlri(limit))], addpath)
        assert self.sizes(updates, addpath) == [limit]
        # The limit is tight: one more worst-case NLRI does not fit.
        with pytest.raises(NotificationError):
            UpdateMessage(attributes=attrs,
                          nlri=tuple(nlri(limit + 1))).encode(addpath)

    def test_limit_plus_one_is_two_messages(self, name, addpath):
        attrs = PACK_ATTRS[name]
        limit = pack_limit(attrs, addpath)
        pairs = nlri(limit + 1)
        updates = pack_updates((), [(attrs, pairs)], addpath)
        assert self.sizes(updates, addpath) == [limit, 1]
        assert [pair for update in updates for pair in update.nlri] == pairs

    def test_withdrawals_are_chunked_the_same_way(self, name, addpath):
        limit = pack_limit(None, addpath)
        gone = nlri(limit + 1)
        updates = pack_updates(gone, (), addpath)
        assert self.sizes(updates, addpath) == [limit, 1]
        assert [pair for update in updates
                for pair in update.withdrawn] == gone

    def test_withdrawals_first_then_groups_in_order(self, name, addpath):
        attrs = PACK_ATTRS[name]
        other = PathAttributes(next_hop=IPv4Address.parse("100.64.0.2"),
                               med=5)
        gone = nlri(3, start=900)
        groups = [(other, nlri(2, start=10)), (attrs, nlri(4, start=20)),
                  (other, nlri(1, start=30))]
        updates = pack_updates(gone, groups, addpath)
        self.sizes(updates, addpath)
        assert updates[0] == UpdateMessage(withdrawn=tuple(gone))
        assert [(u.attributes, list(u.nlri)) for u in updates[1:]] == [
            (group_attrs, pairs) for group_attrs, pairs in groups
        ]


# ---------------------------------------------------------------------------
# Hypothesis round trips
# ---------------------------------------------------------------------------

prefixes = st.builds(
    lambda value, length: IPv4Prefix.from_address(IPv4Address(value), length),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)
asns = st.integers(min_value=1, max_value=(1 << 32) - 1)
communities = st.builds(
    Community,
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=65535),
)


@st.composite
def path_attributes(draw):
    path_asns = draw(st.lists(asns, min_size=0, max_size=8))
    return PathAttributes(
        origin=draw(st.sampled_from(list(Origin))),
        as_path=AsPath.from_asns(*path_asns),
        next_hop=IPv4Address(draw(st.integers(0, (1 << 32) - 1))),
        med=draw(st.one_of(st.none(), st.integers(0, (1 << 32) - 1))),
        local_pref=draw(st.one_of(st.none(),
                                  st.integers(0, (1 << 32) - 1))),
        communities=frozenset(draw(st.lists(communities, max_size=5))),
    )


@settings(max_examples=50, deadline=None)
@given(attrs=path_attributes(),
       nlri=st.lists(prefixes, min_size=1, max_size=8, unique=True))
def test_update_roundtrip_property(attrs, nlri):
    update = UpdateMessage(
        attributes=attrs, nlri=tuple((p, None) for p in nlri)
    )
    decoded = decode_one(update.encode())
    assert decoded.attributes == attrs
    assert set(decoded.nlri) == set(update.nlri)


@settings(max_examples=50, deadline=None)
@given(attrs=path_attributes(),
       nlri=st.lists(st.tuples(prefixes,
                               st.integers(min_value=1, max_value=1 << 31)),
                     min_size=1, max_size=6, unique_by=lambda t: t))
def test_update_addpath_roundtrip_property(attrs, nlri):
    update = UpdateMessage(attributes=attrs, nlri=tuple(nlri))
    decoded = decode_one(update.encode(addpath=True), addpath=True)
    assert set(decoded.nlri) == set(update.nlri)


@settings(max_examples=50, deadline=None)
@given(asn=asns, hold=st.integers(min_value=3, max_value=65535),
       bgp_id=st.integers(0, (1 << 32) - 1))
def test_open_roundtrip_property(asn, hold, bgp_id):
    message = OpenMessage(
        asn=asn, hold_time=hold, bgp_id=IPv4Address(bgp_id),
        capabilities=(FourOctetAsCapability(asn=asn),),
    )
    decoded = decode_one(message.encode())
    assert decoded.asn == asn
    assert decoded.hold_time == hold
