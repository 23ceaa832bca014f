"""§6g zero-copy UPDATE encode: byte-identical to the joined-bytes
oracle (``tests/bgp/encode_reference.py``) and bounded."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.errors import NotificationError
from repro.bgp.messages import UpdateMessage
from repro.netsim.addr import IPv4Address, IPv4Prefix
from tests.bgp.encode_reference import joined_encode

ATTRS = PathAttributes(
    origin=Origin.IGP,
    as_path=AsPath.from_asns(64500, 64501),
    next_hop=IPv4Address.parse("192.0.2.1"),
)


def _prefixes(max_size):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=1, max_value=32),
            st.sampled_from([None, 0, 1, 77]),
        ),
        min_size=0, max_size=max_size,
    ).map(lambda items: tuple(
        (IPv4Prefix(IPv4Address(value & (((1 << length) - 1)
                                         << (32 - length))), length), pid)
        for value, length, pid in items
    ))


@given(nlri=_prefixes(12), withdrawn=_prefixes(12), addpath=st.booleans())
@settings(max_examples=120, deadline=None)
def test_zero_copy_matches_reference_encoder(nlri, withdrawn, addpath):
    message = UpdateMessage(
        attributes=ATTRS if nlri else None, nlri=nlri, withdrawn=withdrawn,
    )
    reference = joined_encode(message, addpath)
    assert message.encode(addpath) == reference
    assert message.encode(addpath) == reference     # and from the memo
    assert UpdateMessage.decode(reference[19:], addpath) is not None


def test_end_of_rib_identical():
    end_of_rib = UpdateMessage.end_of_rib()
    assert end_of_rib.encode() == joined_encode(end_of_rib)


def test_snapshots_survive_buffer_reuse():
    """The escaping bytes are immutable snapshots: a later encode into
    the shared buffer must not corrupt an earlier result."""
    p1 = IPv4Prefix.parse("198.51.100.0/24")
    p2 = IPv4Prefix.parse("203.0.113.0/24")
    first = UpdateMessage(attributes=ATTRS, nlri=((p1, None),)).encode()
    copy = bytes(first)
    second = UpdateMessage(attributes=ATTRS,
                           nlri=((p2, None), (p1, None))).encode()
    assert first == copy
    assert first != second


def test_oversize_message_raises_in_both_modes():
    """The live encoder and the oracle both refuse a frame over the
    4096-byte ceiling."""
    nlri = tuple(
        (IPv4Prefix(IPv4Address((10 << 24) + (i << 8)), 24), None)
        for i in range(1400)
    )
    message = UpdateMessage(attributes=ATTRS, nlri=nlri)
    with pytest.raises(NotificationError):
        message.encode()
    with pytest.raises(NotificationError):
        joined_encode(message)
