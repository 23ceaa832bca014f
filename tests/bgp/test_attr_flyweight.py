"""The attribute flyweight: each attribute block is decoded once.

``UpdateMessage.decode`` keys decoded ``PathAttributes`` by the exact
attribute-block bytes in a weak-valued table.  These tests pin the
contract: the table never changes what a block decodes to, never holds a
malformed block, never merges byte-different blocks, forgets a value as
soon as nothing holds it, and on a real PoP turns repeated
announcements into table hits — counted, not timed.
"""

import gc
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.bgp import messages
from repro.bgp.attributes import Community, PathAttributes, UnknownAttribute
from repro.bgp.errors import BgpError, NotificationError, UpdateSubcode
from repro.bgp.messages import (
    MessageDecoder,
    UpdateMessage,
    _decode_attributes,
    _decode_attributes_uncached,
    _encode_attributes,
    _encode_attributes_uncached,
)
from repro.conformance.strategies import path_attributes, update_messages
from repro.netsim.addr import IPv4Address, IPv4Prefix
from tests.vbgp.test_export_once import count_calls
from tests.vbgp.test_fanout_once import World

CORPUS = sorted((Path(__file__).parents[1] / "corpus").glob("*.json"))
NEXT_HOP = IPv4Address.parse("192.0.2.1")

# Decoded values kept alive for the whole module, so the table fills up
# across Hypothesis examples and a mis-keyed lookup has entries to hit.
_HELD: list = []


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the error it raises as a value."""
    try:
        return call(*args)
    except BgpError as exc:
        return (type(exc), getattr(exc, "code", None),
                getattr(exc, "subcode", None), getattr(exc, "data", None))


def _attr_block(body: bytes):
    """The raw path-attribute block of an UPDATE body, or None if the
    framing does not get that far."""
    if len(body) < 4:
        return None
    withdrawn_len = int.from_bytes(body[:2], "big")
    offset = 2 + withdrawn_len
    if offset + 2 > len(body):
        return None
    attrs_len = int.from_bytes(body[offset:offset + 2], "big")
    offset += 2
    if offset + attrs_len > len(body):
        return None
    return body[offset:offset + attrs_len]


# -- the table never changes a value -----------------------------------------


@given(attributes=path_attributes())
@settings(max_examples=150, deadline=None)
def test_flyweight_decode_equals_uncached(attributes):
    block = _encode_attributes_uncached(attributes)
    expected = _decode_attributes_uncached(block)
    first = _decode_attributes(block)
    second = _decode_attributes(block)
    assert first == expected
    assert second is first
    _HELD.append(first)


@given(update=update_messages(addpath=True))
@settings(max_examples=100, deadline=None)
def test_whole_update_decode_equals_uncached(update):
    wire = update.encode(addpath=True)
    body = wire[messages.HEADER_SIZE:]
    block = _attr_block(body)
    for _ in range(2):
        decoded = UpdateMessage.decode(body, addpath=True)
        if block:
            assert decoded.attributes == _decode_attributes_uncached(block)
        assert decoded == update
        _HELD.append(decoded)


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_frames_decode_like_the_parser(path, monkeypatch):
    """Every committed crash repro: decoding through the table gives the
    parser's outcome, on the first and the second arrival."""
    record = json.loads(path.read_text())
    frame = bytes.fromhex(record["frame_hex"])

    def first_message():
        decoder = MessageDecoder()
        decoder.addpath = record["addpath"]
        decoder.feed(frame)
        return decoder.next_message()

    through_table = [_outcome(first_message) for _ in range(2)]
    monkeypatch.setattr(messages, "_decode_attributes",
                        _decode_attributes_uncached)
    assert through_table == [_outcome(first_message)] * 2
    block = _attr_block(frame[messages.HEADER_SIZE:])
    if block:
        assert _outcome(_decode_attributes, block) == \
            _outcome(_decode_attributes_uncached, block)


def test_missing_next_hop_checked_on_a_hit():
    """A block without NEXT_HOP is legal beside withdrawals only; once it
    is in the table, an announcement carrying it must still be refused."""
    attributes = PathAttributes(communities=frozenset({Community(1, 2)}))
    block = _encode_attributes_uncached(attributes)
    attrs_only = b"\x00\x00" + len(block).to_bytes(2, "big") + block
    held = UpdateMessage.decode(attrs_only).attributes
    assert messages._ATTRS_BY_WIRE[block] is held
    for _ in range(2):  # announcing 10.0.0.0/8 with it
        with pytest.raises(NotificationError) as info:
            UpdateMessage.decode(attrs_only + bytes([8, 10]))
        assert info.value.subcode == UpdateSubcode.MISSING_WELLKNOWN_ATTRIBUTE


# -- malformed blocks never enter --------------------------------------------


@pytest.mark.parametrize("block", [
    bytes([0x40, 1, 1, 3]),                       # ORIGIN value 3
    bytes([0x40, 3, 3, 10, 0, 0]),                # NEXT_HOP, 3 bytes
    bytes([0x40, 1, 1, 0, 0x40, 1, 1, 0]),        # duplicate ORIGIN
    bytes([0xC0, 8, 3, 0, 1, 2]),                 # COMMUNITIES, 3 bytes
    bytes([0x40, 2, 4, 2, 1, 0, 0]),              # AS_PATH overrun
], ids=["origin-value", "next-hop-length", "duplicate", "communities",
        "as-path"])
def test_malformed_block_raises_twice_and_is_never_stored(block):
    errors = []
    for _ in range(2):
        with pytest.raises(NotificationError) as info:
            _decode_attributes(block)
        errors.append((info.value.code, info.value.subcode, info.value.data))
        assert block not in messages._ATTRS_BY_WIRE
    assert errors[0] == errors[1]


# -- byte-different blocks stay distinct -------------------------------------


def _head(attributes: PathAttributes) -> bytes:
    """ORIGIN + AS_PATH + NEXT_HOP of ``attributes`` (the canonical head)."""
    bare = PathAttributes(origin=attributes.origin,
                          as_path=attributes.as_path,
                          next_hop=attributes.next_hop)
    return _encode_attributes_uncached(bare)


COMMUNITY_SET = PathAttributes(
    next_hop=NEXT_HOP,
    communities=frozenset({Community(65001, 1), Community(65001, 2),
                           Community(64512, 9)}),
)
UNKNOWN_SET = PathAttributes(
    next_hop=NEXT_HOP,
    unknown=(UnknownAttribute(type_code=99, flags=0xC0, value=b"xy"),),
)


def _reordered_communities() -> bytes:
    value = b"".join(
        community.packed().to_bytes(4, "big")
        for community in sorted(COMMUNITY_SET.communities,
                                key=lambda c: (c.asn, c.value), reverse=True)
    )
    return _head(COMMUNITY_SET) + bytes([0xC0, 8, len(value)]) + value


def _extended_length_communities() -> bytes:
    canonical = _encode_attributes_uncached(COMMUNITY_SET)
    head = _head(COMMUNITY_SET)
    flags, type_code, length = canonical[len(head):len(head) + 3]
    return (head + bytes([flags | 0x10, type_code, 0, length])
            + canonical[len(head) + 3:])


def _unknown_without_partial() -> bytes:
    return _head(UNKNOWN_SET) + bytes([0xC0, 99, 2]) + b"xy"


@pytest.mark.parametrize("variant, attributes, same_value", [
    (_reordered_communities, COMMUNITY_SET, True),
    (_extended_length_communities, COMMUNITY_SET, True),
    # The received flags are kept, so the values differ in the partial
    # bit alone; the canonical re-encode sets it on both.
    (_unknown_without_partial, UNKNOWN_SET, False),
], ids=["community-order", "extended-length", "no-partial-bit"])
def test_byte_different_blocks_are_distinct_entries(variant, attributes,
                                                    same_value):
    canonical = _encode_attributes_uncached(attributes)
    other = variant()
    assert other != canonical
    from_canonical = _decode_attributes(canonical)
    from_other = _decode_attributes(other)
    assert from_other is not from_canonical
    assert (from_other == from_canonical) is same_value
    assert messages._ATTRS_BY_WIRE[canonical] is from_canonical
    assert messages._ATTRS_BY_WIRE[other] is from_other
    for _ in range(2):  # computed, then memoized on the value
        assert _encode_attributes(from_canonical) == canonical
        assert _encode_attributes(from_other) == canonical


# -- lifetime: exactly as long as something holds the value ------------------


def test_entry_dies_with_the_last_route_holding_it():
    """Two routes share one decoded set; withdrawing both frees the entry
    by reference counting alone (the collector is off throughout)."""
    world = World(experiments=1, upstreams=1)
    feeder = world.feeders[0]
    prefixes = [IPv4Prefix.parse("203.0.113.0/24"),
                IPv4Prefix.parse("198.51.100.0/24")]
    block = _encode_attributes_uncached(feeder.route(prefixes[0], Community(65001, 77))
                       .attributes)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for prefix in prefixes:
            feeder.announce([prefix], Community(65001, 77))
            world.settle()
        held = messages._ATTRS_BY_WIRE[block]
        assert {route.attributes for route in
                feeder.neighbor.rib.routes()} == {held}
        del held
        feeder.withdraw(prefixes[:1])
        world.settle()
        assert block in messages._ATTRS_BY_WIRE
        feeder.withdraw(prefixes[1:])
        world.settle()
        assert block not in messages._ATTRS_BY_WIRE
    finally:
        if was_enabled:
            gc.enable()


# -- the count: re-announcements are table hits ------------------------------


def test_reannouncements_parse_each_block_once(monkeypatch):
    """4 upstreams x 64 prefixes, each with its own attribute set, then
    the same (prefix, set) pairs re-announced 10 more times: 2,816
    UPDATEs, 256 distinct blocks, 256 parses."""
    world = World(experiments=0, upstreams=4)
    parses = count_calls(monkeypatch, messages, "_decode_attributes_uncached")
    prefixes = list(itertools.islice(
        IPv4Prefix.parse("60.0.0.0/8").subnets(24), 64))
    updates = 0
    for _round in range(11):
        for index, feeder in enumerate(world.feeders):
            for number, prefix in enumerate(prefixes):
                feeder.announce([prefix], Community(65001 + index, number))
                updates += 1
        world.settle()
    assert updates == 2816
    assert world.node.counters["updates_from_upstream"] == 2816
    assert len(parses) == 256
