"""Encode memoization and the decode-side attribute flyweight.

The optimizations must be *invisible*: cached encodes are byte-identical
to the joined-bytes oracle (``tests/bgp/encode_reference.py``), and
sharing decoded values only changes object identity, never values.
"""

import dataclasses

from repro import perf
from repro.bgp.attributes import (
    AsPath,
    Community,
    PathAttributes,
    Route,
)
from repro.bgp.messages import MessageDecoder, UpdateMessage
from repro.netsim.addr import IPv4Address, IPv4Prefix
from tests.bgp.encode_reference import joined_encode


def _sample_attributes(seed: int = 0) -> PathAttributes:
    return PathAttributes(
        as_path=AsPath.from_asns(65000 + seed, 64512, 3356),
        next_hop=IPv4Address.parse("10.0.0.1"),
        med=seed,
        communities=frozenset({Community(47065, seed)}),
    )


def _sample_update(seed: int = 0) -> UpdateMessage:
    routes = [
        Route(
            prefix=IPv4Prefix.parse(f"10.{seed}.{i}.0/24"),
            attributes=_sample_attributes(seed),
            path_id=i + 1,
        )
        for i in range(4)
    ]
    return UpdateMessage.announce(routes)


class TestEncodeMemoization:
    def test_cached_encode_is_byte_identical(self):
        update = _sample_update()
        for addpath in (False, True):
            expected = joined_encode(_sample_update(), addpath)
            assert update.encode(addpath=addpath) == expected
            assert update.encode(addpath=addpath) == expected   # memo hit

    def test_repeat_encode_returns_cached_object(self):
        update = _sample_update()
        first = update.encode(addpath=True)
        assert update.encode(addpath=True) is first
        # Different addpath mode is cached independently.
        other = update.encode(addpath=False)
        assert other != first
        assert update.encode(addpath=False) is other

    def test_shared_attributes_roundtrip(self):
        """A cached encode decodes back to the message it came from."""
        update = _sample_update(seed=3)
        wire = update.encode(addpath=True)
        decoder = MessageDecoder()
        decoder.addpath = True
        decoder.feed(wire)
        decoded = decoder.next_message()
        assert decoded.attributes == update.attributes
        assert decoded.nlri == update.nlri


class TestInterning:
    """Decode-side sharing is the wire-keyed attribute flyweight: the
    same attribute bytes decode to one object while anything holds it."""

    @staticmethod
    def _decode(wire: bytes) -> UpdateMessage:
        decoder = MessageDecoder()
        decoder.addpath = True
        decoder.feed(wire)
        return decoder.next_message()

    def test_intern_attributes_identity(self):
        wire = _sample_update(seed=7).encode(addpath=True)
        first = self._decode(wire)
        second = self._decode(wire)
        assert first.attributes is second.attributes

    def test_intern_as_path_identity(self):
        """AS_PATH sharing follows from attribute-set sharing."""
        wire = _sample_update(seed=8).encode(addpath=True)
        first = self._decode(wire)
        second = self._decode(wire)
        assert first.attributes.as_path is second.attributes.as_path
        assert first.attributes.as_path == AsPath.from_asns(65008, 64512, 3356)

    def test_intern_disabled_returns_argument(self):
        """No perf flag turns the flyweight off: with every boolean flag
        cleared, the same bytes still decode to the one held object."""
        all_off = {
            field.name: False
            for field in dataclasses.fields(perf.PerfFlags)
            if field.type in (bool, "bool")
        }
        wire = _sample_update(seed=9).encode(addpath=True)
        held = self._decode(wire).attributes
        with perf.flags(**all_off):
            assert all_off and not any(getattr(perf.FLAGS, k) for k in all_off)
            again = self._decode(wire).attributes
        assert again is held
        assert again == _sample_attributes(9)

    def test_decode_pools_equal_attribute_sets(self):
        """Messages differing only in NLRI share the attribute object."""
        one = self._decode(_sample_update(seed=5).encode(addpath=True))
        other = UpdateMessage(
            attributes=_sample_attributes(5),
            nlri=((IPv4Prefix.parse("192.0.2.0/24"), 9),),
        )
        two = self._decode(other.encode(addpath=True))
        assert one.attributes is two.attributes

    def test_interning_never_changes_value(self):
        wire = _sample_update(seed=11).encode(addpath=True)
        for _ in range(2):
            assert self._decode(wire).attributes == _sample_attributes(11)


class TestFlagHygiene:
    def test_flags_context_restores(self):
        before = perf.FLAGS
        with perf.flags(lpm_cache=False):
            assert not perf.FLAGS.lpm_cache
        assert perf.FLAGS == before
