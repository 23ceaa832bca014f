"""Longest-prefix-match routing table: an 8-bit-stride trie.

Each vBGP per-neighbor routing table, every router FIB, and the synthetic
Internet's forwarding state are instances of :class:`LpmTable`.  The table
is on the per-packet hot path (dMAC demux → per-neighbor table → LPM →
forward, §3.2.2) and, since every upstream's full table lands in its own
table, on the per-route control-plane path too:

* **stride trie**: nodes consume 8 address bits per level, so an IPv4
  lookup touches at most 5 nodes instead of 33.  A prefix whose length is
  not byte-aligned is a *partial* of the node its whole bytes lead to,
  keyed by its slot in the byte's implicit binary tree,
  ``(1 << remainder) | top``.  Nodes stay sparse: besides ``partials`` a
  node keeps only the remainder lengths it holds, longest first, so a
  lookup probes one slot per held length down to its first hit (at most
  7), and an insert or remove is one dict write or pop;
* **lookup cache** (default): a bounded per-table LRU keyed by the
  destination address caches both hits and misses.  Inserting or removing
  a prefix invalidates exactly the cached addresses it covers, so a more
  specific route becomes visible immediately.

The cache follows the :mod:`repro.perf` flags ``lpm_cache`` and
``lpm_cache_size``, read at table construction time.  The binary-trie and
linear-scan references the trie is checked against live under
``tests/netsim/``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Generic, Iterator, Optional, TypeVar

from repro import perf
from repro.netsim.addr import IPAddress, Prefix

V = TypeVar("V")

_STRIDE = 8
_MISS = object()  # cache sentinel distinguishing "no entry" from "not cached"
# The ``children`` of every childless node: most nodes are leaves, and a
# node gets a dict of its own with its first child.  Never mutated.
_NO_CHILDREN: dict = {}
# The 128 possible ``shifts`` tuples, each shared by every node holding it,
# so a node's lengths cost one pointer.  Never mutated.
_SHIFTS: dict[tuple[int, ...], tuple[int, ...]] = {
    shifts: shifts for shifts in (
        tuple(shift for shift in range(1, _STRIDE) if mask >> shift & 1)
        for mask in range(0, 256, 2))
}


@dataclass(slots=True)
class RouteEntry(Generic[V]):
    """A prefix→value binding returned by LPM lookups."""

    prefix: Prefix
    value: V


class _StrideNode:
    __slots__ = ("children", "entry", "partials", "shifts")

    def __init__(self) -> None:
        # Next-byte → child node (sparse: most nodes have few children).
        self.children: dict[int, "_StrideNode"] = _NO_CHILDREN
        # Entry for the prefix ending exactly at this node's byte boundary.
        self.entry: Optional[RouteEntry] = None
        # Entries whose length falls strictly inside this node's stride,
        # keyed by slot ``(1 << remainder) | top`` (2..255), where ``top``
        # is the remainder's 1..7 leading bits of the next byte.  A next
        # byte's slot at that length is ``(256 | byte) >> (8 - remainder)``.
        self.partials: Optional[dict[int, RouteEntry]] = None
        # ``8 - remainder`` for each remainder length ``partials`` holds,
        # longest prefix first: the only lengths a lookup probes.
        # ``partials`` is None and ``shifts`` empty exactly while the node
        # holds no partial.
        self.shifts: tuple[int, ...] = ()

    def is_empty(self) -> bool:
        return self.entry is None and not self.partials and not self.children


class _StrideTrie:
    """8-bit-stride trie with sparse in-node partials."""

    def __init__(self) -> None:
        self._root = _StrideNode()

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _split(prefix: Prefix) -> tuple[bytes, int, int]:
        """``prefix`` as its whole bytes (the path of nodes to it), then
        the in-node slot and length (0..7) of what is left inside that
        node."""
        # Read the packed int ``TAG | network << 8 | length`` directly.
        length = prefix & 0xFF
        whole = length // _STRIDE
        remainder = length % _STRIDE
        network = (prefix ^ prefix.TAG) >> 8
        bits = prefix.BITS
        route = (network >> (bits - _STRIDE * whole)).to_bytes(whole, "big")
        slot = (network >> (bits - length)) & ((1 << remainder) - 1)
        return route, slot | (1 << remainder), remainder

    def _descend(self, route: bytes,
                 path: Optional[list[tuple[_StrideNode, int]]] = None,
                 ) -> Optional[_StrideNode]:
        node = self._root
        for byte in route:
            child = node.children.get(byte)
            if child is None:
                return None
            if path is not None:
                path.append((node, byte))
            node = child
        return node

    # -- mutation --------------------------------------------------------

    def insert(self, prefix: Prefix, value: Any) -> bool:
        route, slot, remainder = self._split(prefix)
        node = self._root
        for byte in route:
            children = node.children
            child = children.get(byte)
            if child is None:
                if children is _NO_CHILDREN:
                    children = node.children = {}
                child = children[byte] = _StrideNode()
            node = child
        entry = RouteEntry(prefix, value)
        if not remainder:
            created = node.entry is None
            node.entry = entry
            return created
        partials = node.partials
        if partials is None:
            partials = node.partials = {}
        size = len(partials)  # created iff the dict grows: no key probe
        partials[slot] = entry
        shift = _STRIDE - remainder
        if shift not in node.shifts:
            node.shifts = _SHIFTS[tuple(sorted(node.shifts + (shift,)))]
        return len(partials) != size

    def remove(self, prefix: Prefix) -> bool:
        route, slot, remainder = self._split(prefix)
        path: list[tuple[_StrideNode, int]] = []
        node = self._descend(route, path)
        if node is None:
            return False
        if not remainder:
            if node.entry is None:
                return False
            node.entry = None
        else:
            partials = node.partials
            if partials is None or partials.pop(slot, None) is None:
                return False
            if not partials:
                node.partials = None
                node.shifts = ()
            elif not any(key >> remainder == 1 for key in partials):
                # No partial of this length is left: stop probing it.
                shift = _STRIDE - remainder
                node.shifts = _SHIFTS[
                    tuple(s for s in node.shifts if s != shift)]
        # Prune empty nodes bottom-up so long-running simulations do not
        # leak nodes as routes churn.
        child = node
        for parent, byte in reversed(path):
            if child.is_empty():
                del parent.children[byte]
            else:
                break
            child = parent
        return True

    # -- queries ---------------------------------------------------------

    def get(self, prefix: Prefix) -> Optional[RouteEntry]:
        route, slot, remainder = self._split(prefix)
        node = self._descend(route)
        if node is None:
            return None
        if not remainder:
            return node.entry
        if not node.partials:
            return None
        return node.partials.get(slot)

    def lookup(self, address: IPAddress) -> Optional[RouteEntry]:
        node = self._root
        best: Optional[RouteEntry] = None
        value = address.value
        shift = address.BITS - _STRIDE
        while True:
            if node.entry is not None:
                best = node.entry
            if shift < 0:
                break
            byte = (value >> shift) & 0xFF
            shifts = node.shifts
            if shifts:
                partials = node.partials
                slot = 256 | byte
                for in_node in shifts:
                    entry = partials.get(slot >> in_node)
                    if entry is not None:
                        best = entry
                        break
            child = node.children.get(byte)
            if child is None:
                break
            node = child
            shift -= _STRIDE
        return best

    def entries(self) -> Iterator[RouteEntry]:
        yield from self._iter_subtree(self._root)

    def _iter_subtree(self, node: _StrideNode) -> Iterator[RouteEntry]:
        # Deterministic order: node entry, then partials by (length, bits),
        # which is their slots' order, then children by byte value.
        if node.entry is not None:
            yield node.entry
        if node.partials:
            for slot in sorted(node.partials):
                yield node.partials[slot]
        for byte in sorted(node.children):
            yield from self._iter_subtree(node.children[byte])

    def node_count(self) -> int:
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            for child in node.children.values():
                count += 1
                stack.append(child)
        return count


# ---------------------------------------------------------------------------
# Public facade: stride trie + LRU lookup cache
# ---------------------------------------------------------------------------


class LpmTable(Generic[V]):
    """A longest-prefix-match table for IPv4 or IPv6 prefixes.

    The table is protocol-agnostic: IPv4 and IPv6 prefixes may technically
    coexist but, per real-kernel practice, callers keep separate v4/v6
    tables (the lookup cache keys on ``(address bits, address value)`` so
    coexistence stays correct).

    Cache behaviour follows the :mod:`repro.perf` flags at construction
    time; per-table keyword overrides exist for tests.
    """

    def __init__(
        self,
        *,
        cache: Optional[bool] = None,
        cache_size: Optional[int] = None,
    ) -> None:
        flags = perf.FLAGS
        use_cache = flags.lpm_cache if cache is None else cache
        self._backend = _StrideTrie()
        self._cache: Optional[OrderedDict] = (
            OrderedDict() if use_cache else None
        )
        self._cache_cap = (
            flags.lpm_cache_size if cache_size is None else cache_size
        )
        self._size = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        return self._backend.get(prefix) is not None

    def node_count(self) -> int:
        """Internal trie nodes currently allocated (leak checks)."""
        return self._backend.node_count()

    def cache_len(self) -> int:
        return len(self._cache) if self._cache is not None else 0

    # -- mutation --------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the entry for ``prefix``."""
        if self._backend.insert(prefix, value):
            self._size += 1
        if self._cache:
            self._invalidate(prefix)

    def remove(self, prefix: Prefix) -> bool:
        """Remove the exact entry for ``prefix``. Returns ``True`` if found.

        Empty trie branches are pruned so long-running simulations do not
        leak nodes as routes churn.
        """
        if not self._backend.remove(prefix):
            return False
        self._size -= 1
        if self._cache:
            self._invalidate(prefix)
        return True

    def clear(self) -> None:
        self._backend = type(self._backend)()
        self._size = 0
        if self._cache is not None:
            self._cache.clear()

    def _invalidate(self, prefix: Prefix) -> None:
        """Drop cached lookups (hits *and* misses) covered by ``prefix``."""
        cache = self._cache
        length = prefix & 0xFF  # the packed prefix's length field
        if length == 0:
            cache.clear()
            return
        bits = prefix.BITS
        shift = bits - length
        network = (prefix ^ prefix.TAG) >> (8 + shift)
        stale = [
            key for key in cache
            if key[0] == bits and (key[1] >> shift) == network
        ]
        for key in stale:
            del cache[key]

    # -- queries ---------------------------------------------------------

    def get(self, prefix: Prefix) -> Optional[V]:
        """Exact-match lookup; returns the value or ``None``."""
        entry = self._backend.get(prefix)
        if entry is None:
            return None
        return entry.value

    def lookup(self, address: IPAddress) -> Optional[RouteEntry[V]]:
        """Longest-prefix-match for ``address``."""
        cache = self._cache
        if cache is None:
            return self._backend.lookup(address)
        key = (address.BITS, address.value)
        hit = cache.get(key, _MISS)
        if hit is not _MISS:
            self.cache_hits += 1
            cache.move_to_end(key)
            return hit
        self.cache_misses += 1
        entry = self._backend.lookup(address)
        cache[key] = entry
        if len(cache) > self._cache_cap:
            cache.popitem(last=False)
        return entry

    def entries(self) -> Iterator[RouteEntry[V]]:
        """Iterate all entries in deterministic trie order."""
        yield from self._backend.entries()
