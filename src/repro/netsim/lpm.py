"""Longest-prefix-match routing table: an 8-bit-stride trie.

Each vBGP per-neighbor routing table, every router FIB, and the synthetic
Internet's forwarding state are instances of :class:`LpmTable`.  The table
is on the per-packet hot path (dMAC demux → per-neighbor table → LPM →
forward, §3.2.2) and, since every upstream's full table lands in its own
table, on the per-route control-plane path too:

* **stride trie**: nodes consume 8 address bits per level, so an IPv4
  lookup touches at most 5 nodes instead of 33.  Prefix lengths that are
  not byte-aligned are expanded *inside* their node into a 256-slot
  ``expanded`` array (controlled prefix expansion), keeping the walk
  branch-free per level.  A parallel ``depth`` byte array holds each
  slot's in-node prefix length, so a write touches only the slots it
  changes: an insert takes the slots of its span held by an entry no
  longer than itself, and a remove hands exactly the slots the removed
  entry held to the next-shorter partial covering its span;
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
# ``depth`` bytes for one whole span of a remainder-r partial (256 >> r slots).
_DEPTH_FILL = [bytes((remainder,)) * (256 >> remainder)
               for remainder in range(_STRIDE)]
# The ``children`` of every childless node: most nodes are leaves, and a
# node gets a dict of its own with its first child.  Never mutated.
_NO_CHILDREN: dict = {}


@dataclass(slots=True)
class RouteEntry(Generic[V]):
    """A prefix→value binding returned by LPM lookups."""

    prefix: Prefix
    value: V


class _StrideNode:
    __slots__ = ("children", "entry", "partials", "expanded", "depth")

    def __init__(self) -> None:
        # Next-byte → child node (sparse: most nodes have few children).
        self.children: dict[int, "_StrideNode"] = _NO_CHILDREN
        # Entry for the prefix ending exactly at this node's byte boundary.
        self.entry: Optional[RouteEntry] = None
        # Entries whose length falls strictly inside this node's stride:
        # (top-bits value, remainder length 1..7) → entry.  ``partials``,
        # ``expanded`` and ``depth`` exist exactly while a partial does.
        self.partials: Optional[dict[tuple[int, int], RouteEntry]] = None
        # Controlled prefix expansion of ``partials``: for each possible
        # next byte, the longest partial entry covering it (or None) ...
        self.expanded: Optional[list[Optional[RouteEntry]]] = None
        # ... and that entry's remainder length (0 where it is None).
        self.depth: Optional[bytearray] = None

    def is_empty(self) -> bool:
        return self.entry is None and not self.partials and not self.children


class _StrideTrie:
    """8-bit-stride trie with incremental in-node prefix expansion."""

    def __init__(self) -> None:
        self._root = _StrideNode()

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _split(prefix: Prefix) -> tuple[bytes, int, int]:
        """``prefix`` as its whole bytes (the path of nodes to it), then the
        top bits and the length (0..7) of what is left inside that node."""
        length = prefix.length
        whole = length // _STRIDE
        remainder = length % _STRIDE
        network = prefix.network.value
        bits = prefix.BITS
        route = (network >> (bits - _STRIDE * whole)).to_bytes(whole, "big")
        top = (network >> (bits - length)) & ((1 << remainder) - 1)
        return route, top, remainder

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
        route, top, remainder = self._split(prefix)
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
            node.expanded = [None] * 256
            node.depth = bytearray(256)
        size = len(partials)  # created iff the dict grows: no key probe
        partials[top, remainder] = entry
        span = 256 >> remainder
        lo = top * span
        hi = lo + span
        expanded = node.expanded
        depth = node.depth
        if max(depth[lo:hi]) <= remainder:
            expanded[lo:hi] = [entry] * span
            depth[lo:hi] = _DEPTH_FILL[remainder]
        else:
            # Longer partials hold part of the span: leave their slots.
            for byte in range(lo, hi):
                if depth[byte] <= remainder:
                    expanded[byte] = entry
                    depth[byte] = remainder
        return len(partials) != size

    def remove(self, prefix: Prefix) -> bool:
        route, top, remainder = self._split(prefix)
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
            key = (top, remainder)
            if partials is None or partials.pop(key, None) is None:
                return False
            if partials:
                self._uncover(node, top, remainder)
            else:
                node.partials = node.expanded = node.depth = None
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

    @staticmethod
    def _uncover(node: _StrideNode, top: int, remainder: int) -> None:
        """Hand the slots the removed partial ``(top, remainder)`` held to
        the next-shorter partial covering its span, or empty them."""
        partials = node.partials
        span = 256 >> remainder
        lo = top * span
        hi = lo + span
        # Every byte of the span has the same shorter ancestors.
        cover: Optional[RouteEntry] = None
        cover_depth = 0
        for shorter in range(remainder - 1, 0, -1):
            cover = partials.get((lo >> (_STRIDE - shorter), shorter))
            if cover is not None:
                cover_depth = shorter
                break
        expanded = node.expanded
        depth = node.depth
        if depth[lo:hi] == _DEPTH_FILL[remainder]:
            expanded[lo:hi] = [cover] * span
            depth[lo:hi] = bytes((cover_depth,)) * span
        else:
            for byte in range(lo, hi):
                if depth[byte] == remainder:
                    expanded[byte] = cover
                    depth[byte] = cover_depth

    # -- queries ---------------------------------------------------------

    def get(self, prefix: Prefix) -> Optional[RouteEntry]:
        route, top, remainder = self._split(prefix)
        node = self._descend(route)
        if node is None:
            return None
        if not remainder:
            return node.entry
        if not node.partials:
            return None
        return node.partials.get((top, remainder))

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
            expanded = node.expanded
            if expanded is not None:
                entry = expanded[byte]
                if entry is not None:
                    best = entry
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
        # then children by byte value.
        if node.entry is not None:
            yield node.entry
        if node.partials:
            for key in sorted(node.partials, key=lambda k: (k[1], k[0])):
                yield node.partials[key]
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
        if prefix.length == 0:
            cache.clear()
            return
        bits = prefix.ADDRESS_CLS.BITS
        shift = bits - prefix.length
        network = prefix.network.value >> shift
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
