"""The LPM references the stride trie in ``repro.netsim.lpm`` is checked
against (``test_lpm.py``):

* :class:`BinaryTrie` — the original 1-bit-per-level walk, once the
  second ``LpmTable`` backend; it speaks the stride trie's backend
  protocol (``insert``/``get``/``remove``/``lookup``/``entries``/
  ``node_count``), so a table can be put on top of it;
* :class:`LinearScanLpm` — a brute-force longest match over a dict.
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, Optional, TypeVar

from repro.netsim.addr import IPAddress, Prefix
from repro.netsim.lpm import LpmTable, RouteEntry

V = TypeVar("V")


class _BitNode:
    __slots__ = ("children", "entry")

    def __init__(self) -> None:
        self.children: list[Optional["_BitNode"]] = [None, None]
        self.entry: Optional[RouteEntry] = None


class BinaryTrie:
    """1-bit-per-level trie: the obviously-correct backend."""

    def __init__(self) -> None:
        self._root = _BitNode()

    def _walk_to(self, prefix: Prefix, create: bool) -> Optional[_BitNode]:
        node = self._root
        value = prefix.network.value
        bits = prefix.ADDRESS_CLS.BITS
        for depth in range(prefix.length):
            bit = (value >> (bits - 1 - depth)) & 1
            child = node.children[bit]
            if child is None:
                if not create:
                    return None
                child = _BitNode()
                node.children[bit] = child
            node = child
        return node

    def insert(self, prefix: Prefix, value: Any) -> bool:
        node = self._walk_to(prefix, create=True)
        assert node is not None
        created = node.entry is None
        node.entry = RouteEntry(prefix=prefix, value=value)
        return created

    def get(self, prefix: Prefix) -> Optional[RouteEntry]:
        node = self._walk_to(prefix, create=False)
        if node is None:
            return None
        return node.entry

    def remove(self, prefix: Prefix) -> bool:
        path: list[tuple[_BitNode, int]] = []
        node = self._root
        value = prefix.network.value
        bits = prefix.ADDRESS_CLS.BITS
        for depth in range(prefix.length):
            bit = (value >> (bits - 1 - depth)) & 1
            child = node.children[bit]
            if child is None:
                return False
            path.append((node, bit))
            node = child
        if node.entry is None:
            return False
        node.entry = None
        # Prune childless, entry-less nodes bottom-up.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            assert child is not None
            if child.entry is None and child.children == [None, None]:
                parent.children[bit] = None
            else:
                break
        return True

    def lookup(self, address: IPAddress) -> Optional[RouteEntry]:
        node = self._root
        best = node.entry
        value = address.value
        bits = address.BITS
        for depth in range(bits):
            bit = (value >> (bits - 1 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.entry is not None:
                best = node.entry
        return best

    def entries(self) -> Iterator[RouteEntry]:
        stack = [self._root]
        while stack:
            current = stack.pop()
            if current.entry is not None:
                yield current.entry
            for child in reversed(current.children):
                if child is not None:
                    stack.append(child)

    def node_count(self) -> int:
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            for child in node.children:
                if child is not None:
                    count += 1
                    stack.append(child)
        return count


def binary_table(cache: bool) -> LpmTable:
    """An ``LpmTable`` (cache layer included) over the binary trie."""
    table: LpmTable = LpmTable(cache=cache)
    table._backend = BinaryTrie()
    return table


class LinearScanLpm(Generic[V]):
    """A brutally simple LPM used as the differential-test oracle."""

    def __init__(self) -> None:
        self._entries: dict[Prefix, V] = {}

    def insert(self, prefix: Prefix, value: V) -> None:
        self._entries[prefix] = value

    def remove(self, prefix: Prefix) -> bool:
        if prefix not in self._entries:
            return False
        del self._entries[prefix]
        return True

    def lookup(self, address: IPAddress) -> Optional[RouteEntry[V]]:
        best: Optional[Prefix] = None
        for prefix in self._entries:
            if prefix.contains_address(address):
                if best is None or prefix.length > best.length:
                    best = prefix
        if best is None:
            return None
        return RouteEntry(prefix=best, value=self._entries[best])

    def __len__(self) -> int:
        return len(self._entries)
