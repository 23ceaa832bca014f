"""Virtual IP/MAC/table allocation for vBGP neighbors.

Each external BGP neighbor of the platform is assigned, platform-wide:

* a **global id** (from the :class:`GlobalNeighborRegistry`),
* a **global IP** in ``127.127.0.0/16`` used as the BGP next hop on the
  backbone (§4.4: "a common pool of IPs to assign a unique global (to
  Peering) IP to each external neighbor"),
* a **virtual MAC** in the locally-administered range, deterministic in the
  global id so the MAC-encoded routing decision survives backbone hops,
* a **kernel table id**, also deterministic in the global id.

Each vBGP node additionally gives the neighbor a **local virtual IP** in
``127.65.0.0/16`` (Figure 2's ``127.65.0.1``/``127.65.0.2``) used as the
next hop in routes exported to experiments attached at that node.  It is
the global id's address in that pool, so it too is the same on every
node and across restarts, whatever order neighbors attach in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress

LOCAL_POOL = IPv4Prefix.parse("127.65.0.0/16")
GLOBAL_POOL = IPv4Prefix.parse("127.127.0.0/16")
VMAC_PREFIX = 0x027F_0000_0000  # locally administered, unicast
TABLE_BASE = 1000


def global_neighbor_ip(global_id: int) -> IPv4Address:
    """Backbone-wide next-hop IP for the neighbor (127.127.x.y)."""
    if not 0 < global_id < GLOBAL_POOL.num_addresses - 1:
        raise ValueError(f"global id out of range: {global_id}")
    return GLOBAL_POOL.address_at(global_id)


def local_neighbor_ip(global_id: int) -> IPv4Address:
    """Node-local next-hop VIP for the neighbor (127.65.x.y)."""
    if not 0 < global_id < LOCAL_POOL.num_addresses - 1:
        raise ValueError(f"global id out of range: {global_id}")
    return LOCAL_POOL.address_at(global_id)


def global_neighbor_mac(global_id: int) -> MacAddress:
    """Deterministic virtual MAC encoding the neighbor's global id.

    Determinism across nodes is what lets a frame's destination MAC keep
    meaning after it crosses the backbone (§4.4).
    """
    if not 0 < global_id < (1 << 16):
        raise ValueError(f"global id out of range: {global_id}")
    return MacAddress(VMAC_PREFIX | global_id)


def neighbor_mac_global_id(mac: MacAddress) -> Optional[int]:
    """Reverse of :func:`global_neighbor_mac`; None for foreign MACs."""
    if mac.value & ~0xFFFF != VMAC_PREFIX:
        return None
    global_id = mac.value & 0xFFFF
    return global_id or None


def neighbor_table_id(global_id: int) -> int:
    """Kernel routing-table id for the neighbor (same on every node)."""
    return TABLE_BASE + global_id


@dataclass(frozen=True)
class VirtualNeighbor:
    """The full virtual identity of one platform neighbor at one node."""

    global_id: int
    local_ip: IPv4Address  # 127.65.x.y, node-local
    global_ip: IPv4Address  # 127.127.x.y, platform-wide
    mac: MacAddress  # deterministic in global_id
    table_id: int


def virtual_neighbor(global_id: int) -> VirtualNeighbor:
    """The neighbor's whole virtual identity, all images of its gid."""
    return VirtualNeighbor(
        global_id=global_id,
        local_ip=local_neighbor_ip(global_id),
        global_ip=global_neighbor_ip(global_id),
        mac=global_neighbor_mac(global_id),
        table_id=neighbor_table_id(global_id),
    )


class GlobalNeighborRegistry:
    """Platform-wide assignment of global ids to external neighbors.

    In the real platform this lives in the central configuration database
    (§5); keys are ``(pop_name, neighbor_name)``.
    """

    def __init__(self) -> None:
        self._ids: dict[tuple[str, str], int] = {}
        self._next = 1

    def register(self, pop: str, neighbor: str) -> int:
        key = (pop, neighbor)
        if key not in self._ids:
            self._ids[key] = self._next
            self._next += 1
        return self._ids[key]

    def preassign(self, pop: str, neighbor: str, global_id: int) -> int:
        """Pin a neighbor's global id ahead of :meth:`register`.

        The fleet compiler (DESIGN.md §6k) computes the whole fleet's id
        map once and pins it into every per-PoP artifact, so each PoP
        process — holding only its own registry instance — still agrees
        with every other process (and with the in-process reference) on
        the gid behind every virtual MAC / global IP / table id.
        Re-pinning the same value is idempotent; a conflicting value or
        an out-of-range id raises.
        """
        if not 0 < global_id < (1 << 16):
            raise ValueError(f"global id out of range: {global_id}")
        key = (pop, neighbor)
        existing = self._ids.get(key)
        if existing is not None and existing != global_id:
            raise ValueError(
                f"{key} already registered as gid {existing}, "
                f"cannot preassign {global_id}"
            )
        self._ids[key] = global_id
        self._next = max(self._next, global_id + 1)
        return global_id

    def lookup(self, pop: str, neighbor: str) -> Optional[int]:
        return self._ids.get((pop, neighbor))

    def owner(self, global_id: int) -> Optional[tuple[str, str]]:
        for key, value in self._ids.items():
            if value == global_id:
                return key
        return None

    def __len__(self) -> int:
        return len(self._ids)
