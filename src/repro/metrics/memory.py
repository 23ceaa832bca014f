"""Route memory accounting (Figure 6a).

The paper measures BIRD's routing-table memory as a function of known
routes, in three configurations:

* **control plane** — a single global RIB (≈327 B/route in BIRD),
* **per-interconnection data plane** — adds one kernel FIB entry per known
  route (vBGP keeps one table per neighbor so experiments can choose routes
  per packet),
* **per-interconnection data plane with default** — additionally keeps the
  router's own best-path table synchronized to a kernel FIB (only needed if
  the vBGP node also routed production traffic).

Our accounting walks the *actual* data structures (RIB routes, kernel table
entries) and applies a per-object byte model calibrated to the paper's
327 B/route figure, so linearity and the configuration ordering emerge from
real state rather than from a formula over the route count.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable

from repro.bgp.attributes import Route
from repro.netsim.stack import NetworkStack

# Calibrated byte model. A typical Internet route (4-hop AS path, a couple
# of communities) lands at ≈327 bytes, matching the paper's measurement.
ROUTE_BASE_BYTES = 287  # rte + rta + net structures in BIRD
AS_HOP_BYTES = 8  # per ASN in the path
COMMUNITY_BYTES = 4
LARGE_COMMUNITY_BYTES = 12
UNKNOWN_ATTR_BASE_BYTES = 16

FIB_ENTRY_BYTES = 192  # Linux fib_info + nexthop + trie node share
KERNEL_SYNC_BYTES = 129  # router-side shadow of a synchronized FIB entry


def route_memory_bytes(route: Route) -> int:
    """Bytes of RIB memory attributed to one stored route."""
    attrs = route.attributes
    total = ROUTE_BASE_BYTES
    total += AS_HOP_BYTES * len(attrs.as_path.asns)
    total += COMMUNITY_BYTES * len(attrs.communities)
    total += LARGE_COMMUNITY_BYTES * len(attrs.large_communities)
    for unknown in attrs.unknown:
        total += UNKNOWN_ATTR_BASE_BYTES + len(unknown.value)
    return total


def rib_memory(routes: Iterable[Route]) -> int:
    """Total RIB memory for an iterable of stored routes."""
    return sum(route_memory_bytes(route) for route in routes)


def fib_memory(stack: NetworkStack,
               tables: Iterable[int] | None = None) -> int:
    """Kernel FIB memory across the given tables (all tables by default)."""
    table_ids = list(tables) if tables is not None else list(stack.tables)
    total = 0
    for table_id in table_ids:
        table = stack.tables.get(table_id)
        if table is None:
            continue
        total += FIB_ENTRY_BYTES * len(table)
    return total


@dataclass(frozen=True)
class MemoryReport:
    """The three Figure 6a series, in bytes."""

    routes: int
    control_plane: int
    data_plane: int
    data_plane_with_default: int

    def as_megabytes(self) -> tuple[float, float, float]:
        scale = 1 / (1024 * 1024)
        return (
            self.control_plane * scale,
            self.data_plane * scale,
            self.data_plane_with_default * scale,
        )


def resident_bytes(obj: object) -> int:
    """Deep ``sys.getsizeof`` walk: actual Python-heap bytes held by
    ``obj``, counting every reachable object exactly once.

    Used by ``bench_fulltable_memory`` to compare Loc-RIB storage
    backends (§6g): unlike RSS or tracemalloc snapshots this is
    deterministic for a given object graph and interpreter version, so
    the ±25% bench gate holds across machines.  Shared objects (decoded
    attribute values, flyweight handles) are charged once — exactly the
    sharing the columnar layout exists to create.

    Callables, modules, and classes are skipped: a Loc-RIB holds a
    ``select`` closure whose captured world is not route storage.
    """
    seen: set[int] = set()
    stack = [obj]
    total = 0
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        if callable(current) or isinstance(current, type(sys)):
            continue
        seen.add(id(current))
        total += sys.getsizeof(current)
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        else:
            attrs = getattr(current, "__dict__", None)
            if attrs is not None:
                stack.append(attrs)
            slots = getattr(type(current), "__slots__", None)
            if slots:
                for name in slots:
                    value = getattr(current, name, None)
                    if value is not None:
                        stack.append(value)
    return total


def memory_report(routes: list[Route],
                  fib_entries: int | None = None) -> MemoryReport:
    """Build the Figure 6a triple for a set of known routes.

    ``fib_entries`` defaults to one per route (vBGP installs every known
    route into some per-neighbor table).
    """
    control = rib_memory(routes)
    entries = len(routes) if fib_entries is None else fib_entries
    data_plane = control + FIB_ENTRY_BYTES * entries
    with_default = data_plane + KERNEL_SYNC_BYTES * len(
        {route.prefix for route in routes}
    )
    return MemoryReport(
        routes=len(routes),
        control_plane=control,
        data_plane=data_plane,
        data_plane_with_default=with_default,
    )
