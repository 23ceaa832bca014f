"""Routing Information Bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.

One class per table of RFC 4271 §3.2.  ``BgpSpeaker`` keeps all three;
the vBGP node keeps one :class:`AdjRibIn` per neighbor (upstream and
backbone-learned) and, beside it, one *kernel* table per neighbor in the
PoP's network stack (:mod:`repro.netsim.stack`).
"""

from __future__ import annotations

from collections.abc import ItemsView, KeysView, ValuesView
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Optional

from repro.bgp.attributes import PathAttributes, Route
from repro.netsim.addr import Prefix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.scheduler import Scheduler

PathKey = tuple[Prefix, Optional[int]]


@dataclass(frozen=True)
class RibEntry:
    """A route in a RIB, tagged with the peer it came from."""

    peer: str
    route: Route

    @property
    def prefix(self) -> Prefix:
        return self.route.prefix

    @property
    def path_id(self) -> Optional[int]:
        return self.route.path_id


class AdjRibIn:
    """Routes received from one peer, plus that peer's RFC 4724 receiver
    state.

    Flat layout: ``(prefix, path id) → Route`` and a per-prefix path
    count, so "does any path for this prefix remain?" is O(1) (a
    withdrawal against a full table must not scan it).  With ADD-PATH
    inactive every announcement for a prefix implicitly replaces the
    previous one (path id ``None``); with ADD-PATH active the peer may
    hold several concurrent paths per prefix.

    Graceful Restart receiver: :meth:`retain_stale` marks every held path
    stale and arms the restart timer; a path the restarted peer announces
    or withdraws again loses its mark; :meth:`flush_stale` (End-of-RIB or
    timer expiry) removes the paths still marked.  The stale marks are
    kept in table order, so a flush is deterministic.
    """

    __slots__ = ("_routes", "_prefix_counts", "_stale", "_stale_timer")

    def __init__(self) -> None:
        self._routes: dict[PathKey, Route] = {}
        self._prefix_counts: dict[Prefix, int] = {}
        self._stale: dict[PathKey, None] = {}
        self._stale_timer = None

    def __len__(self) -> int:
        return len(self._routes)

    def update(self, route: Route) -> Optional[Route]:
        """Insert/replace; returns the replaced route if any."""
        key = (route.prefix, route.path_id)
        previous = self._routes.get(key)
        self._routes[key] = route
        if previous is None:
            prefix = route.prefix
            self._prefix_counts[prefix] = (
                self._prefix_counts.get(prefix, 0) + 1
            )
        elif self._stale:
            self._stale.pop(key, None)
        return previous

    def withdraw(self, prefix: Prefix,
                 path_id: Optional[int] = None) -> Optional[Route]:
        """Remove; returns the withdrawn route if it existed."""
        key = (prefix, path_id)
        removed = self._routes.pop(key, None)
        if removed is None:
            return None
        if self._stale:
            self._stale.pop(key, None)
        remaining = self._prefix_counts[prefix] - 1
        if remaining:
            self._prefix_counts[prefix] = remaining
        else:
            del self._prefix_counts[prefix]
        return removed

    def has_prefix(self, prefix: Prefix) -> bool:
        """O(1): does at least one path for ``prefix`` remain?"""
        return prefix in self._prefix_counts

    def routes(self) -> ValuesView[Route]:
        return self._routes.values()

    def prefixes(self) -> KeysView[Prefix]:
        return self._prefix_counts.keys()

    def keys(self) -> KeysView[PathKey]:
        return self._routes.keys()

    def items(self) -> ItemsView[PathKey, Route]:
        return self._routes.items()

    @property
    def stale_count(self) -> int:
        """Paths still marked stale (0 outside a restart window)."""
        return len(self._stale)

    def clear(self) -> list[PathKey]:
        """Drop everything (session reset), stale marks and restart timer
        included; returns the dropped keys."""
        dropped = list(self._routes)
        self._routes.clear()
        self._prefix_counts.clear()
        self._stale.clear()
        self._cancel_stale_timer()
        return dropped

    def retain_stale(self, scheduler: "Scheduler", restart_time: float,
                     on_expired: Callable[[], None]) -> int:
        """RFC 4724 receiver mode after the peer's session dropped: mark
        every held path stale and call ``on_expired`` after
        ``restart_time`` seconds unless :meth:`flush_stale` runs first.
        Returns the number of paths retained; 0 (nothing held, or the
        peer asked for no retention) arms nothing, and the owner flushes
        as on any other close."""
        if not self._routes or restart_time <= 0:
            return 0
        self._stale = dict.fromkeys(self._routes)
        self._cancel_stale_timer()
        self._stale_timer = scheduler.call_later(
            float(restart_time), on_expired)
        return len(self._stale)

    def flush_stale(self) -> list[PathKey]:
        """End the restart window: cancel the timer, remove the paths
        still stale and return their keys."""
        self._cancel_stale_timer()
        stale, self._stale = self._stale, {}
        for prefix, path_id in stale:
            self.withdraw(prefix, path_id)
        return list(stale)

    def _cancel_stale_timer(self) -> None:
        if self._stale_timer is not None:
            self._stale_timer.cancel()
            self._stale_timer = None


@dataclass
class LocRibStats:
    """Always-on decision-process tallies (read by telemetry gauges).

    Plain integer increments inside work the RIB is already doing — cheap
    enough to keep unconditionally, so best-path churn is observable even
    on deployments that never attach a telemetry hub.
    """

    reselects: int = 0
    best_changes: int = 0
    inserts: int = 0
    removals: int = 0


Triple = tuple[int, int, int]


class ColumnarLocRib:
    """Candidate routes per prefix across all peers, plus the best path,
    in columnar/flyweight storage (DESIGN.md §6g).

    Instead of one ``RibEntry``/``Route`` object pair per stored candidate
    (~300 bytes each before attribute sharing), each prefix maps to a flat
    tuple of ``(peer id, path id, attr handle)`` int triples in insertion
    order; a replaced candidate moves to the end.  Peers and attribute
    values are interned per RIB: the handle tables key by *equality*, so
    equal attributes always share one handle and a best-change check is
    plain triple comparison — exactly ``peer == peer and route == route``
    on the materialized entries.  The best path per prefix is kept as its
    triple; ``RibEntry`` objects are materialized on demand, and callers
    never observe the packed layout.

    ``path id`` ``None`` is encoded as ``-1`` (wire path ids are unsigned,
    so the sentinel cannot collide with a real id, including the valid
    path id ``0``).

    ``select`` contract: the callable must behave as a deterministic left
    fold over the candidate list (RFC 4271 §9.1 style — start at the first
    entry, compare each later entry against the running winner) and must
    return one of the given entries for a non-empty list.  Both selects in
    this codebase (:func:`repro.bgp.decision.best_path` and the speaker's
    local-route-first wrapper) satisfy this.  The incremental best path
    relies on it: extending a fold by one appended candidate equals
    folding the incumbent with that candidate, so a brand-new insert only
    needs a two-entry select.  Removals and in-place replacements of one
    of several candidates re-run the full fold — MED comparison is
    non-transitive (RFC 4271 §9.1.2.2 note), so dropping even a losing
    candidate can legitimately change the fold result, and any shortcut
    there would diverge from a full refold.
    """

    def __init__(
        self, select: Callable[[list[RibEntry]], Optional[RibEntry]]
    ) -> None:
        self._select = select
        self._cols: dict[Prefix, tuple[int, ...]] = {}
        self._best: dict[Prefix, Triple] = {}
        self._peer_ids: dict[str, int] = {}
        self._peer_names: list[str] = []
        self._attr_handles: dict[PathAttributes, int] = {}
        self._attr_values: list[PathAttributes] = []
        self.stats = LocRibStats()

    def __len__(self) -> int:
        return sum(len(cols) for cols in self._cols.values()) // 3

    @property
    def prefix_count(self) -> int:
        return len(self._cols)

    def prefixes(self) -> Iterator[Prefix]:
        yield from self._cols

    # -- updates -------------------------------------------------------------

    def replace(self, peer: str, route: Route) -> bool:
        """Upsert a peer's candidate; returns True if the best changed."""
        prefix = route.prefix
        pid = self._peer_id(peer)
        code = -1 if route.path_id is None else route.path_id
        triple = (pid, code, self._attr_handle(route.attributes))
        self.stats.inserts += 1
        self.stats.reselects += 1
        cols = self._cols.get(prefix)
        if cols is None:
            # Sole candidate: the fold is a no-op, it wins outright.
            self._cols[prefix] = triple
            return self._commit_best(prefix, triple)
        for i in range(0, len(cols), 3):
            if cols[i] == pid and cols[i + 1] == code:
                # pop-then-append: a replacement moves to the end, so the
                # fold order changed and only a full refold is exact.
                rest = cols[:i] + cols[i + 3:]
                self._cols[prefix] = rest + triple
                if not rest:
                    return self._commit_best(prefix, triple)
                return self._refold(prefix)
        self._cols[prefix] = cols + triple
        incumbent = self._best.get(prefix)
        if incumbent is None:
            return self._refold(prefix)
        # Brand-new candidate appended at the end: by the fold contract
        # the full refold equals select([incumbent, new]).
        held = self._materialize(prefix, incumbent)
        chosen = self._select([held, self._materialize(prefix, triple)])
        return self._commit_best(
            prefix, incumbent if chosen is held else triple)

    def remove(self, peer: str, prefix: Prefix,
               path_id: Optional[int] = None) -> bool:
        """Remove a peer's candidate; returns True if the best changed."""
        cols = self._cols.get(prefix)
        pid = self._peer_ids.get(peer)
        if cols is None or pid is None:
            return False
        code = -1 if path_id is None else path_id
        for i in range(0, len(cols), 3):
            if cols[i] == pid and cols[i + 1] == code:
                self._store(prefix, cols[:i] + cols[i + 3:])
                self.stats.removals += 1
                self.stats.reselects += 1
                return self._reselect(prefix)
        return False

    def remove_peer(self, peer: str) -> list[Prefix]:
        """Drop all of a peer's candidates; returns prefixes whose best changed."""
        pid = self._peer_ids.get(peer)
        if pid is None:
            return []
        changed = []
        for prefix, cols in list(self._cols.items()):
            kept = tuple(
                value
                for i in range(0, len(cols), 3) if cols[i] != pid
                for value in cols[i:i + 3]
            )
            dropped = (len(cols) - len(kept)) // 3
            if not dropped:
                continue
            self._store(prefix, kept)
            self.stats.removals += dropped
            self.stats.reselects += 1
            if self._reselect(prefix):
                changed.append(prefix)
        return changed

    def _store(self, prefix: Prefix, cols: tuple[int, ...]) -> None:
        if cols:
            self._cols[prefix] = cols
        else:
            del self._cols[prefix]

    def _reselect(self, prefix: Prefix) -> bool:
        """Best path after a removal."""
        cols = self._cols.get(prefix)
        if cols is None:
            return self._commit_best(prefix, None)
        if len(cols) == 3:
            return self._commit_best(prefix, cols)
        return self._refold(prefix)

    def _refold(self, prefix: Prefix) -> bool:
        """Full decision fold over every candidate."""
        pairs = self._pairs(prefix)
        new = None
        if pairs:
            chosen = self._select([entry for entry, _ in pairs])
            if chosen is not None:
                for entry, triple in pairs:
                    if entry is chosen:
                        new = triple
                        break
        return self._commit_best(prefix, new)

    def _commit_best(self, prefix: Prefix, new: Optional[Triple]) -> bool:
        if new == self._best.get(prefix):
            return False
        if new is None:
            del self._best[prefix]
        else:
            self._best[prefix] = new
        self.stats.best_changes += 1
        return True

    # -- reads ---------------------------------------------------------------

    def best(self, prefix: Prefix) -> Optional[RibEntry]:
        triple = self._best.get(prefix)
        return None if triple is None else self._materialize(prefix, triple)

    def candidates(self, prefix: Prefix) -> list[RibEntry]:
        return [entry for entry, _ in self._pairs(prefix)]

    def candidates_except(self, prefix: Prefix, peer: str) -> list[RibEntry]:
        """``candidates(prefix)`` minus ``peer``'s: that peer's triples are
        dropped by id before any entry is built (export split horizon)."""
        cols = self._cols.get(prefix)
        if not cols:
            return []
        pid = self._peer_ids.get(peer)
        return [
            self._materialize(prefix, cols[i:i + 3])
            for i in range(0, len(cols), 3) if cols[i] != pid
        ]

    def best_routes(self) -> Iterator[RibEntry]:
        for prefix, triple in self._best.items():
            yield self._materialize(prefix, triple)

    # -- columns -------------------------------------------------------------

    def _peer_id(self, peer: str) -> int:
        pid = self._peer_ids.get(peer)
        if pid is None:
            pid = len(self._peer_names)
            self._peer_ids[peer] = pid
            self._peer_names.append(peer)
        return pid

    def _attr_handle(self, attrs: PathAttributes) -> int:
        handle = self._attr_handles.get(attrs)
        if handle is None:
            handle = len(self._attr_values)
            self._attr_handles[attrs] = handle
            self._attr_values.append(attrs)
        return handle

    def _pairs(self, prefix: Prefix) -> list[tuple[RibEntry, Triple]]:
        """Materialized ``(entry, triple)`` pairs in insertion order."""
        cols = self._cols.get(prefix)
        if not cols:
            return []
        return [
            (self._materialize(prefix, cols[i:i + 3]), cols[i:i + 3])
            for i in range(0, len(cols), 3)
        ]

    def _materialize(self, prefix: Prefix, triple: Triple) -> RibEntry:
        pid, code, handle = triple
        return RibEntry(
            peer=self._peer_names[pid],
            route=Route(
                prefix=prefix,
                attributes=self._attr_values[handle],
                path_id=None if code == -1 else code,
            ),
        )


# benchmarks/e2e/trace.py times the Loc-RIB by patching this name.
_LocRibBase = ColumnarLocRib


_NO_PATHS: Mapping[Optional[int], Route] = MappingProxyType({})


class AdjRibOut:
    """What we have advertised to one peer, keyed prefix → {path id: route}.

    Diffing the desired against the advertised state yields the minimal
    announce/withdraw set for the speaker's MRAI batching.  Indexing by
    prefix makes that diff cost the paths of the touched prefix, not the
    size of the table.
    """

    def __init__(self, peer: str) -> None:
        self.peer = peer
        self._by_prefix: dict[Prefix, dict[Optional[int], Route]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def advertised(self, prefix: Prefix,
                   path_id: Optional[int] = None) -> Optional[Route]:
        return self.paths(prefix).get(path_id)

    def paths(self, prefix: Prefix) -> Mapping[Optional[int], Route]:
        """Read-only ``{path id: route}`` advertised for one prefix."""
        return self._by_prefix.get(prefix, _NO_PATHS)

    def record_announce(self, route: Route) -> bool:
        """Record an announcement; returns False if identical already sent."""
        paths = self._by_prefix.setdefault(route.prefix, {})
        previous = paths.get(route.path_id)
        if previous == route:
            return False
        paths[route.path_id] = route
        if previous is None:
            self._size += 1
        return True

    def record_withdraw(self, prefix: Prefix,
                        path_id: Optional[int] = None) -> Optional[Route]:
        paths = self._by_prefix.get(prefix)
        if paths is None:
            return None
        removed = paths.pop(path_id, None)
        if removed is not None:
            self._size -= 1
            if not paths:
                del self._by_prefix[prefix]
        return removed

    def routes(self) -> Iterator[Route]:
        for paths in self._by_prefix.values():
            yield from paths.values()

    def keys(self) -> Iterator[tuple[Prefix, Optional[int]]]:
        for prefix, paths in self._by_prefix.items():
            for path_id in paths:
                yield prefix, path_id

    def clear(self) -> None:
        """Forget everything advertised (session reset: the next session
        starts from an empty Adj-RIB-Out and re-announces from scratch)."""
        self._by_prefix.clear()
        self._size = 0
