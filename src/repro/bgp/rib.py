"""Routing Information Bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.

These are the speaker-internal tables of RFC 4271 §3.2. vBGP additionally
keeps one *kernel* table per neighbor (see :mod:`repro.vbgp.tables`); the
classes here are the protocol-level state.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Optional

from repro.bgp.attributes import PathAttributes, Route
from repro.netsim.addr import Prefix


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
    """Routes received from one peer, keyed by (prefix, path id).

    With ADD-PATH inactive every announcement for a prefix implicitly
    replaces the previous one (path id ``None``); with ADD-PATH active the
    peer may maintain several concurrent paths per prefix.
    """

    def __init__(self, peer: str) -> None:
        self.peer = peer
        self._routes: dict[Prefix, dict[Optional[int], Route]] = {}
        # Running path count: a ``max prefix`` limit reads it per route.
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def update(self, route: Route) -> Optional[Route]:
        """Insert/replace; returns the replaced route if any."""
        paths = self._routes.setdefault(route.prefix, {})
        previous = paths.get(route.path_id)
        paths[route.path_id] = route
        if previous is None:
            self._size += 1
        return previous

    def withdraw(self, prefix: Prefix,
                 path_id: Optional[int] = None) -> Optional[Route]:
        """Remove; returns the withdrawn route if it existed."""
        paths = self._routes.get(prefix)
        if not paths:
            return None
        removed = paths.pop(path_id, None)
        if removed is not None:
            self._size -= 1
        if not paths:
            del self._routes[prefix]
        return removed

    def routes_for(self, prefix: Prefix) -> list[Route]:
        return list(self._routes.get(prefix, {}).values())

    def routes(self) -> Iterator[Route]:
        for paths in self._routes.values():
            yield from paths.values()

    def prefixes(self) -> Iterator[Prefix]:
        yield from self._routes

    def clear(self) -> list[Route]:
        """Drop everything (session reset); returns the dropped routes."""
        dropped = list(self.routes())
        self._routes.clear()
        self._size = 0
        return dropped


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


class _LocRibBase:
    """Loc-RIB best-path logic over a candidate storage (DESIGN.md §6g).

    Subclasses provide the candidate storage via *token* hooks: a token is
    whatever compact value the backend uses to name one stored candidate
    (a packed int triple for :class:`ColumnarLocRib`).  The best path per
    prefix is tracked as a token and materialized on demand.

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
        self._best_tokens: dict[Prefix, object] = {}
        self.stats = LocRibStats()

    # -- storage hooks -----------------------------------------------------

    def _upsert(self, prefix: Prefix, peer: str, path_id: Optional[int],
                route: Route) -> tuple[bool, object]:
        """Insert/replace (replacement moves to the end); returns
        ``(existed, token)``."""
        raise NotImplementedError

    def _delete(self, prefix: Prefix, peer: str,
                path_id: Optional[int]) -> bool:
        raise NotImplementedError

    def _delete_peer(self, prefix: Prefix, peer: str) -> int:
        """Remove all of a peer's candidates for one prefix; returns count."""
        raise NotImplementedError

    def _count(self, prefix: Prefix) -> int:
        raise NotImplementedError

    def _sole_token(self, prefix: Prefix) -> object:
        """The token of the single remaining candidate (count == 1)."""
        raise NotImplementedError

    def _pairs(self, prefix: Prefix) -> list[tuple[RibEntry, object]]:
        """Materialized ``(entry, token)`` pairs in insertion order."""
        raise NotImplementedError

    def _materialize(self, prefix: Prefix, token: object) -> RibEntry:
        raise NotImplementedError

    def _tokens_equal(self, a: object, b: object) -> bool:
        """Same-best check; must match ``peer == peer and route == route``
        on the materialized entries."""
        raise NotImplementedError

    # -- public API --------------------------------------------------------

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def prefix_count(self) -> int:
        raise NotImplementedError

    def prefixes(self) -> Iterator[Prefix]:
        raise NotImplementedError

    def replace(self, peer: str, route: Route) -> bool:
        """Upsert a peer's candidate; returns True if the best changed."""
        prefix = route.prefix
        existed, token = self._upsert(prefix, peer, route.path_id, route)
        self.stats.inserts += 1
        self.stats.reselects += 1
        old_token = self._best_tokens.get(prefix)
        if self._count(prefix) == 1:
            # Sole candidate: the fold is a no-op, it wins outright.
            return self._commit_best(prefix, old_token, token)
        if not existed and old_token is not None:
            # Brand-new candidate appended at the end: by the fold
            # contract the full refold equals select([incumbent, new]).
            incumbent = self._materialize(prefix, old_token)
            chosen = self._select(
                [incumbent, self._materialize(prefix, token)])
            new_token = old_token if chosen is incumbent else token
            return self._commit_best(prefix, old_token, new_token)
        # Replacement among several candidates (moved to the end) — the
        # fold order changed, so only a full refold is exact.
        return self._refold(prefix)

    def remove(self, peer: str, prefix: Prefix,
               path_id: Optional[int] = None) -> bool:
        """Remove a peer's candidate; returns True if the best changed."""
        if not self._delete(prefix, peer, path_id):
            return False
        self.stats.removals += 1
        self.stats.reselects += 1
        return self._reselect_after_removal(prefix)

    def remove_peer(self, peer: str) -> list[Prefix]:
        """Drop all of a peer's candidates; returns prefixes whose best changed."""
        changed = []
        for prefix in list(self.prefixes()):
            dropped = self._delete_peer(prefix, peer)
            if not dropped:
                continue
            self.stats.removals += dropped
            self.stats.reselects += 1
            if self._reselect_after_removal(prefix):
                changed.append(prefix)
        return changed

    def _reselect_after_removal(self, prefix: Prefix) -> bool:
        count = self._count(prefix)
        old_token = self._best_tokens.get(prefix)
        if count == 0:
            return self._commit_best(prefix, old_token, None)
        if count == 1:
            return self._commit_best(
                prefix, old_token, self._sole_token(prefix))
        return self._refold(prefix)

    def _refold(self, prefix: Prefix) -> bool:
        """Full decision fold over every candidate."""
        pairs = self._pairs(prefix)
        old_token = self._best_tokens.get(prefix)
        new_token = None
        if pairs:
            chosen = self._select([entry for entry, _ in pairs])
            if chosen is not None:
                for entry, token in pairs:
                    if entry is chosen:
                        new_token = token
                        break
        return self._commit_best(prefix, old_token, new_token)

    def _commit_best(self, prefix: Prefix, old_token: object,
                     new_token: object) -> bool:
        if new_token is None:
            if old_token is not None:
                del self._best_tokens[prefix]
                self.stats.best_changes += 1
                return True
            return False
        if old_token is not None and self._tokens_equal(old_token, new_token):
            return False
        self._best_tokens[prefix] = new_token
        self.stats.best_changes += 1
        return True

    def best(self, prefix: Prefix) -> Optional[RibEntry]:
        token = self._best_tokens.get(prefix)
        return None if token is None else self._materialize(prefix, token)

    def candidates(self, prefix: Prefix) -> list[RibEntry]:
        return [entry for entry, _ in self._pairs(prefix)]

    def best_routes(self) -> Iterator[RibEntry]:
        for prefix, token in self._best_tokens.items():
            yield self._materialize(prefix, token)


class ColumnarLocRib(_LocRibBase):
    """Candidate routes per prefix across all peers, plus the best path,
    in columnar/flyweight storage (DESIGN.md §6g).

    Instead of one ``RibEntry``/``Route`` object pair per stored candidate
    (~300 bytes each before attribute sharing), each prefix maps to a flat
    tuple of ``(peer id, path id, attr handle)`` int triples in insertion
    order; a replaced candidate moves to the end.  Peers and attribute
    values are interned per RIB: the handle tables key by *equality*, so
    equal attributes always share one handle and a best-change check is
    plain triple comparison — exactly ``peer == peer and route == route``
    on the materialized entries.  ``RibEntry`` objects
    are materialized on demand from the columns; callers never observe the
    packed layout.

    ``path id`` ``None`` is encoded as ``-1`` (wire path ids are unsigned,
    so the sentinel cannot collide with a real id, including the valid
    path id ``0``).
    """

    def __init__(
        self, select: Callable[[list[RibEntry]], Optional[RibEntry]]
    ) -> None:
        super().__init__(select)
        self._cols: dict[Prefix, tuple[int, ...]] = {}
        self._peer_ids: dict[str, int] = {}
        self._peer_names: list[str] = []
        self._attr_handles: dict[PathAttributes, int] = {}
        self._attr_values: list[PathAttributes] = []

    def __len__(self) -> int:
        return sum(len(cols) for cols in self._cols.values()) // 3

    @property
    def prefix_count(self) -> int:
        return len(self._cols)

    def prefixes(self) -> Iterator[Prefix]:
        yield from self._cols

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

    def _upsert(self, prefix, peer, path_id, route):
        pid = self._peer_id(peer)
        code = -1 if path_id is None else path_id
        handle = self._attr_handle(route.attributes)
        triple = (pid, code, handle)
        cols = self._cols.get(prefix)
        if cols is None:
            self._cols[prefix] = triple
            return False, triple
        for i in range(0, len(cols), 3):
            if cols[i] == pid and cols[i + 1] == code:
                # pop-then-append: a replacement moves to the end.
                self._cols[prefix] = cols[:i] + cols[i + 3:] + triple
                return True, triple
        self._cols[prefix] = cols + triple
        return False, triple

    def _delete(self, prefix, peer, path_id):
        cols = self._cols.get(prefix)
        if cols is None:
            return False
        pid = self._peer_ids.get(peer)
        if pid is None:
            return False
        code = -1 if path_id is None else path_id
        for i in range(0, len(cols), 3):
            if cols[i] == pid and cols[i + 1] == code:
                rest = cols[:i] + cols[i + 3:]
                if rest:
                    self._cols[prefix] = rest
                else:
                    del self._cols[prefix]
                return True
        return False

    def _delete_peer(self, prefix, peer):
        pid = self._peer_ids.get(peer)
        if pid is None:
            return 0
        cols = self._cols.get(prefix)
        if cols is None:
            return 0
        kept = tuple(
            value
            for i in range(0, len(cols), 3) if cols[i] != pid
            for value in cols[i:i + 3]
        )
        dropped = (len(cols) - len(kept)) // 3
        if not dropped:
            return 0
        if kept:
            self._cols[prefix] = kept
        else:
            del self._cols[prefix]
        return dropped

    def _count(self, prefix):
        cols = self._cols.get(prefix)
        return len(cols) // 3 if cols else 0

    def _sole_token(self, prefix):
        return self._cols[prefix]

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

    def _pairs(self, prefix):
        cols = self._cols.get(prefix)
        if not cols:
            return []
        return [
            (self._materialize(prefix, cols[i:i + 3]), cols[i:i + 3])
            for i in range(0, len(cols), 3)
        ]

    def _materialize(self, prefix, token):
        pid, code, handle = token
        return RibEntry(
            peer=self._peer_names[pid],
            route=Route(
                prefix=prefix,
                attributes=self._attr_values[handle],
                path_id=None if code == -1 else code,
            ),
        )

    def _tokens_equal(self, a, b):
        return a == b


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
