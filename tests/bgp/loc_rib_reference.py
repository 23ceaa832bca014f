"""The dict-backed, full-refold Loc-RIB, kept as the test reference.

:class:`repro.bgp.rib.ColumnarLocRib` packs candidates into int triples
over interned peers and attribute sets, and reselects incrementally: a
brand-new candidate is folded against the incumbent alone, a sole
candidate wins outright.  This is the layout and the decision it
replaced: candidates keyed by ``(peer, path id)`` per prefix in
insertion order (a replacement moves to the end), and every change
re-runs the whole decision fold.  It shares no code with the live RIB,
so the live state, best paths, change signals and stats are compared
against it.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.bgp.attributes import Route
from repro.bgp.rib import LocRibStats, RibEntry
from repro.netsim.addr import Prefix

Select = Callable[[list[RibEntry]], Optional[RibEntry]]


def refold_best(select: Select, rib, prefix: Prefix) -> Optional[RibEntry]:
    """The best path a full decision fold picks from ``rib``'s own
    candidates for ``prefix``."""
    candidates = rib.candidates(prefix)
    return select(candidates) if candidates else None


class LocRib:
    """Candidate routes per prefix across all peers, plus the best path."""

    def __init__(self, select: Select) -> None:
        self._select = select
        self._candidates: dict[
            Prefix, dict[tuple[str, Optional[int]], RibEntry]
        ] = {}
        self._best: dict[Prefix, RibEntry] = {}
        self.stats = LocRibStats()

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._candidates.values())

    @property
    def prefix_count(self) -> int:
        return len(self._candidates)

    def prefixes(self) -> Iterator[Prefix]:
        yield from self._candidates

    def replace(self, peer: str, route: Route) -> bool:
        entries = self._candidates.setdefault(route.prefix, {})
        key = (peer, route.path_id)
        # pop-then-set keeps list semantics: a replacement moves to the end.
        entries.pop(key, None)
        entries[key] = RibEntry(peer=peer, route=route)
        self.stats.inserts += 1
        return self._reselect(route.prefix)

    def remove(self, peer: str, prefix: Prefix,
               path_id: Optional[int] = None) -> bool:
        entries = self._candidates.get(prefix)
        if entries is None or entries.pop((peer, path_id), None) is None:
            return False
        if not entries:
            del self._candidates[prefix]
        self.stats.removals += 1
        return self._reselect(prefix)

    def remove_peer(self, peer: str) -> list[Prefix]:
        changed = []
        for prefix in list(self._candidates):
            entries = self._candidates[prefix]
            stale = [key for key in entries if key[0] == peer]
            if not stale:
                continue
            for key in stale:
                del entries[key]
            if not entries:
                del self._candidates[prefix]
            self.stats.removals += len(stale)
            if self._reselect(prefix):
                changed.append(prefix)
        return changed

    def _reselect(self, prefix: Prefix) -> bool:
        self.stats.reselects += 1
        old = self._best.get(prefix)
        new = refold_best(self._select, self, prefix)
        if old is None or new is None:
            if old is new:
                return False
        elif old.peer == new.peer and old.route == new.route:
            return False
        if new is None:
            del self._best[prefix]
        else:
            self._best[prefix] = new
        self.stats.best_changes += 1
        return True

    def best(self, prefix: Prefix) -> Optional[RibEntry]:
        return self._best.get(prefix)

    def candidates(self, prefix: Prefix) -> list[RibEntry]:
        entries = self._candidates.get(prefix)
        return list(entries.values()) if entries else []

    def best_routes(self) -> Iterator[RibEntry]:
        yield from self._best.values()
