"""Shared enforcement state, synchronized across vBGP instances (§3.3).

"State can be synchronized among vBGP instances to enable AS-wide policies,
such as limiting the total number of times a prefix can be announced or
withdrawn across all PoPs during a 24 hour period." In the simulation the
instances literally share one :class:`EnforcerState`; in a deployment this
is the replicated non-volatile store the paper describes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.netsim.addr import Prefix

UPDATES_PER_DAY_LIMIT = 144  # one BGP update per 10 minutes on average
DAY_SECONDS = 24 * 3600.0


class EnforcerState:
    """Sliding-window update accounting per (experiment, prefix, PoP)."""

    def __init__(self, per_pop_limit: int = UPDATES_PER_DAY_LIMIT,
                 window: float = DAY_SECONDS) -> None:
        self.per_pop_limit = per_pop_limit
        self.window = window
        self._events: dict[tuple[str, Prefix, str], Deque[float]] = {}
        self.total_updates = 0

    def _bucket(self, experiment: str, prefix: Prefix,
                pop: str) -> Deque[float]:
        key = (experiment, prefix, pop)
        bucket = self._events.get(key)
        if bucket is None:
            bucket = deque()
            self._events[key] = bucket
        return bucket

    def _prune(self, bucket: Deque[float], now: float) -> None:
        horizon = now - self.window
        while bucket and bucket[0] <= horizon:
            bucket.popleft()

    def count(self, experiment: str, prefix: Prefix, pop: str,
              now: float) -> int:
        """Updates in the last 24 h for this (experiment, prefix, PoP)."""
        bucket = self._bucket(experiment, prefix, pop)
        self._prune(bucket, now)
        return len(bucket)

    def record(self, experiment: str, prefix: Prefix, pop: str,
               now: float) -> bool:
        """Record one update; returns False when over the daily limit."""
        bucket = self._bucket(experiment, prefix, pop)
        self._prune(bucket, now)
        if len(bucket) >= self.per_pop_limit:
            return False
        bucket.append(now)
        self.total_updates += 1
        return True

    def platform_count(self, experiment: str, prefix: Prefix,
                       now: float) -> int:
        """Updates in the last 24 h for the prefix across all PoPs."""
        total = 0
        for (exp, held, _pop), bucket in self._events.items():
            if exp == experiment and held == prefix:
                self._prune(bucket, now)
                total += len(bucket)
        return total
