"""The per-PoP overload governor: queues + breakers, one registry.

An :class:`OverloadGovernor` owns every :class:`~repro.overload.queues.
IngressQueue` and :class:`~repro.overload.breaker.CircuitBreaker` at
one PoP (or one standalone speaker), created lazily per ingress source.
It wires the pieces together:

* a queue's overflow sheds feed its source's breaker (sustained
  overflow trips it) and the governor's windowed shed-rate clock;
* a breaker transition is published to the telemetry station as a
  ``ResilienceEvent`` and, on OPEN, forwarded to ``on_breaker_open``
  (the vBGP node quarantines that neighbor's supervisor with it);
* scrape-time gauges for depth, sheds, and breaker state are
  registered per source.

The watchdog reads :meth:`depth_fraction`, :meth:`shed_rate`, and
:meth:`breaker_states`; the chaos runner reads :meth:`pending` (a
non-empty queue means the world has not settled) and
:meth:`shed_digest` (seed-stable shedding proofs).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.overload.breaker import (
    BREAKER_LEVEL,
    BREAKER_OPEN,
    BreakerConfig,
    CircuitBreaker,
)
from repro.overload.queues import IngressQueue, QueuePolicy
from repro.overload.watchdog import WatchdogConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.scheduler import Scheduler
    from repro.telemetry import TelemetryHub

__all__ = ["OverloadGovernor", "OverloadPolicy"]


@dataclass
class OverloadPolicy:
    """The one knob a PoP config carries: all §6i tuning in one object."""

    queue: QueuePolicy = field(default_factory=QueuePolicy)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)
    shed_rate_window: float = 10.0  # seconds for the shed-rate estimate


class OverloadGovernor:
    """One scope's (PoP's or speaker's) overload-control registry."""

    def __init__(
        self,
        scheduler: "Scheduler",
        scope: str,
        policy: Optional[OverloadPolicy] = None,
        telemetry: Optional["TelemetryHub"] = None,
    ) -> None:
        self.scheduler = scheduler
        self.scope = scope
        self.policy = policy if policy is not None else OverloadPolicy()
        self.telemetry = telemetry
        self.queues: Dict[str, IngressQueue] = {}
        self.breakers: Dict[str, CircuitBreaker] = {}
        # Set by the owner: (peer_key, open_time) -> None on breaker trip.
        self.on_breaker_open: Optional[Callable[[str, float], None]] = None
        self._shed_times: deque = deque()
        self._window_sheds = 0
        self._g_depth = None
        self._g_announce = None
        self._g_shed = None
        self._g_breaker = None
        if telemetry is not None:
            registry = telemetry.registry
            self._g_depth = registry.gauge(
                "overload_queue_depth",
                "Ingress queue depth (all classes), per source",
                labels=("node", "peer"),
            )
            self._g_announce = registry.gauge(
                "overload_queue_announce_depth",
                "Announcement-class queue depth (the bounded class)",
                labels=("node", "peer"),
            )
            self._g_shed = registry.gauge(
                "overload_shed_announcements",
                "Cumulative announced routes shed or refused, per source",
                labels=("node", "peer"),
            )
            self._g_breaker = registry.gauge(
                "overload_breaker_state",
                "Circuit breaker: 0 closed, 1 half-open, 2 open",
                labels=("node", "peer"),
            )

    # -- registry ----------------------------------------------------------

    def breaker_for(self, peer_key: str) -> CircuitBreaker:
        breaker = self.breakers.get(peer_key)
        if breaker is None:
            breaker = CircuitBreaker(
                self.scheduler,
                peer_key,
                config=self.policy.breaker,
                on_transition=self._breaker_transition,
            )
            self.breakers[peer_key] = breaker
            if self._g_breaker is not None:
                self._g_breaker.labels(self.scope, peer_key).set_function(
                    lambda b=breaker: float(BREAKER_LEVEL[b.state])
                )
        return breaker

    def queue_for(self, peer_key: str) -> IngressQueue:
        queue = self.queues.get(peer_key)
        if queue is None:
            queue = IngressQueue(
                self.scheduler,
                peer_key,
                policy=self.policy.queue,
                breaker=self.breaker_for(peer_key),
                on_shed=self._note_shed,
            )
            self.queues[peer_key] = queue
            if self._g_depth is not None:
                self._g_depth.labels(self.scope, peer_key).set_function(
                    lambda q=queue: float(q.pending)
                )
                self._g_announce.labels(self.scope, peer_key).set_function(
                    lambda q=queue: float(q.announce_depth)
                )
                self._g_shed.labels(self.scope, peer_key).set_function(
                    lambda q=queue: float(
                        q.stats.shed_announcements
                        + q.stats.rejected_announcements
                    )
                )
        return queue

    # -- internal wiring ---------------------------------------------------

    def _note_shed(self, peer_key: str, routes: int) -> None:
        now = self.scheduler.now
        self._shed_times.append((now, routes))
        self._window_sheds += routes
        self._prune(now)

    def record_violations(self, peer_key: str, count: int) -> None:
        """Enforcer violations attributed to one source feed its breaker."""
        if count > 0:
            self.breaker_for(peer_key).record_failure(
                "enforcer-violation", count
            )

    def _prune(self, now: float) -> None:
        window = self.policy.shed_rate_window
        while self._shed_times and now - self._shed_times[0][0] > window:
            self._shed_times.popleft()

    def _breaker_transition(self, breaker: CircuitBreaker, old: str,
                            new: str, why: str) -> None:
        if self.telemetry is not None:
            from repro.telemetry.station import ResilienceEvent

            self.telemetry.station.publish(ResilienceEvent(
                peer=f"{self.scope}:{breaker.peer_key}",
                time=self.scheduler.now,
                event=f"breaker-{new}",
                detail=why,
            ))
        if new == BREAKER_OPEN and self.on_breaker_open is not None:
            self.on_breaker_open(breaker.peer_key,
                                 breaker.config.open_time)

    # -- observers (watchdog, chaos runner, CLI) ---------------------------

    def pending(self) -> int:
        return sum(queue.pending for queue in self.queues.values())

    def depth_fraction(self) -> float:
        if not self.queues:
            return 0.0
        return max(q.depth_fraction for q in self.queues.values())

    def shed_rate(self) -> float:
        """Routes shed per second over the configured window."""
        self._prune(self.scheduler.now)
        window = self.policy.shed_rate_window
        if window <= 0:
            return 0.0
        return sum(routes for _, routes in self._shed_times) / window

    def breaker_states(self) -> Dict[str, str]:
        return {
            peer: breaker.state
            for peer, breaker in self.breakers.items()
        }

    def open_breakers(self) -> list[str]:
        return sorted(
            peer for peer, breaker in self.breakers.items()
            if breaker.state == BREAKER_OPEN
        )

    def totals(self) -> Dict[str, int]:
        """Aggregate shed accounting across every queue — what
        scenarios and the bench assert against."""
        totals = {
            "admitted": 0,
            "delivered": 0,
            "shed_updates": 0,
            "shed_announcements": 0,
            "shed_withdrawals": 0,
            "shed_control": 0,
            "rejected_updates": 0,
            "rejected_announcements": 0,
            "dropped_on_close": 0,
            "withdrawals_admitted": 0,
            "withdrawals_delivered": 0,
            "peak_depth": 0,
            "peak_announce_depth": 0,
        }
        for queue in self.queues.values():
            stats = queue.stats
            for key in totals:
                if key.startswith("peak_"):
                    totals[key] = max(totals[key], getattr(stats, key))
                else:
                    totals[key] += getattr(stats, key)
        return totals

    def shed_digest(self) -> str:
        """Order-independent digest over every queue's shed chain."""
        digest = hashlib.sha256()
        for peer in sorted(self.queues):
            digest.update(
                f"{peer}:{self.queues[peer].shed_digest()}\n".encode()
            )
        return digest.hexdigest()

    def reset_window_counters(self) -> int:
        """Post-heal hygiene: clear windowed shed history and every
        breaker's sub-threshold failure window, so back-to-back
        in-process scenario runs cannot cross-contaminate.  Cumulative
        stats (QueueStats, trips) are deliberately kept — they are
        lifetime telemetry, not window state.  Returns the number of
        shed routes forgotten from the window."""
        forgotten = self._window_sheds
        self._shed_times.clear()
        self._window_sheds = 0
        for breaker in self.breakers.values():
            breaker.reset_window()
        return forgotten

    def snapshot(self) -> Dict[str, dict]:
        """Per-source detail for the ``peering health`` CLI."""
        out: Dict[str, dict] = {}
        for peer in sorted(set(self.queues) | set(self.breakers)):
            queue = self.queues.get(peer)
            breaker = self.breakers.get(peer)
            entry: dict = {}
            if queue is not None:
                entry.update(
                    depth=queue.pending,
                    announce_depth=queue.announce_depth,
                    capacity=queue.capacity,
                    shed=queue.stats.shed_announcements,
                    rejected=queue.stats.rejected_announcements,
                    delivered=queue.stats.delivered,
                )
            if breaker is not None:
                entry["breaker"] = breaker.state
                entry["trips"] = breaker.trips
            out[peer] = entry
        return out
