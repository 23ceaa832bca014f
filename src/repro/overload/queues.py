"""Bounded per-neighbor ingress queues with class-aware load shedding.

An :class:`IngressQueue` sits between a BGP session's wire dispatch and
its owner: instead of processing every UPDATE inline, the session
offers it here and a scheduler-driven drain delivers a bounded batch
per tick.  That turns unbounded ingress into a fixed consumption rate
— and when the offered load exceeds it, the queue sheds by class:

========== ==========================================================
class      policy
========== ==========================================================
control    End-of-RIB and attribute-only UPDATEs — **never shed**
           (KEEPALIVE/NOTIFICATION/OPEN never reach the queue at all;
           the session FSM handles them inline, so liveness and error
           signaling survive any overload)
withdraw   any UPDATE carrying ≥1 withdrawn route — **never shed**,
           admitted even beyond capacity: losing a withdrawal would
           leave a stale route in a RIB forever
announce   announcement-only UPDATEs — shed **oldest-first** when the
           announce-class depth exceeds capacity
========== ==========================================================

Shedding oldest-first is state-convergent because BGP is last-message-
wins per (prefix, path_id): if ``announce(P, v1)`` is shed, a later
surviving ``announce(P, v2)`` or ``withdraw(P)`` yields the same final
state the full sequence would have.  Surviving updates are delivered
strictly in arrival order (FIFO), so shedding can drop but never
reorder a neighbor's stream.

Every shed is accounted exactly and folded into a SHA-256 digest chain,
so two runs at the same seed can be proven to shed identically.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bgp.messages import UpdateMessage
    from repro.overload.breaker import CircuitBreaker
    from repro.sim.scheduler import Scheduler

__all__ = [
    "CLASS_ANNOUNCE",
    "CLASS_CONTROL",
    "CLASS_WITHDRAW",
    "IngressQueue",
    "QueuePolicy",
    "QueueStats",
    "classify_update",
]

CLASS_CONTROL = "control"
CLASS_WITHDRAW = "withdraw"
CLASS_ANNOUNCE = "announce"


def classify_update(update: "UpdateMessage") -> str:
    """Shed class of one UPDATE (see the table in the module docstring)."""
    if update.withdrawn:
        return CLASS_WITHDRAW
    if update.nlri:
        return CLASS_ANNOUNCE
    return CLASS_CONTROL


@dataclass
class QueuePolicy:
    """Knobs for one neighbor's bounded ingress queue."""

    depth: int = 128              # max announcement-class entries queued
    drain_batch: int = 16         # updates delivered per drain tick
    drain_interval: float = 0.02  # seconds between drain ticks
    high_watermark: float = 0.75  # congestion threshold (depth fraction)


@dataclass
class QueueStats:
    """Exact accounting for one queue; everything the invariants need."""

    admitted: int = 0             # updates enqueued
    delivered: int = 0            # updates handed to the owner
    shed_updates: int = 0         # announcement-only updates shed
    shed_announcements: int = 0   # routes inside shed updates
    shed_withdrawals: int = 0     # must stay 0 (invariant-checked)
    shed_control: int = 0         # must stay 0 (invariant-checked)
    rejected_updates: int = 0     # refused at admission (breaker open)
    rejected_announcements: int = 0
    dropped_on_close: int = 0     # queued for a session that died
    withdrawals_admitted: int = 0
    withdrawals_delivered: int = 0
    withdrawals_dropped_on_close: int = 0
    peak_depth: int = 0
    peak_announce_depth: int = 0  # bounded by capacity, by construction


class IngressQueue:
    """One neighbor's bounded ingress queue (see module docstring).

    Entries are ``(session, update, shed_class)``.  Only the announce
    class counts against ``capacity``; withdraw/control entries are
    always admitted (the queue may transiently exceed capacity by the
    withdraw backlog — the price of never losing a withdrawal).
    """

    def __init__(
        self,
        scheduler: "Scheduler",
        peer_key: str,
        policy: Optional[QueuePolicy] = None,
        breaker: Optional["CircuitBreaker"] = None,
        on_shed: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self.scheduler = scheduler
        self.peer_key = peer_key
        self.policy = policy if policy is not None else QueuePolicy()
        self.breaker = breaker
        self.on_shed = on_shed
        self.capacity = self.policy.depth
        self._base_capacity = self.policy.depth
        self._slow_factor = 1.0
        self._entries: deque = deque()
        self._announce_depth = 0
        self._drain_event = None
        self._digest = hashlib.sha256()
        self._shed_seq = 0
        self.stats = QueueStats()

    # -- observers ---------------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._entries)

    @property
    def announce_depth(self) -> int:
        return self._announce_depth

    @property
    def congested(self) -> bool:
        threshold = max(1, int(self.policy.high_watermark * self.capacity))
        return self._announce_depth >= threshold

    @property
    def depth_fraction(self) -> float:
        if self.capacity <= 0:
            return 1.0 if self._announce_depth else 0.0
        return self._announce_depth / self.capacity

    def shed_digest(self) -> str:
        """Digest chain over every shed/rejection, for determinism proofs."""
        return self._digest.hexdigest()

    # -- admission ---------------------------------------------------------

    def offer(self, session, update: "UpdateMessage") -> bool:
        """Admit one UPDATE from ``session``; returns False if refused."""
        shed_class = classify_update(update)
        if (
            shed_class == CLASS_ANNOUNCE
            and self.breaker is not None
            and not self.breaker.allow()
        ):
            self.stats.rejected_updates += 1
            self.stats.rejected_announcements += len(update.nlri)
            self._chain("reject", update)
            self._note_shed(len(update.nlri))
            return False
        self._entries.append((session, update, shed_class))
        self.stats.admitted += 1
        if shed_class == CLASS_WITHDRAW:
            self.stats.withdrawals_admitted += len(update.withdrawn)
        elif shed_class == CLASS_ANNOUNCE:
            self._announce_depth += 1
            while self._announce_depth > self.capacity:
                if not self._shed_oldest_announcement():
                    break
        self.stats.peak_depth = max(self.stats.peak_depth,
                                    len(self._entries))
        self.stats.peak_announce_depth = max(
            self.stats.peak_announce_depth, self._announce_depth
        )
        self._arm()
        return True

    def _shed_oldest_announcement(self) -> bool:
        for index, (_, update, shed_class) in enumerate(self._entries):
            if shed_class != CLASS_ANNOUNCE:
                continue
            del self._entries[index]
            self._announce_depth -= 1
            self.stats.shed_updates += 1
            self.stats.shed_announcements += len(update.nlri)
            self._chain("shed", update)
            if self.breaker is not None:
                self.breaker.record_failure("queue-overflow")
            self._note_shed(len(update.nlri))
            return True
        return False

    def _note_shed(self, routes: int) -> None:
        if self.on_shed is not None:
            self.on_shed(self.peer_key, routes)

    def _chain(self, action: str, update: "UpdateMessage") -> None:
        self._shed_seq += 1
        token = ";".join(
            f"{prefix}|{'-' if path_id is None else path_id}"
            for prefix, path_id in update.nlri
        )
        self._digest.update(
            f"{self._shed_seq}:{action}:{self.peer_key}:{token}\n".encode()
        )

    # -- drain -------------------------------------------------------------

    def _arm(self) -> None:
        if self._drain_event is None and self._entries:
            self._drain_event = self.scheduler.call_later(
                self.policy.drain_interval * self._slow_factor, self._drain
            )

    def _drain(self) -> None:
        self._drain_event = None
        budget = max(1, self.policy.drain_batch)
        while budget > 0 and self._entries:
            session, update, shed_class = self._entries.popleft()
            if shed_class == CLASS_ANNOUNCE:
                self._announce_depth -= 1
            if not session.established:
                self._account_drop(update, shed_class)
                continue
            budget -= 1
            self.stats.delivered += 1
            if shed_class == CLASS_WITHDRAW:
                self.stats.withdrawals_delivered += len(update.withdrawn)
            if self.breaker is not None:
                self.breaker.record_success()
            session.deliver_update(update)
        self._arm()

    def _account_drop(self, update: "UpdateMessage",
                      shed_class: str) -> None:
        self.stats.dropped_on_close += 1
        if shed_class == CLASS_WITHDRAW:
            self.stats.withdrawals_dropped_on_close += len(update.withdrawn)

    def flush_session(self, session) -> int:
        """Discard entries for a session that closed (not a shed: the
        successor session re-learns state from scratch via BGP)."""
        kept: deque = deque()
        dropped = 0
        for entry in self._entries:
            if entry[0] is session:
                dropped += 1
                if entry[2] == CLASS_ANNOUNCE:
                    self._announce_depth -= 1
                self._account_drop(entry[1], entry[2])
            else:
                kept.append(entry)
        self._entries = kept
        return dropped

    # -- injector hooks ----------------------------------------------------

    def slowdown(self, factor: float) -> None:
        """Multiply the drain interval (the slow-consumer fault)."""
        self._slow_factor = max(factor, 0.001)

    def resize(self, capacity: int) -> int:
        """Shrink/grow the announce-class bound (the queue-exhaustion
        fault); returns how many entries the shrink shed immediately."""
        self.capacity = max(0, capacity)
        shed = 0
        while self._announce_depth > self.capacity:
            if not self._shed_oldest_announcement():
                break
            shed += 1
        return shed

    def restore(self) -> None:
        """Undo injector effects: base capacity, full drain speed."""
        self.capacity = self._base_capacity
        self._slow_factor = 1.0
