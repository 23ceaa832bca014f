"""Deterministic discrete-event scheduler.

All simulated components share one :class:`Scheduler`. Events fire in
timestamp order; ties are broken by insertion order, which makes runs fully
reproducible. Time is a float measured in seconds.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional


class SimulationError(RuntimeError):
    """Raised when the scheduler is used inconsistently."""


class Event:
    """A scheduled callback and the positional arguments it is called with
    (so per-frame callers schedule a bound method, not a closure per event).

    The heap itself stores ``(time, seq, event)`` tuples so ordering is
    resolved by C-level tuple comparison (the dataclass-generated ``__lt__``
    this replaces dominated the datapath's profile). Ties break by
    insertion order, which keeps runs fully reproducible. ``cancelled``
    events stay in the heap but are skipped when popped.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent this event's callback from running."""
        self.cancelled = True


class Scheduler:
    """Virtual clock plus event queue.

    >>> sched = Scheduler()
    >>> fired = []
    >>> _ = sched.call_later(1.5, lambda: fired.append(sched.now))
    >>> sched.run()
    >>> fired
    [1.5]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        # The event pushed last, while it is an open append_later burst.
        self._tail: Optional[Event] = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def call_at(self, when: float, callback: Callable[..., None],
                *args) -> Event:
        """Schedule ``callback(*args)`` to run at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {when} < {self._now}"
            )
        seq = next(self._seq)
        event = Event(when, seq, callback, args)
        heapq.heappush(self._queue, (when, seq, event))
        self._tail = None
        return event

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        # Pushed here, not via call_at: re-spreading ``*args`` through a
        # second call costs more than the closure this form replaces.
        when = self._now + delay
        seq = next(self._seq)
        event = Event(when, seq, callback, args)
        heapq.heappush(self._queue, (when, seq, event))
        self._tail = None
        return event

    def append_later(self, delay: float, callback: Callable[..., None],
                     *args) -> None:
        """:meth:`call_later` without an :class:`Event` back, at one event
        per *burst* of calls instead of one per call.

        If the event pushed last is an un-fired burst of an equal
        ``callback`` due at the same time, ``args`` joins it; else it
        starts a new burst.  ``call_later`` would have queued this call at
        ``(same time, seq + 1)``, directly behind the burst's last call
        with nothing able to sort between them, so firing order is exactly
        ``call_later``'s.  Any other push (cancelled afterwards or not)
        and any burst starting to fire end it; a call that raises takes
        the rest of its burst with it.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        when = self._now + delay
        tail = self._tail
        if (tail is not None and tail.time == when
                and tail.args[0] == callback):
            tail.args[1].append(args)
            return
        seq = next(self._seq)
        tail = self._tail = Event(
            when, seq, self._fire_burst, (callback, [args]))
        heapq.heappush(self._queue, (when, seq, tail))

    def _fire_burst(self, callback: Callable[..., None], burst: list) -> None:
        self._tail = None
        for args in burst:
            callback(*args)

    def call_soon(self, callback: Callable[..., None], *args) -> Event:
        """Schedule ``callback(*args)`` at the current time (after pending
        events)."""
        return self.call_at(self._now, callback, *args)

    def pending(self) -> int:
        """Number of queued events that have not been cancelled (a burst
        is one event however many calls ride it)."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    def step(self) -> bool:
        """Run the next event. Returns ``False`` when the queue is empty."""
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback(*event.args)
            return True
        return False

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the queue drains. Returns the number of events fired."""
        if self._running:
            raise SimulationError("scheduler is already running")
        self._running = True
        try:
            fired = 0
            while self.step():
                fired += 1
                if fired >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a scheduling loop"
                    )
            return fired
        finally:
            self._running = False

    def run_until(self, deadline: float, max_events: int = 10_000_000) -> int:
        """Run events with ``time <= deadline``; advances the clock to it."""
        fired = 0
        while self._queue:
            head = self._queue[0][2]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > deadline:
                break
            self.step()
            fired += 1
            if fired >= max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; likely a scheduling loop"
                )
        self._now = max(self._now, deadline)
        return fired

    def run_for(self, duration: float, max_events: int = 10_000_000) -> int:
        """Run events for ``duration`` seconds of virtual time."""
        return self.run_until(self._now + duration, max_events=max_events)


_default: Optional[Scheduler] = None


def default_scheduler() -> Scheduler:
    """Process-wide scheduler for scripts that do not manage their own."""
    global _default
    if _default is None:
        _default = Scheduler()
    return _default


def reset_default_scheduler() -> None:
    """Replace the process-wide scheduler (used by tests)."""
    global _default
    _default = None
