"""IngressQueue unit tests: class-aware shedding, FIFO survival,
exact accounting, digest determinism, and the injector hooks."""

from types import SimpleNamespace

from repro.overload.breaker import BreakerConfig, CircuitBreaker
from repro.overload.queues import (
    CLASS_ANNOUNCE,
    CLASS_CONTROL,
    CLASS_WITHDRAW,
    IngressQueue,
    QueuePolicy,
    classify_update,
)
from repro.sim import Scheduler


class StubSession:
    def __init__(self):
        self.established = True
        self.delivered = []

    def deliver_update(self, update):
        self.delivered.append(update)


def announce(seq):
    return SimpleNamespace(
        nlri=[(f"10.0.{seq % 250}.0/24", None)], withdrawn=[], seq=seq
    )


def withdraw(seq):
    return SimpleNamespace(
        nlri=[], withdrawn=[f"10.0.{seq % 250}.0/24"], seq=seq
    )


def control(seq):
    return SimpleNamespace(nlri=[], withdrawn=[], seq=seq)


def make_queue(depth=4, batch=4, interval=0.01, **kwargs):
    scheduler = Scheduler()
    queue = IngressQueue(
        scheduler,
        "peer",
        policy=QueuePolicy(
            depth=depth, drain_batch=batch, drain_interval=interval
        ),
        **kwargs,
    )
    return scheduler, queue


def test_classify_update():
    assert classify_update(announce(0)) == CLASS_ANNOUNCE
    assert classify_update(withdraw(0)) == CLASS_WITHDRAW
    assert classify_update(control(0)) == CLASS_CONTROL
    # an UPDATE carrying any withdrawal travels the withdraw class
    mixed = SimpleNamespace(
        nlri=[("10.0.0.0/24", None)], withdrawn=["10.0.1.0/24"]
    )
    assert classify_update(mixed) == CLASS_WITHDRAW


def test_announcements_shed_oldest_first():
    scheduler, queue = make_queue(depth=4)
    session = StubSession()
    for seq in range(6):
        assert queue.offer(session, announce(seq))
    assert queue.stats.shed_updates == 2
    assert queue.stats.shed_announcements == 2
    scheduler.run_for(5)
    # the two oldest (0, 1) were shed; survivors arrive in order
    assert [u.seq for u in session.delivered] == [2, 3, 4, 5]


def test_withdrawals_never_shed_even_beyond_capacity():
    scheduler, queue = make_queue(depth=2)
    session = StubSession()
    for seq in range(10):
        assert queue.offer(session, withdraw(seq))
    assert queue.pending == 10  # transiently beyond capacity
    assert queue.stats.shed_withdrawals == 0
    assert queue.stats.withdrawals_admitted == 10
    scheduler.run_for(5)
    assert [u.seq for u in session.delivered] == list(range(10))
    assert queue.stats.withdrawals_delivered == 10


def test_survivors_keep_arrival_order_in_mixed_stream():
    scheduler, queue = make_queue(depth=3)
    session = StubSession()
    updates = [
        announce(0), withdraw(1), announce(2), announce(3),
        withdraw(4), announce(5), announce(6), announce(7),
    ]
    for update in updates:
        queue.offer(session, update)
    scheduler.run_for(5)
    seqs = [u.seq for u in session.delivered]
    assert seqs == sorted(seqs)  # a subsequence of the arrival order
    assert [s for s in seqs if updates[s].withdrawn] == [1, 4]


def test_peak_announce_depth_bounded_by_capacity():
    scheduler, queue = make_queue(depth=5)
    session = StubSession()
    for seq in range(40):
        queue.offer(session, announce(seq))
    assert queue.stats.peak_announce_depth <= 5
    scheduler.run_for(5)
    ledger = (
        queue.stats.delivered
        + queue.stats.shed_updates
        + queue.stats.dropped_on_close
    )
    assert ledger == queue.stats.admitted


def test_shed_digest_is_deterministic():
    def run():
        scheduler, queue = make_queue(depth=3)
        session = StubSession()
        for seq in range(20):
            queue.offer(session, announce(seq))
        scheduler.run_for(5)
        return queue.shed_digest()

    assert run() == run()

    def run_other():
        scheduler, queue = make_queue(depth=3)
        session = StubSession()
        for seq in range(20):
            queue.offer(session, announce(seq + 1))
        scheduler.run_for(5)
        return queue.shed_digest()

    assert run() != run_other()


def test_flush_session_accounts_drops():
    scheduler, queue = make_queue(depth=8)
    dead, alive = StubSession(), StubSession()
    queue.offer(dead, announce(0))
    queue.offer(alive, announce(1))
    queue.offer(dead, withdraw(2))
    assert queue.flush_session(dead) == 2
    assert queue.stats.dropped_on_close == 2
    assert queue.stats.withdrawals_dropped_on_close == 1
    scheduler.run_for(5)
    assert [u.seq for u in alive.delivered] == [1]


def test_dead_session_entries_dropped_at_drain():
    scheduler, queue = make_queue(depth=8)
    session = StubSession()
    queue.offer(session, announce(0))
    session.established = False
    scheduler.run_for(5)
    assert session.delivered == []
    assert queue.stats.dropped_on_close == 1


def test_resize_sheds_immediately_and_restore_undoes():
    scheduler, queue = make_queue(depth=8, interval=60.0)
    session = StubSession()
    for seq in range(8):
        queue.offer(session, announce(seq))
    shed = queue.resize(3)
    assert shed == 5
    assert queue.announce_depth == 3
    queue.restore()
    assert queue.capacity == 8


def test_slowdown_stalls_drain_until_restore():
    scheduler, queue = make_queue(interval=0.01)
    session = StubSession()
    queue.slowdown(10_000.0)
    queue.offer(session, announce(0))
    scheduler.run_for(5)
    assert session.delivered == []
    queue.restore()
    # the already-armed slow tick must fire before the fast cadence
    # resumes; restore() affects the next arm
    scheduler.run_for(200)
    assert [u.seq for u in session.delivered] == [0]


def test_open_breaker_refuses_announcements_not_withdrawals():
    scheduler = Scheduler()
    breaker = CircuitBreaker(
        scheduler, "peer",
        config=BreakerConfig(failure_threshold=1, open_time=100.0),
    )
    breaker.record_failure()
    assert breaker.state == "open"
    queue = IngressQueue(
        scheduler, "peer",
        policy=QueuePolicy(depth=4, drain_interval=0.01),
        breaker=breaker,
    )
    session = StubSession()
    assert not queue.offer(session, announce(0))
    assert queue.stats.rejected_updates == 1
    assert queue.stats.rejected_announcements == 1
    assert queue.offer(session, withdraw(1))  # withdrawals always pass
    scheduler.run_for(1)
    assert [u.seq for u in session.delivered] == [1]
