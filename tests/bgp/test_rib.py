"""RIB tests: Adj-RIB-In/Out and Loc-RIB selection bookkeeping."""

from repro.bgp.attributes import originate
from repro.bgp.decision import best_path
from repro.bgp.rib import AdjRibIn, AdjRibOut, ColumnarLocRib
from repro.netsim.addr import IPv4Address, IPv4Prefix

P1 = IPv4Prefix.parse("10.0.0.0/8")
P2 = IPv4Prefix.parse("20.0.0.0/8")
P3 = IPv4Prefix.parse("30.0.0.0/8")
NH = IPv4Address.parse("1.1.1.1")


class TestAdjRibIn:
    def test_update_and_withdraw(self):
        rib = AdjRibIn()
        route = originate(P1, 100, NH)
        assert rib.update(route) is None
        assert len(rib) == 1
        assert rib.withdraw(P1) == route
        assert len(rib) == 0
        assert rib.withdraw(P1) is None

    def test_implicit_replacement(self):
        rib = AdjRibIn()
        rib.update(originate(P1, 100, NH))
        replaced = rib.update(originate(P1, 200, NH))
        assert replaced is not None
        assert replaced.origin_as == 100
        assert len(rib) == 1

    def test_addpath_multiple_paths(self):
        rib = AdjRibIn()
        rib.update(originate(P1, 100, NH).with_path_id(1))
        rib.update(originate(P1, 200, NH).with_path_id(2))
        assert len(rib) == 2
        assert sorted(rib.keys()) == [(P1, 1), (P1, 2)]
        rib.withdraw(P1, 1)
        assert list(rib.keys()) == [(P1, 2)]

    def test_clear_returns_dropped(self):
        rib = AdjRibIn()
        rib.update(originate(P1, 100, NH))
        rib.update(originate(P2, 100, NH))
        dropped = rib.clear()
        assert len(dropped) == 2
        assert len(rib) == 0
        rib.update(originate(P1, 100, NH))
        assert len(rib) == 1

    def test_len_is_kept_through_replace_and_missed_withdraw(self):
        rib = AdjRibIn()
        rib.update(originate(P1, 100, NH).with_path_id(1))
        rib.update(originate(P1, 200, NH).with_path_id(1))   # replace
        rib.update(originate(P1, 300, NH).with_path_id(2))
        assert rib.withdraw(P1, 7) is None
        assert rib.withdraw(P2) is None
        assert len(rib) == 2 == len(list(rib.routes()))
        rib.withdraw(P1, 1)
        assert len(rib) == 1 == len(list(rib.routes()))


    def test_has_prefix_through_replace_missed_withdraw_and_clear(self):
        rib = AdjRibIn()
        rib.update(originate(P1, 100, NH).with_path_id(1))
        rib.update(originate(P1, 200, NH).with_path_id(1))   # replace
        rib.update(originate(P1, 300, NH).with_path_id(2))
        rib.withdraw(P1, 1)
        assert rib.has_prefix(P1)
        assert rib.withdraw(P1, 7) is None   # missed withdraws
        assert rib.withdraw(P2) is None
        assert rib.has_prefix(P1) and not rib.has_prefix(P2)
        rib.withdraw(P1, 2)
        assert not rib.has_prefix(P1)
        rib.update(originate(P1, 100, NH))
        rib.update(originate(P2, 100, NH))
        assert rib.clear() == [(P1, None), (P2, None)]
        assert not rib.has_prefix(P1) and not rib.has_prefix(P2)
        assert list(rib.prefixes()) == []

    def test_flush_stale_removes_only_paths_still_held(self, scheduler):
        rib = AdjRibIn()
        for prefix in (P1, P2, P3):
            rib.update(originate(prefix, 100, NH))
        expired = []
        assert rib.retain_stale(scheduler, 5, lambda: expired.append(1)) == 3
        rib.update(originate(P1, 200, NH))   # refreshed: no longer stale
        rib.withdraw(P2)                     # withdrawn while stale
        assert rib.stale_count == 1
        assert rib.flush_stale() == [(P3, None)]
        assert list(rib.keys()) == [(P1, None)]
        assert rib.stale_count == 0
        scheduler.run_for(10)
        assert expired == []   # the flush cancelled the restart timer

    def test_restart_timer_fires_unless_cleared(self, scheduler):
        rib = AdjRibIn()
        rib.update(originate(P1, 100, NH))
        expired = []
        assert rib.retain_stale(scheduler, 5, lambda: expired.append(1)) == 1
        scheduler.run_for(10)
        assert expired == [1]
        rib.flush_stale()
        rib.update(originate(P1, 100, NH))
        rib.retain_stale(scheduler, 5, lambda: expired.append(2))
        assert rib.clear() == [(P1, None)]
        assert rib.stale_count == 0
        scheduler.run_for(10)
        assert expired == [1]

    def test_retain_stale_needs_paths_and_a_restart_time(self, scheduler):
        rib = AdjRibIn()
        assert rib.retain_stale(scheduler, 5, lambda: None) == 0
        rib.update(originate(P1, 100, NH))
        assert rib.retain_stale(scheduler, 0, lambda: None) == 0
        assert rib.stale_count == 0
        assert scheduler.pending() == 0


class TestLocRib:
    def make(self):
        return ColumnarLocRib(select=best_path)

    def test_best_changes_on_first_route(self):
        rib = self.make()
        assert rib.replace("a", originate(P1, 100, NH)) is True
        assert rib.best(P1).peer == "a"

    def test_shorter_path_becomes_best(self):
        rib = self.make()
        rib.replace("a", originate(P1, 100, NH).prepended(999))
        assert rib.best(P1).peer == "a"
        changed = rib.replace("b", originate(P1, 100, NH))
        assert changed is True
        assert rib.best(P1).peer == "b"

    def test_worse_path_does_not_change_best(self):
        rib = self.make()
        rib.replace("a", originate(P1, 100, NH))
        changed = rib.replace("b", originate(P1, 100, NH).prepended(999, 3))
        assert changed is False
        assert rib.best(P1).peer == "a"

    def test_remove_candidate_reselects(self):
        rib = self.make()
        rib.replace("a", originate(P1, 100, NH))
        rib.replace("b", originate(P1, 100, NH).prepended(999))
        assert rib.remove("a", P1) is True
        assert rib.best(P1).peer == "b"

    def test_remove_last_clears_best(self):
        rib = self.make()
        rib.replace("a", originate(P1, 100, NH))
        assert rib.remove("a", P1) is True
        assert rib.best(P1) is None
        assert rib.prefix_count == 0

    def test_remove_peer_bulk(self):
        rib = self.make()
        rib.replace("a", originate(P1, 100, NH))
        rib.replace("a", originate(P2, 100, NH))
        rib.replace("b", originate(P1, 100, NH).prepended(999))
        changed = rib.remove_peer("a")
        assert set(changed) == {P1, P2}
        assert rib.best(P1).peer == "b"
        assert rib.best(P2) is None

    def test_candidates_listing(self):
        rib = self.make()
        rib.replace("a", originate(P1, 100, NH))
        rib.replace("b", originate(P1, 200, NH))
        assert len(rib.candidates(P1)) == 2
        assert len(rib) == 2

    def test_candidates_except_drops_one_peer(self):
        rib = self.make()
        rib.replace("a", originate(P1, 100, NH).with_path_id(1))
        rib.replace("b", originate(P1, 200, NH))
        rib.replace("a", originate(P1, 300, NH).with_path_id(2))
        assert rib.candidates_except(P1, "a") == [
            entry for entry in rib.candidates(P1) if entry.peer != "a"]
        assert [e.path_id for e in rib.candidates_except(P1, "b")] == [1, 2]
        assert rib.candidates_except(P1, "never-seen") == rib.candidates(P1)
        assert rib.candidates_except(P2, "a") == []


class TestAdjRibOut:
    def test_dedup_identical_announcement(self):
        rib = AdjRibOut("peer")
        route = originate(P1, 100, NH)
        assert rib.record_announce(route) is True
        assert rib.record_announce(route) is False
        assert rib.record_announce(route.prepended(999)) is True

    def test_withdraw_returns_advertised(self):
        rib = AdjRibOut("peer")
        route = originate(P1, 100, NH)
        rib.record_announce(route)
        assert rib.record_withdraw(P1) == route
        assert rib.record_withdraw(P1) is None

    def test_path_id_keys_independent(self):
        rib = AdjRibOut("peer")
        rib.record_announce(originate(P1, 100, NH).with_path_id(1))
        rib.record_announce(originate(P1, 200, NH).with_path_id(2))
        assert len(rib) == 2
        rib.record_withdraw(P1, 1)
        assert len(rib) == 1

    def test_paths_are_read_per_prefix(self):
        rib = AdjRibOut("peer")
        first = originate(P1, 100, NH).with_path_id(1)
        rib.record_announce(first)
        rib.record_announce(originate(P1, 200, NH).with_path_id(2))
        rib.record_announce(originate(P1, 300, NH).with_path_id(2))  # replace
        rib.record_announce(originate(P2, 100, NH))
        assert set(rib.paths(P1)) == {1, 2} and rib.paths(P1)[1] == first
        assert len(rib) == 3 == len(list(rib.routes()))
        assert sorted(rib.keys(), key=lambda k: (k[0].key(), k[1] or 0)) == [
            (P1, 1), (P1, 2), (P2, None)]
        assert rib.record_withdraw(P2, 5) is None
        rib.record_withdraw(P2)
        assert not rib.paths(P2) and len(rib) == 2
        rib.clear()
        assert not rib.paths(P1) and len(rib) == 0
