"""Tests for the real/dummy timestamp indexes."""

import pytest

from repro.core.timestamp_index import DummyObjectIndex, RealObjectIndex


class TestRealObjectIndex:
    def make(self, n=10):
        return RealObjectIndex([f"k{i}" for i in range(n)])

    def test_all_keys_start_at_zero(self):
        index = self.make()
        assert all(index.timestamp(f"k{i}") == 0 for i in range(10))
        assert index.server_resident_count == 0

    def test_residency_controls_candidacy(self):
        index = self.make(3)
        index.mark_server_resident("k0")
        index.mark_server_resident("k1")
        assert index.server_resident_count == 2
        assert index.min_timestamp_key() in ("k0", "k1")
        index.mark_cached("k0")
        index.mark_cached("k1")
        assert index.server_resident_count == 0

    def test_min_follows_timestamps(self):
        index = self.make(3)
        for key in ("k0", "k1", "k2"):
            index.mark_server_resident(key)
        index.set_timestamp("k0", 5)
        index.set_timestamp("k1", 2)
        index.set_timestamp("k2", 9)
        assert index.min_timestamp_key() == "k1"

    def test_set_timestamp_for_cached_key_kept_out_of_tree(self):
        index = self.make(2)
        index.set_timestamp("k0", 7)
        assert index.timestamp("k0") == 7
        assert index.server_resident_count == 0
        index.mark_server_resident("k0")
        assert index.min_timestamp_key() == "k0"

    def test_unknown_key_rejected(self):
        index = self.make(1)
        with pytest.raises(KeyError):
            index.set_timestamp("nope", 1)
        with pytest.raises(KeyError):
            index.timestamp("nope")

    def test_add_and_drop_key(self):
        index = self.make(2)
        index.add_key("new", ts=4, server_resident=True)
        assert "new" in index
        assert index.server_resident_count == 1
        with pytest.raises(KeyError):
            index.add_key("new", ts=5, server_resident=False)
        index.drop_key("new")
        assert "new" not in index
        assert index.server_resident_count == 0

    def test_random_resident_key(self):
        import random
        index = self.make(20)
        index.mark_server_resident_many(f"k{i}" for i in range(20))
        rng = random.Random(3)
        picks = index.pop_random_keys(8, rng, ts=5)
        assert len({key for key, _ in picks}) == 8
        assert all(prev == 0 for _, prev in picks)
        assert all(index.timestamp(key) == 5 for key, _ in picks)
        assert index.server_resident_count == 12
        # Fresh draws keep spreading over what is still resident.
        more = {key for _ in range(6)
                for key, _ in index.pop_random_keys(2, rng, ts=6)}
        assert more.isdisjoint(key for key, _ in picks)
        assert index.server_resident_count == 0

    def test_pop_random_keys_matches_rank_select(self):
        """Each pick is the draw's rank in the live order, as a rank
        ``select`` on an order-statistics tree would return."""
        import random
        index = self.make(50)
        index.mark_server_resident_many(f"k{i}" for i in range(50))
        for i in range(0, 50, 3):
            index.set_timestamp(f"k{i}", 100 - i)
        # Timestamp 0 in arrival order, then timestamps 52..100 ascending.
        live = ([f"k{i}" for i in range(50) if i % 3]
                + [f"k{i}" for i in reversed(range(0, 50, 3))])
        draws = random.Random(9)
        expected = [live.pop(draws.randrange(len(live))) for _ in range(20)]
        picks = index.pop_random_keys(20, random.Random(9), ts=200)
        assert [key for key, _ in picks] == expected

    def test_stamp_cached_matches_set_timestamp_then_mark_cached(self):
        folded, paired = self.make(4), self.make(4)
        for index in (folded, paired):
            index.mark_server_resident_many(["k0", "k1", "k2", "k3"])
        assert folded.stamp_cached("k1", 7) == 0
        paired.set_timestamp("k1", 7)
        paired.mark_cached("k1")
        for index in (folded, paired):
            index.mark_server_resident("k1")
            index.set_timestamp("k2", 7)
        assert folded.pop_min_keys(4, 9) == paired.pop_min_keys(4, 9)

    def test_bulk_build_matches_one_at_a_time(self):
        bulk, single = self.make(10), self.make(10)
        keys = [f"k{i}" for i in (3, 1, 4, 0, 5, 9, 2, 6)]
        bulk.mark_server_resident_many(keys)
        for key in keys:
            single.mark_server_resident(key)
        assert bulk.pop_min_keys(8, 1) == single.pop_min_keys(8, 1)
        bulk.mark_server_resident("k7")
        with pytest.raises(ValueError):
            bulk.mark_server_resident_many(["k8"])


class TestDummyObjectIndex:
    def make(self, d=8, reshuffle=True):
        return DummyObjectIndex([f"d{i}" for i in range(d)], seed=2,
                                reshuffle=reshuffle)

    def test_initial_state(self):
        index = self.make()
        assert len(index) == 8
        assert index.stored_timestamp("d3") == 0

    def test_accesses_rotate_through_all_dummies(self):
        index = self.make(d=6)
        picked = []
        for ts in range(1, 7):
            key = index.min_timestamp_key()
            picked.append(key)
            index.record_access(key, ts)
        assert sorted(picked) == [f"d{i}" for i in range(6)]

    def test_stored_timestamp_tracks_last_access(self):
        index = self.make()
        key = index.min_timestamp_key()
        index.record_access(key, 42)
        assert index.stored_timestamp(key) == 42

    def test_reshuffle_changes_order_but_preserves_stored_ts(self):
        index = self.make(d=4, reshuffle=True)
        stored = {}
        for ts in range(1, 5):
            key = index.min_timestamp_key()
            index.record_access(key, ts)
            stored[key] = ts
        index.end_round(4)  # epoch complete -> reshuffle fires
        for key, ts in stored.items():
            assert index.stored_timestamp(key) == ts

    def test_round_robin_never_reshuffles(self):
        index = self.make(d=4, reshuffle=False)
        first_epoch = []
        for ts in range(1, 5):
            key = index.min_timestamp_key()
            first_epoch.append(key)
            index.record_access(key, ts)
            index.end_round(ts)
        second_epoch = []
        for ts in range(5, 9):
            key = index.min_timestamp_key()
            second_epoch.append(key)
            index.record_access(key, ts)
            index.end_round(ts)
        assert first_epoch == second_epoch  # strict round robin

    def test_swap_out_and_in(self):
        index = self.make(d=3)
        key = index.min_timestamp_key()
        ts = index.swap_out(key)
        assert ts == 0
        assert key not in index
        assert len(index) == 2
        index.swap_in("fresh", 9)
        assert index.stored_timestamp("fresh") == 9
        with pytest.raises(KeyError):
            index.swap_in("fresh", 10)

    def test_any_key(self):
        index = self.make(d=2)
        assert index.any_key() in index
