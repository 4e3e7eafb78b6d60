"""Unit and property tests for the lazy-invalidation heap index."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.ds import heap_index
from repro.ds.heap_index import HeapIndex


def _drain(index):
    return index.pop_min_many(len(index))


def _bounded(index):
    return index.heap_size <= 2 * len(index) + heap_index.SLACK


class TestHeapIndexBasics:
    def test_empty(self):
        index = HeapIndex()
        assert len(index) == 0
        with pytest.raises(KeyError):
            index.min()
        assert index.pop_min_many(3) == []

    def test_insert_and_min(self):
        index = HeapIndex()
        index.push((2, "b"))
        index.push((1, "a"))
        index.push((3, "c"))
        assert index.min() == (1, "a")
        assert len(index) == 3
        assert "a" in index and "z" not in index

    def test_reposition_on_reinsert(self):
        index = HeapIndex([(1, "a"), (2, "b")])
        index.push((9, "a"))  # move "a" behind "b"
        assert index.min() == (2, "b")
        assert len(index) == 2
        assert _drain(index) == [(2, "b"), (9, "a")]

    def test_restamp_to_an_equal_tuple(self):
        """A re-push of an equal (but new) tuple leaves one live copy."""
        index = HeapIndex([(1, "a"), (2, "b")])
        index.push((1, "a"))
        assert _drain(index) == [(1, "a"), (2, "b")]
        assert index.heap_size == 0

    def test_remove(self):
        index = HeapIndex((i, name) for i, name in enumerate("abcde"))
        index.remove("a")
        assert index.min() == (1, "b")
        assert "a" not in index
        with pytest.raises(KeyError):
            index.remove("a")

    def test_pop_min_drains_in_order(self):
        index = HeapIndex()
        order = list(range(100))
        random.Random(3).shuffle(order)
        for value in order:
            index.push((value, f"k{value}"))
        drained = [index.pop_min_many(1)[0][0] for _ in range(100)]
        assert drained == list(range(100))
        assert len(index) == 0

    def test_pop_min_many_equals_single_pops(self):
        for take in (0, 1, 7, 50, 100, 150):
            order = list(range(100))
            random.Random(5).shuffle(order)
            entries = [(value, f"k{value}") for value in order]
            one, many = HeapIndex(entries), HeapIndex(entries)
            for value in order[::3]:  # leave stale tuples behind
                one.push((value + 0.5, f"k{value}"))
                many.push((value + 0.5, f"k{value}"))
            expected = [entry for _ in range(min(take, 100))
                        for entry in one.pop_min_many(1)]
            assert many.pop_min_many(take) == expected
            assert len(many) == len(one)
            assert many.sorted_entries() == one.sorted_entries()

    def test_pop_min_many_then_reuse(self):
        """The index stays fully functional after a batched prefix pop."""
        index = HeapIndex((value, value) for value in range(60))
        assert [e[-1] for e in index.pop_min_many(25)] == list(range(25))
        index.push((3, 3))  # reinsert below the removed boundary
        assert index.min() == (3, 3)
        index.remove(3)
        assert index.pop_min_many(100) == [(v, v) for v in range(25, 60)]
        assert len(index) == 0

    def test_sorted_entries(self):
        index = HeapIndex()
        for value in (5, 3, 9, 1, 7):
            index.push((value, f"k{value}"))
        index.remove("k9")
        assert [e[0] for e in index.sorted_entries()] == [1, 3, 5, 7]

    def test_reset_replaces_contents(self):
        index = HeapIndex([(5, "x"), (6, "y")])
        index.reset([(2, "y"), (1, "z")])
        assert "x" not in index
        assert _drain(index) == [(1, "z"), (2, "y")]

    def test_large_sequential_pushes(self):
        index = HeapIndex()
        for value in range(20_000):
            index.push((value, value))
        assert index.min() == (0, 0)
        assert index.pop_min_many(5) == [(v, v) for v in range(5)]


ops = st.lists(
    st.tuples(
        st.sampled_from(["push", "remove", "min", "pop_min_many"]),
        st.integers(0, 30),
        st.integers(0, 100),
    ),
    max_size=300,
)


class TestHeapIndexProperties:
    @settings(max_examples=150, deadline=None)
    @given(ops, st.sampled_from([0, 1, 4, 64]))
    def test_matches_reference_model(self, operations, slack):
        """Any interleaving of insert, re-stamp, remove, min and batched
        pops agrees with a sorted reference dict, across compactions
        (a small slack forces them to happen often)."""
        with mock.patch.object(heap_index, "SLACK", slack):
            index = HeapIndex()
            reference: dict[int, tuple] = {}
            for op, key, value in operations:
                if op == "push":  # an insert, or a re-stamp if present
                    index.push((value, key))
                    reference[key] = (value, key)
                elif op == "remove" and key in reference:
                    index.remove(key)
                    del reference[key]
                elif op == "min" and reference:
                    assert index.min() == min(reference.values())
                elif op == "pop_min_many":
                    take = value % 8
                    expected = sorted(reference.values())[:take]
                    assert index.pop_min_many(take) == expected
                    for entry in expected:
                        del reference[entry[-1]]
                assert len(index) == len(reference)
                assert _bounded(index)
            assert index.sorted_entries() == sorted(reference.values())
            assert _drain(index) == sorted(reference.values())


class TestHeapIndexStress:
    def test_interleaved_heavy_churn(self):
        """A long randomized churn (the shape Waffle's indexes see:
        insert/remove/min cycling) against a reference dict."""
        index = HeapIndex()
        reference: dict[int, tuple] = {}
        rng = random.Random(100)
        for _ in range(20_000):
            roll = rng.random()
            key = rng.randrange(500)
            if roll < 0.5:
                entry = (rng.randrange(10_000), key)
                index.push(entry)
                reference[key] = entry
            elif roll < 0.75 and reference:
                victim = rng.choice(list(reference))
                index.remove(victim)
                del reference[victim]
            elif reference:
                assert index.min() == min(reference.values())
        assert len(index) == len(reference)
        assert index.sorted_entries() == sorted(reference.values())

    def test_min_equals_sorted_front_throughout(self):
        index = HeapIndex()
        rng = random.Random(102)
        live = {}
        for step in range(3000):
            key = f"e{rng.randrange(200)}"
            entry = (rng.randrange(1000), key)
            index.push(entry)
            live[key] = entry
            if step % 7 == 0:
                (popped,) = index.pop_min_many(1)
                assert popped == min(live.values())
                assert live.pop(popped[-1]) == popped

    def test_heap_length_bounded_after_restamps(self):
        """Re-stamps leave stale tuples behind; compaction keeps the heap
        within 2·live + SLACK however many accumulate."""
        index = HeapIndex((0, i, f"k{i}") for i in range(500))
        rng = random.Random(7)
        for step in range(1, 10_001):
            index.push((step, step, f"k{rng.randrange(500)}"))
            assert _bounded(index)
        assert len(index) == 500
        assert index.heap_size <= 2 * 500 + heap_index.SLACK
