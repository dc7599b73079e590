"""Property-based tests for the B+-tree against a sorted-dict oracle."""

from bisect import bisect_left, bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.indexes.bptree import BPlusTree, BPlusTreeError
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from tests.conftest import entry

keys_strategy = st.lists(st.integers(min_value=1, max_value=10000),
                         unique=True, min_size=0, max_size=300)


class TestAgainstOracle:
    @given(keys_strategy)
    @settings(max_examples=50, deadline=None)
    def test_bulk_load_then_scan(self, keys):
        pool = BufferPool(InMemoryDisk(256), capacity=16)
        tree = BPlusTree(pool)
        tree.bulk_load([entry(k, k + 50000) for k in sorted(keys)])
        assert [e.start for e in tree.items()] == sorted(keys)
        tree.check()

    @given(keys_strategy, st.integers(min_value=0, max_value=10001),
           st.integers(min_value=0, max_value=10001))
    @settings(max_examples=50, deadline=None)
    def test_range_scan_matches_oracle(self, keys, a, b):
        low, high = min(a, b), max(a, b)
        pool = BufferPool(InMemoryDisk(256), capacity=16)
        tree = BPlusTree(pool)
        for k in keys:
            tree.insert(entry(k, k + 50000))
        got = [e.start for e in tree.range_scan(low, high)]
        assert got == sorted(k for k in keys if low <= k <= high)

    @given(keys_strategy, st.integers(min_value=0, max_value=10001))
    @settings(max_examples=50, deadline=None)
    def test_seek_matches_bisect(self, keys, probe):
        pool = BufferPool(InMemoryDisk(256), capacity=16)
        tree = BPlusTree(pool)
        tree.bulk_load([entry(k, k + 50000) for k in sorted(keys)])
        ordered = sorted(keys)
        head = next(iter(tree.seek(probe)), None)
        index = bisect_left(ordered, probe)
        if index == len(ordered):
            assert head is None
        else:
            assert head.start == ordered[index]
        head = next(iter(tree.seek_after(probe)), None)
        index = bisect_right(ordered, probe)
        if index == len(ordered):
            assert head is None
        else:
            assert head.start == ordered[index]


class BPlusTreeMachine(RuleBasedStateMachine):
    """Random interleavings of insert/delete/search with full validation."""

    def __init__(self):
        super().__init__()
        self.pool = BufferPool(InMemoryDisk(256), capacity=16)
        self.tree = BPlusTree(self.pool)
        self.oracle = {}

    @rule(key=st.integers(min_value=1, max_value=500))
    def insert(self, key):
        if key in self.oracle:
            try:
                self.tree.insert(entry(key, key + 1000))
                raise AssertionError("duplicate accepted")
            except BPlusTreeError:
                pass
        else:
            self.tree.insert(entry(key, key + 1000))
            self.oracle[key] = key + 1000

    @rule(key=st.integers(min_value=1, max_value=500))
    def delete(self, key):
        removed = self.tree.delete(key)
        if key in self.oracle:
            assert removed is not None and removed.start == key
            del self.oracle[key]
        else:
            assert removed is None

    @rule(key=st.integers(min_value=1, max_value=500))
    def search(self, key):
        found = self.tree.search(key)
        if key in self.oracle:
            assert found is not None and found.end == self.oracle[key]
        else:
            assert found is None

    @invariant()
    def structure_is_valid(self):
        self.tree.check()
        assert self.tree.size == len(self.oracle)
        assert self.pool.pinned_count == 0

    @invariant()
    def scan_matches_oracle(self):
        assert [e.start for e in self.tree.items()] == sorted(self.oracle)


TestBPlusTreeStateMachine = BPlusTreeMachine.TestCase
TestBPlusTreeStateMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
