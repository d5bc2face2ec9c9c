"""Stateful property tests: storage structures vs simple reference models.

Hypothesis drives random interleavings of inserts, deletes, reads and scans
against a heap file (reference: a dict) and a B+tree (reference: a sorted
multimap), under a tiny buffer pool so evictions happen constantly.
"""

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.engine.index.btree import BPlusTree
from repro.engine.storage.buffer import BufferPool
from repro.engine.storage.disk import MemoryDisk
from repro.engine.storage.heapfile import HeapFile, RID


class HeapFileMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.heap = HeapFile(BufferPool(MemoryDisk(), capacity=2), name="m")
        self.reference = {}
        self.counter = 0

    @rule(size=st.integers(min_value=0, max_value=6000))
    def insert(self, size):
        payload = self.counter.to_bytes(4, "little") * max(size // 4, 1)
        self.counter += 1
        rid = self.heap.insert(payload)
        assert rid not in self.reference
        self.reference[rid] = payload

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def read_existing(self, data):
        rid = data.draw(st.sampled_from(sorted(self.reference)))
        assert self.heap.read(rid) == self.reference[rid]

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def delete_existing(self, data):
        rid = data.draw(st.sampled_from(sorted(self.reference)))
        self.heap.delete(rid)
        del self.reference[rid]

    @invariant()
    def record_count_matches(self):
        assert len(self.heap) == len(self.reference)

    @invariant()
    def scan_matches_reference(self):
        scanned = {rid: data for rid, data in self.heap.scan()}
        assert scanned == self.reference


class BTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=4)
        self.reference = []  # list of (key, rid)
        self.counter = 0

    @rule(key=st.integers(min_value=-100, max_value=100))
    def insert(self, key):
        rid = RID(self.counter, 0)
        self.counter += 1
        self.tree.insert(key, rid)
        self.reference.append((key, rid))

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def delete_existing(self, data):
        key, rid = data.draw(st.sampled_from(self.reference))
        assert self.tree.delete(key, rid)
        self.reference.remove((key, rid))

    @rule(key=st.integers(min_value=-100, max_value=100))
    def search(self, key):
        expected = sorted(rid for k, rid in self.reference if k == key)
        assert sorted(self.tree.search(key)) == expected

    @rule(
        lo=st.integers(min_value=-120, max_value=120),
        hi=st.integers(min_value=-120, max_value=120),
    )
    def range_scan(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        got = sorted((k, rid) for k, rid in self.tree.range_scan(lo, hi))
        expected = sorted((k, rid) for k, rid in self.reference if lo <= k <= hi)
        assert got == expected

    @invariant()
    def structure_valid(self):
        self.tree.check_invariants()
        assert len(self.tree) == len(self.reference)


TestHeapFileStateful = HeapFileMachine.TestCase
TestBTreeStateful = BTreeMachine.TestCase
