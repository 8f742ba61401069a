"""Storage memory gate: bytes per GIN posting entry and per heap tuple.

Measured with tracemalloc, so the numbers are allocator-independent and
repeatable. Each gate has a self-test that rebuilds the storage layout it
replaced (one Python ``set`` per trigram plus a per-TID trigram set; a heap
tuple and header with a ``__dict__``) and asserts that layout breaks the
budget, so a regression to it cannot pass.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import pytest

from repro.engine import heap as heap_module
from repro.engine.datum import to_text
from repro.engine.heap import Heap
from repro.engine.index import GinIndex, trigrams
from repro.workloads.gharchive import ArchiveConfig, generate_events

GIN_DOCS = 2_000
GIN_BYTES_PER_ENTRY = 16
HEAP_ROWS = 20_000
HEAP_BYTES_PER_TUPLE = 320


def traced_bytes(build):
    """(object, bytes tracemalloc saw ``build()`` keep allocated)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = build()
        return obj, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def gharchive_docs():
    return [data for _, data in generate_events(ArchiveConfig(events=GIN_DOCS, seed=1))]


def gin_bytes_per_entry(index_cls, docs) -> float:
    def build():
        index = index_cls()
        for tid, doc in enumerate(docs, start=1):
            index.insert(doc, tid)
        return index

    index, used = traced_bytes(build)
    assert index.entry_count > 0
    return used / index.entry_count


def heap_bytes_per_tuple() -> float:
    rows = [[i, f"name-{i}", i * 0.5] for i in range(HEAP_ROWS)]

    def build():
        heap = Heap("t")
        for row in rows:
            heap.insert(row, 100)
        return heap

    heap, used = traced_bytes(build)
    assert len(heap.tuples) == HEAP_ROWS
    return used / HEAP_ROWS


class SetPerTrigramGin:
    """The replaced GIN layout: trigram -> set of TIDs, TID -> trigram set."""

    def __init__(self):
        self._postings = defaultdict(set)
        self._tid_keys = {}
        self.entry_count = 0

    def insert(self, value, tid):
        grams = trigrams(to_text(value))
        self._tid_keys[tid] = grams
        for gram in grams:
            self._postings[gram].add(tid)
        self.entry_count += len(grams)


@dataclass
class DictHeapTupleHeader:
    xmin: int
    xmax: int | None = None


@dataclass
class DictHeapTuple:
    tid: int
    row_id: int
    values: list
    header: DictHeapTupleHeader

    def width(self) -> int:
        return heap_module.TUPLE_OVERHEAD + sum(heap_module._value_width(v) for v in self.values)


def test_gin_bytes_per_posting_entry(gharchive_docs):
    per_entry = gin_bytes_per_entry(GinIndex, gharchive_docs)
    assert per_entry <= GIN_BYTES_PER_ENTRY, f"{per_entry:.1f} B per GIN posting entry"


def test_heap_bytes_per_tuple():
    per_tuple = heap_bytes_per_tuple()
    assert per_tuple <= HEAP_BYTES_PER_TUPLE, f"{per_tuple:.1f} B per heap tuple"


def test_gin_gate_trips_on_set_per_trigram_layout(gharchive_docs):
    assert gin_bytes_per_entry(SetPerTrigramGin, gharchive_docs) > GIN_BYTES_PER_ENTRY


def test_heap_gate_trips_on_dict_tuples(monkeypatch):
    monkeypatch.setattr(heap_module, "HeapTuple", DictHeapTuple)
    monkeypatch.setattr(heap_module, "HeapTupleHeader", DictHeapTupleHeader)
    assert heap_bytes_per_tuple() > HEAP_BYTES_PER_TUPLE
