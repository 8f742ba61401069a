"""Storage-layer tests: MVCC visibility, heap vacuum, B-tree / GIN indexes,
lock manager, WAL."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.heap import Heap
from repro.engine.index import BTreeIndex, GinIndex, trigrams
from repro.engine.locks import LockManager, WouldBlock, find_cycle
from repro.engine.mvcc import Snapshot, XidManager, tuple_visible
from repro.engine.wal import WriteAheadLog


class TestMvccVisibility:
    def setup_method(self):
        self.xids = XidManager()

    def test_committed_insert_visible(self):
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        self.xids.finish(writer, committed=True)
        snap = self.xids.take_snapshot()
        assert tuple_visible(tup.header, snap, self.xids.clog)

    def test_uncommitted_insert_invisible_to_others(self):
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        snap = self.xids.take_snapshot()  # writer still active
        assert not tuple_visible(tup.header, snap, self.xids.clog)

    def test_own_writes_visible(self):
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        snap = self.xids.take_snapshot(own_xid=writer)
        assert tuple_visible(tup.header, snap, self.xids.clog)

    def test_aborted_insert_invisible(self):
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        self.xids.finish(writer, committed=False)
        snap = self.xids.take_snapshot()
        assert not tuple_visible(tup.header, snap, self.xids.clog)

    def test_committed_delete_hides_tuple(self):
        w1 = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], w1)
        self.xids.finish(w1, committed=True)
        w2 = self.xids.allocate()
        heap.mark_deleted(tup.tid, w2)
        self.xids.finish(w2, committed=True)
        snap = self.xids.take_snapshot()
        assert not tuple_visible(tup.header, snap, self.xids.clog)

    def test_aborted_delete_leaves_tuple_visible(self):
        w1 = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], w1)
        self.xids.finish(w1, committed=True)
        w2 = self.xids.allocate()
        heap.mark_deleted(tup.tid, w2)
        self.xids.finish(w2, committed=False)
        snap = self.xids.take_snapshot()
        assert tuple_visible(tup.header, snap, self.xids.clog)

    def test_snapshot_taken_before_commit_does_not_see(self):
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        snap = self.xids.take_snapshot()
        self.xids.finish(writer, committed=True)
        # Snapshot was taken while writer was in progress: still invisible.
        assert not tuple_visible(tup.header, snap, self.xids.clog)

    def test_future_xid_invisible(self):
        snap = self.xids.take_snapshot()
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        self.xids.finish(writer, committed=True)
        assert not tuple_visible(tup.header, snap, self.xids.clog)

    def test_prepared_txn_stays_invisible(self):
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        self.xids.mark_prepared(writer)
        snap = self.xids.take_snapshot()
        assert not tuple_visible(tup.header, snap, self.xids.clog)
        self.xids.resolve_prepared(writer, committed=True)
        snap = self.xids.take_snapshot()
        assert tuple_visible(tup.header, snap, self.xids.clog)


class TestHeapVacuum:
    def test_vacuum_removes_dead_versions(self):
        xids = XidManager()
        heap = Heap("t")
        w1 = xids.allocate()
        t1 = heap.insert([1], w1)
        xids.finish(w1, True)
        w2 = xids.allocate()
        heap.mark_deleted(t1.tid, w2)
        heap.insert([2], w2, row_id=t1.row_id)
        xids.finish(w2, True)
        removed = heap.vacuum(xids.next_xid, xids.clog)
        assert removed == {t1.tid}
        assert len(heap.tuples) == 1
        assert heap.tuples[0].values == [2]

    def test_vacuum_keeps_versions_visible_to_old_snapshots(self):
        xids = XidManager()
        heap = Heap("t")
        w1 = xids.allocate()
        t1 = heap.insert([1], w1)
        xids.finish(w1, True)
        old_reader = xids.allocate()  # long-running txn
        w2 = xids.allocate()
        heap.mark_deleted(t1.tid, w2)
        xids.finish(w2, True)
        removed = heap.vacuum(old_reader, xids.clog)
        assert removed == set()  # xmax >= oldest active: keep

    def test_page_accounting(self):
        heap = Heap("t")
        xids = XidManager()
        w = xids.allocate()
        for i in range(100):
            heap.insert([i, "x" * 100], w)
        assert heap.total_bytes > 100 * 100
        assert heap.page_count >= 2


class TestBTreeIndex:
    def test_insert_and_equal_scan(self):
        index = BTreeIndex(1)
        for i, tid in [(5, 1), (3, 2), (5, 3), (7, 4)]:
            index.insert([i], tid)
        assert index.scan_equal([5]) == [1, 3]

    def test_range_scan(self):
        index = BTreeIndex(1)
        for i in range(10):
            index.insert([i], i + 100)
        assert index.scan_range(3, 6) == [103, 104, 105, 106]
        assert index.scan_range(3, 6, low_inclusive=False) == [104, 105, 106]
        assert index.scan_range(3, 6, high_inclusive=False) == [103, 104, 105]
        assert index.scan_range(None, 2) == [100, 101, 102]
        assert index.scan_range(8, None) == [108, 109]

    def test_composite_prefix_scan(self):
        index = BTreeIndex(2)
        index.insert([1, "a"], 1)
        index.insert([1, "b"], 2)
        index.insert([2, "a"], 3)
        assert index.scan_equal([1]) == [1, 2]
        assert index.scan_equal([1, "b"]) == [2]

    def test_delete(self):
        index = BTreeIndex(1)
        index.insert([1], 10)
        index.insert([1], 11)
        index.insert([2], 12)
        index.bulk_delete({10, 12})
        assert index.scan_equal([1]) == [11]
        assert index.scan_all() == [11]
        assert len(index) == 1

    @given(st.lists(st.integers(min_value=-100, max_value=100), max_size=60))
    def test_property_scan_all_is_sorted(self, keys):
        index = BTreeIndex(1)
        for tid, key in enumerate(keys):
            index.insert([key], tid)
        values = [keys[tid] for tid in index.scan_all()]
        assert values == sorted(values)

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=60),
           st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=50))
    def test_property_range_scan_equals_filter(self, keys, lo, hi):
        index = BTreeIndex(1)
        for tid, key in enumerate(keys):
            index.insert([key], tid)
        got = sorted(index.scan_range(lo, hi))
        expected = sorted(t for t, k in enumerate(keys) if lo <= k <= hi)
        assert got == expected


class TestGinIndex:
    def test_trigram_extraction(self):
        grams = trigrams("fix postgres")
        assert "pos" in grams and "fix" in grams

    def test_substring_search(self):
        index = GinIndex()
        index.insert("fix the postgres planner", 1)
        index.insert("update readme", 2)
        index.insert("postgresql rocks", 3)
        assert index.search_substring("postgres") == {1, 3}

    def test_short_needle_returns_none(self):
        index = GinIndex()
        index.insert("abc", 1)
        assert index.search_substring("ab") is None  # too short: seq scan

    def test_delete(self):
        index = GinIndex()
        index.insert("hello world", 1)
        index.insert("hello there", 2)
        index.bulk_delete({1})
        assert index.search_substring("hello") == {2}
        assert index.search_substring("world") == set()
        assert index.entry_count == len(trigrams("hello there"))

    def test_candidates_are_superset_not_exact(self):
        # GIN may return false positives (recheck needed), never misses.
        index = GinIndex()
        texts = ["abcdef", "defabc", "xyzabc", "nothing here"]
        for tid, text in enumerate(texts):
            index.insert(text, tid)
        candidates = index.search_substring("abc")
        actual = {t for t, text in enumerate(texts) if "abc" in text}
        assert actual <= candidates


def _needle_grams(needle: str) -> set[str]:
    return {word[i : i + 3] for word in needle.lower().split() for i in range(len(word) - 2)}


_gin_words = st.text(alphabet="abc", min_size=1, max_size=6)
_gin_texts = st.lists(_gin_words, max_size=5).map(" ".join)


class TestGinOracle:
    """GinIndex against brute force over random documents, out-of-order
    TIDs and bulk deletes."""

    @given(st.dictionaries(st.integers(min_value=1, max_value=200), _gin_texts, max_size=30),
           st.randoms(use_true_random=False),
           st.sets(st.integers(min_value=1, max_value=200), max_size=20),
           st.lists(_gin_texts, min_size=1, max_size=10))
    def test_matches_brute_force(self, docs, rng, dead, needles):
        index = GinIndex()
        order = list(docs)
        rng.shuffle(order)
        for tid in order + order[: len(order) // 2]:  # re-inserts add nothing
            index.insert(docs[tid], tid)
        index.bulk_delete(dead)
        live = {tid: trigrams(text) for tid, text in docs.items() if tid not in dead}

        for needle in needles + list(docs.values())[:5]:
            grams = _needle_grams(needle)
            got = index.search_substring(needle)
            if not grams:
                assert got is None
            else:
                assert got == {tid for tid, doc in live.items() if grams <= doc}

        postings = index._postings.values()
        assert all(list(p) == sorted(set(p)) and len(p) > 0 for p in postings)
        assert index.entry_count == sum(len(p) for p in postings)
        assert index.entry_count == sum(len(g) for g in live.values())


class TestVacuumIndexCleanup:
    def test_vacuum_bulk_deletes_stale_index_entries(self, session):
        session.execute("CREATE TABLE docs (id int PRIMARY KEY, n int, body text)")
        session.execute("CREATE INDEX docs_body ON docs USING gin (body gin_trgm_ops)")
        session.execute("INSERT INTO docs VALUES (1, 0, 'fix postgres planner'),"
                        " (2, 0, 'update readme'), (3, 0, 'postgres rocks')")
        table = session.instance.catalog.get_table("docs")
        btree = table.indexes["docs_pkey"].data
        gin = table.indexes["docs_body"].data
        one_version = gin.entry_count
        queries = ["SELECT id, n FROM docs WHERE body ILIKE '%postgres%' ORDER BY id",
                   "SELECT id, n FROM docs WHERE id = 1", "SELECT count(*) FROM docs"]
        for _ in range(50):
            session.execute("UPDATE docs SET n = n + 1 WHERE id = 1")
        answers = [session.execute(q).rows for q in queries]
        assert len(btree) == 53 and gin.entry_count > one_version

        assert session.execute("VACUUM docs").rowcount == 50
        assert len(btree) == 3
        assert gin.entry_count == one_version
        assert [session.execute(q).rows for q in queries] == answers
        assert answers[1] == [[1, 50]]


class TestLockManager:
    def test_row_lock_conflict(self):
        locks = LockManager()
        locks.acquire_row("t", 1, xid=10)
        with pytest.raises(WouldBlock):
            locks.acquire_row("t", 1, xid=11)

    def test_row_lock_reentrant(self):
        locks = LockManager()
        locks.acquire_row("t", 1, xid=10)
        locks.acquire_row("t", 1, xid=10)

    def test_row_lock_release_allows_next(self):
        locks = LockManager()
        locks.acquire_row("t", 1, xid=10)
        locks.release_all(10)
        locks.acquire_row("t", 1, xid=11)

    def test_table_lock_conflict_matrix(self):
        locks = LockManager()
        locks.acquire_table("t", "RowExclusive", xid=1)
        locks.acquire_table("t", "RowExclusive", xid=2)  # compatible
        with pytest.raises(WouldBlock):
            locks.acquire_table("t", "AccessExclusive", xid=3)

    def test_access_share_blocks_only_access_exclusive(self):
        locks = LockManager()
        locks.acquire_table("t", "AccessShare", xid=1)
        locks.acquire_table("t", "Exclusive", xid=2)
        with pytest.raises(WouldBlock):
            locks.acquire_table("t", "AccessExclusive", xid=3)

    def test_wait_edges_and_cycle(self):
        locks = LockManager()
        locks.add_wait(1, {2})
        locks.add_wait(2, {3})
        assert locks.find_local_cycle() is None
        locks.add_wait(3, {1})
        cycle = locks.find_local_cycle()
        assert set(cycle) == {1, 2, 3}

    def test_release_clears_wait_edges(self):
        locks = LockManager()
        locks.add_wait(1, {2})
        locks.release_all(2)
        assert locks.wait_graph_edges() == []

    def test_transfer_preserves_locks(self):
        locks = LockManager()
        locks.acquire_row("t", 1, xid=10)
        locks.transfer(10, 20)
        with pytest.raises(WouldBlock):
            locks.acquire_row("t", 1, xid=30)
        locks.acquire_row("t", 1, xid=20)  # new owner re-acquires fine

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20))
    def test_property_find_cycle_is_real(self, edge_list):
        edges = {}
        for a, b in edge_list:
            if a != b:
                edges.setdefault(a, set()).add(b)
        cycle = find_cycle(edges)
        if cycle is not None:
            # Verify: each consecutive pair is an edge, and it wraps.
            for i, node in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                assert nxt in edges.get(node, set())


class TestWal:
    def test_append_and_lsn_monotonic(self):
        wal = WriteAheadLog()
        r1 = wal.append(1, "insert", {"table": "t"})
        r2 = wal.append(1, "commit")
        assert r2.lsn == r1.lsn + 1

    def test_restore_point_lookup(self):
        wal = WriteAheadLog()
        wal.append(1, "insert", {})
        lsn = wal.create_restore_point("rp")
        wal.append(2, "insert", {})
        assert wal.find_restore_point("rp") == lsn
        assert wal.find_restore_point("missing") is None

    def test_records_until(self):
        wal = WriteAheadLog()
        wal.append(1, "insert", {})
        lsn = wal.create_restore_point("rp")
        wal.append(2, "insert", {})
        assert len(wal.records_until(lsn)) == 2

    def test_clone_is_independent(self):
        wal = WriteAheadLog()
        wal.append(1, "insert", {})
        clone = wal.clone()
        wal.append(2, "insert", {})
        assert len(clone.records) == 1
        assert len(wal.records) == 2

    def test_bytes_accounting_grows(self):
        wal = WriteAheadLog()
        before = wal.bytes_written
        wal.append(1, "insert", {"values": ["x" * 100]})
        assert wal.bytes_written >= before + 64
