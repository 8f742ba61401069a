"""Streaming tuple pipeline: cursor-based engine execution, batched wire
transfer, and the streaming coordinator merge.

Covers the pull-based data plane end to end:

- engine layer: ``EngineCursor`` semantics and genuine lazy scans (a
  satisfied LIMIT stops the heap scan early);
- wire layer: ``RemoteCursor`` per-batch byte-size charging and early
  ``close()``, plus the ``copy_rows`` closed-connection/up-front-charge fix;
- executor/merge layer: bounded coordinator buffering (the acceptance
  criterion: ``rows_buffered_peak`` ≤ batch_size × shard_count for a
  multi-shard ORDER BY … LIMIT over ≥ 10k rows), LIMIT early-stop skipping
  undispatched tasks, result parity with the materializing fallback, and
  the new ``citus_stat_counters()`` entries;
- the satellite regressions: parked statements while cursors are open, and
  ``accessed_groups`` affinity clearing after non-transactional statements.
"""

import pytest

from repro import make_cluster
from repro.errors import NodeUnavailable

from .conftest import find_keys_on_distinct_nodes


def counters_dict(session):
    """citus_stat_counters() rows as {(name, node): value}."""
    rows = session.execute("SELECT citus_stat_counters()").rows
    out = {}
    for (entries,) in rows:
        for name, node, value in entries:
            out[(name, node)] = value
    return out


def counter_total(session, name):
    return sum(v for (n, _node), v in counters_dict(session).items() if n == name)


@pytest.fixture
def big(citus):
    """10k rows across 8 shards on the 2-worker cluster."""
    s = citus.coordinator_session()
    s.execute("CREATE TABLE events (k int PRIMARY KEY, v int, label text)")
    s.execute("SELECT create_distributed_table('events', 'k')")
    rows = [[k, k % 500, f"label-{k}"] for k in range(1, 10_001)]
    s.copy_rows("events", rows, ["k", "v", "label"])
    return s


def run_materialized(citus, session, sql, params=None):
    """Execute with the streaming pipeline disabled (the fallback plane)."""
    ext = citus.coordinator_ext
    ext.config.enable_streaming_pipeline = False
    try:
        return session.execute(sql, params)
    finally:
        ext.config.enable_streaming_pipeline = True


# --------------------------------------------------------------- acceptance


class TestBoundedBuffering:
    def test_order_by_limit_bounded_peak(self, citus, big):
        """The acceptance criterion: a multi-shard ORDER BY … LIMIT 10 over
        10k rows / 8 shards keeps the coordinator buffer bounded, asserted
        against citus_stat_counters()."""
        ext = citus.coordinator_ext
        result = big.execute("SELECT k, v FROM events ORDER BY v, k LIMIT 10")
        assert len(result.rows) == 10

        batch_size = ext.config.stream_batch_size
        shard_count = 8
        report = ext.executor.last_report
        assert report.task_count == shard_count
        assert 0 < report.rows_buffered_peak <= batch_size * shard_count

        counters = counters_dict(big)
        gauge_peak = counters[("rows_buffered_peak", None)]
        assert 0 < gauge_peak <= batch_size * shard_count

    def test_peak_far_below_total_rows(self, citus, big):
        # Streaming the full 10k-row table through an un-limited ORDER BY
        # must never buffer anything near the total result.
        big.execute("SELECT k FROM events ORDER BY v")
        report = citus.coordinator_ext.executor.last_report
        assert report.rows_buffered_peak < 10_000 / 2

    def test_group_merge_buffer_is_one_batch(self, citus, big):
        big.execute("SELECT v, count(*) FROM events GROUP BY v")
        report = citus.coordinator_ext.executor.last_report
        # Incremental merge holds at most one in-flight worker batch.
        assert report.rows_buffered_peak <= citus.coordinator_ext.config.stream_batch_size


class TestEarlyTermination:
    def test_limit_without_order_skips_tasks(self, citus, big):
        result = big.execute("SELECT k FROM events LIMIT 5")
        assert len(result.rows) == 5
        report = citus.coordinator_ext.executor.last_report
        assert report.early_terminations == 1
        # Only the stream(s) needed to satisfy the LIMIT were dispatched.
        assert report.tasks_skipped >= 6

    def test_early_termination_counter_exposed(self, citus, big):
        before = counter_total(big, "early_terminations")
        big.execute("SELECT k FROM events LIMIT 1")
        big.execute("SELECT k, v FROM events ORDER BY v LIMIT 1")
        assert counter_total(big, "early_terminations") == before + 2

    def test_full_drain_is_not_early_terminated(self, citus, big):
        before = counter_total(big, "early_terminations")
        big.execute("SELECT count(*) FROM events")
        big.execute("SELECT k FROM events WHERE v = 1")
        assert counter_total(big, "early_terminations") == before


class TestStreamingCounters:
    def test_bytes_and_batches_counted(self, citus, big):
        before = counters_dict(big)
        big.execute("SELECT k, v, label FROM events WHERE v < 50")
        after = counters_dict(big)
        batches = sum(
            after.get(("batches_fetched", w), 0) - before.get(("batches_fetched", w), 0)
            for w in citus.worker_names()
        )
        bytes_streamed = sum(
            after.get(("bytes_streamed", w), 0) - before.get(("bytes_streamed", w), 0)
            for w in citus.worker_names()
        )
        assert batches > 0
        assert bytes_streamed > 0
        report = citus.coordinator_ext.executor.last_report
        assert report.batches_fetched == batches
        assert report.bytes_streamed == bytes_streamed

    def test_payload_charged_from_actual_row_bytes(self, citus, big):
        # Wider rows must charge more bytes than narrow ones for the same
        # row count (bandwidth-aware accounting, not a flat guess).
        big.execute("SELECT k FROM events WHERE v = 7")
        narrow = citus.coordinator_ext.executor.last_report.bytes_streamed
        big.execute("SELECT k, v, label FROM events WHERE v = 7")
        wide = citus.coordinator_ext.executor.last_report.bytes_streamed
        assert wide > narrow

    def test_gauges_settle_to_zero(self, citus, big):
        big.execute("SELECT k FROM events ORDER BY v LIMIT 3")
        big.execute("SELECT v, sum(k) FROM events GROUP BY v")
        counters = counters_dict(big)
        assert counters.get(("executor_statements_in_flight", None), 0) == 0
        for worker in citus.worker_names():
            assert counters.get(("tasks_in_flight", worker), 0) == 0


class TestFirstBatchRidesDispatch:
    """The dispatch response carries each stream's first batch, so every
    dispatched stream makes one fewer trip-costing fetch than a
    DECLARE-then-FETCH protocol would, while what the merge sees is the
    same."""

    def _run(self, citus, session, sql):
        ext = citus.coordinator_ext
        with ext.stat_counters.measure() as delta:
            result = session.execute(sql)
        trace = ext.tracer.buffer[-1]
        dispatched = [sp for sp in trace.find("executor", "task")
                      if not sp.attrs.get("skipped")]
        return result, delta, ext.executor.last_report, dispatched

    @pytest.mark.parametrize("sql", [
        "SELECT k, v FROM events WHERE v < 30",
        "SELECT k, label FROM events",
    ])
    def test_drained_streams(self, citus, big, sql):
        from repro.net.network import estimate_row_bytes

        b = citus.coordinator_ext.config.stream_batch_size
        result, delta, report, dispatched = self._run(citus, big, sql)
        per_task = [sp.attrs["rows"] for sp in dispatched]
        assert len(dispatched) == 8 and sum(per_task) == len(result.rows)
        # Fetch-per-batch would cost n // b + 1 fetch trips for n rows
        # (n // b full batches, then a short batch or the end-of-stream
        # probe); the dispatch carries one of them.
        assert delta.value("wait_count:Net.RemoteFetch") == (
            sum(n // b + 1 for n in per_task) - len(dispatched))
        assert delta.value("wait_count:Net.RemoteDispatch") == len(dispatched)
        assert report.batches_fetched == sum(-(-n // b) for n in per_task)
        assert report.bytes_streamed == sum(
            estimate_row_bytes(r) for r in result.rows)
        assert report.tasks_skipped == 0

    def test_limit_streams(self, citus, big):
        # The workers apply the pushed-down LIMIT, so every shard stream
        # is one short batch that the dispatch alone delivers.
        _, delta, report, dispatched = self._run(
            citus, big, "SELECT k FROM events ORDER BY v, k LIMIT 10")
        assert len(dispatched) == 8
        assert delta.value("wait_count:Net.RemoteFetch") == 0
        assert report.batches_fetched == 8
        assert report.rows_buffered_peak == 8 * 10
        # LIMIT without ORDER BY: one stream dispatched, seven skipped.
        _, delta, report, dispatched = self._run(
            citus, big, "SELECT k FROM events LIMIT 5")
        assert len(dispatched) == 1 and report.tasks_skipped == 7
        assert delta.value("wait_count:Net.RemoteFetch") == 0
        assert report.batches_fetched == 1
        assert report.rows_buffered_peak == 5

    def test_trace_nests_first_batch_in_dispatch(self, citus, big):
        _, _, report, dispatched = self._run(
            citus, big, "SELECT k, v FROM events WHERE v < 30")
        for task in dispatched:
            dispatch = [c for c in task.children if c.name == "dispatch"]
            assert len(dispatch) == 1
            first = dispatch[0].children
            assert [c.name for c in first] == ["batch"]
            assert first[0].attrs["rows"] == task.attrs["rows"]
            assert dispatch[0].start <= first[0].start <= first[0].end
            assert first[0].end == dispatch[0].end
            # A short first batch ends the stream in-band: no fetch spans.
            assert not [c for c in task.children if c.name == "batch"]

    def test_error_in_first_batch_settles_gauges(self, citus, big):
        before = counter_total(big, "tasks_failed")
        with pytest.raises(Exception, match="division by zero"):
            big.execute("SELECT k / (v - v) FROM events")
        assert counter_total(big, "tasks_failed") == before + 1
        counters = counters_dict(big)
        assert counters.get(("executor_statements_in_flight", None), 0) == 0
        for worker in citus.worker_names():
            assert counters.get(("tasks_in_flight", worker), 0) == 0
        assert big.execute("SELECT count(*) FROM events").scalar() == 10_000


# ------------------------------------------------------------------ parity


PARITY_QUERIES = [
    "SELECT k, v FROM events ORDER BY v, k LIMIT 20",
    "SELECT k, v FROM events ORDER BY v DESC, k LIMIT 20",
    "SELECT k FROM events ORDER BY label DESC LIMIT 7",
    "SELECT k, v FROM events ORDER BY 2 DESC, 1 LIMIT 15",
    "SELECT k, v FROM events WHERE v < 30 ORDER BY v, k",
    "SELECT k FROM events ORDER BY v OFFSET 5 LIMIT 10",
    "SELECT DISTINCT v FROM events WHERE v < 40 ORDER BY v",
    "SELECT count(*), sum(v) FROM events",
    "SELECT v, count(*), sum(k) FROM events GROUP BY v ORDER BY v LIMIT 25",
    "SELECT v, count(*) FROM events GROUP BY v HAVING count(*) > 10 ORDER BY v",
    "SELECT avg(v) FROM events WHERE k <= 5000",
]


class TestStreamingMaterializedParity:
    @pytest.mark.parametrize("sql", PARITY_QUERIES)
    def test_same_rows_as_fallback(self, citus, big, sql):
        streamed = big.execute(sql)
        materialized = run_materialized(citus, big, sql)
        assert streamed.columns == materialized.columns
        assert streamed.rows == materialized.rows

    def test_nulls_ordering_parity(self, citus):
        s = citus.coordinator_session()
        s.execute("CREATE TABLE n (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('n', 'k')")
        for k in range(1, 41):
            v = "NULL" if k % 5 == 0 else str(k % 7)
            s.execute(f"INSERT INTO n VALUES ({k}, {v})")
        for sql in [
            "SELECT v, k FROM n ORDER BY v, k",
            "SELECT v, k FROM n ORDER BY v DESC, k LIMIT 11",
            "SELECT v, k FROM n ORDER BY v NULLS FIRST, k",
        ]:
            assert s.execute(sql).rows == run_materialized(citus, s, sql).rows

    def test_streaming_used_inside_transaction_block(self, citus, big):
        # Affinity + txn blocks still stream; results must see own writes.
        big.execute("BEGIN")
        big.execute("UPDATE events SET v = 99999 WHERE k = 17")
        rows = big.execute(
            "SELECT k FROM events WHERE v = 99999 ORDER BY k"
        ).rows
        assert rows == [[17]]
        big.execute("ROLLBACK")

    def test_plan_cache_replay_streams(self, citus, big):
        sql = "SELECT k FROM events WHERE v = $1 ORDER BY k LIMIT 4"
        first = big.execute(sql, [3]).rows
        again = big.execute(sql, [3]).rows  # replayed from the plan cache
        assert first == again
        report = citus.coordinator_ext.executor.last_report
        assert report.batches_fetched > 0  # replay went through streams


PLANE_COST_QUERIES = {
    "topn": "SELECT f_id, amount FROM facts WHERE cat = 3"
            " ORDER BY amount DESC, f_id LIMIT 10",
    "ref_join": "SELECT d.region, count(*), sum(f.amount) FROM facts f"
                " JOIN dims d ON f.cat = d.d_id WHERE f.day = 2"
                " GROUP BY d.region ORDER BY d.region",
    "colocated_join": "SELECT count(*), sum(i.qty * i.price) FROM facts f"
                      " JOIN items i ON f.f_id = i.f_id WHERE f.cust_id < 40",
}


class TestPlaneCostParity:
    """A multi-shard SELECT whose shard results each fit in one batch
    costs the streaming plane no more simulated time than the
    materializing plane."""

    @pytest.fixture
    def facts(self, citus):
        s = citus.coordinator_session()
        s.execute("CREATE TABLE facts (f_id int PRIMARY KEY, cust_id int,"
                  " cat int, amount int, day int)")
        s.execute("SELECT create_distributed_table('facts', 'f_id')")
        s.execute("CREATE TABLE items (f_id int, line int, qty int,"
                  " price int, PRIMARY KEY (f_id, line))")
        s.execute("SELECT create_distributed_table('items', 'f_id',"
                  " colocate_with := 'facts')")
        s.execute("CREATE TABLE dims (d_id int PRIMARY KEY, region int)")
        s.execute("SELECT create_reference_table('dims')")
        s.copy_rows("facts", [[i, i % 97, i % 20, (i * 37) % 1000, i % 7]
                              for i in range(2000)])
        s.copy_rows("items", [[i, line, 1 + (i + line) % 9, 1 + i % 99]
                              for i in range(2000) for line in range(i % 3)])
        s.copy_rows("dims", [[d, d % 5] for d in range(20)])
        return s

    @pytest.mark.parametrize("shape", sorted(PLANE_COST_QUERIES))
    def test_streaming_costs_no_more_than_materialized(self, citus, facts,
                                                       shape):
        sql = PLANE_COST_QUERIES[shape]
        clock = citus.cluster.clock

        def timed(run):
            run()  # warm: pooled connections, caches
            start = clock.now()
            result = run()
            return result, clock.now() - start

        streamed, t_stream = timed(lambda: facts.execute(sql))
        materialized, t_mat = timed(
            lambda: run_materialized(citus, facts, sql))
        assert streamed.columns == materialized.columns
        assert streamed.rows == materialized.rows and streamed.rows
        # Compared at nanosecond resolution: the two differences are taken
        # at different absolute clock readings, so they round differently
        # in the last float digits.
        assert 0 < round(t_stream, 9) <= round(t_mat, 9)


# ----------------------------------------------------------------- EXPLAIN


class TestMergeStrategyExplain:
    def test_merge_append_rendered(self, citus, big):
        text = big.execute(
            "SELECT citus_explain('SELECT k FROM events ORDER BY v LIMIT 5')"
        ).scalar()
        assert "Merge: MergeAppend (streaming)" in text

    def test_limit_early_stop_rendered(self, citus, big):
        text = big.execute(
            "SELECT citus_explain('SELECT k FROM events LIMIT 5')"
        ).scalar()
        assert "Merge: Concat + LIMIT (early-stop)" in text

    def test_group_merge_rendered(self, citus, big):
        text = big.execute(
            "SELECT citus_explain('SELECT v, count(*) FROM events GROUP BY v')"
        ).scalar()
        assert "Merge: GroupAggregate Merge (incremental)" in text

    def test_plain_concat_rendered(self, citus, big):
        text = big.execute(
            "SELECT citus_explain('SELECT k FROM events WHERE v = 1')"
        ).scalar()
        assert "Merge: Concat (streaming)" in text


# ------------------------------------------------------------- engine layer


class TestEngineCursor:
    def test_fetch_batches_and_exhaustion(self, session):
        session.execute("CREATE TABLE t (k int, v int)")
        for k in range(10):
            session.execute(f"INSERT INTO t VALUES ({k}, {k * 10})")
        from repro.sql import parse

        stmt = parse("SELECT k FROM t")[0]
        cursor = session.execute_parsed_cursor(stmt)
        assert cursor is not None
        batches = []
        while True:
            batch = cursor.fetch(4)
            if not batch:
                break
            batches.append(batch)
        assert [len(b) for b in batches] == [4, 4, 2]
        assert cursor.exhausted
        assert cursor.fetch(4) == []

    def test_limit_stops_heap_scan_early(self, session):
        session.execute("CREATE TABLE t (k int, v int)")
        for k in range(200):
            session.execute(f"INSERT INTO t VALUES ({k}, {k})")
        from repro.sql import parse

        before = session.stats["tuples_scanned"]
        stmt = parse("SELECT k FROM t LIMIT 5")[0]
        cursor = session.execute_parsed_cursor(stmt)
        rows = cursor.fetch(100)
        assert len(rows) == 5
        scanned = session.stats["tuples_scanned"] - before
        # Genuinely lazy: the scan stopped at the LIMIT instead of reading
        # all 200 heap tuples.
        assert scanned <= 10

    def test_close_releases_and_autocommits(self, session):
        session.execute("CREATE TABLE t (k int)")
        session.execute("INSERT INTO t VALUES (1)")
        from repro.sql import parse

        cursor = session.execute_parsed_cursor(parse("SELECT k FROM t")[0])
        assert session._open_cursors == 1
        cursor.close()
        assert session._open_cursors == 0
        # Completion ran: the next statement starts a fresh snapshot.
        assert session.execute("SELECT count(*) FROM t").scalar() == 1

    def test_non_select_returns_none(self, session):
        session.execute("CREATE TABLE t (k int)")
        from repro.sql import parse

        assert session.execute_parsed_cursor(parse("INSERT INTO t VALUES (1)")[0]) is None

    def test_sorted_select_materializes_but_batches(self, session):
        session.execute("CREATE TABLE t (k int)")
        for k in (3, 1, 2):
            session.execute(f"INSERT INTO t VALUES ({k})")
        from repro.sql import parse

        cursor = session.execute_parsed_cursor(parse("SELECT k FROM t ORDER BY k")[0])
        assert cursor.fetch(2) == [[1], [2]]
        assert cursor.fetch(2) == [[3]]


# --------------------------------------------------------------- wire layer


class TestRemoteCursor:
    def _cluster_conn(self):
        cluster = make_cluster(workers=1, shard_count=2)
        self.cluster = cluster
        conn = cluster.cluster.connect("worker1")
        session = conn.session
        session.execute("CREATE TABLE w (k int, pad text)")
        for k in range(30):
            session.execute(f"INSERT INTO w VALUES ({k}, 'x{k}')")
        return conn

    def test_per_batch_round_trips_and_bytes(self):
        conn = self._cluster_conn()
        from repro.sql import parse

        trips_before = conn.round_trips
        cursor = conn.execute_cursor(parse("SELECT k, pad FROM w")[0], batch_size=10)
        # The dispatch response carries batch 1: one trip for both.
        assert conn.round_trips == trips_before + 1
        b1 = cursor.fetch_batch()
        assert len(b1) == 10
        assert conn.round_trips == trips_before + 1
        assert cursor.last_payload > 0
        assert cursor.bytes_fetched == cursor.last_payload
        assert len(cursor.fetch_batch()) == 10
        assert conn.round_trips == trips_before + 2
        assert len(cursor.fetch_batch()) == 10
        assert conn.round_trips == trips_before + 3
        # A full last batch: observing end-of-stream costs one more trip.
        assert cursor.fetch_batch() is None
        assert conn.round_trips == trips_before + 4
        assert cursor.exhausted
        assert cursor.rows_fetched == 30
        assert cursor.batches_fetched == 3

    @pytest.mark.parametrize("where, rows", [("k < 4", 4), ("k < 0", 0)])
    def test_short_or_empty_result_costs_one_trip(self, where, rows):
        """A result that fits in the first batch costs exactly what the
        blocking ``execute_parsed`` of the same statement costs."""
        conn = self._cluster_conn()
        blocking = self.cluster.cluster.connect("worker1")
        from repro.sql import parse

        stmt = parse(f"SELECT k, pad FROM w WHERE {where}")[0]
        cursor = conn.execute_cursor(stmt, batch_size=10)
        assert cursor.exhausted  # short/empty first batch: in-band EOF
        drained = []
        while (batch := cursor.fetch_batch()) is not None:
            drained.extend(batch)
        cursor.close()
        result = blocking.execute_parsed(stmt)
        assert drained == result.rows and len(drained) == rows
        assert conn.round_trips == blocking.round_trips == 1
        assert conn.elapsed == blocking.elapsed
        assert conn.bytes_transferred == blocking.bytes_transferred

    def test_error_in_first_batch_raises_from_dispatch(self):
        conn = self._cluster_conn()
        from repro.errors import SQLError
        from repro.sql import parse

        with pytest.raises(SQLError):
            conn.execute_cursor(parse("SELECT 1 / (k - k) FROM w")[0],
                                batch_size=10)
        assert conn.round_trips == 1  # the request crossed the wire

    def test_bigger_rows_cost_more(self):
        from repro.net.network import estimate_row_bytes

        assert estimate_row_bytes([1, "abcdef"]) > estimate_row_bytes([1, "a"])
        assert estimate_row_bytes([None]) < estimate_row_bytes([12345])

    def test_early_close_charges_one_small_trip(self):
        conn = self._cluster_conn()
        from repro.sql import parse

        cursor = conn.execute_cursor(parse("SELECT k FROM w")[0], batch_size=5)
        trips = conn.round_trips
        assert len(cursor.fetch_batch()) == 5  # the folded first batch
        assert conn.round_trips == trips
        elapsed = conn.elapsed
        cursor.close()
        assert conn.round_trips == trips + 1  # CLOSE message
        assert conn.elapsed > elapsed
        assert cursor.fetch_batch() is None

    def test_close_before_first_fetch_charges_close(self):
        conn = self._cluster_conn()
        from repro.sql import parse

        cursor = conn.execute_cursor(parse("SELECT k FROM w")[0], batch_size=5)
        trips = conn.round_trips
        cursor.close()
        assert conn.round_trips == trips + 1
        assert cursor.fetch_batch() is None
        assert cursor.batches_fetched == 0

    def test_fetch_on_closed_connection_raises(self):
        conn = self._cluster_conn()
        from repro.sql import parse

        cursor = conn.execute_cursor(parse("SELECT k FROM w")[0], batch_size=5)
        conn.closed = True
        with pytest.raises(NodeUnavailable):
            cursor.fetch_batch()


class TestCopyRowsFix:
    def test_closed_connection_raises_before_copy(self):
        cluster = make_cluster(workers=1, shard_count=2)
        conn = cluster.cluster.connect("worker1")
        conn.session.execute("CREATE TABLE c (k int)")
        conn.closed = True
        with pytest.raises(NodeUnavailable):
            conn.copy_rows("c", [[1]])
        # Nothing was copied on the worker.
        other = cluster.cluster.connect("worker1")
        assert other.session.execute("SELECT count(*) FROM c").scalar() == 0

    def test_round_trip_charged_up_front(self):
        cluster = make_cluster(workers=1, shard_count=2)
        conn = cluster.cluster.connect("worker1")
        conn.session.execute("CREATE TABLE c (k int)")
        trips = conn.round_trips
        elapsed = conn.elapsed
        with pytest.raises(Exception):
            conn.copy_rows("missing_table", [[1], [2]])
        # The wire exchange happened even though the copy failed.
        assert conn.round_trips == trips + 1
        assert conn.elapsed > elapsed


# --------------------------------------------- satellites: parked + affinity


class TestParkedStatementsWithOpenCursors:
    def test_remote_block_parks_while_streams_drain(self, citus):
        s = citus.coordinator_session("writer")
        s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('t', 'k')")
        for k in range(1, 41):
            s.execute(f"INSERT INTO t VALUES ({k}, 0)")
        k1, _ = find_keys_on_distinct_nodes(citus, "t")

        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])

        other = citus.coordinator_session("reader")
        # The multi-shard streaming SELECT takes only AccessShare locks and
        # must drain cleanly while the row lock is held elsewhere.
        assert other.execute("SELECT count(*) FROM t").scalar() == 40

        # A conflicting single-task write parks on the remote lock
        # (RemoteBlocked) instead of failing, with cursors having come and
        # gone on the same worker sessions.
        handle = other.execute_async(f"UPDATE t SET v = 2 WHERE k = {k1}")
        assert not handle.done
        # While parked, further streaming statements on the *writer* session
        # (which holds the lock) still work.
        assert s.execute("SELECT count(*) FROM t WHERE v = 1").scalar() == 1
        s.execute("COMMIT")
        citus.pump()
        assert handle.done and handle.error is None
        assert other.execute(
            "SELECT v FROM t WHERE k = $1", [k1]
        ).scalar() == 2

    def test_worker_session_defers_commit_until_cursors_close(self, citus):
        s = citus.coordinator_session()
        s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('t', 'k')")
        for k in range(1, 9):
            s.execute(f"INSERT INTO t VALUES ({k}, {k})")
        # Two concurrent portals on one backend: completion only when both
        # have finished.
        worker = citus.cluster.node("worker1")
        ws = worker.connect()
        ws.execute("CREATE TABLE plain (k int)")
        ws.execute("INSERT INTO plain VALUES (1), (2), (3)")
        from repro.sql import parse

        c1 = ws.execute_parsed_cursor(parse("SELECT k FROM plain")[0])
        c2 = ws.execute_parsed_cursor(parse("SELECT k FROM plain")[0])
        assert ws._open_cursors == 2
        while c1.fetch(2):
            pass
        assert ws._open_cursors == 1
        c2.close()
        assert ws._open_cursors == 0


class TestAffinityClearing:
    def test_accessed_groups_cleared_after_streaming_select(self, citus, big):
        from repro.citus.executor.placement import SessionPools

        big.execute("SELECT k FROM events ORDER BY v LIMIT 5")
        pools = SessionPools.for_session(big, citus.coordinator_ext)
        assert all(not c.accessed_groups for c in pools.all_connections())

    def test_accessed_groups_cleared_after_autocommit_write(self, citus, big):
        from repro.citus.executor.placement import SessionPools

        big.execute("UPDATE events SET v = v WHERE k = 1")
        pools = SessionPools.for_session(big, citus.coordinator_ext)
        assert all(not c.accessed_groups for c in pools.all_connections())

    def test_affinity_pins_survive_inside_block(self, citus, big):
        from repro.citus.executor.placement import SessionPools

        big.execute("BEGIN")
        big.execute("UPDATE events SET v = v + 1 WHERE k = 1")
        big.execute("SELECT count(*) FROM events")  # streaming read in txn
        pools = SessionPools.for_session(big, citus.coordinator_ext)
        assert any(c.accessed_groups for c in pools.all_connections())
        big.execute("ROLLBACK")
        big.execute("SELECT count(*) FROM events")
        assert all(not c.accessed_groups for c in pools.all_connections())


# ----------------------------------------------------------- fallback plane


class TestMaterializedFallback:
    def test_disabled_pipeline_uses_execute_tasks(self, citus, big):
        ext = citus.coordinator_ext
        ext.config.enable_streaming_pipeline = False
        try:
            result = big.execute("SELECT k FROM events ORDER BY v LIMIT 5")
            assert len(result.rows) == 5
            report = ext.executor.last_report
            assert report.batches_fetched == 0
            assert report.bytes_streamed == 0
        finally:
            ext.config.enable_streaming_pipeline = True

    def test_streaming_report_fields_default_zero(self, citus, big):
        # Single-task router queries use the blocking path.
        big.execute("SELECT v FROM events WHERE k = 1")
        report = citus.coordinator_ext.executor.last_report
        assert report.rows_buffered_peak == 0
        assert report.early_terminations == 0
