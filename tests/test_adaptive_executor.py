"""Adaptive executor tests: slow start, shared connection limits,
connection caching, and transaction affinity (§3.6.1)."""

import pytest

from repro import make_cluster
from tests.conftest import find_keys_on_distinct_nodes


@pytest.fixture
def s(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
    s.execute("SELECT create_distributed_table('t', 'k')")
    for k in range(1, 17):
        s.execute("INSERT INTO t VALUES ($1, $2)", [k, k])
    return s


#: The three execution shapes, each over the same 8 shards of ``t``: read
#: streams, the blocking task list, and COPY channels fed by a repartition
#: INSERT..SELECT (``dst`` is keyed by ``t.v``).
SHAPES = {
    "stream_select": "SELECT * FROM t",
    "multi_shard_update": "UPDATE t SET v = v + 1",
    "copy_insert_select": "INSERT INTO dst (id, val) SELECT v, k FROM t",
}


def _shape_cluster():
    """A fresh cluster loaded like the ``s`` fixture, plus ``dst``."""
    citus = make_cluster(workers=2, shard_count=8)
    s = citus.coordinator_session()
    s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
    s.execute("SELECT create_distributed_table('t', 'k')")
    for k in range(1, 17):
        s.execute("INSERT INTO t VALUES ($1, $2)", [k, k])
    s.execute("CREATE TABLE dst (id int, val int)")
    s.execute("SELECT create_distributed_table('dst', 'id')")
    return citus, s


def _each_shape(**config):
    """Run every shape on its own fresh cluster with ``config`` applied;
    yields (shape, session, execution report)."""
    for shape, sql in SHAPES.items():
        citus, s = _shape_cluster()
        for name, value in config.items():
            setattr(citus.coordinator_ext.config, name, value)
        s.execute(sql)
        yield shape, s, citus.coordinator_ext.executor.last_report


def _counter_total(s, name: str) -> int:
    rows = s.execute("SELECT citus_stat_counters()").scalar()
    return sum(value for counter, node, value in rows
               if counter == name and node is not None)


class TestSlowStart:
    def test_single_task_uses_one_connection(self, citus, s):
        executor = citus.coordinator_ext.executor
        s.execute("SELECT * FROM t WHERE k = 1")
        report = executor.last_report
        assert report.task_count == 1
        assert report.connections_used == 1

    def test_fast_tasks_do_not_fan_out(self):
        # Sub-millisecond tasks finish before the 10ms slow-start step, so
        # few extra connections open even with 4 tasks per worker.
        for shape, _s, report in _each_shape():
            assert report.task_count == 8, shape
            assert report.connections_used <= 4, shape  # ~1-2 per worker

    def test_slow_tasks_open_more_connections(self):
        # Make per-row cost large so each task takes >> 10ms: slow start
        # should ramp up parallelism.
        for shape, _s, report in _each_shape(per_row_cpu_cost=0.02):
            assert report.connections_used > 2, shape

    def test_elapsed_is_max_not_sum(self):
        # 16 rows over 8 tasks: the sum of costs would be >= 0.16s; the
        # parallel max must be lower.
        for shape, _s, report in _each_shape(per_row_cpu_cost=0.01):
            assert report.elapsed < 0.16, shape

    def test_cold_start_same_for_reads_and_writes(self):
        # On a fresh session every shape opens a node's connections by the
        # same rule, so a multi-shard SELECT and UPDATE over the same shards
        # open as many connections and take the same time. The tasks' own
        # costs differ only by their payload bytes (well under 1 us).
        def cold(sql):
            citus, _setup = _shape_cluster()
            fresh = citus.coordinator_session()
            before = citus.cluster.clock.now()
            fresh.execute(sql)
            report = citus.coordinator_ext.executor.last_report
            return (report.connections_opened,
                    citus.cluster.clock.now() - before)

        select_opened, select_elapsed = cold(SHAPES["stream_select"])
        update_opened, update_elapsed = cold(SHAPES["multi_shard_update"])
        assert select_opened == update_opened == 4
        assert select_elapsed == pytest.approx(update_elapsed, abs=1e-6)


class TestSharedConnectionLimit:
    def test_limit_caps_fanout(self):
        for shape, s, report in _each_shape(max_shared_pool_size=1,
                                            per_row_cpu_cost=0.02):
            # 1 slot per worker (the first is never starved): ≤ 2 total.
            assert report.connections_used <= 2, shape
            assert _counter_total(s, "shared_pool_throttled") > 0, shape

    def test_slots_released_on_pool_close(self, citus, s):
        from repro.citus.executor.placement import SessionPools

        ext = citus.coordinator_ext
        s.execute("SELECT count(*) FROM t")
        used_before = dict(ext._shared_slots)
        pools = SessionPools.for_session(s, ext)
        pools.close_all()
        assert sum(ext._shared_slots.values()) < sum(used_before.values())


class TestConnectionCaching:
    def test_connections_used_counts_only_this_statement(self, citus, s):
        # A wide slow SELECT leaves several connections cached per worker;
        # a router SELECT afterwards places work on one of them only.
        config = citus.coordinator_ext.config
        old = config.per_row_cpu_cost
        config.per_row_cpu_cost = 0.02
        try:
            s.execute("SELECT * FROM t")
        finally:
            config.per_row_cpu_cost = old
        assert citus.coordinator_ext.executor.last_report.connections_used > 2
        s.execute("SELECT * FROM t WHERE k = 1")
        report = citus.coordinator_ext.executor.last_report
        assert report.connections_used == 1
        assert report.connections_opened == 0
        assert report.connections_reused == 1

    def test_connections_reused_across_statements(self, citus, s):
        s.execute("SELECT count(*) FROM t")
        opened_first = s.stats["citus_connections"]
        s.execute("SELECT count(*) FROM t")
        # Second statement reuses cached connections: no growth (or tiny).
        assert s.stats["citus_connections"] == opened_first

    def test_worker_connection_count_bounded(self, citus, s):
        for _ in range(20):
            s.execute("SELECT count(*) FROM t")
        for name in citus.worker_names():
            # One cached connection per session per worker (plus utility).
            assert citus.cluster.node(name).connection_count <= 4


class TestTransactionAffinity:
    def test_same_group_same_connection_in_txn(self, citus, s):
        from repro.citus.executor.placement import SessionPools

        k1, k2 = find_keys_on_distinct_nodes(citus, "t")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        pools = SessionPools.for_session(s, citus.coordinator_ext)
        conn_before = pools.all_connections()
        groups_before = {id(c): set(c.accessed_groups) for c in conn_before}
        s.execute("UPDATE t SET v = 2 WHERE k = $1", [k1])  # same shard
        # No new txn connection was created for the same shard group.
        assert len(pools.txn_connections()) == 1
        s.execute("COMMIT")

    def test_multi_shard_read_sees_txn_writes(self, citus, s):
        # The read of a modified shard must use the writing connection.
        k1, _ = find_keys_on_distinct_nodes(citus, "t")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 777 WHERE k = $1", [k1])
        total = s.execute("SELECT count(*) FROM t WHERE v = 777").scalar()
        assert total == 1
        s.execute("ROLLBACK")

    def test_affinity_cleared_after_commit(self, citus, s):
        from repro.citus.executor.placement import SessionPools

        k1, _ = find_keys_on_distinct_nodes(citus, "t")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        s.execute("COMMIT")
        pools = SessionPools.for_session(s, citus.coordinator_ext)
        assert all(not c.accessed_groups for c in pools.all_connections())
        assert all(not c.in_txn_block for c in pools.all_connections())


class TestClockAccounting:
    def test_clock_advances_with_queries(self, citus, s):
        before = citus.cluster.clock.now()
        s.execute("SELECT count(*) FROM t")
        assert citus.cluster.clock.now() > before

    def test_network_counters_grow(self, citus, s):
        before = citus.cluster.network.messages_sent
        s.execute("SELECT count(*) FROM t")
        assert citus.cluster.network.messages_sent >= before + 8
