"""Cluster-wide stats counters: planner tiers, task execution, connection
slow-start/reuse, 2PC, deadlock detection, rebalancing — plus the
exception-safety guarantees of the gauge primitives.

Tests scope their measurements with ``StatsRegistry.measure()`` so the
assertions are deltas, immune to counters bumped by fixtures or the
maintenance daemon.
"""

import pytest

from repro.engine.stats import StatsRegistry, stats_for
from repro.errors import DataError, QueryCanceled
from tests.conftest import find_keys_on_distinct_nodes


@pytest.fixture
def s(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
    s.execute("SELECT create_distributed_table('t', 'k')")
    for k in range(1, 9):
        s.execute(f"INSERT INTO t VALUES ({k}, {k})")
    return s


@pytest.fixture
def reg(citus):
    return citus.coordinator_ext.stat_counters


def node_of(citus, table, key):
    from repro.engine.datum import hash_value

    ext = citus.coordinator_ext
    dist = ext.metadata.cache.get_table(table)
    index = dist.shard_index_for_hash(hash_value(key))
    return ext.metadata.cache.placement_node(dist.shards[index].shardid)


class TestRegistryPrimitives:
    """The engine-level registry, independent of Citus."""

    def test_counters_and_labels(self):
        r = StatsRegistry()
        r.incr("hits")
        r.incr("hits", 2, node="w1")
        assert r.value("hits") == 3
        assert r.value("hits", node="w1") == 2
        assert r.per_node("hits") == {"": 1, "w1": 2}

    def test_measure_yields_delta_not_absolute(self):
        r = StatsRegistry()
        r.incr("hits", 10)
        with r.measure() as m:
            r.incr("hits", 5)
        assert m.value("hits") == 5
        assert r.value("hits") == 15

    def test_track_is_exception_safe(self):
        r = StatsRegistry()
        with pytest.raises(RuntimeError):
            with r.track("in_flight"):
                assert r.gauge("in_flight") == 1
                raise RuntimeError("task died")
        assert r.gauge("in_flight") == 0

    def test_snapshot_diff_drops_zero_entries(self):
        r = StatsRegistry()
        r.incr("stable")
        before = r.snapshot()
        r.incr("moved")
        delta = r.snapshot().diff(before)
        assert delta.value("moved") == 1
        assert "stable" not in delta.counters

    def test_reset_peaks_scopes_a_window(self):
        r = StatsRegistry()
        r.gauge_max("peak", 480)  # e.g. raised by an earlier bulk load
        r.gauge_incr("level", 3)
        r.reset_peaks()
        assert r.gauge("peak") == 0
        assert r.gauge("level") == 3  # live levels survive
        with r.measure() as m:
            r.gauge_max("peak", 32)
            r.gauge_incr("level", 2)
        assert m.gauge("peak") == 32  # the window's own peak
        assert m.gauge("level") == 2

    def test_stats_for_shares_one_registry_per_holder(self):
        class Holder:
            pass

        h = Holder()
        assert stats_for(h) is stats_for(h)

    def test_cluster_extensions_share_the_registry(self, citus):
        registries = {
            id(citus.cluster.node(n).extensions["citus"].stat_counters)
            for n in citus.cluster.node_names()
        }
        assert len(registries) == 1


class TestPlannerTierCounters:
    def test_each_tier_bumps_its_counter(self, citus, s, reg):
        s.execute("CREATE TABLE other (oid int, k int)")
        s.execute("SELECT create_distributed_table('other', 'oid')")
        queries = {
            "planner_fast_path": "SELECT * FROM t WHERE k = 3",
            "planner_pushdown": "SELECT count(*) FROM t",
            "planner_join_order": "SELECT count(*) FROM t JOIN other ON t.k = other.k",
        }
        for counter, sql in queries.items():
            with reg.measure() as m:
                s.execute(sql)
            assert m.value(counter) == 1, counter
            # Moving the intermediate result of a join-order plan plans
            # extra internal statements, so >= rather than ==.
            assert m.value("planner_total") >= 1, counter

    def test_cascade_misses_are_counted(self, s, reg):
        # A full scan misses fast-path AND router before pushdown fires.
        with reg.measure() as m:
            s.execute("SELECT count(*) FROM t")
        assert m.value("planner_fast_path_misses") == 1
        assert m.value("planner_router_misses") == 1

    def test_fast_path_pays_no_miss(self, s, reg):
        with reg.measure() as m:
            s.execute("SELECT * FROM t WHERE k = 3")
        assert m.value("planner_fast_path_misses") == 0


class TestTaskAndConnectionCounters:
    def test_task_fan_out_counted_per_node(self, s, reg):
        with reg.measure() as m:
            s.execute("SELECT count(*) FROM t")
        assert m.value("tasks_executed") == 8
        assert m.value("tasks_executed", node="worker1") == 4
        assert m.value("tasks_executed", node="worker2") == 4

    def test_connections_respect_shared_pool_cap(self, citus, s, reg):
        s.execute("SELECT citus_set_config('max_shared_pool_size', '2')")
        fresh = citus.coordinator_session("fresh")
        with reg.measure() as m:
            fresh.execute("SELECT count(*) FROM t")
        for node in ("worker1", "worker2"):
            opened = m.value("connections_opened", node=node)
            assert 1 <= opened <= 2, f"{node} opened {opened}"

    def test_cached_connections_are_reused_not_reopened(self, s, reg):
        s.execute("SELECT count(*) FROM t")  # warm the per-session pools
        with reg.measure() as m:
            s.execute("SELECT count(*) FROM t")
        assert m.value("connections_opened") == 0
        assert m.value("connections_reused") >= 2  # one per worker at least

    def test_in_flight_gauges_settle_to_zero(self, s, reg):
        s.execute("SELECT count(*) FROM t")
        assert reg.gauge("tasks_in_flight") == 0
        assert reg.gauge("executor_statements_in_flight") == 0

    def test_shared_slots_match_live_connections(self, citus, s, reg):
        s.execute("SELECT count(*) FROM t")
        ext = citus.coordinator_ext
        for node in ("worker1", "worker2"):
            assert ext._shared_slots[node] == reg.gauge("connections_active", node=node)


class TestTwoPhaseCommitCounters:
    def test_2pc_records_one_prepare_and_commit_per_node(self, citus, s, reg):
        k1, k2 = find_keys_on_distinct_nodes(citus, "t")
        n1, n2 = node_of(citus, "t", k1), node_of(citus, "t", k2)
        with reg.measure() as m:
            s.execute("BEGIN")
            s.execute("UPDATE t SET v = 100 WHERE k = $1", [k1])
            s.execute("UPDATE t SET v = 100 WHERE k = $1", [k2])
            s.execute("COMMIT")
        assert m.value("twopc_transactions") == 1
        assert m.per_node("twopc_prepares") == {n1: 1, n2: 1}
        assert m.per_node("twopc_commit_prepared") == {n1: 1, n2: 1}
        assert m.value("twopc_prepare_failures") == 0

    def test_single_node_transaction_delegates_without_2pc(self, citus, s, reg):
        k1, _ = find_keys_on_distinct_nodes(citus, "t")
        with reg.measure() as m:
            s.execute("BEGIN")
            s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
            s.execute("COMMIT")
        assert m.value("onepc_commits") == 1
        assert m.value("twopc_transactions") == 0
        assert m.value("twopc_prepares") == 0

    def test_autocommit_multi_shard_write_uses_2pc(self, s, reg):
        with reg.measure() as m:
            s.execute("UPDATE t SET v = v + 1")
        assert m.value("twopc_transactions") == 1
        assert m.value("twopc_prepares") == 2  # one per worker


class TestDeadlockCounters:
    def test_forced_deadlock_records_exactly_one_victim(self, citus, s, reg):
        k1, k2 = find_keys_on_distinct_nodes(citus, "t")
        a = citus.coordinator_session("a")
        b = citus.coordinator_session("b")
        a.execute("BEGIN")
        a.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        b.execute("BEGIN")
        b.execute("UPDATE t SET v = 2 WHERE k = $1", [k2])
        fa = a.execute_async(f"UPDATE t SET v = 1 WHERE k = {k2}")
        fb = b.execute_async(f"UPDATE t SET v = 2 WHERE k = {k1}")
        with reg.measure() as m:
            cancelled = citus.run_maintenance()["deadlocks_cancelled"]
        assert len(cancelled) == 1
        assert m.value("deadlock_checks") >= 1
        assert m.value("deadlock_victims") == 1
        citus.pump()
        assert fb.done and isinstance(fb.error, QueryCanceled)
        b.execute("ROLLBACK")
        citus.pump()
        assert fa.done and fa.error is None
        a.execute("COMMIT")

    def test_idle_check_finds_no_victims(self, citus, s, reg):
        with reg.measure() as m:
            citus.run_maintenance()
        assert m.value("deadlock_checks") >= 1
        assert m.value("deadlock_victims") == 0


class TestRebalancerCounters:
    def test_shard_move_counts_moves_and_rows(self, citus, s, reg):
        k1, _ = find_keys_on_distinct_nodes(citus, "t")
        source = node_of(citus, "t", k1)
        target = next(n for n in citus.worker_names() if n != source)
        from repro.engine.datum import hash_value

        dist = citus.coordinator_ext.metadata.cache.get_table("t")
        shardid = dist.shards[dist.shard_index_for_hash(hash_value(k1))].shardid
        with reg.measure() as m:
            s.execute(
                "SELECT citus_move_shard_placement($1, $2)", [shardid, target]
            )
        assert m.value("rebalancer_shard_moves") >= 1
        assert m.value("rebalancer_shard_moves", node=target) >= 1
        assert m.value("rebalancer_rows_copied") >= 1  # k1's row moved
        assert node_of(citus, "t", k1) == target


class TestExceptionSafety:
    """Satellite: a failing task must not leave gauges stuck or slots
    leaked — the latent bug class this PR fixes."""

    def test_failing_task_decrements_in_flight_gauge(self, s, reg):
        with reg.measure() as m:
            with pytest.raises(DataError):
                s.execute("SELECT v / 0 FROM t")
        assert m.value("tasks_failed") >= 1
        assert reg.gauge("tasks_in_flight") == 0
        assert reg.gauge("executor_statements_in_flight") == 0

    def test_failed_statement_counts_no_phantom_tasks(self, s, reg):
        with reg.measure() as m:
            with pytest.raises(DataError):
                s.execute("SELECT v / 0 FROM t")
        # The task that failed is not also counted as executed.
        assert m.value("tasks_failed") + m.value("tasks_executed") <= 8

    def test_node_crash_releases_shared_pool_slots(self, citus, s, reg):
        """Regression: zombie connections dropped after a node failure used
        to keep their shared-pool slots forever, shrinking the effective
        max_shared_pool_size with every failover."""
        from repro.net.cluster import StandbyConfig

        ext = citus.coordinator_ext
        s.execute("SELECT count(*) FROM t")  # open pooled connections
        node = citus.worker_names()[0]
        citus.cluster.enable_standby(node, StandbyConfig(mode="synchronous"))
        citus.cluster.fail_node(node)
        citus.cluster.promote_standby(node)
        ext._utility_connections.clear()
        with reg.measure() as m:
            fresh = citus.coordinator_session("fresh")
            assert fresh.execute("SELECT count(*) FROM t").scalar() == 8
            s.execute("SELECT count(*) FROM t")  # zombie drop happens here
        assert m.value("connections_dropped", node=node) >= 1
        # Slots held equal live pooled connections — nothing leaked.
        assert ext._shared_slots[node] == reg.gauge("connections_active", node=node)


class TestStatCounterUDFs:
    def test_counters_view_rows(self, s):
        s.execute("SELECT count(*) FROM t")
        rows = s.execute("SELECT citus_stat_counters()").scalar()
        names = {r[0] for r in rows}
        assert "planner_total" in names
        assert "tasks_executed" in names
        by_key = {(r[0], r[1]): r[2] for r in rows}
        assert by_key[("tasks_executed", "worker1")] >= 4

    def test_reset_zeroes_everything(self, s, reg):
        s.execute("SELECT count(*) FROM t")
        assert reg.value("planner_total") > 0
        assert s.execute("SELECT citus_stat_counters_reset()").scalar() is True
        assert reg.value("planner_total") == 0
        # Counters and high-water peaks are cleared; live up/down gauges
        # (currently-held resources like open connections or pool slots)
        # survive a reset — zeroing a held level would go negative on
        # release.
        remaining = s.execute("SELECT citus_stat_counters()").scalar()
        names = {row[0] for row in remaining}
        assert "planner_total" not in names
        assert "rows_buffered_peak" not in names
        assert names <= {
            "connections_active", "shared_pool_slots", "pool_clients",
            "pool_leases", "tasks_in_flight", "executor_statements_in_flight",
        }
