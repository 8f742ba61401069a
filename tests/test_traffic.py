"""Closed-loop traffic harness: smoke-scale runs in tier-1, determinism,
SLO evaluation, and a slow-marked multi-thousand-session soak."""

from __future__ import annotations

import json

import pytest

from repro import make_cluster
from repro.engine.stats import stats_for
from repro.workloads.traffic import (
    CounterRule,
    LatencyRule,
    RatioRule,
    TrafficConfig,
    TrafficHarness,
    evaluate_slo,
    run_traffic,
)


def smoke_config(**overrides) -> TrafficConfig:
    base = dict(
        sessions=100,
        tenants=40,
        sim_duration=10.0,
        think_mean=1.0,
        ramp_seconds=2.0,
        seed=777,
    )
    base.update(overrides)
    return TrafficConfig(**base)


@pytest.fixture(scope="module")
def smoke_run():
    """One shared smoke run (~100 sessions): building it once keeps all
    the assertion-only tests below cheap."""
    citus = make_cluster(workers=2, shard_count=8, max_connections=2000)
    harness = TrafficHarness(citus, smoke_config())
    harness.run()
    return harness, harness.report()


class TestSmokeScale:
    def test_all_sessions_ran_concurrently(self, smoke_run):
        harness, report = smoke_run
        assert report["peak_clients"] == 100
        assert report["transactions"]["transactions"] > 300

    def test_connection_churn_recycles_clients(self, smoke_run):
        harness, report = smoke_run
        totals = report["transactions"]
        # Lifetimes are 4-12 transactions, so sessions churned several
        # times within the run — and every churned client was replaced.
        assert totals["sessions_churned"] > 0
        assert totals["sessions_opened"] > 100
        # Drain closed everything: no leaked client handles.
        assert all(p.client_count == 0 for p in harness.pools.values())

    def test_pool_multiplexes_clients_over_few_sessions(self, smoke_run):
        harness, report = smoke_run
        pool = report["pool"]
        assert pool["pool_client_rejections"] == 0
        # Thousands of statements rode a handful of server sessions.
        assert pool["pool_sessions_opened"] <= sum(
            p.pool_size for p in harness.pools.values()
        )
        assert pool["pool_session_reuses"] > pool["pool_sessions_opened"]

    def test_zipf_skew_shows_in_tenant_totals(self, smoke_run):
        _, report = smoke_run
        hottest = dict(report["hottest_tenants"])
        # Tenant 0 is rank 0 of the Zipf draw: it must dominate.
        assert 0 in hottest
        assert hottest[0] == max(hottest.values())
        assert report["tenants_touched"] > 10

    def test_workload_mix_covers_all_adapters(self, smoke_run):
        _, report = smoke_run
        assert set(report["per_mix"]) == {
            "ycsb_a", "ycsb_b", "ycsb_c", "tpcc", "gharchive"
        }
        assert all(count > 0 for count in report["per_mix"].values())

    def test_stat_statements_feed_the_report(self, smoke_run):
        _, report = smoke_run
        assert report["statements"], "citus_stat_statements saw no traffic"
        for stmt in report["statements"]:
            assert stmt["calls"] >= 1
            assert stmt["p50_ms"] <= stmt["p95_ms"] <= stmt["p99_ms"]

    def test_multi_warehouse_traffic_produces_2pc(self, smoke_run):
        _, report = smoke_run
        # ~7% of TPC-C payments cross warehouses: some 2PC, but a minority.
        assert report["twopc"]["twopc_transactions"] > 0
        assert report["twopc"]["rate"] < 0.5

    def test_default_slo_spec_passes_smoke_run(self, smoke_run):
        _, report = smoke_run
        assert report["slo"]["passed"], json.dumps(report["slo"], indent=2)


class TestDeterminism:
    def test_same_seed_identical_report(self):
        cfg = smoke_config(sessions=60, sim_duration=6.0)
        reports = []
        for _ in range(2):
            citus = make_cluster(workers=2, shard_count=8, max_connections=2000)
            reports.append(run_traffic(citus, cfg))
        a, b = (json.dumps(r, sort_keys=True) for r in reports)
        assert a == b

    def test_different_seed_differs(self):
        reports = []
        for seed in (1, 2):
            citus = make_cluster(workers=2, shard_count=8, max_connections=2000)
            reports.append(run_traffic(citus, smoke_config(
                sessions=40, sim_duration=5.0, seed=seed)))
        assert (reports[0]["transactions"]["transactions"]
                != reports[1]["transactions"]["transactions"]
                or reports[0]["per_mix"] != reports[1]["per_mix"])


class TestSloEvaluation:
    def test_latency_rule_failure_detected(self, smoke_run):
        _, report = smoke_run
        harness, _ = smoke_run
        rows = harness.stat_statement_rows()
        verdict = evaluate_slo(
            [LatencyRule("impossible", percentile=99, max_ms=0.0)],
            rows, harness.counter_delta(),
        )
        assert not verdict["passed"]
        assert verdict["rules"][0]["observed_ms"] > 0.0

    def test_unmatched_filter_fails_loudly(self, smoke_run):
        harness, _ = smoke_run
        verdict = evaluate_slo(
            [LatencyRule("ghost tier", percentile=95, max_ms=100.0,
                         tier="no_such_tier")],
            harness.stat_statement_rows(), harness.counter_delta(),
        )
        assert not verdict["passed"]
        assert verdict["rules"][0]["detail"] == "no matching statements"

    def test_counter_and_ratio_rules(self, smoke_run):
        harness, _ = smoke_run
        counters = harness.counter_delta()
        verdict = evaluate_slo(
            [
                CounterRule("no rejections", "pool_client_rejections", 0),
                RatioRule("2pc", "twopc_transactions",
                          ("onepc_commits", "twopc_transactions"), 1.0),
                CounterRule("impossible", "executor_statements", 0),
            ],
            [], counters,
        )
        assert [r["passed"] for r in verdict["rules"]] == [True, True, False]

    def test_peak_rule_sees_the_run_peak(self, smoke_run):
        """Peaks are run-scoped: prepare()'s bulk loads raise
        ``copy_channel_peak_rows`` far above what the run's COPY channels
        reach, yet the rule must see the run's own peak and can trip."""
        harness, _ = smoke_run
        counters = harness.counter_delta()
        peak = counters.get("copy_channel_peak_rows", 0)
        assert counters.get("copy_flushes", 0) > 0
        assert 0 < peak == stats_for(harness.citus.cluster).gauge(
            "copy_channel_peak_rows")
        verdict = evaluate_slo(
            [
                CounterRule("below the run peak", "copy_channel_peak_rows",
                            peak - 1),
                CounterRule("at the run peak", "copy_channel_peak_rows", peak),
            ],
            [], counters,
        )
        assert [r["passed"] for r in verdict["rules"]] == [False, True]
        assert verdict["rules"][0]["observed"] == peak


class TestConfigValidation:
    def test_unknown_mix_rejected(self):
        citus = make_cluster(workers=0, shard_count=4)
        cfg = smoke_config(mix_weights={"nope": 1.0})
        with pytest.raises(ValueError, match="unknown workload mixes"):
            TrafficHarness(citus, cfg).prepare()

    def test_report_before_run_rejected(self):
        citus = make_cluster(workers=0, shard_count=4)
        with pytest.raises(RuntimeError):
            TrafficHarness(citus, smoke_config()).report()


@pytest.mark.slow
class TestSoak:
    """Multi-thousand-session soak — excluded from tier-1 by the ``slow``
    marker (see pyproject addopts); CI runs it in the soak lane."""

    def test_2000_sessions_with_churn_meet_slos(self):
        citus = make_cluster(workers=4, shard_count=16, max_connections=4000)
        cfg = TrafficConfig(
            sessions=2000, tenants=400, sim_duration=60.0, think_mean=2.0,
            ramp_seconds=10.0, max_transactions=8000, seed=4242,
        )
        report = run_traffic(citus, cfg)
        assert report["peak_clients"] == 2000
        assert report["transactions"]["transactions"] >= 8000
        assert report["transactions"]["sessions_churned"] > 0
        assert report["slo"]["passed"], json.dumps(report["slo"], indent=2)
