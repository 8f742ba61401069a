"""Streaming write data plane benchmark: pipelined INSERT..SELECT
repartitioning and COPY ingest vs. the materializing write plane.

Two write shapes through the real planner + executor code path:

- **repartition** — a large ``INSERT INTO dest SELECT …`` whose
  destination distribution key is fed by a non-distribution column, so
  every row moves through the coordinator's per-shard COPY channels;
- **copy_ingest** — gharchive-style event ingest (Fig. 7a): one large
  programmatic COPY of JSON event rows into a distributed table.

Each shape runs on a fresh identical cluster with
``citus.enable_streaming_writes`` on and off and reports wall throughput,
simulated (virtual-clock) statement time, and the coordinator's
write-side buffering high-water mark. The acceptance claims:

1. streaming keeps ``copy_channel_peak_rows`` ≤ flush_threshold × shards
   while the materialized plane buffers the entire input;
2. on the repartition shape, streaming is at least as fast end-to-end in
   simulated time: the flushes overlap the distributed SELECT feeding
   them, so the statement costs max(read, write) instead of read + write.
   (Client COPY has no simulated read side to overlap — the sim's client
   rows arrive instantly — so there streaming only has to stay within a
   small wall-time band of the materialized plane.)

Usage::

    PYTHONPATH=src python benchmarks/bench_insert_select.py [--quick]
        [--out results.json] [--baseline baseline.json]

``--baseline`` enforces the CI gate: bounded streaming peak on both
shapes, simulated speedup ≥ 1.0 on repartition, wall throughput within
``WALL_PARITY_FLOOR`` of materialized, and a >30% regression floor
against the checked-in baseline JSON.

Each shape runs ``WALL_PAIRS`` streaming/materialized pairs, alternating
which plane goes first. The wall gate reads the median of the per-pair
ratios, and the reported runs are each plane's median-wall run: a single
``--quick`` pair on a shared 2-vCPU host reads anywhere from 0.6x to 1.6x.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import make_cluster  # noqa: E402
from repro.workloads import gharchive  # noqa: E402

#: Fraction of baseline streaming rows/sec below which --baseline fails.
REGRESSION_FLOOR = 0.70
#: Minimum wall-time ratio (materialized / streaming) — streaming must not
#: cost more than ~18% extra wall time on any shape (it is usually at
#: parity; the margin absorbs CI runner noise on sub-second runs).
WALL_PARITY_FLOOR = 0.85
#: Streaming/materialized pairs per shape (odd, so the median is a pair).
WALL_PAIRS = 5

ROWS = 50_000  # acceptance floor: ≥ 50k-row repartition INSERT..SELECT
QUICK_ROWS = 12_000
SHARDS = 8

REPARTITION_SQL = "INSERT INTO dest (id, val) SELECT v, k FROM src"


def _cluster():
    return make_cluster(workers=2, shard_count=SHARDS, max_connections=2000)


def _events(n: int) -> list:
    rows = []
    for i in range(n):
        event_id = hashlib.md5(f"bench-{i}".encode()).hexdigest()
        rows.append([event_id, {
            "type": "PushEvent",
            "created_at": f"2020-01-{i % 7 + 1:02d}T12:00:00",
            "repo": f"org/repo-{i % 97}",
            "payload": {"commits": [{"sha": event_id[:10], "message": "m"}]},
        }])
    return rows


def _measure(cluster, fn) -> dict:
    """Wall + virtual-clock elapsed for one write statement, plus the
    executor's write-side channel report."""
    ext = cluster.coordinator_ext
    clock = ext.cluster.clock
    wall0, sim0 = time.perf_counter(), clock.now()
    rows = fn()
    wall = time.perf_counter() - wall0
    sim = clock.now() - sim0
    report = ext.executor.last_report
    return {
        "rows": rows,
        "wall_seconds": round(wall, 3),
        "rows_per_sec": round(rows / wall, 1),
        "sim_seconds": round(sim, 6),
        "copy_flushes": report.copy_flushes,
        "copy_channel_peak_rows": report.copy_channel_peak_rows,
        "copy_bytes_streamed": report.copy_bytes_streamed,
    }


def _run_repartition(streaming: bool, rows: int) -> dict:
    cluster = _cluster()
    s = cluster.coordinator_session()
    s.execute("CREATE TABLE src (k int PRIMARY KEY, v int, label text)")
    s.execute("SELECT create_distributed_table('src', 'k')")
    s.execute("CREATE TABLE dest (id int, val int)")
    s.execute("SELECT create_distributed_table('dest', 'id')")
    s.copy_rows("src", ([k, k, f"label-{k}"] for k in range(1, rows + 1)),
                ["k", "v", "label"])
    cluster.coordinator_ext.config.enable_streaming_writes = streaming

    def go():
        s.execute(REPARTITION_SQL)
        return rows

    out = _measure(cluster, go)
    assert s.execute("SELECT count(*) FROM dest").scalar() == rows
    return out


def _run_copy_ingest(streaming: bool, rows: int) -> dict:
    cluster = _cluster()
    s = cluster.coordinator_session()
    gharchive.create_schema(s, distributed=True, with_index=False,
                            with_rollup=False)
    events = _events(rows)
    cluster.coordinator_ext.config.enable_streaming_writes = streaming

    def go():
        return s.copy_rows("github_events", events, ["event_id", "data"])

    out = _measure(cluster, go)
    assert s.execute("SELECT count(*) FROM github_events").scalar() == rows
    return out


SHAPES = {
    "repartition": _run_repartition,
    "copy_ingest": _run_copy_ingest,
}


def _median_run(runs: list) -> dict:
    """The run with the median wall time (simulated figures are the same
    in every run)."""
    return sorted(runs, key=lambda r: r["wall_seconds"])[len(runs) // 2]


def run(quick: bool = False) -> dict:
    rows = QUICK_ROWS if quick else ROWS
    flush_threshold = _cluster().coordinator_ext.config.copy_flush_threshold
    results: dict = {}
    for name, shape in SHAPES.items():
        shape(True, 1_000)  # warm the process before timing
        pairs = []
        for i in range(WALL_PAIRS):
            order = (True, False) if i % 2 == 0 else (False, True)
            runs = {streaming: shape(streaming, rows) for streaming in order}
            pairs.append((runs[True], runs[False]))
        wall_ratios = [m["wall_seconds"] / s["wall_seconds"] for s, m in pairs]
        streaming = _median_run([s for s, _ in pairs])
        materialized = _median_run([m for _, m in pairs])
        # The materialized plane holds every input row in its per-shard
        # batch dict before dispatch: its peak IS the input size.
        materialized["buffered_rows"] = rows
        results[name] = {
            "streaming": streaming,
            "materialized": materialized,
            "wall_ratios": [round(r, 2) for r in wall_ratios],
            "wall_speedup": round(statistics.median(wall_ratios), 2),
            "sim_speedup": round(
                materialized["sim_seconds"] / streaming["sim_seconds"], 2),
        }
    return {
        "config": {"workers": 2, "shard_count": SHARDS, "rows": rows,
                   "flush_threshold": flush_threshold, "quick": quick,
                   "wall_pairs": WALL_PAIRS},
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced row count (CI smoke)")
    parser.add_argument("--out", help="write results JSON to this path")
    parser.add_argument("--baseline",
                        help="baseline JSON; fail on >30%% throughput "
                             "regression, unbounded channel peak, or "
                             "streaming slower than materialized")
    args = parser.parse_args(argv)

    report = run(quick=args.quick)
    for name, r in report["results"].items():
        s, m = r["streaming"], r["materialized"]
        print(f"{name:>12}: streaming {s['rows_per_sec']:>9.1f}"
              f" vs materialized {m['rows_per_sec']:>9.1f} rows/sec"
              f"  (wall {r['wall_speedup']:.2f}x median of {r['wall_ratios']},"
              f" sim {r['sim_speedup']:.2f}x,"
              f" peak {s['copy_channel_peak_rows']}"
              f" vs {m['buffered_rows']} buffered)")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.out}")

    if args.baseline:
        failed = False
        with open(args.baseline) as f:
            baseline = json.load(f)
        ceiling = report["config"]["flush_threshold"] * SHARDS
        for name, r in report["results"].items():
            peak = r["streaming"]["copy_channel_peak_rows"]
            print(f"{name} streaming peak: {peak} (ceiling {ceiling})")
            if not 0 < peak <= ceiling:
                print(f"FAIL: {name} channel peak exceeded"
                      " flush_threshold x shard_count")
                failed = True
            if r["wall_speedup"] < WALL_PARITY_FLOOR:
                print(f"FAIL: {name} streaming wall time more than"
                      f" {1 / WALL_PARITY_FLOOR:.2f}x materialized"
                      f" (median pair ratio {r['wall_speedup']:.2f}x)")
                failed = True
            if name == "repartition" and r["sim_speedup"] < 1.0:
                print(f"FAIL: {name} streaming slower than materialized"
                      f" in simulated time ({r['sim_speedup']:.2f}x) —"
                      " the read/write overlap win is gone")
                failed = True
            base = baseline["results"][name]["streaming"]["rows_per_sec"]
            now = r["streaming"]["rows_per_sec"]
            floor = base * REGRESSION_FLOOR
            print(f"{name} streaming: {now:.1f} vs baseline {base:.1f}"
                  f" rows/sec (floor {floor:.1f})")
            if now < floor:
                print(f"FAIL: {name} streaming throughput regressed >30%")
                failed = True
        if failed:
            return 1
        print("OK: channel peaks bounded, streaming >= materialized,"
              " within regression budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
