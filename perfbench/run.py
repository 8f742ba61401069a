"""The repository benchmark: three seeded workloads in both clocks.

Usage::

    python3 perfbench/run.py [--workload tenant_oltp|analytics|ingest|all]
        [--seed N] [--seconds S] [--trace 0|1] [--self-test]

A run is a series of rounds of one workload. Each round is a fresh
single-threaded process (``round.py``) that builds the cluster, replays
the seed's fixed request sequence and checks every answer. Rounds repeat
until ``--seconds`` of measured phase have run, and at least three times.
With ``--trace 0`` each round is followed by a process that only builds
the cluster once more, and ``setup_s`` is the fastest of all these cold
builds.

``--trace 0`` reports the end-to-end metrics in its result line:
``setup_s``, ``sim_latency_mean_ms`` from the simulated clock and
``peak_rss_mb``. It also prints the wall-clock request metrics, each the
median of its per-round values (``n=<requests>x<rounds>``).
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics: the wall-clock request metrics (``wall.*``) from the
untraced rounds, self time per layer from the traced rounds (see
``layertrace.py``), counts and simulated waits from the program's own
``citus_stat_counters()``, and the tracing overhead as traced ÷ untraced
measured wall time.

For one seed, the simulated-clock latencies and the counters must be
identical in every round, traced or not; any drift fails the run as a
determinism failure. ``--self-test`` shows that each correctness check and
the determinism check can fail. Every round's raw timings are written to
``perfbench/out/<workload>-seed<seed>-rounds.json``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero when
any check fails.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from layertrace import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROUND = os.path.join(HERE, "round.py")

MIN_ROUNDS = 3
MAX_ROUNDS = 12
#: Stop starting rounds this many seconds into a run: a run must end
#: within three minutes.
BUDGET_S = 130.0

WAIT_CLASSES = ("Net", "IO", "Lock", "TwoPC", "IPC", "Client")
SHAPES = ("agg", "topn", "ref_join", "colocated_join", "repartition_join")
MIXES = ("ycsb_a", "ycsb_b", "ycsb_c", "tpcc", "gharchive")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def ratio(num, den) -> float:
    return num / den if den else 0.0


def load_config() -> dict:
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def declared_metrics(trace: bool) -> list[str] | None:
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


# ----------------------------------------------------------------- rounds


def run_round(workload: str, seed: int, trace: bool, corrupt: bool = False,
              timeout: float = 170.0, setup_only: bool = False) -> dict:
    cmd = [sys.executable, ROUND, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if corrupt:
        cmd.append("--corrupt")
    if setup_only:
        cmd.append("--setup-only")
    # String hashing is fixed like every other input: dict and set layout
    # then repeats from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} round exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_rounds(workload: str, seed: int, seconds: float, trace: bool,
               started: float) -> list[dict]:
    """Untraced rounds, each followed by a set-up-only build, or untraced
    and traced rounds alternately, until the measured phases add up to
    ``seconds``."""
    rounds: list[dict] = []
    minimum = 4 if trace else MIN_ROUNDS
    while True:
        measured = sum(r["wall_s"] for r in rounds)
        enough = len(rounds) >= minimum and measured >= seconds
        if trace and len(rounds) % 2:
            enough = False  # end on a traced round
        elapsed = perf_counter() - started
        per_round = (elapsed / len(rounds)) if rounds else 0.0
        over_budget = elapsed + per_round > BUDGET_S
        if enough or len(rounds) >= MAX_ROUNDS or (
                len(rounds) >= minimum and over_budget):
            return rounds
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(workload, seed, traced,
                                timeout=max(10.0, 175.0 - elapsed)))
        if not trace:
            elapsed = perf_counter() - started
            rounds[-1]["extra_setup_s"] = run_round(
                workload, seed, False, setup_only=True,
                timeout=max(10.0, 175.0 - elapsed))["setup_s"]


def determinism_failures(rounds: list[dict]) -> list[str]:
    """Every round of one seed must see the same simulated latencies and
    counter deltas; traced rounds the same span counts."""
    first = rounds[0]
    failures = []
    for k, r in enumerate(rounds[1:], 1):
        if r["sim"] != first["sim"]:
            diffs = sum(1 for a, b in zip(r["sim"], first["sim"]) if a != b)
            failures.append(f"round {k}: {diffs} simulated latencies differ"
                            " from round 0")
        if r["counters"] != first["counters"]:
            names = sorted(n for n in set(r["counters"]) | set(first["counters"])
                           if r["counters"].get(n) != first["counters"].get(n))
            failures.append(f"round {k}: counters differ from round 0: "
                            f"{names[:8]}")
        if r["rows"] != first["rows"]:
            failures.append(f"round {k}: {r['rows']} rows vs {first['rows']}")
    traced = [r for r in rounds if r["traced"]]
    for r in traced[1:]:
        if r["trace"]["calls"] != traced[0]["trace"]["calls"]:
            failures.append("traced rounds recorded different span counts")
    return ["determinism: " + f for f in failures]


# ---------------------------------------------------------------- metrics


def wall_metrics(rounds: list[dict], tail_pct: float) -> dict:
    """Wall-clock request metrics, each computed per untraced round and
    reported as the median over rounds.

    They are per-layer metrics, not end-to-end ones: on a shared 2-vCPU
    host the CPU's speed drifts by up to 1.6x for seconds to minutes at a
    time, which moves them between runs of the same code by more than any
    regression bound the benchmark may set."""
    plain = [r for r in rounds if not r["traced"]]
    per_round = f"{len(plain[0]['wall'])}x{len(plain)}"
    ms = 1000.0

    def median(fn):
        return statistics.median(fn(r) for r in plain)

    return {
        "wall.ops_per_s": (median(lambda r: len(r["wall"]) / r["wall_s"]),
                           "1/s", per_round),
        "wall.rows_per_s": (median(lambda r: r["rows"] / r["wall_s"]),
                            "rows/s", per_round),
        "wall.latency_p50_ms": (
            median(lambda r: percentile(r["wall"], 50)) * ms, "ms", per_round),
        "wall.latency_tail_ms": (
            median(lambda r: percentile(r["wall"], tail_pct)) * ms, "ms",
            per_round),
    }


def end_to_end(rounds: list[dict]) -> dict:
    """Set-up time, mean simulated-clock latency per request (identical in
    every round of a seed) and peak RSS.

    ``setup_s`` is the fastest cold build of the run, as ``timeit`` takes
    the fastest repeat: a build is under a second, and the host's other
    load only ever slows one down. On a shared 2-vCPU host, over ten seeds,
    the median of per-run medians moved up to 27% between two sets of runs
    and the median of per-run minima up to 16%."""
    plain = [r for r in rounds if not r["traced"]]
    sim = rounds[0]["sim"]
    builds = [r["setup_s"] for r in plain] + [
        r["extra_setup_s"] for r in plain if "extra_setup_s" in r]
    return {
        "setup_s": (min(builds), "s", len(builds)),
        "sim_latency_mean_ms": (statistics.fmean(sim) * 1000.0, "sim_ms",
                                len(sim)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain),
                        "MB", len(plain)),
    }


def per_layer(rounds: list[dict], tail_pct: float) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    c = rounds[0]["counters"]
    ms = 1000.0
    out: dict = wall_metrics(rounds, tail_pct)

    def put(name, value, unit, samples=1):
        out[name] = (value, unit, samples)

    def median_trace(key):
        return statistics.median(r["trace"][key] for r in traced)

    t0 = traced[0]["trace"]
    for layer in LAYERS:
        put(f"{layer}.self_s",
            statistics.median(r["trace"]["self_s"][layer] for r in traced),
            "s", len(traced))
    calls = t0["calls"]
    put("citus.planner.calls", c.get("planner_total", 0), "count")
    put("citus.planner.plan_cache_hit_ratio",
        ratio(c.get("plan_cache_hits", 0), c.get("planner_total", 0)), "1")
    put("citus.planner.cascade_calls", t0["cascade_calls"], "count")
    put("telemetry.calls", calls["telemetry"], "count")
    put("sql.calls", t0["sql_parses"], "count")
    put("sql.parse_cache_hit_ratio",
        1.0 - ratio(t0["sql_parses"], t0["sql_lookups"]), "1")
    put("engine.worker.calls", calls["engine.worker"], "count")
    put("citus.executor.tasks", c.get("tasks_executed", 0), "count")
    put("citus.executor.tasks_skipped", c.get("tasks_skipped", 0), "count")
    put("citus.executor.rows_buffered_peak", c.get("rows_buffered_peak", 0),
        "rows")
    put("citus.copy.flushes", c.get("copy_flushes", 0), "count")
    put("citus.copy.rows_routed", c.get("copy_rows_routed", 0), "rows")
    put("citus.copy.channel_peak_rows", c.get("copy_channel_peak_rows", 0),
        "rows")
    twopc = c.get("twopc_transactions", 0)
    put("citus.txn.twopc_ratio", ratio(twopc, twopc + c.get("onepc_commits", 0)),
        "1")
    put("net.bytes", c.get("bytes_streamed", 0) + c.get("copy_bytes_streamed", 0),
        "bytes")
    put("net.batches", c.get("batches_fetched", 0), "count")
    put("net.connections_opened", c.get("connections_opened", 0), "count")
    reuses = c.get("pool_session_reuses", 0)
    put("net.pool.reuse_ratio",
        ratio(reuses, reuses + c.get("pool_sessions_opened", 0)), "1")
    put("net.pool.exhausted", c.get("pool_exhausted", 0), "count")
    for wclass in WAIT_CLASSES:
        prefix = f"wait_time_us:{wclass}."
        put(f"sim.wait_s.{wclass}",
            sum(v for k, v in c.items() if k.startswith(prefix)) / 1e6, "sim_s")
    sim = rounds[0]["sim"]
    put("sim.latency_p50_ms", percentile(sim, 50) * ms, "sim_ms", len(sim))
    put("sim.latency_tail_ms", percentile(sim, tail_pct) * ms, "sim_ms",
        len(sim))
    for prefix, kinds in (("query", SHAPES), ("mix", MIXES)):
        for kind in kinds:
            lat = [w for r in plain for w, k in zip(r["wall"], r["kind"])
                   if k == kind]
            put(f"{prefix}.{kind}.p50_ms",
                percentile(lat, 50) * ms if lat else 0.0, "ms", len(lat))
    attempted = sum(len(r["wall"]) for r in rounds)
    put("error_ratio", ratio(sum(r["failed"] for r in rounds), attempted), "1",
        attempted)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    put("bench.unattributed_s", median_trace("unattributed_s"), "s",
        len(traced))
    put("bench.attributed_ratio",
        statistics.median(1.0 - r["trace"]["unattributed_s"] / r["wall_s"]
                          for r in traced), "1", len(traced))
    put("bench.trace_cost_s", median_trace("trace_cost_s"), "s", len(traced))
    put("bench.trace_overhead_ratio",
        traced_wall / statistics.median(r["wall_s"] for r in plain), "1",
        len(rounds))
    put("bench.ref_loop_s", statistics.median(r["ref_loop_s"] for r in rounds),
        "s", len(rounds))
    return out


# ------------------------------------------------------------------ output


def report(workload: str, rounds: list[dict], metrics: dict,
           failures: list[str]) -> None:
    print(f"== {workload}")
    for k, r in enumerate(rounds):
        print(f"  round {k}{' traced' if r['traced'] else ''}:"
              f" setup {r['setup_s']:.3f} s"
              + (f" (then {r['extra_setup_s']:.3f} s alone)"
                 if "extra_setup_s" in r else "") +
              f", measured {r['wall_s']:.3f} s"
              f" for {len(r['wall'])} requests, reference loop"
              f" {r['ref_loop_s']:.4f} s")
    width = max(len(n) for n in metrics)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6f} {unit:<7} n={samples}")
    for failure in failures:
        print(f"  FAILED: {failure}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 config: dict) -> dict:
    started = perf_counter()
    tail = config["workloads"][workload]["tail_percentile"]
    rounds = run_rounds(workload, seed, seconds, trace, started)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-rounds.json"),
              "w") as f:
        json.dump(rounds, f)
    failures = [f"round {k}: {f}" for k, r in enumerate(rounds)
                for f in r["failures"]]
    failures += determinism_failures(rounds)
    metrics = per_layer(rounds, tail) if trace else end_to_end(rounds)
    declared = declared_metrics(trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(declared) ^ set(metrics))}")
    shown = metrics if trace else {**metrics, **wall_metrics(rounds, tail)}
    report(workload, rounds, shown, failures)
    return {
        "correct": not failures,
        "attempted": sum(len(r["wall"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def self_test(seed: int, config: dict) -> bool:
    """Each workload's check must trip on a corrupted expected answer, and
    the exact-repeat check on a drifted simulated latency."""
    ok = True
    for workload in config["workloads"]:
        result = run_round(workload, seed, trace=False, corrupt=True)
        tripped = bool(result["failures"])
        print(f"self-test {workload}: corrupted answer "
              f"{'tripped' if tripped else 'NOT tripped'}: "
              f"{result['failures'][:1]}")
        drifted = copy.deepcopy(result)
        drifted["sim"][-1] += 1e-9
        caught = bool(determinism_failures([result, drifted]))
        print(f"self-test {workload}: simulated-clock drift "
              f"{'tripped' if caught else 'NOT tripped'}")
        ok = ok and tripped and caught
    return ok


def main(argv=None) -> int:
    # subprocess.run kills and reaps its round process when an exception
    # unwinds through it; turn SIGTERM into one.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    config = load_config()
    names = list(config["workloads"])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured-phase seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found; run from a checkout of the"
              " repository", file=sys.stderr)
        return 2
    if args.self_test:
        ok = self_test(args.seed, config)
        print("self-test", "passed" if ok else "FAILED")
        return 0 if ok else 1

    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace), config)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
