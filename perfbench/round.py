"""One benchmark round in a fresh process: set up, measure, check.

Prints one JSON object on its last line of output. ``run.py`` starts
rounds one after another and aggregates them; run a round by hand with::

    python3 perfbench/round.py --workload analytics --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layertrace import LayerTracer, calibrate  # noqa: E402
from workloads import WORKLOADS, result_rows  # noqa: E402

REF_LOOP_N = 300_000
CHROME_TRACE_REQUESTS = 20


def ref_loop() -> float:
    """A fixed pure-Python loop: machine-speed drift shows next to the
    numbers. It rescales nothing."""
    start = perf_counter()
    acc = 0
    table = {}
    for i in range(REF_LOOP_N):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    if len(table) != 1024:
        raise RuntimeError("reference loop miscomputed")
    return perf_counter() - start


class Recorder:
    """Times each client request in both clocks."""

    def __init__(self, clock, tracer: LayerTracer | None):
        self.clock = clock
        self.tracer = tracer
        self.wall: list[float] = []
        self.sim: list[float] = []
        self.kind: list[str] = []
        self.rows = 0
        self.failed = 0
        self.errors: list[str] = []

    def request(self, kind: str, fn, *args):
        clock = self.clock
        tracer = self.tracer
        result = None
        s0 = clock.now()
        w0 = perf_counter()
        try:
            if tracer is None:
                result = fn(*args)
            else:
                result = tracer.run_request(fn, args)
        except Exception as exc:  # a failed request is counted, not fatal
            self.failed += 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
        w1 = perf_counter()
        self.wall.append(w1 - w0)
        self.sim.append(clock.now() - s0)
        self.kind.append(kind)
        if isinstance(result, int):
            self.rows += result
        elif result is not None:
            self.rows += result_rows(result)
        return result


def counters(workload) -> dict:
    """Cluster counters and gauges, summed over nodes (peaks: max)."""
    out: dict = {}
    for name, _node, value in workload.admin("SELECT citus_stat_counters()"):
        if name.endswith("_peak_rows") or name.endswith("_peak"):
            out[name] = max(out.get(name, 0), value)
        else:
            out[name] = out.get(name, 0) + value
    return out


def make_workload(name: str, seed: int):
    with open(os.path.join(HERE, "workloads.json")) as f:
        sizes = json.load(f)["workloads"][name]["sizes"]
    return WORKLOADS[name](seed, sizes)


def setup_only(name: str, seed: int) -> dict:
    """One cold cluster build and nothing else: another set-up sample."""
    workload = make_workload(name, seed)
    start = perf_counter()
    workload.setup()
    return {"setup_s": perf_counter() - start}


def run_round(name: str, seed: int, trace: bool, corrupt: bool) -> dict:
    ref_s = ref_loop()
    workload = make_workload(name, seed)
    tracer = None
    if trace:
        tracer = LayerTracer()
        calibrate(tracer)
        tracer.install()

    start = perf_counter()
    workload.setup()
    setup_s = perf_counter() - start
    workload.before()
    workload.admin("SELECT citus_stat_reset('counters')")

    rec = Recorder(workload.clock, tracer)
    sim0 = workload.clock.now()
    if tracer is not None:
        tracer.on = True
    start, cpu0 = perf_counter(), process_time()
    workload.run(rec)
    wall_s = perf_counter() - start
    cpu_s = process_time() - cpu0
    sim_s = workload.clock.now() - sim0
    out = {}
    if tracer is not None:
        tracer.on = False
        out["trace"] = tracer.summary(wall_s)
        out["trace"]["sql_parses"] = tracer.calls("parse")
        out["trace"]["sql_lookups"] = tracer.calls("_parse_cached")
        out["trace"]["cascade_calls"] = tracer.calls("plan_statement")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write_chrome(
            os.path.join(HERE, "out", f"{name}-seed{seed}-spans.json"),
            CHROME_TRACE_REQUESTS)
        tracer.uninstall()
    out["counters"] = counters(workload)

    failures = workload.check(corrupt)
    if rec.failed:
        failures.append(f"{rec.failed} requests failed: {rec.errors[:3]}")
    out.update({
        "workload": name,
        "seed": seed,
        "traced": trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "sim_s": sim_s,
        "ref_loop_s": ref_s,
        "wall": rec.wall,
        "sim": rec.sim,
        "kind": rec.kind,
        "rows": rec.rows,
        "failed": rec.failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb one expected answer (self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="only time one cold cluster build")
    args = parser.parse_args(argv)
    if args.setup_only:
        result = setup_only(args.workload, args.seed)
    else:
        result = run_round(args.workload, args.seed, bool(args.trace),
                           args.corrupt)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
