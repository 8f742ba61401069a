"""Outside-in layer tracing for the benchmark's traced rounds.

The program is not edited: the public entry points of each layer are
replaced, in the benchmark's own process only, by wrappers that record a
span per call (name, layer, start, end, parent span, request id). Spans
live in flat in-memory arrays while the measured phase runs; when it ends
:meth:`LayerTracer.summary` turns them into per-layer self time (a span's
duration minus the part its child spans cover) and call counts, and
:meth:`LayerTracer.write_chrome` writes the first requests' spans out as a
Chrome trace-event file.

Every wrapped call costs the tracer a little time of its own, which would
otherwise land in the caller's self time. :func:`calibrate` measures that
cost on a no-op function before the run; :meth:`LayerTracer.summary`
takes the part spent inside a span off that span's self time and the part
spent around it off its parent's, and reports the sum as
``bench.trace_cost_s``.

Install the wrappers (:meth:`LayerTracer.install`) before the cluster is
built: the planner hook, the commit callbacks and the ASH clock observer
are bound when Citus is installed on a node.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter

#: Layer of the root span around each client request: the workload
#: client-side code (mix logic, the traffic scheduler, the benchmark loop).
ROOT_LAYER = "workload"

#: (module, class or None, attribute names, layer). ``None`` as the layer
#: means "engine.worker under a net span, else engine.coordinator": the same
#: Session class serves client-facing and shard-task backends.
ENTRY_POINTS = [
    ("repro.engine.instance", None, ("_parse_cached", "parse"), "sql"),
    ("repro.engine.hooks", "HookRegistry", ("call_planner",), "citus.planner"),
    ("repro.citus.planner.distributed", None, ("plan_statement",),
     "citus.planner"),
    ("repro.engine.instance", "Session",
     ("execute", "execute_async", "execute_parsed", "execute_parsed_async",
      "execute_parsed_cursor", "copy_rows"), None),
    ("repro.engine.executor", "EngineCursor", ("fetch",), None),
    ("repro.citus.executor.adaptive", "AdaptiveExecutor",
     ("execute_tasks", "open_task_streams", "open_copy_channels"),
     "citus.executor"),
    ("repro.citus.executor.adaptive", "TaskStream", ("fetch",),
     "citus.executor"),
    # Distributed plan execution on the coordinator: task building and the
    # coordinator-side merge of the rows the executor streams back.
    ("repro.citus.planner.distributed", "SingleTaskPlan", ("execute",),
     "citus.merge"),
    ("repro.citus.planner.distributed", "MultiTaskDMLPlan", ("execute",),
     "citus.merge"),
    ("repro.citus.planner.distributed", "MultiTaskSelectPlan", ("execute",),
     "citus.merge"),
    ("repro.citus.planner.distributed", "InsertValuesPlan", ("execute",),
     "citus.merge"),
    ("repro.citus.planner.distributed", "ReferenceDMLPlan", ("execute",),
     "citus.merge"),
    ("repro.citus.planner.distributed", "LocalReferencePlan", ("execute",),
     "citus.merge"),
    ("repro.citus.planner.join_order", "RepartitionPlan", ("execute",),
     "citus.merge"),
    ("repro.citus.insert_select", "PushdownInsertSelectPlan", ("execute",),
     "citus.merge"),
    ("repro.citus.insert_select", "RepartitionInsertSelectPlan",
     ("execute",), "citus.merge"),
    ("repro.citus.insert_select", "CoordinatorInsertSelectPlan",
     ("execute",), "citus.merge"),
    ("repro.citus.copy_dist", None, ("distribute_rows",), "citus.copy"),
    ("repro.citus.copy_dist", "ShardCopyRouter", ("route", "finish"),
     "citus.copy"),
    ("repro.citus.executor.adaptive", "CopyChannelExecution", ("flush",),
     "citus.copy"),
    ("repro.citus.txn.twopc", "TransactionCallbacks",
     ("pre_commit", "post_commit", "abort"), "citus.txn"),
    ("repro.net.network", "RemoteConnection",
     ("execute", "execute_async", "execute_parsed", "execute_cursor",
      "copy_rows"), "net"),
    ("repro.net.network", "RemoteCursor", ("fetch_batch",), "net"),
    ("repro.net.pool", "ConnectionPool", ("client",), "net.pool"),
    ("repro.net.pool", "PooledClient", ("execute", "copy_rows", "close"),
     "net.pool"),
    ("repro.citus.tracing", "Tracer",
     ("begin_statement", "end_statement", "fail_statement", "add_span",
      "event", "annotate"), "telemetry"),
    ("repro.citus.txngraph", "TxnGraph",
     ("note_access", "statement_begin", "statement_done",
      "discard_statement", "abort_txn", "fold"), "telemetry"),
    ("repro.engine.stats", "StatsRegistry",
     ("incr", "gauge_incr", "gauge_decr", "gauge_max", "observe"),
     "telemetry"),
]

#: Context-manager factories: the span covers ``__enter__`` and
#: ``__exit__``, not the body of the ``with`` block.
CM_ENTRY_POINTS = [
    ("repro.citus.tracing", "Tracer", ("statement", "span"), "telemetry"),
]

LAYERS = (
    ROOT_LAYER, "sql", "citus.planner", "citus.merge", "citus.executor",
    "citus.copy", "citus.txn", "net", "net.pool", "engine.coordinator",
    "engine.worker", "telemetry",
)
_WORKER, _COORD = LAYERS.index("engine.worker"), LAYERS.index("engine.coordinator")
_NET = LAYERS.index("net")
_ROOT = LAYERS.index(ROOT_LAYER)


class LayerTracer:
    """Span recorder. Single-threaded, like the simulation it traces."""

    def __init__(self):
        self.on = False
        self.request = 0
        self.names: list[str] = []
        self._stack: list[int] = []
        self._net_depth = 0
        self._name = array("i")
        self._layer = array("b")
        self._parent = array("i")
        self._req = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._installed: list[tuple] = []
        self.inner_cost = 0.0
        self.outer_cost = 0.0
        self._request_name = self._name_id("request")

    # ------------------------------------------------------------ recording

    def _begin(self, name_id: int, layer: int) -> int:
        if layer < 0:
            layer = _WORKER if self._net_depth else _COORD
        elif layer == _NET:
            self._net_depth += 1
        idx = len(self._t0)
        stack = self._stack
        self._name.append(name_id)
        self._layer.append(layer)
        self._parent.append(stack[-1] if stack else -1)
        self._req.append(self.request)
        self._t1.append(0.0)
        stack.append(idx)
        self._t0.append(perf_counter())
        return idx

    def _end(self, idx: int) -> None:
        self._t1[idx] = perf_counter()
        self._stack.pop()
        if self._layer[idx] == _NET:
            self._net_depth -= 1

    def call(self, name_id: int, layer: int, fn, args, kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        idx = self._begin(name_id, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(idx)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, layer: str | None, fn):
        name_id = self._name_id(name)
        layer_id = LAYERS.index(layer) if layer is not None else -1
        call = self.call

        def traced(*args, **kwargs):
            return call(name_id, layer_id, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def wrap_cm(self, name: str, layer: str, factory):
        tracer = self
        name_id = self._name_id(name)
        layer_id = LAYERS.index(layer)

        class TimedCM:
            __slots__ = ("cm",)

            def __init__(self, cm):
                self.cm = cm

            def __enter__(self):
                return tracer.call(name_id, layer_id, self.cm.__enter__, (), {})

            def __exit__(self, *exc):
                return tracer.call(name_id, layer_id, self.cm.__exit__, exc, {})

        def traced(*args, **kwargs):
            return TimedCM(factory(*args, **kwargs))

        traced.__wrapped__ = factory
        return traced

    def run_request(self, fn, args):
        """Run one client request as a root span with a fresh request id."""
        self.request += 1
        return self.call(self._request_name, _ROOT, fn, args, {})

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, replacement) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module_name, cls_name, attrs, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            for attr in attrs:
                fn = owner.__dict__[attr]
                label = f"{cls_name}.{attr}" if cls_name else attr
                self._patch(owner, attr, self.wrap(label, layer, fn))
        for module_name, cls_name, attrs, layer in CM_ENTRY_POINTS:
            owner = getattr(importlib.import_module(module_name), cls_name)
            for attr in attrs:
                fn = owner.__dict__[attr]
                self._patch(owner, attr,
                            self.wrap_cm(f"{cls_name}.{attr}", layer, fn))
        self._install_clock_observers()

    def _install_clock_observers(self) -> None:
        """ASH samples from a SimClock observer; time each notification."""
        from repro.net.clock import SimClock

        tracer = self
        add, remove = SimClock.add_observer, SimClock.remove_observer
        wrapped: dict = {}

        def add_observer(clock, observer):
            if observer not in wrapped:
                wrapped[observer] = tracer.wrap("clock_observer", "telemetry",
                                                observer)
            add(clock, wrapped[observer])

        def remove_observer(clock, observer):
            remove(clock, wrapped.get(observer, observer))

        self._patch(SimClock, "add_observer", add_observer)
        self._patch(SimClock, "remove_observer", remove_observer)

    def reset(self) -> None:
        """Drop every recorded span."""
        for arr in (self._name, self._layer, self._parent, self._req,
                    self._t0, self._t1):
            del arr[:]
        self._stack.clear()
        self._net_depth = 0

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- summary

    def calls(self, name: str) -> int:
        """How many spans were recorded for one entry point."""
        ids = {i for i, n in enumerate(self.names) if n == name}
        return sum(1 for n in self._name if n in ids)

    def summary(self, wall_s: float) -> dict:
        """Per-layer self seconds and call counts over the recorded spans,
        with the calibrated tracer cost taken off each span and its parent."""
        n = len(self._t0)
        t0, t1, parent, layer = self._t0, self._t1, self._parent, self._layer
        self_s = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        inner, outer = self.inner_cost, self.outer_cost
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += t1[i] - t0[i] + outer
        for i in range(n):
            lay = layer[i]
            self_s[lay] += t1[i] - t0[i] - child[i] - inner
            calls[lay] += 1
        trace_cost = n * (inner + outer)
        attributed = sum(self_s)
        return {
            "self_s": dict(zip(LAYERS, self_s)),
            "calls": dict(zip(LAYERS, calls)),
            "spans": n,
            "trace_cost_s": trace_cost,
            "attributed_s": attributed,
            "unattributed_s": wall_s - attributed - trace_cost,
        }

    def write_chrome(self, path: str, requests: int) -> None:
        """Spans of the first ``requests`` requests as Chrome trace events
        (open in chrome://tracing or Perfetto)."""
        base = self._t0[0] if len(self._t0) else 0.0
        events = []
        for i in range(len(self._t0)):
            if self._req[i] > requests:
                break
            events.append({
                "name": self.names[self._name[i]],
                "cat": LAYERS[self._layer[i]],
                "ph": "X",
                "ts": round((self._t0[i] - base) * 1e6, 3),
                "dur": round((self._t1[i] - self._t0[i]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"request": self._req[i], "parent": self._parent[i]},
            })
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)


def _noop():
    return None


def calibrate(tracer: LayerTracer, rounds: int = 5, calls: int = 20000) -> None:
    """Measure the tracer's own cost per wrapped call: ``inner`` is what a
    span's recorded duration adds to a bare call, ``outer`` what the
    wrapper spends outside that duration (charged to the caller)."""
    traced = tracer.wrap("calibration", ROOT_LAYER, _noop)
    best_bare = best_traced = best_inner = float("inf")
    tracer.on = True
    try:
        for _ in range(rounds):
            start = perf_counter()
            for _ in range(calls):
                _noop()
            best_bare = min(best_bare, (perf_counter() - start) / calls)
            first = len(tracer._t0)
            start = perf_counter()
            for _ in range(calls):
                traced()
            best_traced = min(best_traced, (perf_counter() - start) / calls)
            spans = sum(tracer._t1[i] - tracer._t0[i]
                        for i in range(first, len(tracer._t0)))
            best_inner = min(best_inner, spans / calls)
            tracer.reset()
    finally:
        tracer.on = False
    tracer.inner_cost = max(0.0, best_inner - best_bare)
    tracer.outer_cost = max(0.0, best_traced - best_inner)

