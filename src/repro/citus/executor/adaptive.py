"""Adaptive executor (§3.6.1).

Runs a distributed plan's tasks over per-worker connection pools with:

- **slow start** — a statement begins with one connection per worker; every
  10 ms (simulated) the number of connections it may open grows by one, so
  sub-millisecond index lookups never pay for extra connections while long
  analytical tasks fan out to full parallelism;
- **shared connection limit** — a per-worker cap shared by all sessions on
  this node (``citus.max_shared_pool_size``), tracked in "shared memory"
  (the extension object);
- **connection affinity** — within a transaction, the connection that first
  touched a co-located shard group handles every later task on that group,
  preserving the visibility of uncommitted writes and locks.

Execution is functionally sequential (single-threaded simulation) but the
timeline is reconstructed as if parallel: each task's measured cost is
charged to its connection, and the statement's elapsed time is the maximum
over connections, which is what the simulated clock advances by.

One :class:`_Timeline` per statement holds that policy and the connection
accounting. Three execution shapes drive it: the blocking task list
(:meth:`AdaptiveExecutor.execute_tasks`), read streams
(:class:`StreamingExecution`) and COPY channels
(:class:`CopyChannelExecution`). They differ only in the order they place
work, what a task, batch or flush costs, and how far they advance the clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...engine.locks import WouldBlock
from ...errors import NodeUnavailable
from .placement import SessionPools


@dataclass
class ExecutionReport:
    """Telemetry for one distributed statement (consumed by tests and the
    performance model). ``connections_used`` counts the connections the
    statement placed work on, not every connection cached for the
    session."""

    task_count: int = 0
    connections_used: int = 0
    connections_opened: int = 0
    connections_reused: int = 0
    elapsed: float = 0.0
    per_node_connections: dict = field(default_factory=dict)
    # Streaming pipeline telemetry (zero on the materializing path).
    bytes_streamed: int = 0
    batches_fetched: int = 0
    rows_buffered_peak: int = 0
    early_terminations: int = 0
    tasks_skipped: int = 0
    # Streaming write plane telemetry (zero on the materializing path).
    copy_flushes: int = 0
    copy_rows_routed: int = 0
    copy_bytes_streamed: int = 0
    copy_channel_peak_rows: int = 0


class _NodeConns:
    """One worker's connections within a statement: each connection's busy
    time (an offset into the statement's timeline), the ones cached before
    the statement began, and the ones it charged work to."""

    __slots__ = ("conns", "busy", "preexisting", "used")

    def __init__(self, conns: list):
        self.conns = conns
        self.busy = {id(c): 0.0 for c in conns}
        self.preexisting = {id(c) for c in conns}
        self.used: set[int] = set()


class _Timeline:
    """One statement's connection timeline, shared by every execution shape.

    It opens connections (shared-slot reservation, ``Net.RemoteConnect``
    wait, ``connect`` span), applies shard-group affinity and slow start
    when work is placed, charges busy time to connections, enlists them in
    the transaction block, keeps the per-task in-flight accounting, and
    settles the statement: elapsed time, used and reused connections,
    session stats, ``last_report`` and the transaction graph. The shape
    advances the simulated clock itself before :meth:`settle`.
    """

    def __init__(self, executor: "AdaptiveExecutor", session, task_count: int):
        ext = executor.ext
        self.executor = executor
        self.ext = ext
        self.session = session
        self.pools = SessionPools.for_session(session, ext)
        self.counters = ext.stat_counters
        self.report = ExecutionReport(task_count=task_count)
        self.nodes: dict[str, _NodeConns] = {}
        # Tracing: connect events (offsets into this statement's timeline),
        # emitted as spans anchored at the statement's start time.
        tracer = ext.tracer
        if tracer is None or not tracer.active or ext.cluster is None:
            tracer = None
        self.tracer = tracer
        self.trace_base = ext.cluster.clock.now() if tracer is not None else 0.0
        self._connects: list[tuple] = []
        self.graph = ext.txn_graph
        if self.graph is not None:
            self.graph.statement_begin()
        self.counters.incr("executor_statements")
        self.counters.gauge_incr("executor_statements_in_flight")

    # ------------------------------------------------------- connections

    def _node(self, node: str) -> _NodeConns:
        state = self.nodes.get(node)
        if state is None:
            state = self.nodes[node] = _NodeConns(
                list(self.pools.idle_connections(node)))
        return state

    def _open(self, node: str, state: _NodeConns, now: float):
        # The shared pool limit never starves a statement of its first
        # connection; beyond that, respect the limit strictly.
        if not self.ext.try_reserve_shared_slot(node, force=not state.conns):
            return None
        try:
            conn = self.pools.open_connection(node)
        except NodeUnavailable:
            self.ext.release_shared_slot(node)
            raise
        setup = self.ext.cluster.network.connection_setup_cost()
        state.conns.append(conn)
        state.busy[id(conn)] = now + setup
        self.report.connections_opened += 1
        self.counters.incr("connections_opened", node=node)
        self.session.wait_events.record("Net", "RemoteConnect", setup, node=node)
        if self.tracer is not None:
            self._connects.append((node, now, now + setup))
        return conn

    def pinned(self, node: str, shard_group):
        """The connection that already touched ``shard_group`` in this
        transaction, which must run every later task on it; else None."""
        conn = self.pools.connection_for_group(node, shard_group)
        if conn is not None:
            state = self._node(node)
            if id(conn) not in state.busy:
                state.conns.append(conn)
                state.busy[id(conn)] = 0.0
                state.preexisting.add(id(conn))
        return conn

    def pick(self, node: str, remaining: int):
        """Slow start (§3.6.1): take the earliest-free connection, but open
        another when the pool target — one more per interval of simulated
        time, capped by ``remaining`` (tasks still to place on ``node``,
        this one included) plus the connections still busy — allows it.
        The check also runs right after a node's first connection opens."""
        state = self._node(node)
        conns, busy = state.conns, state.busy
        if not conns:
            self._open(node, state, 0.0)
        conn = min(conns, key=lambda c: busy[id(c)])
        now = busy[id(conn)]
        allowance = 1 + int(now / self.executor.slow_start_interval)
        in_use = sum(1 for c in conns if busy[id(c)] > now)
        if len(conns) < min(allowance, remaining + in_use):
            conn = self._open(node, state, now) or conn
        return conn

    @staticmethod
    def pin(conn, shard_group) -> None:
        if shard_group is not None:
            conn.accessed_groups.add(shard_group)

    def place(self, node: str, shard_group, remaining: int):
        """Affinity first, else slow start; the chosen connection is pinned
        to the shard group for the rest of the transaction."""
        conn = self.pinned(node, shard_group) or self.pick(node, remaining)
        self.pin(conn, shard_group)
        return conn

    def charge(self, conn, cost: float) -> float:
        """Charge ``cost`` of busy time to ``conn``; returns its start."""
        state = self.nodes[conn.node_name]
        start = state.busy[id(conn)]
        state.busy[id(conn)] = start + cost
        state.used.add(id(conn))
        return start

    def enlist(self, conn, write: bool) -> None:
        """Join ``conn`` to the session's distributed transaction block."""
        conn.begin_if_needed()
        self.session.remote_txns[id(conn)] = conn
        if write:
            conn.did_write = True
        # Tag the worker transaction with the distributed txn id up front
        # so deadlock detection can merge the lock graphs even while this
        # statement is still waiting.
        conn.session.ensure_xid()
        from ..txn.deadlock import assign_distributed_txn_ids

        assign_distributed_txn_ids(self.ext, self.session)

    # ------------------------------------------------------------ tasks

    def task_started(self, node: str) -> None:
        self.counters.gauge_incr("tasks_in_flight", node=node)

    def task_ended(self, node: str, outcome: str = "executed") -> None:
        """``outcome`` is ``executed``, ``failed`` or ``blocked`` (a lock
        wait: the statement suspends, which is not a task failure)."""
        self.counters.gauge_decr("tasks_in_flight", node=node)
        self.counters.incr(f"tasks_{outcome}", node=node)

    # ------------------------------------------------------------ finish

    def elapsed(self) -> float:
        """The statement's elapsed time: the latest busy time over all of
        its connections."""
        return max((max(state.busy.values(), default=0.0)
                    for state in self.nodes.values()), default=0.0)

    def settle(self, failed: bool) -> ExecutionReport:
        """Statement-end accounting; the shape has advanced the clock. A
        failed statement's accesses are dropped from the transaction graph
        and its shard-group pins are left to the abort path."""
        report = self.report
        report.elapsed = self.elapsed()
        for node, state in self.nodes.items():
            report.per_node_connections[node] = len(state.used)
            reused = len(state.used & state.preexisting)
            if reused:
                report.connections_reused += reused
                self.counters.incr("connections_reused", reused, node=node)
        report.connections_used = sum(report.per_node_connections.values())
        tracer, base = self.tracer, self.trace_base
        for node, start, end in self._connects:
            tracer.add_span("connect", "network", base + start, base + end,
                            node=node)
        self.session.stats["citus_tasks"] += report.task_count
        self.session.stats["citus_connections"] += report.connections_opened
        self.counters.gauge_decr("executor_statements_in_flight")
        self.executor.last_report = report
        if self.graph is not None:
            if failed:
                self.graph.discard_statement(self.session)
            else:
                self.graph.statement_done(self.session, report.elapsed)
        if not failed and not self.session.in_transaction:
            # Shard-group affinity only matters within a transaction; drop
            # it so cached connections don't accumulate stale pins.
            for conn in self.pools.all_connections():
                if not conn.in_txn_block:
                    conn.accessed_groups.clear()
        return report


class AdaptiveExecutor:
    def __init__(self, ext):
        self.ext = ext
        self.slow_start_interval = ext.config.executor_slow_start_interval_ms / 1000.0
        self.last_report: ExecutionReport | None = None

    # ------------------------------------------------------------ public

    def execute_tasks(self, session, tasks, is_write: bool = False):
        """Run tasks, return a list of QueryResults aligned with tasks.

        Worker by worker, the tasks pinned to a connection by transaction
        affinity run first, one connection's tasks at a time; the rest are
        placed by slow start."""
        timeline = _Timeline(self, session, len(tasks))
        need_txn_block = session.in_transaction or (is_write and _multi_group(tasks))
        results: list = [None] * len(tasks)
        by_node: dict[str, list[int]] = {}
        for i, task in enumerate(tasks):
            by_node.setdefault(task.node, []).append(i)
        events: list | None = [] if timeline.tracer is not None else None
        failed = True
        try:
            for node, indexes in by_node.items():
                self._run_node_tasks(timeline, node,
                                     [(i, tasks[i]) for i in indexes], results,
                                     need_txn_block, is_write, events)
            failed = False
        finally:
            # A failed (or parked-and-retried) statement leaves the clock
            # alone, and its accesses do not count toward the transaction's
            # co-access set.
            if not failed and self.ext.cluster is not None:
                self.ext.cluster.clock.advance(timeline.elapsed())
            timeline.settle(failed)
            if events is not None:
                self._emit_task_spans(timeline, events, results)
        return results

    # ------------------------------------------------------- per node run

    def _emit_task_spans(self, timeline: _Timeline, events: list, results) -> None:
        """Turn recorded task events into spans. Offsets are relative to
        the statement start, matching the reconstructed-parallel timeline."""
        tracer, base = timeline.tracer, timeline.trace_base
        for i, node, start, cost, nbytes, group in events:
            result = results[i]
            rows = 0
            if result is not None:
                rows = result.rowcount or len(result.rows)
            tracer.add_span(
                "task", "executor", base + start, base + start + cost,
                node=node, index=i, rows=rows, bytes=nbytes,
                queued_ms=start * 1000.0, shard_group=group, retries=0,
            )

    def _run_node_tasks(self, timeline: _Timeline, node, indexed_tasks, results,
                        need_txn_block, is_write, events: list | None) -> None:
        # Tasks with transaction affinity MUST run on the connection that
        # already touched their shard group.
        pinned: dict[int, list] = {}  # id(conn) -> [(conn, i, task)]
        general: list = []
        for i, task in indexed_tasks:
            conn = timeline.pinned(node, task.shard_group)
            if conn is not None:
                pinned.setdefault(id(conn), []).append((conn, i, task))
            else:
                general.append((i, task))
        # Lock waits may only suspend single-task statements (router / fast
        # path); multi-task statements surface waits as lock timeouts.
        allow_block = timeline.report.task_count == 1
        placements = [p for bundle in pinned.values() for p in bundle]
        placements += [(None, i, task) for i, task in general]
        remaining = len(general)
        for conn, i, task in placements:
            if conn is None:
                conn = timeline.pick(node, remaining)
                remaining -= 1
            bytes_before = conn.bytes_transferred
            cost = self._execute_on(timeline, conn, task, results, i,
                                    need_txn_block, allow_block, is_write)
            start = timeline.charge(conn, cost)
            if events is not None:
                events.append((i, node, start, cost,
                               conn.bytes_transferred - bytes_before,
                               task.shard_group))

    def _execute_on(self, timeline: _Timeline, conn, task, results, i,
                    need_txn_block, allow_block, is_write) -> float:
        node = conn.node_name
        timeline.task_started(node)
        try:
            cost = self._execute_task(timeline, conn, task, results, i,
                                      need_txn_block, allow_block, is_write)
        except WouldBlock:
            # Lock wait: the statement parks and retries wholesale.
            timeline.task_ended(node, "blocked")
            raise
        except Exception:
            timeline.task_ended(node, "failed")
            raise
        timeline.task_ended(node)
        return cost

    def _execute_task(self, timeline: _Timeline, conn, task, results, i,
                      need_txn_block, allow_block, is_write) -> float:
        session = timeline.session
        if need_txn_block:
            timeline.enlist(conn, is_write)
        timeline.pin(conn, task.shard_group)
        graph = self.ext.txn_graph
        bytes_before = conn.bytes_transferred if graph is not None else 0
        before = conn.elapsed
        if task.copy_rows is not None:
            count = conn.copy_rows(task.copy_table, task.copy_rows, task.copy_columns)
            from ...engine.executor import QueryResult

            result = QueryResult([], [], command="COPY")
            result.rowcount = count
        elif task.stmt is not None:
            result = conn.execute_parsed(task.stmt, task.params,
                                         allow_block=allow_block)
        else:
            result = conn.execute(task.sql, task.params, allow_block=allow_block)
        results[i] = result
        # Per-task simulated cost: network latency accrued plus a CPU term
        # proportional to rows produced/affected.
        rows = result.rowcount if result.rowcount else len(result.rows)
        cpu_cost = rows * self.ext.config.per_row_cpu_cost
        cost = (conn.elapsed - before) + cpu_cost
        session.wait_events.record(
            "Net", "RemoteCopy" if task.copy_rows is not None else "RemoteExecute",
            cost, node=conn.node_name,
        )
        if graph is not None:
            graph.note_access(session, conn.node_name, task.shard_group,
                              is_write, conn.bytes_transferred - bytes_before)
        return cost

    # -------------------------------------------------------- streaming

    def open_task_streams(self, session, tasks):
        """Streaming entry point for multi-shard SELECTs: returns a
        :class:`StreamingExecution` whose per-task :class:`TaskStream`
        handles pull row batches on demand, or None when streaming does
        not apply (disabled by GUC, no tasks, or non-SELECT tasks) and the
        caller must fall back to :meth:`execute_tasks`."""
        config = self.ext.config
        if not getattr(config, "enable_streaming_pipeline", True):
            return None
        if not tasks or self.ext.cluster is None:
            return None
        if any(t.copy_rows is not None or not t.returns_rows for t in tasks):
            return None
        return StreamingExecution(self, session, tasks,
                                  batch_size=config.stream_batch_size)

    def open_copy_channels(self, session, expected_by_node):
        """Write-side streaming entry point: a :class:`CopyChannelExecution`
        that accepts incremental per-shard COPY flushes to the destination
        shards, ``expected_by_node`` of them per worker. The caller (the
        ShardCopyRouter) decides *whether* streaming writes apply; this
        only builds the execution."""
        return CopyChannelExecution(self, session,
                                    expected_by_node=expected_by_node)


class TaskStream:
    """Pull handle for one task's rows. The remote cursor opens lazily on
    first fetch, so a coordinator merge that is satisfied early never
    dispatches the remaining tasks at all."""

    __slots__ = ("execution", "index", "task", "cursor", "conn", "opened",
                 "done", "failed")

    def __init__(self, execution: "StreamingExecution", index: int, task):
        self.execution = execution
        self.index = index
        self.task = task
        self.cursor = None
        self.conn = None
        self.opened = False
        self.done = False
        self.failed = False

    @property
    def columns(self):
        self.ensure_open()
        return self.cursor.columns

    def ensure_open(self) -> None:
        if not self.opened:
            self.execution._open_stream(self)

    def fetch(self):
        """Next row batch, or None once this shard stream is drained."""
        if self.done:
            return None
        self.ensure_open()
        return self.execution._fetch(self)

    def close(self) -> None:
        self.execution._close_stream(self)


class StreamingExecution:
    """One multi-shard SELECT executed as per-task remote cursors.

    Execution stays functionally sequential (single-threaded simulation),
    but the timeline is reconstructed as if the shard streams drained in
    parallel: each stream is placed on the statement's :class:`_Timeline`
    when the merge first pulls it, every dispatch/fetch charges simulated
    busy time to its connection, and :meth:`finish` advances the clock by
    the statement's elapsed time.

    A task costs one round trip when its result fits in one batch: the
    dispatch response carries the first batch, so the dispatch step
    (``Net.RemoteDispatch`` wait, ``dispatch`` span with a nested
    ``batch`` child) holds that batch's transfer and per-row CPU. Only
    the batches that cost their own round trip — later batches, and the
    end-of-stream probe after a full last batch — are charged as
    ``Net.RemoteFetch`` waits and top-level ``batch`` spans. Every
    delivered batch, the first included, counts in ``batches_fetched``
    and ``bytes_streamed`` when the merge pulls it.
    """

    def __init__(self, executor: AdaptiveExecutor, session, tasks, batch_size: int):
        self.ext = executor.ext
        self.session = session
        self.batch_size = batch_size
        self.timeline = _Timeline(executor, session, len(tasks))
        self.report = self.timeline.report
        self.counters = self.ext.stat_counters
        self.streams = [TaskStream(self, i, t) for i, t in enumerate(tasks)]
        # Streams not yet dispatched per node: the slow-start cap.
        self._unopened: dict[str, int] = {}
        for task in tasks:
            self._unopened[task.node] = self._unopened.get(task.node, 0) + 1
        self._early_noted = False
        self._finished = False
        # Tracing: per-stream timeline events (dispatch, cursor batches,
        # close), emitted as spans in finish().
        self._trace_events: dict[int, dict] = {}

    # -------------------------------------------------- merge-side hooks

    def note_buffered(self, n: int) -> None:
        """Record the coordinator merge's current buffered row count."""
        if n > self.report.rows_buffered_peak:
            self.report.rows_buffered_peak = n

    def note_early_termination(self) -> None:
        """The merge is satisfied with shard streams still undrained."""
        if not self._early_noted:
            self._early_noted = True
            self.report.early_terminations += 1
            self.counters.incr("early_terminations")

    # ------------------------------------------------------ stream plumbing

    def _open_stream(self, stream: TaskStream) -> None:
        task = stream.task
        node = task.node
        timeline = self.timeline
        remaining = self._unopened[node]
        self._unopened[node] = remaining - 1
        conn = timeline.place(node, task.shard_group, remaining)
        stream.conn = conn
        stream.opened = True
        if self.session.in_transaction:
            timeline.enlist(conn, write=False)
        timeline.task_started(node)
        before = conn.elapsed
        try:
            stream.cursor = conn.execute_cursor(
                task.stmt, task.params, batch_size=self.batch_size, sql=task.sql,
            )
        except WouldBlock as block:
            self._stream_finished(stream, "blocked")
            from ...errors import LockTimeout

            raise LockTimeout(f"could not obtain lock: {block}") from None
        except Exception:
            self._stream_finished(stream, "failed")
            raise
        # The dispatch response carries the first batch: its transfer and
        # per-row CPU belong to the dispatch step.
        cursor = stream.cursor
        first_rows = len(cursor.prefetched) if cursor.prefetched else 0
        first_cpu = first_rows * self.ext.config.per_row_cpu_cost
        cost = (conn.elapsed - before) + first_cpu
        start = timeline.charge(conn, cost)
        self.session.wait_events.record("Net", "RemoteDispatch", cost,
                                        node=conn.node_name)
        if timeline.graph is not None:
            # Read access recorded at dispatch (bytes accrue per fetch), so
            # even a zero-row shard stream appears in the access set.
            timeline.graph.note_access(self.session, conn.node_name,
                                       task.shard_group, False, 0)
        if timeline.tracer is not None:
            end = start + cost
            self._trace_events[stream.index] = {
                "node": conn.node_name,
                "group": task.shard_group,
                "open": (start, end),
                "first": ((end - cursor.prefetch_elapsed - first_cpu, end,
                           first_rows, cursor.prefetch_payload)
                          if first_rows else None),
                "batches": [],
            }

    def _fetch(self, stream: TaskStream):
        conn = stream.conn
        trips = conn.round_trips
        before = conn.elapsed
        try:
            batch = stream.cursor.fetch_batch()
        except WouldBlock as block:
            # Multi-task statements never park; a remote lock wait during
            # a fetch surfaces as a lock timeout, like the blocking path.
            self._stream_finished(stream, "blocked")
            from ...errors import LockTimeout

            raise LockTimeout(f"could not obtain lock: {block}") from None
        except Exception:
            self._stream_finished(stream, "failed")
            raise
        if conn.round_trips != trips:
            # Only batches after the first cost their own round trip (the
            # first was charged to the dispatch step).
            cost = conn.elapsed - before
            if batch:
                cost += len(batch) * self.ext.config.per_row_cpu_cost
            start = self.timeline.charge(conn, cost)
            self.session.wait_events.record("Net", "RemoteFetch", cost,
                                            node=conn.node_name)
            events = self._trace_events.get(stream.index)
            if events is not None:
                events["batches"].append(
                    (start, start + cost,
                     len(batch) if batch else 0,
                     stream.cursor.last_payload if batch else 0)
                )
        if batch is None:
            self._stream_finished(stream)
            return None
        self.report.batches_fetched += 1
        self.report.bytes_streamed += stream.cursor.last_payload
        self.counters.incr("batches_fetched", node=conn.node_name)
        self.counters.incr("bytes_streamed", stream.cursor.last_payload,
                           node=conn.node_name)
        if self.timeline.graph is not None:
            self.timeline.graph.note_access(self.session, conn.node_name,
                                            stream.task.shard_group, False,
                                            stream.cursor.last_payload)
        return batch

    def _close_stream(self, stream: TaskStream) -> None:
        if stream.done:
            return
        if not stream.opened:
            # Never dispatched: the early-terminated merge skipped this
            # task outright — no connection, no round trips, no worker CPU.
            stream.done = True
            self.report.tasks_skipped += 1
            self.counters.incr("tasks_skipped", node=stream.task.node)
            return
        conn = stream.conn
        before = conn.elapsed
        stream.cursor.close()
        cost = conn.elapsed - before
        start = self.timeline.charge(conn, cost)
        events = self._trace_events.get(stream.index)
        if events is not None:
            events["close"] = (start, start + cost)
        self._stream_finished(stream)

    def _stream_finished(self, stream: TaskStream,
                         outcome: str = "executed") -> None:
        if stream.done:
            return
        stream.done = True
        stream.failed = outcome != "executed"
        self.timeline.task_ended(stream.task.node, outcome)

    def _emit_stream_spans(self) -> None:
        """Emit the collected streaming timeline as spans: one ``task``
        span per dispatched stream with nested ``dispatch``/``batch``
        children, plus zero-duration markers for tasks the early-terminated
        merge never dispatched."""
        tracer = self.timeline.tracer
        base = self.timeline.trace_base
        for stream in self.streams:
            events = self._trace_events.get(stream.index)
            if events is None:
                # Never dispatched (early-terminated merge skipped it).
                tracer.add_span(
                    "task", "executor", base, base, node=stream.task.node,
                    index=stream.index, rows=0, bytes=0, batches=0,
                    skipped=True, retries=0,
                )
                continue
            open_start, open_end = events["open"]
            end = open_end
            cursor = stream.cursor
            task_span = tracer.add_span(
                "task", "executor", base + open_start, base + open_end,
                node=events["node"], index=stream.index,
                rows=cursor.rows_fetched if cursor is not None else 0,
                bytes=(256 + cursor.bytes_fetched) if cursor is not None else 0,
                batches=cursor.batches_fetched if cursor is not None else 0,
                shard_group=events["group"], retries=0,
            )
            if task_span is None:
                continue
            from ..tracing import Span

            dispatch = task_span.add(Span("dispatch", "network",
                                          base + open_start, base + open_end,
                                          node=events["node"]))
            first = events["first"]
            if first is not None:
                # The first batch rode the dispatch response.
                b_start, b_end, rows, nbytes = first
                dispatch.add(Span("batch", "network", base + b_start,
                                  base + b_end, node=events["node"],
                                  attrs={"rows": rows, "bytes": nbytes}))
            for b_start, b_end, rows, nbytes in events["batches"]:
                task_span.add(Span("batch", "network", base + b_start,
                                   base + b_end, node=events["node"],
                                   attrs={"rows": rows, "bytes": nbytes}))
                end = max(end, b_end)
            close = events.get("close")
            if close is not None:
                task_span.add(Span("close", "network", base + close[0],
                                   base + close[1], node=events["node"]))
                end = max(end, close[1])
            task_span.end = base + end

    # ------------------------------------------------------------ finish

    def finish(self) -> ExecutionReport:
        """Close remaining streams, advance the clock by the statement's
        elapsed time and settle the timeline. Idempotent; always called
        (``finally``)."""
        if self._finished:
            return self.report
        self._finished = True
        for stream in self.streams:
            if not stream.done:
                try:
                    self._close_stream(stream)
                except Exception:
                    # Teardown must settle gauges even over broken conns.
                    self._stream_finished(stream, "failed")
        self.ext.cluster.clock.advance(self.timeline.elapsed())
        if self.report.rows_buffered_peak:
            self.counters.gauge_max("rows_buffered_peak",
                                    self.report.rows_buffered_peak)
        report = self.timeline.settle(
            failed=any(stream.failed for stream in self.streams))
        if self.timeline.tracer is not None:
            self._emit_stream_spans()
        return report


class CopyChannelExecution:
    """One distributed write statement executed as per-shard COPY channels.

    The write-side counterpart of :class:`StreamingExecution`: the
    ShardCopyRouter hands over bounded row batches ("flushes") as its
    channels fill, instead of one materialized batch per shard at the end.
    Every flush runs inside a worker transaction block registered in
    ``session.remote_txns`` — a mid-stream error aborts through the normal
    statement-failure path and rolls back every shard, and the statement's
    commit settles through the 1PC/2PC callbacks exactly as before.

    Each channel is placed on the statement's :class:`_Timeline` at its
    first flush, and affinity pins its shard group to that connection, so
    rows arrive at a shard in routing order and later statements in the
    same transaction see the uncommitted COPY. Each flush charges simulated
    busy time to its connection. Because the flushes overlap the
    statement's read side (the distributed SELECT or client COPY stream
    that feeds the router), :meth:`finish` advances the clock only by the
    write timeline's *non-overlapped* remainder — the statement's
    end-to-end time is max(read, write), not read + write, which is exactly
    the pipelining win of §3.8.
    """

    def __init__(self, executor: AdaptiveExecutor, session, expected_by_node):
        self.ext = executor.ext
        self.session = session
        self.timeline = _Timeline(executor, session, 0)
        self.report = self.timeline.report
        self.counters = self.ext.stat_counters
        # Channels that may still open per node (the count of destination
        # shards placed there): the slow-start cap.
        self._unopened: dict[str, int] = dict(expected_by_node)
        self._channels: dict = {}  # channel key -> per-channel state
        self._finished = False
        # Clock position when routing began: everything the read side
        # advances between now and finish() overlaps the write timeline.
        self._start_clock = (self.ext.cluster.clock.now()
                             if self.ext.cluster is not None else 0.0)

    # --------------------------------------------------- router-side hooks

    def note_buffered(self, n: int) -> None:
        """Record a buffered-row high-water mark from the router (its
        total across all channels) — the write-side bounded-buffer
        acceptance metric."""
        if n > self.report.copy_channel_peak_rows:
            self.report.copy_channel_peak_rows = n

    # ------------------------------------------------------------ channels

    def _channel(self, key, index, node, shard_group) -> dict:
        channel = self._channels.get(key)
        if channel is None:
            remaining = self._unopened[node]
            self._unopened[node] = remaining - 1
            conn = self.timeline.place(node, shard_group, remaining)
            channel = {
                "index": index, "node": node, "group": shard_group,
                "conn": conn, "rows": 0, "bytes": 0, "flushes": 0,
                "events": [] if self.timeline.tracer is not None else None,
                "done": False, "failed": False,
            }
            self._channels[key] = channel
            self.timeline.task_started(node)
        return channel

    def flush(self, key, index, node, shard_group, shard_name, columns,
              rows) -> None:
        """Ship one bounded row batch to its destination shard, inside the
        write transaction."""
        channel = self._channel(key, index, node, shard_group)
        conn = channel["conn"]
        # Every flush is transactional: a later error must be able to roll
        # back rows that already crossed the wire.
        self.timeline.enlist(conn, write=True)
        before = conn.elapsed
        bytes_before = conn.bytes_transferred
        try:
            # The first flush opens the shard's COPY stream (a round trip);
            # later flushes ride it asynchronously at bandwidth cost only.
            conn.copy_rows(shard_name, rows, columns,
                           pipelined=channel["flushes"] > 0)
        except Exception:
            self._channel_finished(channel, "failed")
            raise
        nbytes = conn.bytes_transferred - bytes_before
        cost = (conn.elapsed - before) + len(rows) * self.ext.config.per_row_cpu_cost
        start = self.timeline.charge(conn, cost)
        self.session.wait_events.record("Net", "RemoteCopy", cost, node=node)
        channel["rows"] += len(rows)
        channel["bytes"] += nbytes
        channel["flushes"] += 1
        if channel["events"] is not None:
            channel["events"].append((start, start + cost, len(rows), nbytes))
        report = self.report
        report.copy_flushes += 1
        report.copy_rows_routed += len(rows)
        report.copy_bytes_streamed += nbytes
        self.counters.incr("copy_flushes", node=node)
        self.counters.incr("copy_rows_routed", len(rows), node=node)
        self.counters.incr("copy_bytes_streamed", nbytes, node=node)
        if self.timeline.graph is not None:
            self.timeline.graph.note_access(self.session, node, shard_group,
                                            True, nbytes)

    def _channel_finished(self, channel: dict,
                          outcome: str = "executed") -> None:
        if channel["done"]:
            return
        channel["done"] = True
        channel["failed"] = outcome != "executed"
        self.timeline.task_ended(channel["node"], outcome)

    def _emit_channel_spans(self) -> None:
        """One ``task`` span per destination channel (matched back to the
        plan's per-shard task list by ``index``) with nested per-flush
        children, plus the aggregate ``route`` span."""
        tracer = self.timeline.tracer
        base = self.timeline.trace_base
        from ..tracing import Span

        for channel in self._channels.values():
            events = channel["events"] or []
            first = events[0][0] if events else 0.0
            last = events[-1][1] if events else 0.0
            task_span = tracer.add_span(
                "task", "executor", base + first, base + last,
                node=channel["node"], index=channel["index"],
                rows=channel["rows"], bytes=channel["bytes"],
                batches=channel["flushes"], shard_group=channel["group"],
                retries=0,
            )
            if task_span is None:
                continue
            for f_start, f_end, rows, nbytes in events:
                task_span.add(Span("flush", "network", base + f_start,
                                   base + f_end, node=channel["node"],
                                   attrs={"rows": rows, "bytes": nbytes}))
        # Aggregate routing span: EXPLAIN ANALYZE lifts these actuals onto
        # the "Repartition:" line of the plan tree.
        report = self.report
        tracer.add_span(
            "route", "repartition", base, base + report.elapsed,
            flushes=report.copy_flushes, rows=report.copy_rows_routed,
            bytes=report.copy_bytes_streamed,
            channel_peak_rows=report.copy_channel_peak_rows,
            channels=len(self._channels),
        )

    # ------------------------------------------------------------ finish

    def finish(self) -> ExecutionReport:
        """Advance the clock by the write timeline's non-overlapped
        remainder and settle the timeline. Idempotent; always called
        (``finally``), including on failure."""
        if self._finished:
            return self.report
        self._finished = True
        for channel in self._channels.values():
            self._channel_finished(channel)
        self.report.task_count = len(self._channels)
        if self.ext.cluster is not None:
            # Pipelining: the read side already advanced the clock while
            # rows were being routed; only the write timeline's remainder
            # beyond that overlap extends the statement.
            overlapped = self.ext.cluster.clock.now() - self._start_clock
            self.ext.cluster.clock.advance(
                max(0.0, self.timeline.elapsed() - overlapped))
        if self.report.copy_channel_peak_rows:
            self.counters.gauge_max("copy_channel_peak_rows",
                                    self.report.copy_channel_peak_rows)
        # A failed flush aborts the whole write through the session's
        # statement-failure path; only a clean finish commits the
        # statement's accesses to the transaction graph.
        report = self.timeline.settle(
            failed=any(c["failed"] for c in self._channels.values()))
        if self.timeline.tracer is not None:
            self._emit_channel_spans()
        return report


def _multi_group(tasks) -> bool:
    groups = {t.shard_group for t in tasks}
    nodes = {t.node for t in tasks}
    return len(groups) > 1 or len(nodes) > 1
