"""The benchmark's three workloads.

Each workload generates its inputs from the seed before anything is timed,
builds its cluster in :meth:`setup` (the timed set-up), issues a fixed
request sequence through the public client surface in :meth:`run`, and
compares the answers with ones derived from the generated inputs in
:meth:`check`. The program only ever sees the generated rows and
statements. Sizes come from ``workloads.json``.
"""

from __future__ import annotations

import random

from repro import make_cluster
from repro.workloads import gharchive
from repro.workloads.traffic import CounterRule, TrafficConfig, TrafficHarness
from repro.workloads.traffic import default_slo_spec
from repro.workloads.traffic.harness import SessionActor
from repro.workloads.traffic.mixes import MIXES


def result_rows(result) -> int:
    """Rows a request wrote or returned."""
    return result.rowcount or len(result.rows)


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.sizes = sizes
        self.citus = None

    @property
    def clock(self):
        return self.citus.cluster.clock

    def admin(self, sql: str):
        session = self.citus.coordinator_session("perfbench")
        try:
            return session.execute(sql).scalar()
        finally:
            session.close()

    def setup(self) -> None:
        raise NotImplementedError

    def before(self) -> None:
        """Untimed work between set-up and the measured phase."""

    def run(self, rec) -> None:
        raise NotImplementedError

    def check(self, corrupt: bool) -> list[str]:
        raise NotImplementedError


# ------------------------------------------------------------ tenant_oltp


class _CountingClient:
    """Pool client proxy that counts the rows each statement touched."""

    __slots__ = ("client", "rec")

    def __init__(self, client, rec):
        self.client = client
        self.rec = rec

    def execute(self, sql, params=None):
        result = self.client.execute(sql, params)
        self.rec.rows += result_rows(result)
        return result

    def copy_rows(self, table, rows, columns=None):
        count = self.client.copy_rows(table, rows, columns)
        self.rec.rows += count
        return count


class _TimedActor(SessionActor):
    """A harness session whose every transaction is one timed request."""

    __slots__ = ("rec",)

    def __init__(self, actor_id, harness, pool, rec):
        super().__init__(actor_id, harness, pool)
        self.rec = rec

    def _one_transaction(self, client, cfg) -> None:
        totals = self.harness.totals
        done = totals["transactions"]
        self.rec.request(self.mix.name, super()._one_transaction,
                         _CountingClient(client, self.rec), cfg)
        if totals["transactions"] == done:
            self.rec.failed += 1


class _StratifiedHarness(TrafficHarness):
    """The traffic harness with a seed-independent tenant population.

    Tenants take mixes in Zipf rank order, each the mix furthest below its
    weight in expected traffic, so every seed runs the default mix weights.
    Left to the seed, the two or three hottest tenants' mixes would set a
    third of the traffic, and seeds would differ in workload, not just in
    draws. The seed still draws arrivals, think times, the tenant of each
    session, keys and values."""

    def __init__(self, citus, config):
        super().__init__(citus, config)
        weights = config.mix_weights
        total = sum(weights.values())
        share = dict.fromkeys(weights, 0.0)
        self.assignment = []
        for tenant in range(config.tenants):
            name = max(weights, key=lambda m: weights[m] / total - share[m])
            share[name] += self.zipf.probability(tenant)
            self.assignment.append(name)

    def mix_for_tenant(self, tenant: int):
        return MIXES[self.assignment[tenant]]


class TenantOltp(Workload):
    """The closed-loop traffic harness: YCSB A/B/C, TPC-C payment /
    order-status / stock-level and gharchive ingest over Zipf tenants."""

    name = "tenant_oltp"
    MONEY = (
        ("w_ytd", "SELECT sum(w_ytd) FROM warehouse"),
        ("d_ytd", "SELECT sum(d_ytd) FROM district"),
        ("c_balance", "SELECT sum(c_balance) FROM customer"),
    )

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        s = sizes
        self.config = TrafficConfig(
            sessions=s["sessions"], tenants=s["tenants"], zipf_s=s["zipf_s"],
            seed=seed, sim_duration=float("inf"),
            max_transactions=s["transactions"], think="exponential",
            think_mean=s["think_mean_sim_s"], ramp_seconds=s["ramp_sim_s"],
            session_lifetime=tuple(s["session_lifetime"]),
            ycsb_keys_per_tenant=s["ycsb_keys_per_tenant"],
            tpcc_warehouses=s["tpcc_warehouses"],
            cross_warehouse_fraction=s["cross_warehouse_fraction"],
            gharchive_batch_rows=s["gharchive_batch_rows"],
            pool_size=s["pool_size"], max_client_conn=4 * s["sessions"],
        )

    def setup(self) -> None:
        self.citus = make_cluster(workers=self.sizes["workers"],
                                  shard_count=self.sizes["shards"],
                                  max_connections=4 * self.sizes["sessions"])
        self.harness = _StratifiedHarness(self.citus, self.config)
        self.harness.prepare()

    def before(self) -> None:
        self.money_before = {col: self.admin(sql) for col, sql in self.MONEY}

    def run(self, rec) -> None:
        harness = self.harness
        harness.actors = [_TimedActor(a.actor_id, harness, a.pool, rec)
                          for a in harness.actors]
        harness.run()

    def check(self, corrupt: bool) -> list[str]:
        failures = []
        threshold = self.citus.coordinator_ext.config.copy_flush_threshold
        rules = default_slo_spec() + [CounterRule(
            "copy channels bounded", "copy_channel_peak_rows",
            threshold * self.sizes["shards"])]
        slo = self.harness.report(rules)["slo"]
        if not slo["passed"]:
            failures.append(f"SLO rules failed: {slo['failed_rules']}")
        delta = {col: (self.admin(sql) or 0.0) - (self.money_before[col] or 0.0)
                 for col, sql in self.MONEY}
        paid = delta["w_ytd"] + (1.0 if corrupt else 0.0)
        tolerance = 1e-6 * max(1.0, abs(paid))
        if paid <= 0:
            failures.append("no payment committed in the measured phase")
        if abs(delta["d_ytd"] - paid) > tolerance or \
                abs(delta["c_balance"] + paid) > tolerance:
            failures.append(
                "payments do not conserve money: "
                f"dw_ytd={paid!r} dd_ytd={delta['d_ytd']!r} "
                f"dc_balance={delta['c_balance']!r}")
        return failures


# -------------------------------------------------------------- analytics


class Analytics(Workload):
    """One client rotating five multi-shard query shapes over a fact table,
    a co-located line-item table and a reference dimension table."""

    name = "analytics"
    SHAPES = {
        "agg": "SELECT cat, count(*), sum(amount) FROM facts"
               " WHERE amount > {v} GROUP BY cat ORDER BY cat",
        "topn": "SELECT f_id, amount FROM facts WHERE cat = {v}"
                " ORDER BY amount DESC, f_id LIMIT 10",
        "ref_join": "SELECT d.region, count(*), sum(f.amount) FROM facts f"
                    " JOIN dims d ON f.cat = d.d_id WHERE f.day = {v}"
                    " GROUP BY d.region ORDER BY d.region",
        "colocated_join": "SELECT count(*), sum(i.qty * i.price) FROM facts f"
                          " JOIN items i ON f.f_id = i.f_id"
                          " WHERE f.cust_id < {v}",
        "repartition_join": "SELECT count(*), sum(i.qty) FROM facts f"
                            " JOIN items i ON f.f_id = i.ref_id"
                            " WHERE f.amount < {v}",
    }
    SCHEMA = (
        "CREATE TABLE facts (f_id int PRIMARY KEY, cust_id int, cat int,"
        " amount int, day int)",
        "SELECT create_distributed_table('facts', 'f_id')",
        "CREATE TABLE items (f_id int, line int, ref_id int, qty int,"
        " price int, PRIMARY KEY (f_id, line))",
        "SELECT create_distributed_table('items', 'f_id',"
        " colocate_with := 'facts')",
        "CREATE TABLE dims (d_id int PRIMARY KEY, region int, name text)",
        "SELECT create_reference_table('dims')",
    )

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        rng = random.Random(f"{seed}-analytics-data")
        n, cats = sizes["fact_rows"], sizes["dimension_rows"]
        self.facts = [[i, rng.randrange(sizes["customers"]), rng.randrange(cats),
                       rng.randrange(1000), rng.randrange(sizes["days"])]
                      for i in range(n)]
        self.items = [[f[0], line, rng.randrange(n), rng.randint(1, 9),
                       rng.randint(1, 99)]
                      for f in self.facts
                      for line in range(rng.randint(0, sizes["items_per_fact_max"]))]
        self.dims = [[d, d % 5, f"dim-{d}"] for d in range(cats)]
        qrng = random.Random(f"{seed}-analytics-queries")
        draw = {
            "agg": lambda: qrng.randrange(1000),
            "topn": lambda: qrng.randrange(cats),
            "ref_join": lambda: qrng.randrange(sizes["days"]),
            "colocated_join": lambda: qrng.randrange(1, sizes["customers"]),
            "repartition_join": lambda: qrng.randrange(1, 1000),
        }
        shapes = list(self.SHAPES)
        self.queries = []
        for k in range(sizes["queries"]):
            shape = shapes[k % len(shapes)]
            value = draw[shape]()
            self.queries.append((shape, self.SHAPES[shape].format(v=value),
                                 value))

    def setup(self) -> None:
        self.citus = make_cluster(workers=self.sizes["workers"],
                                  shard_count=self.sizes["shards"])
        session = self.citus.coordinator_session("perfbench_load")
        try:
            for sql in self.SCHEMA:
                session.execute(sql)
            session.copy_rows("facts", self.facts)
            session.copy_rows("items", self.items)
            session.copy_rows("dims", self.dims)
        finally:
            session.close()

    def run(self, rec) -> None:
        session = self.citus.coordinator_session("perfbench")
        try:
            self.answers = [rec.request(shape, session.execute, sql)
                            for shape, sql, _ in self.queries]
        finally:
            session.close()

    def expected(self, shape: str, v: int) -> list[tuple]:
        facts, items = self.facts, self.items
        if shape == "agg":
            groups: dict = {}
            for _, _, cat, amount, _ in facts:
                if amount > v:
                    c, s = groups.get(cat, (0, 0))
                    groups[cat] = (c + 1, s + amount)
            return [(cat, c, s) for cat, (c, s) in sorted(groups.items())]
        if shape == "topn":
            rows = sorted(((f[0], f[3]) for f in facts if f[2] == v),
                          key=lambda r: (-r[1], r[0]))
            return rows[:10]
        if shape == "ref_join":
            region = {d[0]: d[1] for d in self.dims}
            groups = {}
            for _, _, cat, amount, day in facts:
                if day == v:
                    c, s = groups.get(region[cat], (0, 0))
                    groups[region[cat]] = (c + 1, s + amount)
            return [(r, c, s) for r, (c, s) in sorted(groups.items())]
        if shape == "colocated_join":
            keep = {f[0] for f in facts if f[1] < v}
            hits = [i for i in items if i[0] in keep]
            return [(len(hits), sum(i[3] * i[4] for i in hits) if hits else None)]
        keep = {f[0] for f in facts if f[3] < v}
        hits = [i for i in items if i[2] in keep]
        return [(len(hits), sum(i[3] for i in hits) if hits else None)]

    def check(self, corrupt: bool) -> list[str]:
        failures = []
        for k, ((shape, sql, value), result) in enumerate(
                zip(self.queries, self.answers)):
            want = self.expected(shape, value)
            if corrupt and k == 0:
                want = want[1:] if want else [(0,)]
            got = [tuple(row) for row in result.rows] if result else None
            if got != want:
                failures.append(f"{shape} answer differs for {sql!r}:"
                                f" got {got!r:.200}, expected {want!r:.200}")
        return failures


# ----------------------------------------------------------------- ingest


class Ingest(Workload):
    """Batched COPY of GitHub-archive events into the GIN-indexed events
    table, then the Fig. 7c transform, a repartition INSERT..SELECT keyed on
    a non-distribution column, and the Fig. 7b dashboard."""

    name = "ingest"
    REPO_EVENTS = (
        "CREATE TABLE repo_events (repo text, event_id text, created_at date,"
        " PRIMARY KEY (repo, event_id))",
        "SELECT create_distributed_table('repo_events', 'repo')",
    )
    REPARTITION = (
        "INSERT INTO repo_events (repo, event_id, created_at)"
        " SELECT data->>'repo', event_id, (data->>'created_at')::date"
        " FROM github_events"
    )

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.archive = gharchive.ArchiveConfig(events=sizes["events"], seed=seed)
        self.events = list(gharchive.generate_events(self.archive))
        self.pushes = sum(1 for _, data in self.events
                          if data["type"] == "PushEvent")
        self.mentions = gharchive.expected_postgres_mentions(self.archive)

    def setup(self) -> None:
        self.citus = make_cluster(workers=self.sizes["workers"],
                                  shard_count=self.sizes["shards"])
        session = self.citus.coordinator_session("perfbench_schema")
        try:
            gharchive.create_schema(session, distributed=True,
                                    with_index=True, with_rollup=True)
            for sql in self.REPO_EVENTS:
                session.execute(sql)
        finally:
            session.close()

    def run(self, rec) -> None:
        batch = self.sizes["copy_batch_rows"]
        session = self.citus.coordinator_session("perfbench")
        try:
            self.copied = [
                rec.request("copy", session.copy_rows, "github_events",
                            self.events[i:i + batch])
                for i in range(0, len(self.events), batch)
            ]
            self.transform = rec.request("transform", session.execute,
                                         gharchive.TRANSFORM_QUERY)
            self.repartition = rec.request("repartition", session.execute,
                                           self.REPARTITION)
            self.dashboard = rec.request("dashboard", session.execute,
                                         gharchive.DASHBOARD_QUERY)
        finally:
            session.close()

    def check(self, corrupt: bool) -> list[str]:
        failures = []
        if sum(n or 0 for n in self.copied) != len(self.events):
            failures.append(f"COPY wrote {self.copied!r:.200} rows,"
                            f" expected {len(self.events)}")
        for label, result, want in (
                ("transform INSERT..SELECT", self.transform, self.pushes),
                ("repartition INSERT..SELECT", self.repartition,
                 len(self.events))):
            got = result.rowcount if result else None
            if got != want:
                failures.append(f"{label} wrote {got} rows, selected {want}")
        total = sum(row[1] for row in self.dashboard.rows) \
            if self.dashboard else None
        want = self.mentions + (1 if corrupt else 0)
        if total != want:
            failures.append(f"dashboard total {total} != {want}"
                            " expected postgres mentions")
        return failures


WORKLOADS = {cls.name: cls for cls in (TenantOltp, Analytics, Ingest)}
