"""The uncertain TPC-H workloads: ``tpch_mem`` and ``tpch_spill``.

Both load ``repro.workloads.tpch_uncertain`` at :data:`SCALE_FACTOR` into
an in-memory database with a :data:`BUFFER_PAGES`-page buffer pool, then
run query passes in a closed loop (one client, the next statement is sent
when the previous one returns).  ``tpch_mem`` runs the whole
``query_suite`` with ``work_mem`` unbounded; ``tpch_spill`` runs the two
queries that spill (``join_orders``, ``orderby_linenumber``) under
:data:`SPILL_WORK_MEM`, and checks their digests against the in-memory
results for the same seed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
from dataclasses import asdict, replace
from itertools import islice
from time import perf_counter
from typing import Dict, List, Optional, Set

from repro.core.model import ModelConfig
from repro.engine.database import Database
from repro.engine.storage.serialize import encode_pdf
from repro.workloads import tpch_uncertain

from common import Calibrator, Probe, Run, peak_rss_mb, percentile, settle
from layers import install, layer_metrics
from tracer import Tracer

#: lineitem 9000 rows (~1480 pages, ~5.8x the pool), orders 2250, part 300
SCALE_FACTOR = 0.0015
BUFFER_PAGES = 256
#: the join's build side (orders, ~650 KiB by the engine's estimate) is
#: ~4x this budget, and the ORDER BY input far larger
SPILL_WORK_MEM = 160 * 1024
SETUPS = 3
#: query passes on each loaded instance of tpch_mem; tpch_spill runs one
#: (its pass takes about twice as long, and the run time is bounded)
PASSES = 2
#: rows per measured call of a load (the calibrator samples between calls)
LOAD_CHUNK = 1000

SPILL_QUERIES = ("join_orders", "orderby_linenumber")
#: queries the report singles out (ROADMAP headline queries)
REPORTED = ("join_orders", "expected_by_status", "orderby_linenumber", "rank_violations")


class Facts:
    """Result invariants derived from the generated rows, not the engine."""

    def __init__(self) -> None:
        self.lineitems = 0
        self.quantity_over_25: Set[int] = set()
        self.quantity_violators: Set[int] = set()
        #: l_linestatus -> sum over rows of E[l_quantity * 1(row exists)]
        self.expected_quantity: Dict[str, float] = {}

    def observe_lineitem(self, certain, uncertain, quantity_bound: float) -> None:
        self.lineitems += 1
        q = uncertain["l_quantity"]
        line = certain["l_linenumber"]
        support = [v for v, p in zip(q.values, q.probs) if p > 0]
        if max(support) > 25:
            self.quantity_over_25.add(line)
        if max(support) > quantity_bound:
            self.quantity_violators.add(line)
        status = certain["l_linestatus"]
        weighted = float(sum(v * p for v, p in zip(q.values, q.probs)))
        self.expected_quantity[status] = self.expected_quantity.get(status, 0.0) + weighted


def _digest(rows, fresh_floor: int) -> str:
    """Exact result fingerprint; derived tuple ids count from the first one."""
    fresh = [t.tuple_id for t in rows if t.tuple_id >= fresh_floor]
    base = min(fresh) if fresh else 0
    h = hashlib.sha256()
    for t in rows:
        rel = t.tuple_id - base if t.tuple_id >= fresh_floor else -t.tuple_id
        h.update(repr((rel, sorted(t.certain.items()))).encode())
        for dep, pdf in sorted(t.pdfs.items(), key=lambda kv: sorted(kv[0])):
            h.update(repr(sorted(dep)).encode())
            h.update(encode_pdf(pdf))
    return h.hexdigest()


def _check(db, name: str, rows, facts: Facts, n_violations: int) -> Optional[str]:
    """The failed invariant of one suite result, or None."""
    if name == "join_orders":
        lines = sorted(t.certain["lineitem.l_linenumber"] for t in rows)
        if lines != list(range(1, facts.lineitems + 1)):
            return f"join_orders: {len(rows)} rows, expected one per lineitem ({facts.lineitems})"
    elif name == "groupby_priority":
        if len(rows) != 5:
            return f"groupby_priority: {len(rows)} groups, expected 5"
    elif name == "expected_by_status":
        got = {t.certain["l_linestatus"]: t.certain["expected_l_quantity"] for t in rows}
        if sorted(got) != ["F", "O", "P"] or len(rows) != 3:
            return f"expected_by_status: groups {sorted(got)}, expected F, O, P"
        for status, want in facts.expected_quantity.items():
            if abs(got[status] - want) > 1e-9 * abs(want):
                return f"expected_by_status: {status} = {got[status]!r}, expected {want!r}"
    elif name == "orderby_linenumber":
        lines = [t.certain["l_linenumber"] for t in rows]
        keys = [t.certain["l_orderkey"] for t in rows]
        if set(lines) != facts.quantity_over_25 or len(lines) != len(set(lines)):
            return f"orderby_linenumber: {len(lines)} rows, expected {len(facts.quantity_over_25)}"
        if any(a < b for a, b in zip(keys, keys[1:])):
            return "orderby_linenumber: l_orderkey not descending"
    elif name == "rank_violations":
        want = min(100, n_violations)
        probs = [db.existence_probability(t) for t in rows]
        lines = {t.certain["l_linenumber"] for t in rows}
        if len(rows) != want:
            return f"rank_violations: {len(rows)} rows, expected {want}"
        if not all(p > 0 for p in probs) or any(a < b for a, b in zip(probs, probs[1:])):
            return "rank_violations: PROB not positive and descending"
        if not lines <= facts.quantity_violators:
            return "rank_violations: a row is not an injected violator"
    return None


def _facts(config) -> Facts:
    """The result invariants of one instance, from its own generator pass."""
    facts = Facts()
    for certain, uncertain in tpch_uncertain.lineitem_stream(config):
        facts.observe_lineitem(certain, uncertain, tpch_uncertain.QUANTITY_BOUND)
    return facts


def _load(config, spill_dir: str, probe: Probe, writes: Optional[List[float]] = None):
    """Generate and load one instance; returns ``(database, seconds)``.

    Rows come from the generator streams and go in through
    ``Table.insert`` one at a time (each timed into ``writes``), in
    measured calls of :data:`LOAD_CHUNK` rows.
    """

    def create():
        db = Database(buffer_capacity=BUFFER_PAGES, config=ModelConfig(spill_dir=spill_dir))
        tpch_uncertain.create_tables(db)
        return db

    def insert(table, rows, times: List[float]) -> int:
        n = 0
        for certain, uncertain in islice(rows, LOAD_CHUNK):
            t0 = perf_counter()
            table.insert(certain=certain, uncertain=uncertain)
            times.append(perf_counter() - t0)
            n += 1
        return n

    db, total = probe.call("setup", create, db_after=lambda db: db)
    streams = (
        ("lineitem", tpch_uncertain.lineitem_stream),
        ("orders", tpch_uncertain.orders_stream),
        ("part", tpch_uncertain.part_stream),
    )
    for name, stream in streams:
        table, rows, n = db.table(name), stream(config), LOAD_CHUNK
        while n == LOAD_CHUNK:
            times: List[float] = []
            n, dt = probe.call("setup", lambda: insert(table, rows, times), db_before=db)
            total += dt
            if writes is not None:
                writes += [w * probe.scale for w in times]
    return db, total


def _table_info(db) -> Dict[str, Dict[str, int]]:
    return {
        name: {"rows": len(t.heap), "pages": t.heap.num_pages, "pool_pages": BUFFER_PAGES}
        for name, t in sorted(db.catalog.tables.items())
    }


def _stored_bytes_per_row(db) -> float:
    page = db.catalog.pool.disk.page_size
    pages = sum(t.heap.num_pages for t in db.catalog.tables.values())
    rows = sum(len(t.heap) for t in db.catalog.tables.values())
    return pages * page / rows


class _Suite:
    """One loaded database plus the queries a workload runs on it."""

    def __init__(self, run: Run, seed: int, spill: bool, spill_dir: str):
        self.run = run
        self.spill = spill
        self.spill_dir = spill_dir
        self.seed = seed
        self.db = None
        self.facts: Optional[Facts] = None
        self.reference: Dict[str, str] = {}

    def setup(self, probe: Probe, writes: Optional[List[float]]) -> float:
        self.db = None
        os.makedirs(self.spill_dir, exist_ok=True)
        settle()
        config = tpch_uncertain.TpchConfig(scale_factor=SCALE_FACTOR, seed=self.seed)
        db, dt = _load(config, self.spill_dir, probe, writes)
        if self.facts is None:
            # Same seed, same rows: the invariants hold for every load.
            self.facts = _facts(config)
        self.db = db
        self.queries = [
            (n, q)
            for n, q in tpch_uncertain.query_suite(config)
            if not self.spill or n in SPILL_QUERIES
        ]
        self.n_violations = config.n_violations
        self.mem_config = db.catalog.config
        self.run_config = replace(self.mem_config, work_mem=SPILL_WORK_MEM) if self.spill else self.mem_config
        # One id burnt after the load: every id at or above it is derived.
        self.fresh_floor = db.catalog.store.new_tuple_id()
        return dt

    def warm_up(self) -> None:
        """Run the same statements on a tiny instance: first-call costs go here."""
        config = tpch_uncertain.TpchConfig(
            scale_factor=SCALE_FACTOR, seed=self.seed,
            lineitem_rows=400, orders_rows=100, part_rows=20,
        )
        db, _ = _load(config, self.spill_dir, Probe())
        if self.spill:
            full = tpch_uncertain.TpchConfig(scale_factor=SCALE_FACTOR).n_orders
            tiny = SPILL_WORK_MEM * config.n_orders // full
            db.catalog.config = replace(db.catalog.config, work_mem=tiny)
        for name, sql in tpch_uncertain.query_suite(config):
            if not self.spill or name in SPILL_QUERIES:
                db.execute(sql)

    def in_memory_reference(self) -> None:
        """Digests of the spilling queries run in memory, for the same seed."""
        self.db.catalog.config = self.mem_config
        for name, sql in self.queries:
            rows = self.db.execute(sql).rows
            self.reference[name] = _digest(rows, self.fresh_floor)
        self.db.catalog.config = self.run_config

    def one_pass(self, probe: Probe, times: Dict[str, List[float]]) -> float:
        """Run the workload's statements once; returns the pass's statement time."""
        run, db = self.run, self.db
        db.catalog.config = self.run_config
        total = 0.0
        for name, sql in self.queries:
            try:
                result, dt = probe.call(name, lambda: db.execute(sql), db_before=db)
            except Exception as exc:  # a failed statement is counted, not fatal
                run.fail(f"{name}: {type(exc).__name__}: {exc}")
                continue
            total += dt
            times.setdefault(name, []).append(dt)
            problem = _check(db, name, result.rows, self.facts, self.n_violations)
            run.check(problem is None, problem or "")
            digest = _digest(result.rows, self.fresh_floor)
            want = self.reference.setdefault(name, digest)
            run.check(digest == want, f"{name}: result digest differs from the reference")
            if self.spill:
                run.check(not os.listdir(self.spill_dir), f"{name}: spill files left behind")
        return total


def _spill_checks(run: Run, probe: Probe) -> None:
    join = probe.by_label.get("join_orders", {})
    sort = probe.by_label.get("orderby_linenumber", {})
    run.check(join.get("spill.join_partitions", 0) > 0, "join_orders did not spill")
    run.check(sort.get("spill.sort_runs", 0) > 0, "orderby_linenumber did not spill")


def run_workload(run: Run, seed: int, seconds: float, spill: bool, workdir: str, trace) -> None:
    """Measure one TPC-H workload; fills ``run``."""
    spill_dir = os.path.join(workdir, "spill")
    suite = _Suite(run, seed, spill, spill_dir)
    if trace is None:
        _measure(run, suite, seconds)
    else:
        _measure_traced(run, suite, trace)
    _describe(run, suite)
    shutil.rmtree(spill_dir, ignore_errors=True)


def _measure(run: Run, suite: _Suite, seconds: float) -> None:
    # Rounds of (load, query passes) so that load and query samples are both
    # spread over the whole run; the spill reference is computed once.
    # Every timing is at reference speed (common.Calibrator).
    writes: List[float] = []
    setups: List[float] = []
    cal = Calibrator()
    loop = Probe(calibrator=cal)
    load = Probe(calibrator=cal)
    times: Dict[str, List[float]] = {}
    passes: List[float] = []
    suite.warm_up()
    start = perf_counter()
    while len(setups) < SETUPS or perf_counter() - start < seconds:
        setups.append(suite.setup(load, writes))
        if suite.spill and not suite.reference:
            suite.in_memory_reference()
        for _ in range(1 if suite.spill else PASSES):
            settle()
            passes.append(suite.one_pass(loop, times))
    if suite.spill:
        _spill_checks(run, loop)
    statements = sum(len(v) for v in times.values())
    lineitems = suite.facts.lineitems
    run.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(cal),
        "stored_bytes_per_row": _stored_bytes_per_row(suite.db),
        "ops_per_s": statements / sum(passes),
        "suite_us_per_row": statistics.median(passes) / lineitems * 1e6,
        "write_p90_ms": percentile(writes, 90) * 1e3,
    }
    run.detail("setup_s", statistics.median(setups), "s", len(setups))
    run.detail("calibration_scale", statistics.median(loop.scales + load.scales), "ratio", len(cal.samples))
    run.detail("measured_ops_per_s", statements / loop.measured_s, "1/s", statements)
    run.detail("write_p50_ms", percentile(writes, 50) * 1e3, "ms", len(writes))
    run.detail("write_p99_ms", percentile(writes, 99) * 1e3, "ms", len(writes))
    run.detail("suite_pass_s", statistics.median(passes), "s", len(passes))
    for name in REPORTED:
        if name in times:
            run.detail(f"{name}_s", statistics.median(times[name]), "s", len(times[name]))
    for name, vals in times.items():
        if name not in REPORTED:
            run.detail(f"{name}_s", statistics.median(vals), "s", len(vals))
    t = loop.tally
    hits, misses = t.get("buffer.hits", 0), t.get("buffer.misses", 0)
    run.detail("buffer_hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio", len(passes))
    for key in ("spill.join_partitions", "spill.sort_runs", "spill.bytes_written"):
        run.detail(key.replace("spill.", "spill_"), t.get(key, 0) / len(passes), "per_pass", len(passes))


def _measure_traced(run: Run, suite: _Suite, trace) -> None:
    suite.warm_up()
    untraced = Probe()
    suite.setup(untraced, None)
    if suite.spill:
        suite.in_memory_reference()
    settle()
    suite.one_pass(untraced, {})

    tracer = Tracer()
    install(tracer)
    try:
        traced = Probe(tracer)
        suite.setup(traced, None)
        settle()
        suite.one_pass(traced, {})
    finally:
        tracer.uninstall()
    if suite.spill:
        _spill_checks(run, traced)
    problem = tracer.problem(traced.measured_s)
    run.check(problem is None, problem or "")
    join = traced.by_label.get("join_orders", {})
    pairs = tracer.counts.get("executor.relational.join_pairs", 0)
    extra = {
        "executor.spill.bytes_per_joined_pair": (
            join.get("spill.bytes_written", 0) / pairs if pairs else 0.0
        )
    }
    run.metrics = layer_metrics(tracer, traced.tally, traced.measured_s, untraced.measured_s, extra)
    trace.write(tracer)


def _describe(run: Run, suite: _Suite) -> None:
    db = suite.db
    run.info.update(
        {
            "scale_factor": SCALE_FACTOR,
            "model_config": asdict(suite.run_config),
            "buffer_pool_pages": db.catalog.pool.capacity,
            "tables": _table_info(db),
            "work_mem": suite.run_config.work_mem,
            "queries": [name for name, _ in suite.queries],
        }
    )
