"""The ``sensor_mixed`` workload: durable single-row writes and range reads.

The paper's section IV ``Readings(rid, value)`` data lives in a durable
``Database(path=...)``.  Each reading's pdf is the exact Gaussian, a
5-bucket ``HISTOGRAM`` or a 25-point ``DISCRETE`` sampling of it, drawn by
a seeded mix (the three representations of the paper's Fig. 5).  A run is
rounds of fixed-size work: a bulk load and a checkpoint into a fresh
database, then one client runs a closed loop over a fixed stream that
interleaves autocommitted single-row ``INSERT`` s with ``PROB(value > lo
AND value < hi) >= p`` range queries, then closes the database and reopens
it (recovery).  The table therefore has the same size at every step on
every commit, however fast the engine is.  Every query's rid set is
checked against a numpy/scipy oracle, and the reopened ``dump_state()``
against the live one.
"""

from __future__ import annotations

import os
import shutil
import statistics
from dataclasses import asdict
from time import perf_counter
from typing import Dict, List

import numpy as np
from scipy.special import ndtr

from repro.core.model import ModelConfig
from repro.engine.database import Database
from repro.pdf import convert
from repro.pdf.continuous import GaussianPdf
from repro.workloads import sensors

from common import Calibrator, Probe, Run, peak_rss_mb, percentile, settle
from layers import install, layer_metrics
from tracer import Tracer

INITIAL_ROWS = 1000
LOAD_BATCH = 100
BUFFER_PAGES = 256
#: fsync every 16th commit (group commit): the median insert is the CPU
#: path (parse, encode, heap, WAL append); fsyncs land in the tail
GROUP_COMMIT = 16
#: one range query at a seeded place in every block of this many
#: operations, inserts elsewhere: an assumed 80/20 write/read mix (the
#: paper's section IV runs range queries only; see README.md)
BLOCK = 5
#: assumed threshold range of ``PROB(...) >= p``
THRESHOLDS = (0.05, 0.95)
#: representation mix: exact Gaussian, 5-bucket histogram, 25-point discrete
FAMILIES = ("gaussian", "histogram", "discrete")
HISTOGRAM_BUCKETS = 5
DISCRETE_POINTS = 25
#: the fixed operation stream of one round: 200 inserts and 50 queries
OPS_PER_ROUND = 250
#: at least this many rounds: 1000 inserts (insert p99), 250 queries (query p90)
MIN_ROUNDS = 5
#: a row whose oracle probability is this close to p is not checked
AMBIGUOUS = 1e-9


class Stream:
    """One round's seeded inputs: the loaded readings and the operations.

    Round ``k`` of seed ``s`` draws from its own stream ``(s, k)``: every
    commit runs the same work in round ``k``, and a run's medians cover
    many distinct queries, not one round's fifty repeated.

    Every block of :data:`BLOCK` operations holds one range query (the
    paper's interval distribution, threshold ``p`` uniform over
    :data:`THRESHOLDS`) at a seeded place and inserts elsewhere; reading
    ``j`` gets rid ``j + 1``.  Every run of three readings holds each
    representation once, in seeded order, so the stored mix (and bytes per
    row) does not drift with the seed.
    """

    def __init__(self, seed: int, k: int):
        rng = np.random.default_rng([seed, 7, k])
        n_queries = OPS_PER_ROUND // BLOCK
        n_rows = INITIAL_ROWS + OPS_PER_ROUND - n_queries
        self.readings = sensors.generate_readings(n_rows, rng=rng)
        blocks = np.tile(np.arange(len(FAMILIES)), (-(-n_rows // len(FAMILIES)), 1))
        self.families = rng.permuted(blocks, axis=1).ravel()[:n_rows].tolist()
        self.queries = sensors.generate_range_queries(n_queries, rng=rng)
        self.thresholds = rng.uniform(*THRESHOLDS, size=n_queries).tolist()
        slots = np.arange(n_queries) * BLOCK + rng.integers(0, BLOCK, n_queries)
        self.query_at = set(slots.tolist())

    def reading(self, j: int):
        """``(rid, mean, sigma, family)`` of reading ``j``."""
        r = self.readings[j]
        return j + 1, r.mean, r.sigma, FAMILIES[self.families[j]]

    def ops(self):
        """The round's operations: ``("insert", j)`` or ``("query", q, p)``."""
        j, k = INITIAL_ROWS, 0
        for i in range(OPS_PER_ROUND):
            if i in self.query_at:
                yield "query", self.queries[k], self.thresholds[k]
                k += 1
            else:
                yield "insert", j, None
                j += 1


class Oracle:
    """Independent P(lo < value < hi) per stored row, by numpy/scipy."""

    def __init__(self) -> None:
        self.rids: List[int] = []
        self.gauss: List[tuple] = []  # (index, mean, sd)
        self.hist: List[tuple] = []  # (index, edges, masses)
        self.disc: List[tuple] = []  # (index, values, probs) padded to 25

    @staticmethod
    def literal(rid: int, mean: float, sigma: float, family: str):
        """``(sql, row)``: one reading's SQL pdf literal and its oracle row."""
        var = sigma * sigma
        if family == "gaussian":
            return f"GAUSSIAN({mean!r}, {var!r})", (rid, family, mean, float(np.sqrt(var)))
        exact = GaussianPdf(mean, var)
        if family == "histogram":
            h = convert.to_histogram(exact, HISTOGRAM_BUCKETS)
            edges = [float(e) for e in h.edges]
            masses = [float(m) for m in h.masses]
            sql = (
                "HISTOGRAM(" + ", ".join(map(repr, edges)) + " ; "
                + ", ".join(map(repr, masses)) + ")"
            )
            return sql, (rid, family, edges, masses)
        d = convert.discretize(exact, DISCRETE_POINTS)
        values = [float(v) for v in d.values]
        probs = [float(p) for p in d.probs]
        sql = "DISCRETE(" + ", ".join(f"{v!r}: {p!r}" for v, p in zip(values, probs)) + ")"
        return sql, (rid, family, values, probs)

    def add(self, rows) -> None:
        """Record stored readings (the ``row`` halves of :meth:`literal`)."""
        for rid, family, a, b in rows:
            index = len(self.rids)
            self.rids.append(rid)
            if family == "gaussian":
                self.gauss.append((index, a, b))
            elif family == "histogram":
                self.hist.append((index, np.array(a), np.array(b)))
            else:
                pad = DISCRETE_POINTS - len(a)
                self.disc.append((index, np.array(a + [np.nan] * pad), np.array(b + [0.0] * pad)))

    def probabilities(self, lo: float, hi: float) -> np.ndarray:
        out = np.zeros(len(self.rids))
        if self.gauss:
            g = np.array(self.gauss)
            rows, mu, sd = g[:, 0].astype(int), g[:, 1], g[:, 2]
            out[rows] = ndtr((hi - mu) / sd) - ndtr((lo - mu) / sd)
        if self.hist:
            rows = np.array([h[0] for h in self.hist])
            edges = np.array([h[1] for h in self.hist])
            masses = np.array([h[2] for h in self.hist])
            left, right = edges[:, :-1], edges[:, 1:]
            overlap = np.clip(np.minimum(right, hi) - np.maximum(left, lo), 0.0, None)
            out[rows] = np.sum(masses * overlap / (right - left), axis=1)
        if self.disc:
            rows = np.array([d[0] for d in self.disc])
            values = np.array([d[1] for d in self.disc])
            probs = np.array([d[2] for d in self.disc])
            out[rows] = np.sum(np.where((values > lo) & (values < hi), probs, 0.0), axis=1)
        return out

    def check(self, rids, lo: float, hi: float, p: float) -> bool:
        probs = self.probabilities(lo, hi)
        ids = np.array(self.rids)
        clear = np.abs(probs - p) > AMBIGUOUS
        want = set(ids[clear & (probs >= p)].tolist())
        got = set(rids) - set(ids[~clear].tolist())
        return got == want


class _Durable:
    """One durable database directory under load."""

    def __init__(self, workdir: str, name: str):
        self.path = os.path.join(workdir, f"sensor-db-{name}")
        shutil.rmtree(self.path, ignore_errors=True)
        self.db = None

    def open(self):
        self.db = Database(
            path=self.path,
            group_commit=GROUP_COMMIT,
            buffer_capacity=BUFFER_PAGES,
            config=ModelConfig(),
        )
        return self.db

    def wal_bytes(self) -> int:
        return os.path.getsize(os.path.join(self.path, "wal.log"))

    def remove(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        shutil.rmtree(self.path, ignore_errors=True)


def _setup(probe: Probe, durable: _Durable, seed: int, k: int):
    """Generate, create, bulk-load in one transaction and checkpoint.

    Returns ``(stream, rows, seconds)``; ``rows`` are the oracle rows of
    the load, recorded by the caller outside the timed call.
    """
    stream, rows = None, []

    def load():
        nonlocal stream
        stream = Stream(seed, k)
        db = durable.open()
        db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")
        db.execute("BEGIN")
        for start in range(0, INITIAL_ROWS, LOAD_BATCH):
            values = []
            for j in range(start, min(INITIAL_ROWS, start + LOAD_BATCH)):
                rid, mean, sigma, family = stream.reading(j)
                sql, row = Oracle.literal(rid, mean, sigma, family)
                values.append(f"({rid}, {sql})")
                rows.append(row)
            db.execute("INSERT INTO readings VALUES " + ", ".join(values))
        db.execute("COMMIT")
        db.checkpoint()
        return db

    _, dt = probe.call("setup", load, db_after=lambda db: db)
    return stream, rows, dt


class _Round:
    """One round: a fresh load, the fixed operation stream, close and reopen."""

    def __init__(
        self, run: Run, workdir: str, seed: int, k: int, setup_probe: Probe, tag: str = ""
    ):
        self.run = run
        self.durable = _Durable(workdir, f"{k}{tag}")
        settle()
        self.stream, rows, self.setup_s = _setup(setup_probe, self.durable, seed, k)
        self.oracle = Oracle()
        self.oracle.add(rows)
        self.inserts: List[float] = []
        self.queries: List[float] = []
        #: rows in the table, summed over the round's queries
        self.rows_scanned = 0

    def play(self, probe: Probe) -> None:
        """Run every operation of the stream, one statement at a time."""
        wal0 = self.durable.wal_bytes()
        for op in self.stream.ops():
            if op[0] == "insert":
                self._insert(probe, op[1])
            else:
                self._query(probe, op[1], op[2])
        self.wal_per_commit = (self.durable.wal_bytes() - wal0) / max(1, len(self.inserts))
        self.table = _table_facts(self.durable.db)

    def _insert(self, probe: Probe, j: int) -> None:
        run, db = self.run, self.durable.db
        rid, mean, sigma, family = self.stream.reading(j)
        literal, row = Oracle.literal(rid, mean, sigma, family)
        sql = f"INSERT INTO readings VALUES ({rid}, {literal})"
        try:
            result, dt = probe.call("insert", lambda: db.execute(sql), db_before=db)
        except Exception as exc:
            run.fail(f"insert: {type(exc).__name__}: {exc}")
            return
        self.oracle.add([row])
        self.inserts.append(dt)
        run.check(result.rowcount == 1, f"insert {rid}: rowcount {result.rowcount}")

    def _query(self, probe: Probe, q, p: float) -> None:
        run, db = self.run, self.durable.db
        sql = (
            f"SELECT rid FROM readings WHERE PROB(value > {q.lo!r} AND value < {q.hi!r}) "
            f">= {p!r}"
        )
        rows_now = len(self.oracle.rids)
        try:
            result, dt = probe.call("query", lambda: db.execute(sql), db_before=db)
        except Exception as exc:
            run.fail(f"query: {type(exc).__name__}: {exc}")
            return
        self.queries.append(dt)
        self.rows_scanned += rows_now
        rids = [t.certain["rid"] for t in result.rows]
        run.check(
            len(rids) == len(set(rids)) and self.oracle.check(rids, q.lo, q.hi, p),
            f"query [{q.lo:.3f}, {q.hi:.3f}] >= {p:.3f}: rid set differs from the oracle",
        )

    def reopen(self, probe: Probe) -> float:
        """Close, reopen (recovery), compare the logical state and remove."""
        live = self.durable.db.dump_state()
        self.durable.db.close()
        self.durable.db = None
        db, dt = probe.call("recovery", self.durable.open, db_after=lambda db: db)
        self.run.check(db.dump_state() == live, "reopened dump_state differs from the live one")
        self.durable.remove()
        return dt


def run_workload(run: Run, seed: int, seconds: float, workdir: str, trace) -> None:
    """Measure ``sensor_mixed``; fills ``run``."""
    if trace is None:
        _measure(run, seed, seconds, workdir)
    else:
        _measure_traced(run, seed, workdir, trace)
    run.info.update(
        {
            "model_config": asdict(ModelConfig()),
            "group_commit": GROUP_COMMIT,
            "buffer_pool_pages": BUFFER_PAGES,
            "initial_rows": INITIAL_ROWS,
            "ops_per_round": OPS_PER_ROUND,
            "one_query_per_ops": BLOCK,
            "thresholds": list(THRESHOLDS),
            "families": list(FAMILIES),
        }
    )


def _table_facts(db) -> Dict[str, int]:
    table = db.table("readings")
    return {
        "rows": len(table.heap),
        "pages": table.heap.num_pages,
        "pool_pages": BUFFER_PAGES,
        "page_size": db.catalog.pool.disk.page_size,
    }


def _measure(run: Run, seed: int, seconds: float, workdir: str) -> None:
    """Rounds until ``seconds`` have passed; medians over them.

    Every timing is at reference speed (common.Calibrator).
    """
    rounds: List[_Round] = []
    recoveries: List[float] = []
    cal = Calibrator()
    probe = Probe(calibrator=cal)
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
        r = _Round(run, workdir, seed, len(rounds), Probe(calibrator=cal))
        settle()
        r.play(probe)
        recoveries.append(r.reopen(Probe(calibrator=cal)))
        rounds.append(r)
    inserts = [dt for r in rounds for dt in r.inserts]
    queries = [dt for r in rounds for dt in r.queries]
    # a round's query time over the rows its queries ran on, like a TPC-H pass
    per_row = [sum(r.queries) / r.rows_scanned for r in rounds]
    setups = [r.setup_s for r in rounds]
    last = rounds[-1]
    run.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(cal),
        "stored_bytes_per_row": last.table["pages"] * last.table["page_size"] / last.table["rows"],
        "ops_per_s": (len(inserts) + len(queries)) / (sum(inserts) + sum(queries)),
        "suite_us_per_row": statistics.median(per_row) * 1e6,
        "write_p90_ms": percentile(inserts, 90) * 1e3,
    }
    run.detail("setup_s", statistics.median(setups), "s", len(setups))
    run.detail("calibration_scale", statistics.median(probe.scales), "ratio", len(cal.samples))
    run.detail("measured_ops_per_s", len(probe.scales) / probe.measured_s, "1/s", len(probe.scales))
    run.detail("insert_p50_ms", percentile(inserts, 50) * 1e3, "ms", len(inserts))
    run.detail("insert_p99_ms", percentile(inserts, 99) * 1e3, "ms", len(inserts))
    run.detail("query_p50_ms", percentile(queries, 50) * 1e3, "ms", len(queries))
    run.detail("query_p90_ms", percentile(queries, 90) * 1e3, "ms", len(queries))
    run.detail("recovery_s", statistics.median(recoveries), "s", len(recoveries))
    run.detail("wal_bytes_per_commit", last.wal_per_commit, "B", len(last.inserts))
    share = sum(inserts) / (sum(inserts) + sum(queries))
    run.detail("insert_time_share", share, "ratio", len(inserts))
    t = probe.tally
    hits, misses = t.get("buffer.hits", 0), t.get("buffer.misses", 0)
    hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    run.detail("buffer_hit_ratio", hit_ratio, "ratio", len(inserts) + len(queries))
    run.info["table_at_end"] = last.table
    run.info["rounds"] = len(rounds)


def _traced_round(run: Run, seed: int, workdir: str, tag: str, probe: Probe) -> _Round:
    """Round 0, with its load, operations and reopen all measured by ``probe``."""
    r = _Round(run, workdir, seed, 0, probe, tag)
    settle()
    r.play(probe)
    r.reopen(probe)
    return r


def _measure_traced(run: Run, seed: int, workdir: str, trace) -> None:
    untraced = Probe()
    _traced_round(run, seed, workdir, "-untraced", untraced)
    tracer = Tracer()
    install(tracer)
    try:
        traced = Probe(tracer)
        r = _traced_round(run, seed, workdir, "-traced", traced)
    finally:
        tracer.uninstall()
    problem = tracer.problem(traced.measured_s)
    run.check(problem is None, problem or "")
    extra = {"wal.bytes_per_commit": r.wal_per_commit}
    run.metrics = layer_metrics(tracer, traced.tally, traced.measured_s, untraced.measured_s, extra)
    run.info["table_at_end"] = r.table
    trace.write(tracer)
