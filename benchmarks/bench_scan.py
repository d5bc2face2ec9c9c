"""Pruned + lazily decoded scans: selectivity sweep.

One clustered table of Gaussian readings (means increase with the row id,
so heap pages are value-clustered the way a timeseries or sensor log is),
swept over four range selectivities.  Each point runs two plans of the
same shape, ``Project(Filter(SeqScan))``, through ``execute_plan``:

* ``pruned``   — the planner's plan: page synopses skip non-overlapping
  pages and pdf payloads decode only for record prefixes that pass,
* ``unpruned`` — the same plan built through the operator API over
  ``SeqScan(table, pruner=None)``: every page visited, every pdf decoded.

Result sets must be identical in every cell (tuple ids, certain values and
pdfs — scans and filters preserve ids).  Writes ``BENCH_scan.json`` at the
repo root; the acceptance bar is a >= 3x speedup of ``pruned`` over
``unpruned`` at the 1% selectivity point (full-size runs only).

Run: ``pytest benchmarks/bench_scan.py --benchmark-only -q``
Reduced smoke (CI): ``REPRO_BENCH_SCAN_N=400 pytest benchmarks/bench_scan.py --benchmark-only -q``
"""

import json
import os
import time
from pathlib import Path

from repro.bench.envinfo import environment_info
from repro.core.operations import PDF_OP_CACHE
from repro.core.predicates import And, Comparison
from repro.engine.database import Database
from repro.engine.executor import Filter, Project, SeqScan
from repro.engine.sql.parser import parse
from repro.engine.sql.planner import execute_plan, plan_select
from repro.pdf import GaussianPdf

N = int(os.environ.get("REPRO_BENCH_SCAN_N", "4000"))
SPREAD = 1000.0  # value range of the clustered means
SELECTIVITIES = (0.01, 0.1, 0.5, 1.0)
CELLS = ("unpruned", "pruned")


def _build_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")
    table = db.table("readings")
    for i in range(N):
        mu = (i / N) * SPREAD
        table.insert(
            certain={"rid": i},
            uncertain={"value": GaussianPdf(mu, 0.8, attr="value")},
        )
    return db


def _bounds(frac: float):
    return 0.0, round(frac * SPREAD, 4)


def _pruned_plan(db, frac):
    lo, hi = _bounds(frac)
    sql = f"SELECT rid, value FROM readings WHERE value > {lo} AND value < {hi}"
    return plan_select(db.catalog, parse(sql))


def _unpruned_plan(db, frac):
    lo, hi = _bounds(frac)
    config, store = db.catalog.config, db.catalog.store
    pred = And([Comparison("value", ">", lo), Comparison("value", "<", hi)])
    scan = SeqScan(db.table("readings"), pruner=None)
    return Project(Filter(scan, pred, store, config), ["rid", "value"], config)


def _labels(plan):
    return [plan.label()] + [x for c in plan.children() for x in _labels(c)]


def _find_scan(plan):
    return plan if isinstance(plan, SeqScan) else _find_scan(plan.children()[0])


def _result_key(rows):
    return [
        (
            t.tuple_id,
            tuple(sorted(t.certain.items())),
            tuple(sorted((tuple(sorted(d)), repr(p)) for d, p in t.pdfs.items())),
        )
        for t in rows
    ]


def _timed_run(make_plan, repeats=3):
    """Best-of execution wall time with a cold pdf-op cache per run."""
    best = float("inf")
    rows = plan = None
    for _ in range(repeats):
        plan = make_plan()
        PDF_OP_CACHE.reset()
        t0 = time.perf_counter()
        rows = execute_plan(plan)
        best = min(best, time.perf_counter() - t0)
    return best, rows, plan


def bench_scan_pruning_sweep(benchmark, capsys):
    """Selectivity sweep, pruned vs unpruned plan; writes BENCH_scan.json."""
    db = _build_db()

    def run():
        points = []
        for frac in SELECTIVITIES:
            base_t, base_rows, unpruned = _timed_run(lambda: _unpruned_plan(db, frac))
            t, rows, pruned = _timed_run(lambda: _pruned_plan(db, frac))
            # Same plan shape, differing only in the scan's pruner.
            assert _labels(pruned) == _labels(unpruned), frac
            assert _find_scan(pruned).pruner is not None, frac
            # Identity in every cell: pruning must never change answers.
            assert _result_key(rows) == _result_key(base_rows), frac
            visited, total = _find_scan(pruned).page_stats
            points.append(
                {
                    "selectivity": frac,
                    "result_rows": len(base_rows),
                    "pages": {"visited": visited, "total": total},
                    "cells": {
                        "unpruned": {"seconds": base_t, "speedup": 1.0},
                        "pruned": {"seconds": t, "speedup": base_t / t},
                    },
                }
            )
        return {
            "tuples": N,
            "spread": SPREAD,
            "points": points,
            "environment": environment_info(),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    out_path = Path(__file__).resolve().parents[1] / "BENCH_scan.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        print()
        from repro.bench.reporting import print_figure

        rows = []
        for p in report["points"]:
            pages = p["pages"]
            rows.append(
                [
                    p["selectivity"],
                    p["result_rows"],
                    f"{pages['visited']}/{pages['total']}",
                ]
                + [f"{p['cells'][c]['speedup']:.2f}x" for c in CELLS]
            )
        print_figure(
            f"Scan pruning sweep ({N} tuples)",
            ["selectivity", "rows", "pages"] + list(CELLS),
            rows,
        )
        print(f"wrote {out_path}")

    # The speedup bar needs enough data for page pruning to matter; reduced
    # CI smoke runs still verified result identity above.
    if N >= 2000:
        point = next(p for p in report["points"] if p["selectivity"] == 0.01)
        speedup = point["cells"]["pruned"]["speedup"]
        assert speedup >= 3.0, (
            f"pruned-scan speedup {speedup:.2f}x at 1% selectivity "
            "is below the 3x bar"
        )
