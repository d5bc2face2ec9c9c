"""Join/aggregate hot-path benchmark: columnar hash join + vectorized GROUP BY.

Joins an uncertain readings relation against a certain sites dimension and
aggregates per region (COUNT + EXPECTED), sweeping batch size exactly like
``bench_micro_engine.py``'s selection sweep.
Writes ``BENCH_join.json`` at the repo root; the top-level ``variants``
carry the headline join+GROUP BY pipeline cells (so
``check_perf_regression.py`` guards them unchanged), with the pure-join
sweep nested under ``join_only``.

For every cell the result stream must be identical to the tuple-at-a-time
reference — tuple ids included: the history store's id counter is reset to
the same snapshot before every run, so both paths draw the same id
sequence and the comparison is exact, not modulo renumbering.

Run: ``pytest benchmarks/bench_join.py --benchmark-only -q``
"""

import json
import os
import random
import time
from pathlib import Path

from repro.bench.envinfo import environment_info
from repro.bench.protocol import pdf_cache_stats
from repro.core import Column, DataType, ProbabilisticRelation, ProbabilisticSchema
from repro.core.history import HistoryStore
from repro.core.operations import PDF_OP_CACHE
from repro.core.predicates import And, Comparison, col
from repro.engine.executor import (
    AggSpec,
    GroupAggregate,
    HashJoin,
    ProbFilter,
    RelationScan,
)
from repro.pdf import GaussianPdf

SWEEP_N = int(os.environ.get("REPRO_BENCH_JOIN_N", "4000"))
N_SITES = 64
N_REGIONS = 8
BATCH_SIZES = (1, 32, 256, 1024)

#: pipeline speedup bar at batch >= 256, relaxed at reduced N (CI smoke)
#: where fixed per-query overheads dominate.
PIPELINE_BAR = 10.0 if SWEEP_N >= 4000 else 2.0
#: The pure join is pair-construction bound in both paths (every output
#: tuple must be merged and emitted whichever way the probe ran), so the
#: vectorized probe buys parity there, not a multiple — its payoff shows
#: in the pipeline, where probing composes with the fused filter and
#: aggregate kernels.  Guard against regression, don't demand a speedup.
JOIN_PARITY_BAR = 0.8 if SWEEP_N >= 4000 else 0.5


def _build():
    store = HistoryStore()
    rng = random.Random(11)
    readings_schema = ProbabilisticSchema(
        [
            Column("rid", DataType.INT),
            Column("site", DataType.INT),
            Column("temp", DataType.REAL),
        ],
        [{"temp"}],
    )
    readings = ProbabilisticRelation(readings_schema, store=store, name="readings")
    for i in range(SWEEP_N):
        readings.insert(
            certain={"rid": i, "site": i % N_SITES},
            uncertain={
                "temp": GaussianPdf(
                    rng.uniform(10, 30), rng.uniform(0.5, 4.0), attr="temp"
                )
            },
        )
    sites_schema = ProbabilisticSchema(
        [Column("site_id", DataType.INT), Column("region", DataType.INT)]
    )
    sites = ProbabilisticRelation(sites_schema, store=store, name="sites")
    for s in range(N_SITES):
        sites.insert(certain={"site_id": s, "region": s % N_REGIONS})
    return store, readings, sites


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _result_key(rows):
    """An exact per-tuple fingerprint: id, certain values, pdf contents."""
    return [
        (
            t.tuple_id,
            tuple(sorted(t.certain.items())),
            tuple(
                (tuple(sorted(dep)), repr(pdf))
                for dep, pdf in sorted(t.pdfs.items(), key=lambda kv: sorted(kv[0]))
            ),
        )
        for t in rows
    ]


def _sweep(store, make_plan, scalar_run):
    """The shared cold/warm interleaved protocol over batch-size cells.

    Every run starts from the same history-store id snapshot, so the id
    streams — and therefore the result fingerprints — must match exactly.
    """
    id0 = store._next_tuple_id

    def reset_ids():
        store._next_tuple_id = id0

    def cold_scalar():
        PDF_OP_CACHE.reset()
        reset_ids()
        return scalar_run()

    def cold_cell(size):
        PDF_OP_CACHE.reset()
        reset_ids()
        return [t for b in make_plan().batches(size) for t in b.tuples]

    cells = BATCH_SIZES
    scalar_t = float("inf")
    best = {cell: float("inf") for cell in cells}
    scalar_rows = None
    rows_by_cell = {}
    cold_by_cell = {}
    # Interleave the cold repeats round-robin (see bench_micro_engine.py:
    # sequential best-of-N lets load drift skew every speedup one way).
    for _ in range(5):
        t, scalar_rows = _timed(cold_scalar)
        scalar_t = min(scalar_t, t)
        for size in cells:
            t, rows_by_cell[size] = _timed(lambda: cold_cell(size))
            cold_by_cell[size] = pdf_cache_stats()
            best[size] = min(best[size], t)

    scalar_key = _result_key(scalar_rows)
    variants = []
    for size in cells:
        assert _result_key(rows_by_cell[size]) == scalar_key, (
            f"cell (batch={size}) diverged from reference"
        )
        PDF_OP_CACHE.hits = 0  # warm protocol: keep entries, zero counters
        PDF_OP_CACHE.misses = 0
        reset_ids()
        warm_t0 = time.perf_counter()
        warm_rows = [t for b in make_plan().batches(size) for t in b.tuples]
        warm_t = time.perf_counter() - warm_t0
        assert len(warm_rows) == len(scalar_rows)
        variants.append(
            {
                "batch_size": size,
                "columnar": True,  # every batch path is columnar
                "seconds": best[size],
                "speedup": scalar_t / best[size],
                "cold_cache": cold_by_cell[size],
                "warm_seconds": warm_t,
                "warm_cache": pdf_cache_stats(),
            }
        )
    reset_ids()
    return scalar_t, len(scalar_rows), variants


def bench_join_groupby_sweep(benchmark, capsys):
    """Scalar vs columnar threshold + equi-join + GROUP BY pipeline.

    The headline cells: ``readings WHERE PROB(temp in (18,24)) > 0.9 JOIN
    sites ON site = site_id`` followed by ``GROUP BY region`` with COUNT(*)
    and EXPECTED(temp) — the paper's Section III-E threshold shape feeding
    an analytic rollup.  Batch >= 256 must reach ``PIPELINE_BAR``
    (10x at the full ``SWEEP_N``); the pure-join sweep must stay at least
    at ``JOIN_PARITY_BAR`` of the scalar reference.
    """
    store, readings, sites = _build()
    pred = Comparison("site", "=", col("site_id"))
    range_pred = And([Comparison("temp", ">", 18.0), Comparison("temp", "<", 24.0)])
    def make_join(left=None):
        return HashJoin(
            left if left is not None else RelationScan(readings),
            RelationScan(sites),
            "site",
            "site_id",
            pred,
            store,
        )

    def make_pipeline():
        # The paper's Section III-E threshold-query shape feeding an
        # analytic rollup: likely readings join their site dimension, then
        # per-region COUNT (Poisson-binomial) and EXPECTED(temp).
        probable = ProbFilter(RelationScan(readings), range_pred, ">", 0.9, store)
        return GroupAggregate(
            make_join(left=probable),
            ["region"],
            [AggSpec("count"), AggSpec("expected", "temp")],
            store,
        )

    def run():
        pipe_scalar_t, pipe_rows, pipe_variants = _sweep(
            store, make_pipeline, lambda: list(iter(make_pipeline()))
        )
        join_scalar_t, join_rows, join_variants = _sweep(
            store, make_join, lambda: list(iter(make_join()))
        )
        return {
            "workload": "equi_join_groupby",
            "tuples": SWEEP_N,
            "sites": N_SITES,
            "regions": N_REGIONS,
            "result_rows": pipe_rows,
            "scalar_seconds": pipe_scalar_t,
            "environment": environment_info(),
            "variants": pipe_variants,
            "join_only": {
                "workload": "equi_join",
                "result_rows": join_rows,
                "scalar_seconds": join_scalar_t,
                "variants": join_variants,
            },
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    out_name = os.environ.get("REPRO_BENCH_JOIN_OUT", "BENCH_join.json")
    out_path = Path(__file__).resolve().parents[1] / out_name
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        print()
        from repro.bench.reporting import print_figure

        for title, section in (
            (
                "Columnar join + GROUP BY pipeline (scalar baseline "
                f"{report['scalar_seconds'] * 1000:.2f} ms)",
                report["variants"],
            ),
            (
                "Columnar hash join only (scalar baseline "
                f"{report['join_only']['scalar_seconds'] * 1000:.2f} ms)",
                report["join_only"]["variants"],
            ),
        ):
            print_figure(
                title,
                ["batch_size", "seconds", "speedup", "warm_hit_rate"],
                [
                    [
                        v["batch_size"],
                        v["seconds"],
                        v["speedup"],
                        v["warm_cache"]["hit_rate"],
                    ]
                    for v in section
                ],
            )
        print(f"wrote {out_path}")

    pipe = [v["speedup"] for v in report["variants"] if v["batch_size"] >= 256]
    assert max(pipe) >= PIPELINE_BAR, (
        f"join+GROUP BY columnar >=256 speedups {pipe} below the "
        f"{PIPELINE_BAR}x bar"
    )
    join = [
        v["speedup"]
        for v in report["join_only"]["variants"]
        if v["batch_size"] >= 256
    ]
    assert max(join) >= JOIN_PARITY_BAR, (
        f"join columnar >=256 speedups {join} regressed below "
        f"{JOIN_PARITY_BAR}x of the reference"
    )
