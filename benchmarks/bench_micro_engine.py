"""Micro-benchmarks of the engine substrate: serialization, storage, indexes,
and the batched execution pipeline.

These do not map to a paper figure; they document where the reproduction's
constant factors come from (useful when comparing against the paper's
absolute numbers — see EXPERIMENTS.md).  The batch-size sweep additionally
writes ``BENCH_engine.json`` at the repo root with the scalar-vs-batch
speedups and pdf-op cache hit rates (see docs/PERFORMANCE.md).

Run: ``pytest benchmarks/bench_micro_engine.py --benchmark-only -q``
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.bench.envinfo import environment_info
from repro.bench.protocol import pdf_cache_stats
from repro.core import Column, DataType, ProbabilisticRelation, ProbabilisticSchema
from repro.core.operations import PDF_OP_CACHE
from repro.core.predicates import And, Comparison, col
from repro.engine.executor import (
    AggSpec,
    Filter,
    GroupAggregate,
    HashJoin,
    RelationScan,
)
from repro.engine.index.btree import BPlusTree
from repro.engine.storage.buffer import BufferPool
from repro.engine.storage.disk import MemoryDisk
from repro.engine.storage.heapfile import HeapFile, RID
from repro.engine.storage.serialize import (
    decode_pdf,
    decode_tuple,
    encode_pdf,
    encode_tuple,
)
from repro.core.model import build_base_tuple
from repro.core.history import HistoryStore
from repro.pdf import GaussianPdf, discretize, to_histogram
from repro.workloads import generate_readings, readings_schema

N = 500


@pytest.fixture(scope="module")
def readings():
    return generate_readings(N, seed=77)


@pytest.fixture(scope="module")
def encoded_tuples(readings):
    store = HistoryStore()
    schema = readings_schema()
    out = []
    for r in readings:
        t = build_base_tuple(
            schema, store, certain={"rid": r.rid}, uncertain={"value": r.pdf}
        )
        out.append(encode_tuple(t))
    return out


def bench_encode_gaussian_pdf(benchmark):
    g = GaussianPdf(20, 5, attr="value")
    benchmark(encode_pdf, g)


def bench_decode_gaussian_pdf(benchmark):
    data = encode_pdf(GaussianPdf(20, 5, attr="value"))
    benchmark(decode_pdf, data)


def bench_decode_discrete25_pdf(benchmark):
    data = encode_pdf(discretize(GaussianPdf(20, 5, attr="value"), 25))
    benchmark(decode_pdf, data)


def bench_decode_histogram5_pdf(benchmark):
    data = encode_pdf(to_histogram(GaussianPdf(20, 5, attr="value"), 5))
    benchmark(decode_pdf, data)


def bench_decode_full_tuples(benchmark, encoded_tuples):
    def run():
        for data in encoded_tuples:
            decode_tuple(data)

    benchmark(run)


def bench_heapfile_insert(benchmark, encoded_tuples):
    def run():
        heap = HeapFile(BufferPool(MemoryDisk(), capacity=64), name="b")
        for data in encoded_tuples:
            heap.insert(data)
        return heap

    benchmark.pedantic(run, rounds=3)


def bench_heapfile_scan(benchmark, encoded_tuples):
    heap = HeapFile(BufferPool(MemoryDisk(), capacity=64), name="b")
    for data in encoded_tuples:
        heap.insert(data)

    benchmark(lambda: sum(1 for _ in heap.scan()))


def bench_btree_insert(benchmark):
    def run():
        tree = BPlusTree(order=64)
        for i in range(2000):
            tree.insert(i * 7919 % 2000, RID(i, 0))
        return tree

    benchmark.pedantic(run, rounds=3)


def bench_btree_range_scan(benchmark):
    tree = BPlusTree(order=64)
    for i in range(2000):
        tree.insert(i, RID(i, 0))
    benchmark(lambda: sum(1 for _ in tree.range_scan(500, 1500)))


# ---------------------------------------------------------------------------
# Batched execution pipeline: Gaussian range selection, batch-size sweep
# ---------------------------------------------------------------------------

SWEEP_N = int(os.environ.get("REPRO_BENCH_ENGINE_N", "4000"))
BATCH_SIZES = (1, 32, 256, 1024)

#: speedup bar for the columnar path at batch >= 256; relaxed at reduced N
#: (CI smoke) where fixed per-query overheads dominate the sweep.
COLUMNAR_BAR = 10.0 if SWEEP_N >= 4000 else 2.0


def _gaussian_relation(n=SWEEP_N, seed=7):
    rng = random.Random(seed)
    schema = ProbabilisticSchema(
        [Column("sid", DataType.INT), Column("temp", DataType.REAL)], [{"temp"}]
    )
    rel = ProbabilisticRelation(schema, name="sensors")
    for i in range(n):
        rel.insert(
            certain={"sid": i},
            uncertain={
                "temp": GaussianPdf(
                    rng.uniform(10, 30), rng.uniform(0.5, 4.0), attr="temp"
                )
            },
        )
    return rel


def _best_of(fn, repeats=5):
    """Minimum wall time and last result of ``repeats`` cold runs."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def bench_batch_pipeline_sweep(benchmark, capsys):
    """Scalar vs columnar Gaussian range selection.

    Writes ``BENCH_engine.json``.  For every batch size the result set must
    be bitwise identical to the scalar reference, and at batch >= 256 the
    columnar struct-of-arrays path must reach ``COLUMNAR_BAR`` (10x at the
    full ``SWEEP_N``) — the ROADMAP "columnar batch representation" bar.
    """
    rel = _gaussian_relation()
    pred = And([Comparison("temp", ">", 18.0), Comparison("temp", "<", 24.0)])

    def make_plan():
        return Filter(RelationScan(rel), pred, rel.store)

    def scalar_run():
        PDF_OP_CACHE.reset()  # cold pdf-op cache per run
        return list(make_plan())

    def batch_run(size):
        PDF_OP_CACHE.reset()
        return [t for b in make_plan().batches(size) for t in b.tuples]

    def run():
        # Interleave the cold repeats of the scalar baseline and every
        # batch-size cell round-robin, taking the per-cell minimum.
        # Sequential best-of-N lets a mid-sweep frequency or load shift hit
        # the baseline and the cells unequally and skew every speedup the
        # same direction; interleaving spreads drift evenly across cells.
        cells = BATCH_SIZES
        scalar_t = float("inf")
        best = {cell: float("inf") for cell in cells}
        scalar_rows = None
        rows_by_cell = {}
        cold_by_cell = {}
        for _ in range(5):
            t, scalar_rows = _timed(scalar_run)
            scalar_t = min(scalar_t, t)
            for size in cells:
                t, rows_by_cell[size] = _timed(lambda: batch_run(size))
                cold_by_cell[size] = pdf_cache_stats()
                best[size] = min(best[size], t)
        scalar_key = [(t.tuple_id, t.certain["sid"]) for t in scalar_rows]
        variants = []
        for size in cells:
            rows = rows_by_cell[size]
            assert [(t.tuple_id, t.certain["sid"]) for t in rows] == scalar_key
            PDF_OP_CACHE.hits = 0  # warm protocol: keep entries, zero counters
            PDF_OP_CACHE.misses = 0
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
        return {
            "workload": "gaussian_range_selection",
            "tuples": SWEEP_N,
            "result_rows": len(scalar_rows),
            "scalar_seconds": scalar_t,
            "environment": environment_info(),
            "variants": variants,
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    out_name = os.environ.get("REPRO_BENCH_ENGINE_OUT", "BENCH_engine.json")
    out_path = Path(__file__).resolve().parents[1] / out_name
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        print()
        from repro.bench.reporting import print_figure

        print_figure(
            "Columnar pipeline: Gaussian range selection (scalar baseline "
            f"{report['scalar_seconds'] * 1000:.2f} ms)",
            ["batch_size", "seconds", "speedup", "warm_hit_rate"],
            [
                [
                    v["batch_size"],
                    v["seconds"],
                    v["speedup"],
                    v["warm_cache"]["hit_rate"],
                ]
                for v in report["variants"]
            ],
        )
        print(f"wrote {out_path}")

    col = [v["speedup"] for v in report["variants"] if v["batch_size"] >= 256]
    assert max(col) >= COLUMNAR_BAR, (
        f"columnar >=256 speedups {col} below the {COLUMNAR_BAR}x bar"
    )


# ---------------------------------------------------------------------------
# Join / aggregate operator timings (columnar vs reference, fixed batch 256)
# ---------------------------------------------------------------------------

_JOIN_N = 2000


def _join_operands():
    """Readings (uncertain temp, certain site key) plus a certain dimension."""
    store = HistoryStore()
    rng = random.Random(13)
    readings = ProbabilisticRelation(
        ProbabilisticSchema(
            [
                Column("rid", DataType.INT),
                Column("site", DataType.INT),
                Column("temp", DataType.REAL),
            ],
            [{"temp"}],
        ),
        store=store,
        name="readings",
    )
    for i in range(_JOIN_N):
        readings.insert(
            certain={"rid": i, "site": i % 64},
            uncertain={
                "temp": GaussianPdf(
                    rng.uniform(10, 30), rng.uniform(0.5, 4.0), attr="temp"
                )
            },
        )
    sites = ProbabilisticRelation(
        ProbabilisticSchema(
            [Column("site_id", DataType.INT), Column("region", DataType.INT)]
        ),
        store=store,
        name="sites",
    )
    for s in range(64):
        sites.insert(certain={"site_id": s, "region": s % 8})
    return store, readings, sites


def _hash_join(store, readings, sites):
    return HashJoin(
        RelationScan(readings),
        RelationScan(sites),
        "site",
        "site_id",
        Comparison("site", "=", col("site_id")),
        store,
    )


def bench_hash_join_columnar(benchmark):
    """Vectorized searchsorted probe + block id allocation, batch 256."""
    store, readings, sites = _join_operands()

    def run():
        op = _hash_join(store, readings, sites)
        return sum(len(b.tuples) for b in op.batches(256))

    assert run() == _JOIN_N
    benchmark.pedantic(run, rounds=3)


def bench_hash_join_reference(benchmark):
    """Tuple-at-a-time dict-bucket probe (the scalar baseline)."""
    store, readings, sites = _join_operands()

    def run():
        return sum(1 for _ in _hash_join(store, readings, sites))

    assert run() == _JOIN_N
    benchmark.pedantic(run, rounds=3)


def bench_group_aggregate_columnar(benchmark):
    """np.unique grouping + vectorized COUNT/EXPECTED over the joined stream."""
    store, readings, sites = _join_operands()

    def run():
        op = GroupAggregate(
            _hash_join(store, readings, sites),
            ["region"],
            [AggSpec("count"), AggSpec("expected", "temp")],
            store,
        )
        return sum(len(b.tuples) for b in op.batches(256))

    assert run() == 8
    benchmark.pedantic(run, rounds=3)


def bench_group_aggregate_reference(benchmark):
    """Per-tuple grouping and probability evaluation (the scalar baseline)."""
    store, readings, sites = _join_operands()

    def run():
        op = GroupAggregate(
            _hash_join(store, readings, sites),
            ["region"],
            [AggSpec("count"), AggSpec("expected", "temp")],
            store,
        )
        return sum(1 for _ in op)

    assert run() == 8
    benchmark.pedantic(run, rounds=3)
