"""Ablation A3 — the aggregate representation blow-up (Section I).

The paper motivates continuous representations with aggregates: the exact
SUM of n discrete uncertain attributes can take exponentially many values,
while a moment-matched Gaussian stays constant size.  This ablation sweeps
n and reports representation size and time for both strategies — the
crossover is the paper's argument in numbers.

Run: ``pytest benchmarks/bench_ablation_aggregate_blowup.py --benchmark-only -q``
"""

import time

import numpy as np

from repro.bench.reporting import print_figure
from repro.core import Column, DataType, ProbabilisticRelation, ProbabilisticSchema
from repro.core.aggregates import sum_distribution
from repro.engine.storage.serialize import pdf_size
from repro.pdf import DiscretePdf


def _relation(n, seed=51):
    """n tuples whose discrete supports are deliberately non-aligned."""
    rng = np.random.default_rng(seed)
    schema = ProbabilisticSchema(
        [Column("id", DataType.INT), Column("v", DataType.REAL)], [{"v"}]
    )
    rel = ProbabilisticRelation(schema)
    for i in range(n):
        values = rng.uniform(0, 100, size=3)
        probs = rng.dirichlet(np.ones(3))
        rel.insert(
            certain={"id": i},
            uncertain={"v": DiscretePdf(dict(zip(values, probs)))},
        )
    return rel


def bench_sum_exact_n8(benchmark):
    rel = _relation(8)
    benchmark.pedantic(lambda: sum_distribution(rel, "v", method="exact"), rounds=3)


def bench_sum_gaussian_n8(benchmark):
    rel = _relation(8)
    benchmark.pedantic(lambda: sum_distribution(rel, "v", method="gaussian"), rounds=3)


def bench_ablation_a3_report(benchmark, capsys):
    """Sweep n: exact support explodes 3^n, the Gaussian stays 2 floats."""

    def run():
        rows = []
        for n in (2, 4, 6, 8, 10):
            rel = _relation(n)
            t0 = time.perf_counter()
            exact = sum_distribution(rel, "v", method="exact")
            exact_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            gauss = sum_distribution(rel, "v", method="gaussian")
            gauss_s = time.perf_counter() - t0
            rows.append(
                [
                    n,
                    len(exact.values),
                    pdf_size(exact),
                    exact_s,
                    pdf_size(gauss),
                    gauss_s,
                    abs(exact.mean() - gauss.mean()),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print_figure(
            "Ablation A3: exact discrete SUM vs continuous approximation",
            [
                "n_tuples",
                "exact_support",
                "exact_bytes",
                "exact_s",
                "gauss_bytes",
                "gauss_s",
                "mean_abs_diff",
            ],
            rows,
        )
    # Exponential support growth for exact; constant size for Gaussian.
    supports = [r[1] for r in rows]
    assert supports[-1] > supports[0] * 50
    gauss_sizes = {r[4] for r in rows}
    assert len(gauss_sizes) == 1
    # Moment matching is exact in the mean.
    assert all(r[6] < 1e-6 for r in rows)
