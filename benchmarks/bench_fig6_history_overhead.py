"""Figure 6 — Overhead of Histories.

Regenerates the paper's final experiment: joins over range queries (which
involve floors and products of historically dependent pdfs) and projections
of the resulting correlated data (collapsing the 2-D pdfs), with and without
the history machinery.  The paper reports a 5-20% end-to-end overhead and
notes that ignoring histories yields incorrect answers (Figure 3).

Run: ``pytest benchmarks/bench_fig6_history_overhead.py --benchmark-only -q``
"""


from repro.bench.figures import _history_workload, fig6_history_overhead
from repro.bench.reporting import print_figure

TUPLES = 300


def bench_fig6_series(benchmark, capsys):
    """Regenerate and print the full Figure 6 data series."""
    headers, rows = benchmark.pedantic(
        lambda: fig6_history_overhead(tuple_counts=(100, 200, 300, 400, 500)),
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print_figure("Figure 6: Overhead of Histories", headers, rows)
    idx = {h: i for i, h in enumerate(headers)}
    for row in rows:
        # With histories the join phase does strictly more work.
        assert row[idx["join_hist_s"]] >= row[idx["join_nohist_s"]] * 0.9
        # Correctness overhead stays bounded (paper: 5-20%).
        assert row[idx["overhead_pct"]] < 150.0


def bench_fig6_join_with_histories(benchmark):
    benchmark.pedantic(
        lambda: _history_workload(TUPLES, use_history=True, seed=23),
        rounds=3,
        iterations=1,
    )


def bench_fig6_join_without_histories(benchmark):
    benchmark.pedantic(
        lambda: _history_workload(TUPLES, use_history=False, seed=23),
        rounds=3,
        iterations=1,
    )
