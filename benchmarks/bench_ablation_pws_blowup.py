"""Ablation A5 — why nobody evaluates queries by enumerating worlds.

Figure 1 of the paper defines semantics by expanding the database into all
possible worlds; Section I immediately notes that "the number of possible
worlds can be very large (even infinite for continuous uncertainty)" and
that a practical model must avoid the enumeration.  This ablation puts
numbers on that: the brute-force evaluator's cost doubles with every tuple
while the model's operators scale linearly — on *identical* answers.

Run: ``pytest benchmarks/bench_ablation_pws_blowup.py --benchmark-only -q``
"""

import time


from repro.bench.reporting import print_figure
from repro.core import (
    Column,
    Comparison,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
    col,
    expected_multiplicities,
    model_multiplicities,
    multiplicities_match,
    select,
    world_select,
)
from repro.pdf import DiscretePdf

PRED = Comparison("a", "<", col("b"))


def _relation(n: int) -> ProbabilisticRelation:
    schema = ProbabilisticSchema(
        [Column("a", DataType.INT), Column("b", DataType.INT)], [{"a"}, {"b"}]
    )
    rel = ProbabilisticRelation(schema)
    for i in range(n):
        rel.insert(
            uncertain={
                "a": DiscretePdf({i: 0.5, i + 1: 0.5}),
                "b": DiscretePdf({i: 0.5, i + 2: 0.5}),
            }
        )
    return rel


def bench_model_select_n10(benchmark):
    rel = _relation(10)
    benchmark(lambda: select(rel, PRED))


def bench_pws_select_n8(benchmark):
    rel = _relation(8)
    benchmark.pedantic(
        lambda: expected_multiplicities({"T": rel}, lambda w: world_select(w["T"], PRED)),
        rounds=2,
        iterations=1,
    )


def bench_ablation_a5_report(benchmark, capsys):
    def run():
        rows = []
        for n in (2, 4, 6, 8):
            rel = _relation(n)
            worlds = 4**n  # two binary events per tuple
            t0 = time.perf_counter()
            model = model_multiplicities(select(rel, PRED))
            model_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            pws = expected_multiplicities(
                {"T": rel}, lambda w: world_select(w["T"], PRED)
            )
            pws_s = time.perf_counter() - t0
            assert multiplicities_match(model, pws)
            rows.append([n, worlds, model_s, pws_s])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print_figure(
            "Ablation A5: model operators vs brute-force world enumeration",
            ["tuples", "worlds", "model_s", "enumeration_s"],
            rows,
        )
    # Model time grows roughly linearly; enumeration explodes with 4^n.
    model_growth = rows[-1][2] / max(rows[0][2], 1e-9)
    pws_growth = rows[-1][3] / max(rows[0][3], 1e-9)
    assert pws_growth > 10 * model_growth
