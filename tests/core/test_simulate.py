"""World-sampling tests: the Monte Carlo counterpart of enumeration."""

import numpy as np
import pytest

from repro.core import (
    Column,
    Comparison,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
    col,
    estimate_expected_rows,
    existence_probability,
    expected_multiplicities,
    sample_worlds,
    select,
    world_join,
    world_select,
)
from repro.errors import UnsupportedOperationError
from repro.pdf import DiscretePdf, GaussianPdf, JointGaussianPdf

N = 40_000
TOL = 5 / np.sqrt(N) + 0.01


def _relation(pdfs, attr="v"):
    schema = ProbabilisticSchema([Column(attr, DataType.REAL)], [{attr}])
    rel = ProbabilisticRelation(schema, name="T")
    for pdf in pdfs:
        rel.insert(uncertain={attr: pdf})
    return rel


class TestSampleWorlds:
    def test_world_shapes(self, rng):
        rel = _relation([GaussianPdf(0, 1), DiscretePdf({5: 0.5})])
        for world in sample_worlds({"T": rel}, rng, 20):
            assert set(world) == {"T"}
            assert 1 <= len(world["T"]) <= 2  # first tuple always exists
            for row in world["T"]:
                assert "v" in row

    def test_partial_tuple_frequency(self, rng):
        rel = _relation([DiscretePdf({5: 0.3})])
        count = sum(len(w["T"]) for w in sample_worlds({"T": rel}, rng, N))
        assert count / N == pytest.approx(0.3, abs=TOL)

    def test_joint_sets_sampled_jointly(self, rng):
        schema = ProbabilisticSchema(
            [Column("x", DataType.REAL), Column("y", DataType.REAL)], [{"x", "y"}]
        )
        rel = ProbabilisticRelation(schema, name="T")
        rel.insert(
            uncertain={("x", "y"): JointGaussianPdf(("x", "y"), [0, 0], [[1, 0.9], [0.9, 1]])}
        )
        xs, ys = [], []
        for world in sample_worlds({"T": rel}, rng, 5000):
            (row,) = world["T"]
            xs.append(row["x"])
            ys.append(row["y"])
        assert np.corrcoef(xs, ys)[0, 1] == pytest.approx(0.9, abs=0.03)

    def test_null_pdf_rejected(self, rng):
        schema = ProbabilisticSchema([Column("v", DataType.REAL)], [{"v"}])
        rel = ProbabilisticRelation(schema)
        rel.insert(uncertain={"v": None})
        with pytest.raises(UnsupportedOperationError):
            next(iter(sample_worlds({"T": rel}, rng, 1)))

    def test_derived_relation_rejected(self, rng):
        rel = _relation([DiscretePdf({1: 0.5, 2: 0.5}), DiscretePdf({1: 1.0})])
        # Selection merges lineages only when sets merge; force a derived
        # relation with multi-ancestor lineage via a join-style product.
        from repro.core import cross_product, prefix_attrs

        crossed = select(
            cross_product(prefix_attrs(rel, "l"), prefix_attrs(rel, "r")),
            Comparison("l.v", "<", col("r.v")),
        )
        with pytest.raises(UnsupportedOperationError):
            next(iter(sample_worlds({"T": crossed}, rng, 1)))


class TestEstimates:
    def test_matches_exact_enumeration(self, rng):
        rel = _relation([DiscretePdf({1: 0.5, 2: 0.5}), DiscretePdf({2: 0.7})])
        pred = Comparison("v", ">=", 2)
        exact = sum(
            expected_multiplicities(
                {"T": rel}, lambda w: world_select(w["T"], pred)
            ).values()
        )
        est = estimate_expected_rows(
            {"T": rel}, lambda w: world_select(w["T"], pred), rng, N
        )
        assert est == pytest.approx(exact, abs=TOL)

    def test_matches_continuous_selection(self, rng):
        rel = _relation([GaussianPdf(10, 4), GaussianPdf(20, 4)])
        pred = Comparison("v", "<", 12)
        sel = select(rel, pred)
        exact = sum(existence_probability(sel, t) for t in sel)
        est = estimate_expected_rows(
            {"T": rel}, lambda w: world_select(w["T"], pred), rng, N
        )
        assert est == pytest.approx(exact, abs=TOL)

    def test_matches_continuous_join(self, rng):
        left = _relation([GaussianPdf(0, 1)], attr="a")
        schema = ProbabilisticSchema([Column("b", DataType.REAL)], [{"b"}])
        right = ProbabilisticRelation(schema, left.store, name="R")
        right.insert(uncertain={"b": GaussianPdf(0.5, 1)})
        pred = Comparison("a", "<", col("b"))

        from repro.core import join

        joined = join(left, right, pred)
        exact = sum(existence_probability(joined, t) for t in joined)
        est = estimate_expected_rows(
            {"L": left, "R": right},
            lambda w: world_join(w["L"], w["R"], pred),
            rng,
            N,
        )
        assert est == pytest.approx(exact, abs=TOL + 0.02)
