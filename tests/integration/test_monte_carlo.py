"""Monte Carlo validation of the continuous paths.

The exact PWS enumeration only covers discrete data; here the continuous
operators (symbolic floors, grid collapses, joint products) are validated
against stochastic simulation of the underlying random variables.
"""

import numpy as np
import pytest

from repro.core import (
    Column,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
    existence_probability,
    join,
    select,
)
from repro.core.predicates import And, Comparison, col
from repro.pdf import GaussianPdf, JointGaussianPdf, UniformPdf

N_SAMPLES = 200_000
#: Monte Carlo tolerance: ~5 standard errors at p=0.5, plus grid error.
TOL = 5 * 0.5 / np.sqrt(N_SAMPLES) + 0.01


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20260705)


class TestSelectionMass:
    def test_range_selection_gaussian(self, rng):
        schema = ProbabilisticSchema([Column("v", DataType.REAL)], [{"v"}])
        rel = ProbabilisticRelation(schema)
        rel.insert(uncertain={"v": GaussianPdf(20, 5)})
        out = select(
            rel, And([Comparison("v", ">", 18), Comparison("v", "<", 22)])
        )
        samples = rng.normal(20, np.sqrt(5), N_SAMPLES)
        mc = np.mean((samples > 18) & (samples < 22))
        assert existence_probability(out, out.tuples[0]) == pytest.approx(mc, abs=TOL)

    def test_chained_selections(self, rng):
        schema = ProbabilisticSchema([Column("v", DataType.REAL)], [{"v"}])
        rel = ProbabilisticRelation(schema)
        rel.insert(uncertain={"v": UniformPdf(0, 100)})
        out = select(select(rel, Comparison("v", ">", 30)), Comparison("v", "<", 60))
        samples = rng.uniform(0, 100, N_SAMPLES)
        mc = np.mean((samples > 30) & (samples < 60))
        assert existence_probability(out, out.tuples[0]) == pytest.approx(mc, abs=TOL)

    def test_joint_gaussian_correlated_box(self, rng):
        schema = ProbabilisticSchema(
            [Column("x", DataType.REAL), Column("y", DataType.REAL)], [{"x", "y"}]
        )
        rel = ProbabilisticRelation(schema)
        cov = [[2.0, 1.2], [1.2, 3.0]]
        rel.insert(uncertain={("x", "y"): JointGaussianPdf(("x", "y"), [1, -1], cov)})
        out = select(
            rel, And([Comparison("x", ">", 0), Comparison("y", "<", 0)])
        )
        draws = rng.multivariate_normal([1, -1], cov, N_SAMPLES)
        mc = np.mean((draws[:, 0] > 0) & (draws[:, 1] < 0))
        assert existence_probability(out, out.tuples[0]) == pytest.approx(mc, abs=TOL)

    def test_attr_vs_attr_within_joint(self, rng):
        schema = ProbabilisticSchema(
            [Column("x", DataType.REAL), Column("y", DataType.REAL)], [{"x", "y"}]
        )
        rel = ProbabilisticRelation(schema)
        cov = [[1.0, 0.5], [0.5, 1.0]]
        rel.insert(uncertain={("x", "y"): JointGaussianPdf(("x", "y"), [0, 0.5], cov)})
        out = select(rel, Comparison("x", "<", col("y")))
        draws = rng.multivariate_normal([0, 0.5], cov, N_SAMPLES)
        mc = np.mean(draws[:, 0] < draws[:, 1])
        # Non-rectangular predicate: grid collapse, wider tolerance.
        assert existence_probability(out, out.tuples[0]) == pytest.approx(
            mc, abs=TOL + 0.02
        )


class TestJoinMass:
    def test_continuous_join_probability(self, rng):
        schema_a = ProbabilisticSchema(
            [Column("ida", DataType.INT), Column("a", DataType.REAL)], [{"a"}]
        )
        ra = ProbabilisticRelation(schema_a, name="A")
        ra.insert(certain={"ida": 1}, uncertain={"a": GaussianPdf(0, 4)})
        schema_b = ProbabilisticSchema(
            [Column("idb", DataType.INT), Column("b", DataType.REAL)], [{"b"}]
        )
        rb = ProbabilisticRelation(schema_b, ra.store, name="B")
        rb.insert(certain={"idb": 2}, uncertain={"b": UniformPdf(-1, 5)})

        out = join(ra, rb, Comparison("a", "<", col("b")))
        a = rng.normal(0, 2, N_SAMPLES)
        b = rng.uniform(-1, 5, N_SAMPLES)
        mc = np.mean(a < b)
        assert existence_probability(out, out.tuples[0]) == pytest.approx(
            mc, abs=TOL + 0.02
        )

    def test_join_then_second_predicate(self, rng):
        """Dependent product over the grid-collapsed join result."""
        schema_a = ProbabilisticSchema([Column("a", DataType.REAL)], [{"a"}])
        ra = ProbabilisticRelation(schema_a, name="A")
        ra.insert(uncertain={"a": GaussianPdf(0, 1)})
        schema_b = ProbabilisticSchema([Column("b", DataType.REAL)], [{"b"}])
        rb = ProbabilisticRelation(schema_b, ra.store, name="B")
        rb.insert(uncertain={"b": GaussianPdf(0.5, 1)})

        joined = join(ra, rb, Comparison("a", "<", col("b")))
        narrowed = select(joined, Comparison("a", ">", -1))
        a = rng.normal(0, 1, N_SAMPLES)
        b = rng.normal(0.5, 1, N_SAMPLES)
        mc = np.mean((a < b) & (a > -1))
        assert existence_probability(narrowed, narrowed.tuples[0]) == pytest.approx(
            mc, abs=TOL + 0.03
        )


class TestFlooredSampling:
    def test_floored_pdf_sampling_matches_analytic_moments(self, rng):
        from repro.pdf import BoxRegion, IntervalSet

        g = GaussianPdf(0, 1)
        f = g.restrict(BoxRegion({"x": IntervalSet.between(-1.5, 0.5)}))
        samples = f.sample(rng, 50_000)["x"]
        assert samples.mean() == pytest.approx(f.mean(), abs=0.02)
        assert samples.var() == pytest.approx(f.variance(), abs=0.02)

    def test_grid_sampling_matches_grid_moments(self, rng):
        jg = JointGaussianPdf(("x", "y"), [2, 3], [[1, -0.6], [-0.6, 1]])
        grid = jg.to_grid()
        samples = grid.sample(rng, 50_000)
        assert samples["x"].mean() == pytest.approx(2.0, abs=0.05)
        assert samples["y"].mean() == pytest.approx(3.0, abs=0.05)
        corr = np.corrcoef(samples["x"], samples["y"])[0, 1]
        assert corr == pytest.approx(-0.6, abs=0.05)
