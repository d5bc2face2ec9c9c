"""Probabilistic nearest-neighbor query tests (validated vs Monte Carlo)."""

import numpy as np
import pytest

from repro.core import (
    Column,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
    distance_distribution,
    nearest_neighbor_probabilities,
)
from repro.errors import QueryError, UnsupportedOperationError
from repro.pdf import DiscretePdf, GaussianPdf, JointGaussianPdf, UniformPdf


def _locations_1d(pdfs):
    schema = ProbabilisticSchema(
        [Column("oid", DataType.INT), Column("x", DataType.REAL)], [{"x"}]
    )
    rel = ProbabilisticRelation(schema)
    for i, pdf in enumerate(pdfs):
        rel.insert(certain={"oid": i}, uncertain={"x": pdf})
    return rel


class TestDistanceDistribution:
    def test_uniform_distance_exact(self):
        # X ~ U(0, 10), q = 0: D = X ~ U(0, 10).
        d = distance_distribution(UniformPdf(0, 10), [0.0])
        assert d.mass() == pytest.approx(1.0, abs=1e-9)
        assert d.mean() == pytest.approx(5.0, abs=0.05)

    def test_centered_gaussian_folded(self):
        # |N(0,1)| has mean sqrt(2/pi).
        d = distance_distribution(GaussianPdf(0, 1), [0.0])
        assert d.mean() == pytest.approx(np.sqrt(2 / np.pi), abs=0.02)

    def test_partial_mass_preserved(self):
        from repro.pdf import BoxRegion, IntervalSet

        partial = GaussianPdf(0, 1).restrict(
            BoxRegion({"x": IntervalSet.less_than(0)})
        )
        d = distance_distribution(partial, [0.0])
        assert d.mass() == pytest.approx(0.5, abs=1e-6)

    def test_2d_distance_monte_carlo(self, rng):
        jg = JointGaussianPdf(("x", "y"), [3, 4], [[1, 0.3], [0.3, 2]])
        d = distance_distribution(jg, [0.0, 0.0], bins=512)
        draws = rng.multivariate_normal([3, 4], [[1, 0.3], [0.3, 2]], 100_000)
        mc = np.sqrt((draws**2).sum(axis=1)).mean()
        assert d.mean() == pytest.approx(mc, abs=0.05)

    def test_dimension_mismatch(self):
        with pytest.raises(QueryError):
            distance_distribution(GaussianPdf(0, 1), [0.0, 1.0])


class TestNearestNeighbor:
    def test_two_uniforms_symmetric(self):
        rel = _locations_1d([UniformPdf(0, 10), UniformPdf(0, 10)])
        probs = [p for _, p in nearest_neighbor_probabilities(rel, ["x"], [0.0])]
        assert probs[0] == pytest.approx(0.5, abs=0.01)
        assert sum(probs) == pytest.approx(1.0, abs=0.01)

    def test_obvious_winner(self):
        rel = _locations_1d([GaussianPdf(1, 0.25), GaussianPdf(100, 0.25)])
        probs = dict(
            (t.certain["oid"], p)
            for t, p in nearest_neighbor_probabilities(rel, ["x"], [0.0])
        )
        assert probs[0] == pytest.approx(1.0, abs=1e-6)
        assert probs[1] == pytest.approx(0.0, abs=1e-6)

    def test_monte_carlo_1d(self, rng):
        pdfs = [GaussianPdf(2, 1), GaussianPdf(3, 4), UniformPdf(0, 6)]
        rel = _locations_1d(pdfs)
        got = [p for _, p in nearest_neighbor_probabilities(rel, ["x"], [2.5], bins=1024)]
        samples = np.stack(
            [
                rng.normal(2, 1, 100_000),
                rng.normal(3, 2, 100_000),
                rng.uniform(0, 6, 100_000),
            ]
        )
        dist = np.abs(samples - 2.5)
        winners = np.argmin(dist, axis=0)
        mc = [np.mean(winners == i) for i in range(3)]
        for g, m in zip(got, mc):
            assert g == pytest.approx(m, abs=0.02)

    def test_partial_tuples_reduce_total(self):
        rel = _locations_1d([DiscretePdf({1.0: 0.5}), DiscretePdf({2.0: 0.5})])
        result = nearest_neighbor_probabilities(rel, ["x"], [0.0])
        total = sum(p for _, p in result)
        # P(at least one exists) = 1 - 0.25.
        assert total == pytest.approx(0.75, abs=0.01)
        # The closer one wins whenever it exists.
        assert result[0][1] == pytest.approx(0.5, abs=0.01)
        assert result[1][1] == pytest.approx(0.25, abs=0.01)

    def test_2d_joint_locations(self, rng):
        schema = ProbabilisticSchema(
            [Column("oid", DataType.INT), Column("x"), Column("y")], [{"x", "y"}]
        )
        rel = ProbabilisticRelation(schema)
        params = [([0, 0], [[1, 0], [0, 1]]), ([2, 2], [[1, 0.5], [0.5, 1]])]
        for i, (mean, cov) in enumerate(params):
            rel.insert(
                certain={"oid": i},
                uncertain={("x", "y"): JointGaussianPdf(("x", "y"), mean, cov)},
            )
        got = [
            p
            for _, p in nearest_neighbor_probabilities(rel, ["x", "y"], [1.0, 1.0], bins=512)
        ]
        draws = [
            rng.multivariate_normal(mean, cov, 100_000) for mean, cov in params
        ]
        dists = [np.sqrt(((d - [1.0, 1.0]) ** 2).sum(axis=1)) for d in draws]
        mc0 = np.mean(dists[0] < dists[1])
        assert got[0] == pytest.approx(mc0, abs=0.02)

    def test_certain_attr_rejected(self):
        rel = _locations_1d([UniformPdf(0, 1)])
        with pytest.raises(QueryError):
            nearest_neighbor_probabilities(rel, ["oid"], [0.0])

    def test_dependent_tuples_rejected(self, figure3_relation):
        from repro.core import cross_product, project

        ta = project(figure3_relation, ["a"])
        tb = project(figure3_relation, ["b"])
        crossed = cross_product(ta, tb)
        with pytest.raises(UnsupportedOperationError):
            nearest_neighbor_probabilities(crossed, ["a"], [0.0])

    def test_empty_relation(self):
        rel = _locations_1d([])
        assert nearest_neighbor_probabilities(rel, ["x"], [0.0]) == []
