"""Probability-value operations (Section III-E): Pr(A) and threshold selects."""

import pytest

from repro.core import (
    Column,
    DataType,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticSchema,
    existence_probability,
    select,
    threshold_select,
    tuple_probability,
)
from repro.core.predicates import And, Comparison
from repro.errors import QueryError
from repro.pdf import DiscretePdf


@pytest.fixture
def partial_relation():
    schema = ProbabilisticSchema(
        [Column("id", DataType.INT), Column("u", DataType.INT), Column("v", DataType.INT)],
        [{"u"}, {"v"}],
    )
    rel = ProbabilisticRelation(schema)
    rel.insert(
        certain={"id": 1},
        uncertain={"u": DiscretePdf({1: 0.8}), "v": DiscretePdf({2: 0.5})},
    )
    rel.insert(
        certain={"id": 2},
        uncertain={"u": DiscretePdf({1: 1.0}), "v": DiscretePdf({2: 1.0})},
    )
    return rel


class TestTupleProbability:
    def test_existence_multiplies_independent_sets(self, partial_relation):
        t = partial_relation.tuples[0]
        assert existence_probability(partial_relation, t) == pytest.approx(0.4)

    def test_full_mass_tuple(self, partial_relation):
        t = partial_relation.tuples[1]
        assert existence_probability(partial_relation, t) == pytest.approx(1.0)

    def test_subset_of_attrs(self, partial_relation):
        t = partial_relation.tuples[0]
        assert tuple_probability(partial_relation, t, ["u"]) == pytest.approx(0.8)
        assert tuple_probability(partial_relation, t, ["v"]) == pytest.approx(0.5)

    def test_certain_attrs_probability_one(self, partial_relation):
        t = partial_relation.tuples[0]
        assert tuple_probability(partial_relation, t, ["id"]) == pytest.approx(1.0)

    def test_unknown_attr_rejected(self, partial_relation):
        with pytest.raises(QueryError):
            tuple_probability(partial_relation, partial_relation.tuples[0], ["zzz"])

    def test_null_pdf_counts_as_existing(self):
        schema = ProbabilisticSchema([Column("v")], [{"v"}])
        rel = ProbabilisticRelation(schema)
        t = rel.insert(uncertain={"v": None})
        assert existence_probability(rel, t) == pytest.approx(1.0)

    def test_history_aware_probability(self, figure3_relation):
        """Pr over historically dependent marginals must not double count."""
        from repro.core import cross_product, project

        ta = project(figure3_relation, ["a"])
        tb = project(
            select(figure3_relation, Comparison("b", ">", 4)), ["b"]
        )
        crossed = cross_product(ta, tb)
        # The first pair combines tuple 1's projection with tuple 1's own
        # range-selected projection: both derive from the same ancestor, so
        # Pr must come from the joint — 0.9 — not a product of marginals.
        t = crossed.tuples[0]
        p = existence_probability(crossed, t)
        assert p == pytest.approx(0.9)
        # Without histories the same computation multiplies marginals.
        p_naive = existence_probability(crossed, t, ModelConfig(use_history=False))
        assert p_naive == pytest.approx(0.9)  # masses multiply: 1.0 * 0.9


class TestThresholdSelect:
    def test_threshold_filters(self, partial_relation):
        out = threshold_select(partial_relation, None, ">", 0.5)
        assert len(out) == 1
        assert out.tuples[0].certain["id"] == 2

    def test_threshold_on_attr_subset(self, partial_relation):
        out = threshold_select(partial_relation, ["u"], ">=", 0.8)
        assert len(out) == 2
        out = threshold_select(partial_relation, ["v"], ">", 0.6)
        assert len(out) == 1

    def test_less_than_threshold(self, partial_relation):
        out = threshold_select(partial_relation, None, "<", 0.5)
        assert len(out) == 1
        assert out.tuples[0].certain["id"] == 1

    def test_unknown_operator_rejected(self, partial_relation):
        with pytest.raises(QueryError):
            threshold_select(partial_relation, None, "~", 0.5)

    def test_histories_copied(self, partial_relation):
        out = threshold_select(partial_relation, None, ">", 0.0)
        for t_in, t_out in zip(partial_relation.tuples, out.tuples):
            assert t_in.lineage == t_out.lineage

    def test_after_selection(self, sensor_relation):
        """The paper's canonical use: range query then confidence threshold."""
        ranged = select(
            sensor_relation,
            And([Comparison("location", ">", 18), Comparison("location", "<", 22)]),
        )
        confident = threshold_select(ranged, None, ">", 0.5)
        ids = [t.certain["id"] for t in confident]
        assert ids == [1]  # only Gaus(20,5) has >0.5 mass in [18,22]
