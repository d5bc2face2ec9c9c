"""Possible-worlds reference engine tests and randomized PWS equivalence.

The randomized suite is the executable form of Theorems 1 and 2: for every
generated discrete database and every generated select/project/join
pipeline, the model's result multiplicities must equal the brute-force
possible-worlds multiplicities exactly.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Column,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
    cross_product,
    enumerate_worlds,
    expected_multiplicities,
    model_multiplicities,
    multiplicities_match,
    project,
    select,
    world_join,
    world_project,
    world_select,
)
from repro.core.predicates import And, Comparison, Or, TruePredicate, col
from repro.errors import UnsupportedOperationError
from repro.pdf import DiscretePdf, JointDiscretePdf


class TestEnumeration:
    def test_paper_table_iii(self, table2_relation):
        """Table II expands into exactly the paper's Table III worlds."""
        worlds = list(enumerate_worlds({"T": table2_relation}))
        assert len(worlds) == 4
        assert sum(w.probability for w in worlds) == pytest.approx(1.0)
        by_rows = {
            tuple(sorted((r["a"], r["b"]) for r in w.relations["T"])): w.probability
            for w in worlds
        }
        assert by_rows[((0, 1), (7, 3))] == pytest.approx(0.06)
        assert by_rows[((0, 2), (7, 3))] == pytest.approx(0.04)
        assert by_rows[((1, 1), (7, 3))] == pytest.approx(0.54)
        assert by_rows[((1, 2), (7, 3))] == pytest.approx(0.36)

    def test_partial_pdf_creates_absent_worlds(self, figure3_relation):
        worlds = list(enumerate_worlds({"T": figure3_relation}))
        sizes = sorted(len(w.relations["T"]) for w in worlds)
        # Tuple 2 exists with probability 0.7; tuple 1 always exists.
        assert sizes == [1, 1, 2, 2]
        missing = sum(
            w.probability for w in worlds if len(w.relations["T"]) == 1
        )
        assert missing == pytest.approx(0.3)

    def test_continuous_rejected(self, sensor_relation):
        with pytest.raises(UnsupportedOperationError):
            list(enumerate_worlds({"S": sensor_relation}))

    def test_derived_relation_rejected(self, table2_relation):
        derived = select(table2_relation, Comparison("a", "<", col("b")))
        with pytest.raises(UnsupportedOperationError):
            list(enumerate_worlds({"R": derived}))

    def test_world_probabilities_sum_to_one(self, figure3_relation):
        total = sum(w.probability for w in enumerate_worlds({"T": figure3_relation}))
        assert total == pytest.approx(1.0)


class TestWorldAlgebra:
    def test_world_select(self):
        rows = [{"a": 1}, {"a": 5}]
        assert world_select(rows, Comparison("a", ">", 2)) == [{"a": 5}]

    def test_world_project_bag_semantics(self):
        rows = [{"a": 1, "b": 1}, {"a": 1, "b": 2}]
        assert world_project(rows, ["a"]) == [{"a": 1}, {"a": 1}]

    def test_world_join(self):
        left = [{"a": 1}, {"a": 3}]
        right = [{"b": 2}]
        out = world_join(left, right, Comparison("a", "<", col("b")))
        assert out == [{"a": 1, "b": 2}]


# ---------------------------------------------------------------------------
# Randomized PWS equivalence
# ---------------------------------------------------------------------------


@st.composite
def discrete_relations(draw, attrs, max_tuples=3, partial_allowed=True):
    """A small random base relation with independent discrete attributes."""
    schema = ProbabilisticSchema(
        [Column(a, DataType.INT) for a in attrs], [{a} for a in attrs]
    )
    rel = ProbabilisticRelation(schema, name="".join(attrs))
    n = draw(st.integers(min_value=1, max_value=max_tuples))
    for _ in range(n):
        uncertain = {}
        for a in attrs:
            k = draw(st.integers(min_value=1, max_value=3))
            values = draw(
                st.lists(
                    st.integers(min_value=0, max_value=4),
                    min_size=k,
                    max_size=k,
                    unique=True,
                )
            )
            weights = draw(
                st.lists(
                    st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k
                )
            )
            total = sum(weights)
            scale = draw(st.floats(min_value=0.5, max_value=1.0)) if partial_allowed else 1.0
            uncertain[a] = DiscretePdf(
                {float(v): w / total * scale for v, w in zip(values, weights)}
            )
        rel.insert(uncertain=uncertain)
    return rel


@st.composite
def joint_relations(draw, max_tuples=2):
    """Random base relations with a joint (a, b) dependency set."""
    schema = ProbabilisticSchema(
        [Column("a", DataType.INT), Column("b", DataType.INT)], [{"a", "b"}]
    )
    rel = ProbabilisticRelation(schema, name="J")
    n = draw(st.integers(min_value=1, max_value=max_tuples))
    for _ in range(n):
        k = draw(st.integers(min_value=1, max_value=4))
        keys = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=3),
                    st.integers(min_value=0, max_value=3),
                ),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        weights = draw(
            st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k)
        )
        total = sum(weights)
        scale = draw(st.floats(min_value=0.5, max_value=1.0))
        table = {
            key: w / total * scale for key, w in zip(keys, weights)
        }
        rel.insert(uncertain={("a", "b"): JointDiscretePdf(("a", "b"), table)})
    return rel


comparisons_ab = st.sampled_from(
    [
        Comparison("a", "<", col("b")),
        Comparison("a", "<=", col("b")),
        Comparison("a", "=", col("b")),
        Comparison("a", ">", 1),
        Comparison("b", "<=", 2),
        And([Comparison("a", ">=", 1), Comparison("b", "<", 3)]),
        Or([Comparison("a", "=", 0), Comparison("b", "=", 0)]),
    ]
)


@settings(max_examples=40, deadline=None)
@given(rel=discrete_relations(("a", "b")), pred=comparisons_ab)
def test_select_is_pws_consistent(rel, pred):
    out = select(rel, pred)
    pws = expected_multiplicities({"T": rel}, lambda w: world_select(w["T"], pred))
    assert multiplicities_match(model_multiplicities(out), pws)


@settings(max_examples=40, deadline=None)
@given(rel=joint_relations(), pred=comparisons_ab)
def test_select_on_joint_sets_is_pws_consistent(rel, pred):
    out = select(rel, pred)
    pws = expected_multiplicities({"T": rel}, lambda w: world_select(w["T"], pred))
    assert multiplicities_match(model_multiplicities(out), pws)


@settings(max_examples=30, deadline=None)
@given(rel=joint_relations(), pred=comparisons_ab, keep=st.sampled_from(["a", "b"]))
def test_select_project_pipeline_is_pws_consistent(rel, pred, keep):
    out = project(select(rel, pred), [keep])
    pws = expected_multiplicities(
        {"T": rel}, lambda w: world_project(world_select(w["T"], pred), [keep])
    )
    assert multiplicities_match(model_multiplicities(out), pws)


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    pred=st.sampled_from(
        [
            Comparison("a", "<", col("b")),
            Comparison("a", "=", col("b")),
            TruePredicate(),
        ]
    ),
)
def test_join_is_pws_consistent_shared_store(data, pred):
    left = data.draw(discrete_relations(("a",), max_tuples=2))
    # Build the right relation on the same history store.
    schema = ProbabilisticSchema([Column("b", DataType.INT)], [{"b"}])
    right = ProbabilisticRelation(schema, left.store, name="R")
    n = data.draw(st.integers(min_value=1, max_value=2))
    for _ in range(n):
        k = data.draw(st.integers(min_value=1, max_value=3))
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=4), min_size=k, max_size=k, unique=True
            )
        )
        weights = data.draw(
            st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k)
        )
        total = sum(weights)
        scale = data.draw(st.floats(min_value=0.5, max_value=1.0))
        right.insert(
            uncertain={
                "b": DiscretePdf(
                    {float(v): w / total * scale for v, w in zip(values, weights)}
                )
            }
        )

    out = select(cross_product(left, right), pred)
    pws = expected_multiplicities(
        {"L": left, "R": right}, lambda w: world_join(w["L"], w["R"], pred)
    )
    assert multiplicities_match(model_multiplicities(out), pws)


@settings(max_examples=20, deadline=None)
@given(rel=joint_relations(max_tuples=2))
def test_self_cross_after_projections_is_pws_consistent(rel):
    """The Figure 3 pattern over random data: the hardest history case."""
    from repro.core import join

    ta = project(rel, ["a"])
    tb = project(select(rel, Comparison("b", ">", 1)), ["b"])
    joined = join(ta, tb, TruePredicate())

    def query(world):
        left = world_project(world["T"], ["a"])
        right = world_project(world_select(world["T"], Comparison("b", ">", 1)), ["b"])
        return world_join(left, right, TruePredicate())

    pws = expected_multiplicities({"T": rel}, query)
    assert multiplicities_match(model_multiplicities(joined), pws)
