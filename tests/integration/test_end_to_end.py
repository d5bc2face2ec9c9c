"""Integration tests: engine vs model vs possible worlds, across layers."""

import pytest

from repro import Database
from repro.core import (
    Column,
    DataType,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticSchema,
    expected_multiplicities,
    model_multiplicities,
    multiplicities_match,
    select,
    world_select,
)
from repro.core.predicates import And, Comparison, col
from repro.engine.executor import Filter, SeqScan
from repro.pdf import DiscretePdf
from repro.workloads import generate_range_queries, generate_readings, load_readings_relation


class TestEngineMatchesModel:
    """The streamed engine operators and the in-memory model must agree."""

    def test_range_selection_agrees(self):
        readings = generate_readings(50, seed=4)
        rel = load_readings_relation(readings)

        db = Database()
        db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")
        for r in readings:
            db.table("readings").insert(
                certain={"rid": r.rid}, uncertain={"value": r.pdf}
            )

        for q in generate_range_queries(10, seed=5):
            pred = And(
                [Comparison("value", ">", q.lo), Comparison("value", "<", q.hi)]
            )
            model_out = select(rel, pred)
            sql_out = db.execute(
                f"SELECT rid FROM readings WHERE value > {q.lo} AND value < {q.hi}"
            )
            model_ids = sorted(t.certain["rid"] for t in model_out)
            sql_ids = sorted(r["rid"] for r in sql_out.to_dicts())
            assert model_ids == sql_ids

    def test_masses_agree_per_tuple(self):
        readings = generate_readings(20, seed=8)
        rel = load_readings_relation(readings)
        db = Database()
        db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")
        for r in readings:
            db.table("readings").insert(
                certain={"rid": r.rid}, uncertain={"value": r.pdf}
            )
        pred = And([Comparison("value", ">", 30), Comparison("value", "<", 70)])
        model_out = {
            t.certain["rid"]: t.pdfs[frozenset({"value"})].mass()
            for t in select(rel, pred)
        }
        engine_out = {
            t.certain["rid"]: t.pdfs[frozenset({"value"})].mass()
            for t in Filter(SeqScan(db.table("readings")), pred, db.catalog.store)
        }
        assert model_out == pytest.approx(engine_out)


class TestEngineMatchesPossibleWorlds:
    def test_sql_selection_is_pws_consistent(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT UNCERTAIN, b INT UNCERTAIN)")
        db.execute(
            "INSERT INTO t VALUES (DISCRETE(0: 0.1, 1: 0.9), DISCRETE(1: 0.6, 2: 0.4)),"
            " (DISCRETE(7: 1.0), DISCRETE(3: 1.0))"
        )
        result = db.execute("SELECT * FROM t WHERE a < b")

        # Rebuild the same base data as a model relation for PWS expansion.
        schema = ProbabilisticSchema(
            [Column("a", DataType.INT), Column("b", DataType.INT)], [{"a"}, {"b"}]
        )
        rel = ProbabilisticRelation(schema, name="T")
        rel.insert(
            uncertain={
                "a": DiscretePdf({0: 0.1, 1: 0.9}),
                "b": DiscretePdf({1: 0.6, 2: 0.4}),
            }
        )
        rel.insert(uncertain={"a": DiscretePdf({7: 1.0}), "b": DiscretePdf({3: 1.0})})
        pred = Comparison("a", "<", col("b"))
        pws = expected_multiplicities({"T": rel}, lambda w: world_select(w["T"], pred))

        # Compare via the result relation built on the engine's store.
        out_rel = ProbabilisticRelation(result.schema, db.catalog.store)
        for t in result.rows:
            out_rel.add_tuple(t, acquire=False)
        assert multiplicities_match(model_multiplicities(out_rel), pws)


class TestSensorScenario:
    """The paper's running example, end to end through SQL."""

    def test_full_flow(self):
        db = Database()
        db.execute("CREATE TABLE sensors (id INT, location REAL UNCERTAIN)")
        db.execute(
            "INSERT INTO sensors VALUES (1, GAUS(20, 5)), (2, GAUS(25, 4)), (3, GAUS(13, 1))"
        )
        # Which sensors are in [18, 22] with confidence at least 50%?
        confident = db.execute(
            "SELECT id FROM sensors WHERE PROB(location > 18 AND location < 22) >= 0.5"
        ).to_dicts()
        assert [r["id"] for r in confident] == [1]
        # Expected location over all sensors.
        assert db.execute("SELECT EXPECTED(location) FROM sensors").scalar() == (
            pytest.approx(58.0)
        )

    def test_history_correctness_through_engine(self):
        """Disabling histories changes (corrupts) probabilities, engine-side."""
        for use_history, expected in ((True, 0.9), (False, 0.81)):
            db = Database(config=ModelConfig(use_history=use_history))
            db.execute(
                "CREATE TABLE t (a INT, b INT, DEPENDENCY (a, b))"
            )
            db.execute(
                "INSERT INTO t VALUES (JOINT_DISCRETE((4, 5): 0.9, (2, 3): 0.1))"
            )
            # Select on a and then on b: the second selection must use the
            # joint (with histories) or wrongly multiply (without).
            out = db.execute("SELECT * FROM t WHERE a = 4 AND b = 5")
            mass = out.rows[0].pdfs[frozenset({"a", "b"})].mass()
            assert mass == pytest.approx(0.9)  # single selection is exact

            # Now the two-step flow where histories matter: project marginals
            # through the model API and re-join.
            from repro.core import join, prefix_attrs, project

            rel = ProbabilisticRelation(
                db.table("t").schema, db.catalog.store
            )
            for _, t in db.table("t").scan():
                rel.add_tuple(t, acquire=False)
            config = ModelConfig(use_history=use_history)
            ta = project(rel, ["a"], config)
            tb = project(
                select(rel, Comparison("b", ">", 4), config), ["b"], config
            )
            joined = join(prefix_attrs(ta, "l"), prefix_attrs(tb, "r"),
                          Comparison("l.a", "=", 4), config)
            got = model_multiplicities(joined, config)
            key = frozenset({("l.a", 4.0), ("r.b", 5.0)})
            assert got[key] == pytest.approx(expected)
