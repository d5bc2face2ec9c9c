"""Shared fixtures: the paper's running examples and common builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Column,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
)
from repro.pdf import DiscretePdf, GaussianPdf, JointDiscretePdf


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def sensor_relation():
    """The paper's Table I: Sensor(id, location) with Gaussian locations."""
    schema = ProbabilisticSchema(
        [Column("id", DataType.INT), Column("location", DataType.REAL)],
        [{"location"}],
    )
    rel = ProbabilisticRelation(schema, name="sensors")
    rel.insert(certain={"id": 1}, uncertain={"location": GaussianPdf(20, 5)})
    rel.insert(certain={"id": 2}, uncertain={"location": GaussianPdf(25, 4)})
    rel.insert(certain={"id": 3}, uncertain={"location": GaussianPdf(13, 1)})
    return rel


@pytest.fixture
def table2_relation():
    """The paper's Table II: two tuples over discrete attributes a and b."""
    schema = ProbabilisticSchema(
        [Column("a", DataType.INT), Column("b", DataType.INT)],
        [{"a"}, {"b"}],
    )
    rel = ProbabilisticRelation(schema, name="T")
    rel.insert(
        uncertain={
            "a": DiscretePdf({0: 0.1, 1: 0.9}),
            "b": DiscretePdf({1: 0.6, 2: 0.4}),
        }
    )
    rel.insert(
        uncertain={"a": DiscretePdf({7: 1.0}), "b": DiscretePdf({3: 1.0})}
    )
    return rel


@pytest.fixture
def figure3_relation():
    """The paper's Figure 3 base table: joint (a, b) with a partial tuple."""
    schema = ProbabilisticSchema(
        [Column("a", DataType.INT), Column("b", DataType.INT)],
        [{"a", "b"}],
    )
    rel = ProbabilisticRelation(schema, name="T")
    rel.insert(
        uncertain={("a", "b"): JointDiscretePdf(("a", "b"), {(4, 5): 0.9, (2, 3): 0.1})}
    )
    rel.insert(uncertain={("a", "b"): JointDiscretePdf(("a", "b"), {(7, 3): 0.7})})
    return rel
