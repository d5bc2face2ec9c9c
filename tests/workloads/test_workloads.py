"""Workload generator tests: determinism and paper-specified distributions."""

import numpy as np
import pytest

from repro.pdf import CategoricalPdf, GaussianPdf, HistogramPdf, DiscretePdf
from repro.workloads import (
    generate_annotations,
    generate_moving_objects,
    generate_range_queries,
    generate_readings,
    load_annotations_relation,
    load_objects_relation,
    load_readings_relation,
    make_readings,
    readings_schema,
)


class TestSensorWorkload:
    def test_deterministic(self):
        assert generate_readings(10, seed=1) == generate_readings(10, seed=1)
        assert generate_readings(10, seed=1) != generate_readings(10, seed=2)

    def test_paper_parameter_distributions(self):
        readings = generate_readings(5000, seed=0)
        means = np.array([r.mean for r in readings])
        sigmas = np.array([r.sigma for r in readings])
        # means ~ U(0, 100); sigmas ~ N(2, 0.5) clipped
        assert 45 < means.mean() < 55
        assert means.min() >= 0 and means.max() <= 100
        assert 1.9 < sigmas.mean() < 2.1
        assert sigmas.min() > 0

    def test_range_query_distributions(self):
        queries = generate_range_queries(5000, seed=0)
        lengths = np.array([q.length for q in queries])
        mids = np.array([q.midpoint for q in queries])
        assert 9.5 < lengths.mean() < 10.5
        assert 45 < mids.mean() < 55

    def test_representations(self):
        readings = generate_readings(3, seed=0)
        symbolic = dict(make_readings(readings, "symbolic"))
        hist = dict(make_readings(readings, "histogram", size=5))
        disc = dict(make_readings(readings, "discrete", size=25))
        assert isinstance(symbolic[1], GaussianPdf)
        assert isinstance(hist[1], HistogramPdf) and hist[1].num_buckets == 5
        assert isinstance(disc[1], DiscretePdf) and len(disc[1].values) == 25

    def test_unknown_representation(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            list(make_readings(generate_readings(1), "nope"))

    def test_load_relation(self):
        rel = load_readings_relation(generate_readings(4, seed=0))
        assert len(rel) == 4
        assert rel.schema == readings_schema()


class TestMovingObjects:
    def test_generation(self):
        objects = generate_moving_objects(20, seed=3)
        assert len(objects) == 20
        for obj in objects:
            assert -1 < obj.correlation < 1
            # The pdf construction validates positive-definiteness.
            obj.pdf

    def test_load_relation(self):
        rel = load_objects_relation(generate_moving_objects(5, seed=1))
        assert len(rel) == 5
        t = rel.tuples[0]
        assert set(t.pdfs[frozenset({"x", "y"})].attrs) == {"x", "y"}


class TestAnnotations:
    def test_generation_and_masses(self):
        tokens = generate_annotations(200, seed=9)
        assert len(tokens) == 200
        masses = [t.exists_prob for t in tokens]
        assert all(0 < m <= 1.0 + 1e-9 for m in masses)
        assert any(m < 0.99 for m in masses)  # some partial tokens

    def test_load_relation(self):
        rel = load_annotations_relation(generate_annotations(10, seed=2))
        assert len(rel) == 10
        pdf = rel.tuples[0].pdf_of_attr("label")
        assert isinstance(pdf, CategoricalPdf)
