"""The percentile rule, metric names and the BENCHMARK.json schema."""

import json
import math
import re

from pathlib import Path

import pytest

from common import (
    END_TO_END,
    Calibrator,
    Probe,
    peak_rss_mb,
    percentile,
    supports_percentile,
    valid_metric_name,
)
from layers import PER_LAYER, SELF_TIME_LAYERS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize(
    "n, q, ok",
    [
        (19, 50, False),
        (20, 50, True),
        (99, 90, False),
        (100, 90, True),
        (999, 99, False),
        (1000, 99, True),
    ],
)
def test_percentile_needs_ten_samples_beyond_it(n, q, ok):
    assert supports_percentile(n, q) is ok
    samples = [float(i) for i in range(n)]
    if ok:
        assert percentile(samples, q) == pytest.approx(q / 100 * (n - 1))
    else:
        with pytest.raises(ValueError):
            percentile(samples, q)


def test_percentile_interpolates_like_numpy():
    np = pytest.importorskip("numpy")
    samples = list(np.random.default_rng(3).exponential(size=1234))
    for q in (50, 90, 99):
        assert math.isclose(percentile(samples, q), float(np.percentile(samples, q)))


@pytest.mark.parametrize(
    "name, ok",
    [
        ("setup_s", True),
        ("storage.serialize.decode_s", True),
        ("a-b_c.9", True),
        ("9lives", True),
        ("", False),
        (".hidden", False),
        ("has space", False),
        ("slash/name", False),
        ("x" * 65, False),
    ],
)
def test_metric_name_validation(name, ok):
    assert valid_metric_name(name) is ok


def test_every_reported_metric_name_is_valid():
    for name, unit in END_TO_END + PER_LAYER:
        assert valid_metric_name(name), name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][0] == "python3" and len(SPEC["command"]) <= 32
    assert all(len(arg) <= 200 and not arg.startswith("/") and ".." not in arg for arg in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) and (ROOT / path).is_dir()
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [w["name"] for w in SPEC["workloads"]] == ["tpch_mem", "tpch_spill", "sensor_mixed"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [
        w["name"] for w in SPEC["workloads"]
    ]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("lower", "higher")
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_setup_metric_has_the_largest_bound():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_benchmark_json_matches_what_the_runner_reports():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    per_layer = {name for name, _ in PER_LAYER}
    assert set(SELF_TIME_LAYERS) <= per_layer
    assert "unattributed_s" in per_layer and "tracing_overhead_frac" in per_layer


@pytest.fixture(scope="module")
def calibrator():
    return Calibrator()


def test_call_scale_uses_the_samples_around_the_call(calibrator):
    cal = calibrator
    nominal = Calibrator.NOMINAL_S
    cal.samples = [nominal * 2] * 10 + [nominal] * (Calibrator.BEFORE - 1)
    # From BEFORE samples before index 10 on: BEFORE slow ones, fewer fast.
    assert cal.scale_since(10) == pytest.approx(0.5)
    # A call after the last sample still gets BEFORE + 1 samples.
    cal.samples = [nominal] * 3 + [nominal / 2] * (Calibrator.BEFORE + 1)
    assert cal.scale_since(len(cal.samples)) == pytest.approx(2.0)


def test_calibrated_probe_reports_time_at_reference_speed(calibrator):
    cal = calibrator
    cal.samples = []
    for _ in range(Calibrator.BEFORE):
        cal.sample()
    probe = Probe(calibrator=cal)
    _, dt = probe.call("x", lambda: sum(range(1000)))
    assert len(probe.scales) == 1 and dt == pytest.approx(probe.measured_s * probe.scales[0])
    plain = Probe()
    plain.call("x", lambda: None)
    assert plain.scales == []


def test_peak_rss_leaves_out_the_calibrator(calibrator):
    assert calibrator.resident_bytes > 10 * 2**20
    assert peak_rss_mb(calibrator) == pytest.approx(
        peak_rss_mb() - calibrator.resident_bytes / 2**20
    )
