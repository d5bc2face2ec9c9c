"""Every workload completes with no failed operation, traced and untraced.

The in-process tests shrink the data (module constants) so they finish in
seconds; the ``slow`` test runs the real command at full size.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import sensor
import tpch
from common import END_TO_END, Run
from layers import PER_LAYER, SELF_TIME_LAYERS

ROOT = Path(__file__).resolve().parents[2]


class _Sink:
    def __init__(self):
        self.spans = None

    def write(self, tracer):
        self.spans = len(tracer.start)


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(tpch, "SCALE_FACTOR", 0.0003)
    monkeypatch.setattr(tpch, "SPILL_WORK_MEM", 24 * 1024)
    monkeypatch.setattr(tpch, "SETUPS", 1)
    monkeypatch.setattr(sensor, "INITIAL_ROWS", 100)


def _run(workload, seed, tmp_path, trace):
    run = Run(workload, seed)
    sink = _Sink() if trace else None
    if workload == "sensor_mixed":
        sensor.run_workload(run, seed, 0.0, str(tmp_path), sink)
    else:
        tpch.run_workload(run, seed, 0.0, workload == "tpch_spill", str(tmp_path), sink)
    return run, sink


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["tpch_mem", "tpch_spill", "sensor_mixed"])
def test_workload_completes_without_failures(small, tmp_path, workload, seed):
    run, _ = _run(workload, seed, tmp_path, trace=False)
    assert run.failed == 0 and run.attempted > 0, run.failures
    assert run.ops_failed_frac == 0.0
    assert set(run.metrics) == {name for name, _ in END_TO_END}
    assert all(v > 0 for v in run.metrics.values()), run.metrics
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("workload", ["tpch_mem", "tpch_spill", "sensor_mixed"])
def test_traced_layers_add_up_to_the_traced_wall_time(small, tmp_path, workload):
    run, sink = _run(workload, 0, tmp_path, trace=True)
    assert run.failed == 0, run.failures
    m = run.metrics
    assert set(m) == {name for name, _ in PER_LAYER}
    total = sum(m[name] for name in SELF_TIME_LAYERS) + m["unattributed_s"]
    assert total == pytest.approx(m["traced_wall_s"], rel=1e-9)
    assert m["unattributed_s"] >= 0 and sink.spans == m["trace.spans"] > 0
    spill = m["executor.spill.join_partitions"], m["executor.spill.sort_runs"]
    if workload == "tpch_spill":
        assert min(spill) > 0 and m["executor.spill.bytes_per_joined_pair"] > 0
    else:
        assert spill == (0, 0) and m["executor.spill.bytes_written"] == 0
    if workload == "sensor_mixed":
        assert m["wal.commit_txn_calls"] > 0 and m["wal.open_durable_s"] > 0
    else:
        assert m["wal.commit_txn_calls"] == 0 and m["sql.parser.parse_calls"] < 20


def test_engine_is_restored_after_tracing(small, tmp_path):
    from repro.engine.storage import serialize
    from repro.engine import table

    before = (serialize.decode_tuple, table.decode_tuple, table.Table.__dict__["insert"])
    _run("tpch_mem", 0, tmp_path, trace=True)
    assert (serialize.decode_tuple, table.decode_tuple, table.Table.__dict__["insert"]) == before


def _cli(*args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["tpch_mem", "tpch_spill", "sensor_mixed"])
def test_command_reports_every_metric_and_no_failures(workload, seed):
    proc = _cli("--workload", workload, "--seed", str(seed), "--seconds", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(END_TO_END)
    assert f"ops_failed_frac = 0 (0/{result['attempted']})" in proc.stdout


def test_command_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for src in (ROOT / "perfbench").glob("*.py"):
        (bench / src.name).write_text(src.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tpch_mem", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
