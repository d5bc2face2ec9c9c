#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload tpch_mem --seed 0 --seconds 20 --trace 0

Workloads: ``tpch_mem``, ``tpch_spill``, ``sensor_mixed`` (see README.md).
``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs a fixed amount of work twice, untraced then traced,
reports the per-layer metrics and writes the spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.

Every line but the last describes the run (configuration, each metric by
name with its unit, printed-only details, failures).  The last line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every checked operation succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tpch_mem", "tpch_spill", "sensor_mixed")
#: BLAS/OpenMP pools stay at one thread: one client, one engine thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment(tmpdir: str) -> dict:
    """Clear every ``REPRO_*`` override and pin thread pools and TMPDIR.

    ``ModelConfig`` reads ``REPRO_WORKERS``, ``REPRO_COLUMNAR``,
    ``REPRO_WORK_MEM`` and ``REPRO_PARALLEL_BACKEND`` at import, and the
    fault injector reads ``REPRO_FAULT_SEED``: left set, any of them would
    silently change what is measured.  Returns what was cleared.
    """
    cleared = {k: os.environ.pop(k) for k in sorted(os.environ) if k.startswith("REPRO_")}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["TMPDIR"] = tmpdir
    if hasattr(os, "sched_setaffinity"):
        # One engine thread: keep it on one CPU so it is never migrated
        # between cores that run at different speeds.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return cleared


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class TraceSink:
    """Writes a tracer's spans to ``out/trace-<workload>-seed<seed>.json``."""

    def __init__(self, path: Path):
        self.path = path

    def write(self, tracer) -> None:
        tracer.write(str(self.path))


def _environment(cleared: dict) -> dict:
    from repro.bench.envinfo import environment_info

    info = environment_info()
    info["nproc"] = os.cpu_count()
    if hasattr(os, "sched_getaffinity"):
        info["pinned_cpus"] = sorted(os.sched_getaffinity(0))
    info["cleared_env"] = cleared
    info["thread_env"] = {var: os.environ[var] for var in THREAD_VARS}
    return info


def _result_line(run, names) -> str:
    metrics = {name: {"value": run.metrics[name], "unit": unit} for name, unit in names}
    return json.dumps(
        {
            "correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cleared = pin_environment(str(workdir))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return _run(args, workdir, out_dir, cleared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path, out_dir: Path, cleared: dict) -> int:
    from common import END_TO_END, Run
    from layers import PER_LAYER, SELF_TIME_LAYERS

    run = Run(args.workload, args.seed)
    sink = None
    if args.trace:
        sink = TraceSink(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    try:
        if args.workload == "sensor_mixed":
            import sensor

            sensor.run_workload(run, args.seed, args.seconds, str(workdir), sink)
        else:
            import tpch

            spill = args.workload == "tpch_spill"
            tpch.run_workload(run, args.seed, args.seconds, spill, str(workdir), sink)
    except Exception:
        traceback.print_exc()
        print(f"error: workload {args.workload} aborted", file=sys.stderr)
        return 1
    names = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        # Holds by construction once the spans are well formed, which the
        # workload checked (Tracer.problem); this guards the layer map.
        m = run.metrics
        layers = sum(m[name] for name in SELF_TIME_LAYERS) + m["unattributed_s"]
        run.check(
            abs(layers - m["traced_wall_s"]) <= 1e-9 * max(1.0, m["traced_wall_s"]),
            f"layer self times + unattributed_s = {layers!r} != traced wall {m['traced_wall_s']!r}",
        )
    run.info["environment"] = _environment(cleared)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("config " + json.dumps(run.info, sort_keys=True, default=str))
    for name, unit in names:
        print(f"metric {name} = {run.metrics[name]:.6g} {unit}")
    for name, value, unit, n in run.details:
        print(f"detail {name} = {value:.6g} {unit} (n={n})")
    print(f"ops_failed_frac = {run.ops_failed_frac:.6g} ({run.failed}/{run.attempted})")
    for what in run.failures:
        print(f"FAILED {what}")
    print(_result_line(run, names))
    return 0 if run.failed == 0 and run.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
