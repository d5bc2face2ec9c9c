"""The layer map: which engine entry points are spans, and their metrics.

Every wrapped entry point belongs to exactly one layer, and a layer's busy
time is the summed *self* time of its spans, so the layer times plus
``unattributed_s`` (time inside measured segments that no span covers:
the benchmark's own loop and unwrapped glue) add up to the traced wall
time.  Layers are named after the engine modules.

Counts come from two places: the wrappers (calls, bytes decoded, kernel
rows, join pairs, pages admitted) and before/after deltas of the engine's
own counters around each measured call (buffer pool, disk, spill, pdf-op
cache), which :mod:`common` collects in traced and untraced runs alike.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from tracer import Tracer, covered_length, self_times

__all__ = ["PER_LAYER", "SELF_TIME_LAYERS", "install", "layer_metrics"]


def _count_decode(counts, args, kwargs, out) -> None:
    off = args[1] if len(args) > 1 else kwargs.get("off", 0)
    end = out[1] if isinstance(out, tuple) else out.end
    counts["storage.serialize.decode_calls"] += 1
    counts["storage.serialize.bytes_decoded"] += end - off


def _count_complete(counts, args, kwargs, out) -> None:
    counts["storage.serialize.decode_calls"] += 1


def _count_calls(key: str):
    def count(counts, args, kwargs, out) -> None:
        counts[key] += 1

    return count


def _count_rows(key: str, arg: int, first_of_params: bool = False):
    def count(counts, args, kwargs, out) -> None:
        rows = args[arg]
        counts[key] += len(rows[0]) if first_of_params else len(rows)

    return count


def _count_candidates(counts, args, kwargs, out) -> None:
    counts["synopsis.pages_total"] += args[0].heap.num_pages
    counts["synopsis.pages_admitted"] += len(out)


def _count_join_pairs(counts, batch) -> None:
    counts["executor.relational.join_pairs"] += len(batch.tuples)


# (module, class or None, attribute, self-time layer, is generator, count)
_TARGETS: List[Tuple[str, object, str, str, bool, object]] = [
    ("repro.engine.sql.parser", None, "parse", "sql.parser.parse_s", False, _count_calls("sql.parser.parse_calls")),
    ("repro.engine.sql.planner", None, "plan_select", "sql.planner.plan_select_s", False, _count_calls("sql.planner.plan_select_calls")),
    ("repro.engine.sql.planner", None, "execute_plan", "sql.planner.execute_plan_self_s", False, None),
    ("repro.engine.database", "Database", "__init__", "engine.database.self_s", False, None),
    ("repro.engine.database", "Database", "execute", "engine.database.self_s", False, None),
    ("repro.engine.database", "Database", "checkpoint", "engine.database.self_s", False, None),
    ("repro.engine.database", "Database", "close", "engine.database.self_s", False, None),
    ("repro.engine.table", "Table", "insert", "engine.table.insert_s", False, _count_calls("engine.table.insert_calls")),
    ("repro.engine.table", "Table", "insert_tuple", "engine.table.insert_s", False, _count_calls("engine.table.insert_calls")),
    ("repro.engine.table", "Table", "scan_segments", "engine.table.scan_segments_self_s", True, None),
    ("repro.engine.table", "Table", "candidate_pages", "storage.synopsis.s", False, _count_candidates),
    ("repro.engine.storage.synopsis", "PageSynopsis", "add", "storage.synopsis.s", False, None),
    ("repro.engine.storage.synopsis", "ScanPruner", "admits_prefix", "storage.synopsis.s", False, None),
    ("repro.engine.storage.serialize", None, "decode_tuple", "storage.serialize.decode_s", False, _count_decode),
    ("repro.engine.storage.serialize", None, "decode_prefix", "storage.serialize.decode_s", False, _count_decode),
    ("repro.engine.storage.serialize", "TuplePrefix", "complete", "storage.serialize.decode_s", False, _count_complete),
    ("repro.engine.storage.serialize", None, "encode_tuple", "storage.serialize.encode_s", False, _count_calls("storage.serialize.encode_calls")),
    ("repro.engine.storage.heapfile", "HeapFile", "insert", "storage.heapfile.insert_s", False, None),
    ("repro.engine.storage.buffer", "BufferPool", "get_page", "storage.buffer.get_page_s", False, _count_calls("storage.buffer.get_page_calls")),
    ("repro.engine.storage.buffer", "BufferPool", "new_page", "storage.buffer.get_page_s", False, None),
    ("repro.engine.storage.disk", "MemoryDisk", "read_page", "storage.disk.read_s", False, None),
    ("repro.engine.storage.disk", "MemoryDisk", "write_page", "storage.disk.write_s", False, None),
    ("repro.core.columnar", "ColumnarSegment", "column", "core.columnar.segment_build_s", False, None),
    ("repro.core.columnar", "ColumnarSegment", "certain_column", "core.columnar.segment_build_s", False, None),
    ("repro.core.columnar", "ColumnarSegment", "tuple_ids", "core.columnar.segment_build_s", False, None),
    ("repro.pdf.kernels", None, "interval_probs_params", "pdf.kernels.interval_probs_params_s", False, _count_rows("pdf.kernels.interval_probs_params_rows", 1, True)),
    ("repro.pdf.kernels", None, "histogram_interval_probs", "pdf.kernels.histogram_interval_probs_s", False, _count_rows("pdf.kernels.histogram_interval_probs_rows", 0)),
    ("repro.pdf.kernels", None, "batch_interval_probs", "pdf.kernels.batch_interval_probs_s", False, _count_rows("pdf.kernels.batch_interval_probs_rows", 0)),
    ("repro.pdf.kernels", None, "batch_mass", "pdf.kernels.batch_mass_s", False, _count_rows("pdf.kernels.batch_mass_rows", 0)),
    ("repro.engine.executor.spill", "SpillFile", "append", "executor.spill.append_s", False, None),
    ("repro.engine.executor.spill", "SpillFile", "read", "executor.spill.read_s", True, None),
    ("repro.engine.wal", "WriteAheadLog", "commit_txn", "wal.commit_txn_s", False, _count_calls("wal.commit_txn_calls")),
    ("repro.engine.wal", "WriteAheadLog", "sync", "wal.sync_s", False, _count_calls("wal.sync_calls")),
    ("repro.engine.wal", None, "open_durable", "wal.open_durable_s", False, None),
    ("repro.engine.wal", None, "write_checkpoint", "wal.write_checkpoint_s", False, None),
    ("repro.workloads.tpch_uncertain", None, "lineitem_stream", "workloads.generate_s", True, None),
    ("repro.workloads.tpch_uncertain", None, "orders_stream", "workloads.generate_s", True, None),
    ("repro.workloads.tpch_uncertain", None, "part_stream", "workloads.generate_s", True, None),
    ("repro.workloads.sensors", None, "generate_readings", "workloads.generate_s", False, None),
    ("repro.workloads.sensors", None, "generate_range_queries", "workloads.generate_s", False, None),
    ("repro.pdf.convert", None, "to_histogram", "workloads.generate_s", False, None),
    ("repro.pdf.convert", None, "discretize", "workloads.generate_s", False, None),
]

#: public functions of core.aggregates are one layer
_AGGREGATE_FUNCTIONS = (
    "count_distribution",
    "count_from_probs",
    "sum_distribution",
    "expected_value",
    "expected_contributions",
    "min_distribution",
    "max_distribution",
)

#: executor operators: ``batches()`` self time per layer
_OPERATORS: Dict[str, Dict[str, str]] = {
    "repro.engine.executor.scan": {
        cls: "executor.scan.self_s"
        for cls in ("RelationScan", "SeqScan", "BTreeScan", "SpatialScan", "PtiScan")
    },
    "repro.engine.executor.relational": {
        "HashJoin": "executor.relational.HashJoin.self_s",
        "Sort": "executor.relational.Sort.self_s",
        "SortByProbability": "executor.relational.SortByProbability.self_s",
        "RenameOp": "executor.relational.RenameOp.self_s",
        "Project": "executor.relational.Project.self_s",
        **{
            cls: "executor.relational.other_self_s"
            for cls in (
                "Filter",
                "NestedLoopJoin",
                "Scalarize",
                "ProbFilter",
                "ThresholdFilter",
                "Limit",
            )
        },
    },
    "repro.engine.executor.aggregate": {
        cls: "executor.aggregate.self_s" for cls in ("Aggregate", "GroupAggregate", "Distinct")
    },
    "repro.engine.executor.compute": {"Compute": "executor.compute.self_s"},
}

def _span_name(module: str, owner, attr: str) -> str:
    short = module[len("repro."):]
    return f"{short}.{owner}.{attr}" if owner else f"{short}.{attr}"


def _targets():
    for module, owner, attr, layer, generator, count in _TARGETS:
        yield module, owner, attr, layer, generator, count
    for fn in _AGGREGATE_FUNCTIONS:
        yield "repro.core.aggregates", None, fn, "core.aggregates.s", False, None
    for module, classes in _OPERATORS.items():
        for cls, layer in classes.items():
            count = _count_join_pairs if cls == "HashJoin" else None
            yield module, cls, "batches", layer, True, count


#: span kind name -> self-time layer
_LAYER_OF: Dict[str, str] = {_span_name(m, o, a): layer for m, o, a, layer, _, _ in _targets()}
#: every self-time layer; with unattributed_s they sum to traced_wall_s
SELF_TIME_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(_LAYER_OF.values()))


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; the engine modules must be importable."""
    for module_name, owner, attr, _layer, generator, count in _targets():
        module = importlib.import_module(module_name)
        name = _span_name(module_name, owner, attr)
        if owner is None:
            tracer.wrap_function(module, attr, name, count=count, generator=generator)
        else:
            tracer.wrap_method(getattr(module, owner), attr, name, count=count, generator=generator)


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


#: (name, unit) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sql.parser.parse_s", "s"),
    ("sql.parser.parse_calls", "count"),
    ("sql.planner.plan_select_s", "s"),
    ("sql.planner.plan_select_calls", "count"),
    ("sql.planner.execute_plan_self_s", "s"),
    ("engine.database.self_s", "s"),
    ("engine.table.insert_s", "s"),
    ("engine.table.insert_calls", "count"),
    ("engine.table.scan_segments_self_s", "s"),
    ("storage.serialize.decode_s", "s"),
    ("storage.serialize.decode_calls", "count"),
    ("storage.serialize.bytes_decoded", "B"),
    ("storage.serialize.encode_s", "s"),
    ("storage.serialize.encode_calls", "count"),
    ("storage.heapfile.insert_s", "s"),
    ("storage.buffer.get_page_s", "s"),
    ("storage.buffer.get_page_calls", "count"),
    ("storage.buffer.hit_ratio", "ratio"),
    ("storage.buffer.evictions", "count"),
    ("storage.disk.read_s", "s"),
    ("storage.disk.write_s", "s"),
    ("storage.disk.reads", "pages"),
    ("storage.disk.writes", "pages"),
    ("storage.synopsis.s", "s"),
    ("storage.synopsis.pages_admitted_ratio", "ratio"),
    ("core.columnar.segment_build_s", "s"),
    ("pdf.kernels.interval_probs_params_s", "s"),
    ("pdf.kernels.interval_probs_params_rows", "rows"),
    ("pdf.kernels.histogram_interval_probs_s", "s"),
    ("pdf.kernels.histogram_interval_probs_rows", "rows"),
    ("pdf.kernels.batch_interval_probs_s", "s"),
    ("pdf.kernels.batch_interval_probs_rows", "rows"),
    ("pdf.kernels.batch_mass_s", "s"),
    ("pdf.kernels.batch_mass_rows", "rows"),
    ("core.aggregates.s", "s"),
    ("executor.scan.self_s", "s"),
    ("executor.relational.HashJoin.self_s", "s"),
    ("executor.relational.Sort.self_s", "s"),
    ("executor.relational.SortByProbability.self_s", "s"),
    ("executor.relational.RenameOp.self_s", "s"),
    ("executor.relational.Project.self_s", "s"),
    ("executor.relational.other_self_s", "s"),
    ("executor.relational.join_pairs", "count"),
    ("executor.aggregate.self_s", "s"),
    ("executor.compute.self_s", "s"),
    ("executor.spill.append_s", "s"),
    ("executor.spill.read_s", "s"),
    ("executor.spill.bytes_written", "B"),
    ("executor.spill.bytes_per_joined_pair", "B/pair"),
    ("executor.spill.join_partitions", "count"),
    ("executor.spill.sort_runs", "count"),
    ("wal.commit_txn_s", "s"),
    ("wal.commit_txn_calls", "count"),
    ("wal.sync_s", "s"),
    ("wal.sync_calls", "count"),
    ("wal.bytes_per_commit", "B"),
    ("wal.open_durable_s", "s"),
    ("wal.write_checkpoint_s", "s"),
    ("workloads.generate_s", "s"),
    ("core.operations.pdf_op_cache_hit_ratio", "ratio"),
    ("core.operations.pdf_op_cache_lookups", "count"),
    ("unattributed_s", "s"),
    ("traced_wall_s", "s"),
    ("tracing_overhead_frac", "ratio"),
    ("trace.spans", "count"),
)


def layer_metrics(
    tracer: Tracer,
    tally: Dict[str, float],
    traced_wall: float,
    untraced_wall: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``tally`` holds the engine counter deltas summed over the measured
    calls; ``extra`` holds workload-derived ratios (``wal.bytes_per_commit``,
    ``executor.spill.bytes_per_joined_pair``).
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out: Dict[str, float] = {layer: 0.0 for layer in SELF_TIME_LAYERS}
    for k, s in zip(tracer.kind, selfs):
        out[_LAYER_OF[tracer.names[k]]] += s
    roots = [(a, b) for a, b, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0]
    lo = min((a for a, _ in roots), default=0.0)
    hi = max((b for _, b in roots), default=0.0)
    out["unattributed_s"] = traced_wall - covered_length(roots, lo, hi)
    out["traced_wall_s"] = traced_wall
    out["tracing_overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["trace.spans"] = len(tracer.start)
    c = tracer.counts
    out.update((name, c[name]) for name, _ in PER_LAYER if name in c)
    out["storage.synopsis.pages_admitted_ratio"] = _ratio(c["synopsis.pages_admitted"], c["synopsis.pages_total"], 1.0)
    hits, misses = tally.get("buffer.hits", 0), tally.get("buffer.misses", 0)
    out["storage.buffer.hit_ratio"] = _ratio(hits, hits + misses, 0.0)
    out["storage.buffer.evictions"] = tally.get("buffer.evictions", 0)
    out["storage.disk.reads"] = tally.get("disk.reads", 0)
    out["storage.disk.writes"] = tally.get("disk.writes", 0)
    out["executor.spill.bytes_written"] = tally.get("spill.bytes_written", 0)
    out["executor.spill.join_partitions"] = tally.get("spill.join_partitions", 0)
    out["executor.spill.sort_runs"] = tally.get("spill.sort_runs", 0)
    lookups = tally.get("pdf_cache.hits", 0) + tally.get("pdf_cache.misses", 0)
    out["core.operations.pdf_op_cache_lookups"] = lookups
    out["core.operations.pdf_op_cache_hit_ratio"] = _ratio(tally.get("pdf_cache.hits", 0), lookups, 0.0)
    out.update(extra)
    return {name: float(out.get(name, 0.0)) for name, _ in PER_LAYER}
