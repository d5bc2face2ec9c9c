"""Measurement helpers shared by the workloads: timing, counters, results."""

from __future__ import annotations

import gc
import math
import os
import random
import re
import statistics
import struct
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.protocol import pdf_cache_stats
from repro.engine.executor.spill import SPILL_STATS

__all__ = [
    "Calibrator",
    "END_TO_END",
    "METRIC_NAME",
    "Probe",
    "Run",
    "counter_snapshot",
    "peak_rss_mb",
    "percentile",
    "settle",
    "supports_percentile",
    "valid_metric_name",
]

#: (name, unit) of every end-to-end metric; every workload reports each one
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("stored_bytes_per_row", "B/row"),
    ("ops_per_s", "1/s"),
    ("suite_us_per_row", "us/row"),
    ("write_p90_ms", "ms"),
)

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: a percentile is reported only with at least this many samples beyond it
SAMPLES_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a legal metric name: ``[A-Za-z0-9_.-]+``, 64 max,
    starting with a letter or digit."""
    return (
        bool(METRIC_NAME.fullmatch(name))
        and len(name) <= 64
        and name[0].isalnum()
    )


def supports_percentile(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond the ``q``-th percentile."""
    return math.floor(n * (1.0 - q / 100.0) + 1e-9) >= SAMPLES_BEYOND


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile; raises if the sample cannot support it."""
    n = len(samples)
    if not supports_percentile(n, q):
        raise ValueError(f"p{q:g} needs {SAMPLES_BEYOND} samples beyond it; have {n}")
    ordered = sorted(samples)
    rank = q / 100.0 * (n - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _resident_bytes() -> int:
    """Current resident set size (0 where ``/proc`` is not available)."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def peak_rss_mb(cal: Optional["Calibrator"] = None) -> float:
    """Peak resident memory of the run, less what ``cal`` holds."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    held = cal.resident_bytes if cal is not None else 0
    return (peak - held) / (1024.0 * 1024.0)


def settle() -> None:
    """Collect garbage, then freeze every object still alive.

    Called before each measured phase (a load, the statements on a loaded
    database): the collector then scans only what the phase allocates,
    not the benchmark's own state (the calibrator's table, the oracles) or
    a database loaded before the phase, the way a long-running server
    freezes its start-up heap.  The next call unfreezes them first, so a
    database dropped in between is freed.
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def counter_snapshot(db=None) -> Dict[str, float]:
    """Engine counters as a flat dict; database-scoped ones are 0 without ``db``.

    Callers take one snapshot before and one after each measured call and
    sum the differences, so no global counter is ever reset.
    """
    snap: Dict[str, float] = {}
    for key, value in SPILL_STATS.snapshot().items():
        snap[f"spill.{key}"] = value
    cache = pdf_cache_stats()
    snap["pdf_cache.hits"] = cache["hits"]
    snap["pdf_cache.misses"] = cache["misses"]
    if db is not None:
        stats, io = db.buffer_stats, db.io_counters
        snap.update(
            {
                "buffer.hits": stats.hits,
                "buffer.misses": stats.misses,
                "buffer.evictions": stats.evictions,
                "disk.reads": io.reads,
                "disk.writes": io.writes,
            }
        )
    return snap


class Calibrator:
    """Measures the speed of the CPU the run is on, beside the workload.

    A shared virtual CPU changes speed by up to half for seconds to
    minutes, and every timing of a run moves with it.  The calibrator runs
    a fixed piece of CPU work (:meth:`reference`: an interpreter loop, dict
    and tuple churn, ``struct`` decoding, a keyed sort, small numpy sweeps
    and lookups in a dict far larger than the caches, the kinds of work
    the engine spends its time on, but none of the engine's code; about
    half of it interpreter-bound, half memory-bound, the mix whose time
    moved most like the engine's) on the same pinned CPU between measured calls,
    about every :data:`INTERVAL_S` seconds and more after a long call.
    :meth:`scale_since` is :data:`NOMINAL_S` over the median reference
    time of the samples around a call: its time multiplied by that is the
    time on a CPU that runs the reference in :data:`NOMINAL_S`.  A change
    of the program does not move the reference; a change of host speed
    moves both.
    """

    #: the reference time that normalised timings are quoted at
    NOMINAL_S = 0.012
    #: take a reference sample when this much time passed since the last
    INTERVAL_S = 0.25
    #: at most this many samples after one long measured call
    MAX_BURST = 8
    #: a call's scale uses the samples after it and this many before it
    BEFORE = 4

    def __init__(self) -> None:
        before = _resident_bytes()
        rng = random.Random(20080407)
        self._blob = bytes(rng.getrandbits(8) for _ in range(12 * 3072))
        self._keys = [rng.randrange(1 << 20) for _ in range(2500)]
        self._array = np.random.default_rng(7).random(15000)
        # ~60 MB of dict, tuples and strings: far larger than the caches,
        # so its lookups wait on memory the way the engine's pages,
        # tuples and pdf objects do
        self._table = {i * 7919: (i, str(i)) for i in range(300_000)}
        self._probes = [rng.randrange(300_000) * 7919 for _ in range(10_000)]
        #: resident memory the calibrator holds, for peak-RSS accounting
        self.resident_bytes = max(0, _resident_bytes() - before)
        self.samples: List[float] = []
        self._last: Optional[float] = None
        for _ in range(3):
            self.reference()
        for _ in range(self.BEFORE):
            self.sample()

    def reference(self) -> int:
        """The fixed work; its result only keeps it from being optimised away."""
        acc = 0
        for i in range(15000):
            acc += i * i % 7
        groups: Dict[int, Tuple[int, float]] = {}
        for a, b, c in struct.iter_unpack("<iiI", self._blob):
            key = (a ^ b) & 255
            n, total = groups.get(key, (0, 0.0))
            groups[key] = (n + 1, total + c * 0.5)
        ranked = sorted(self._keys, key=lambda k: (k & 4095, -k))
        rows = [(k, k % 7, str(k)) for k in ranked]
        x = self._array
        for _ in range(4):
            x = np.sort(np.sqrt(x * 1.0001 + 0.5))
        table = self._table
        for k in self._probes:
            acc += table[k][0]
        return acc + len(groups) + len(rows) + int(np.count_nonzero(x > 0.9))

    def sample(self) -> None:
        t0 = perf_counter()
        self.reference()
        self.samples.append(perf_counter() - t0)
        self._last = perf_counter()

    def tick(self) -> None:
        """Sample if :data:`INTERVAL_S` has passed (more after a long call)."""
        if self._last is None:
            self.sample()
            return
        n = min(self.MAX_BURST, int((perf_counter() - self._last) / self.INTERVAL_S))
        for _ in range(n):
            self.sample()

    def scale_since(self, first: int) -> float:
        """Nominal over the median reference time of the samples from
        :data:`BEFORE` before index ``first`` to the latest one."""
        lo = max(0, min(first, len(self.samples) - 1) - self.BEFORE)
        return self.NOMINAL_S / statistics.median(self.samples[lo:])


class Probe:
    """Times measured calls and, when tracing, opens the span window.

    ``measured_s`` sums every measured segment, so a traced and an
    untraced run of the same work compare wall time over the same calls.
    With a ``calibrator`` the probe samples it after each call and returns
    the call's time at reference speed; ``scales`` keeps each call's scale.
    ``tally`` sums counter deltas; ``by_label`` keeps them per label.
    """

    def __init__(self, tracer=None, calibrator: Optional[Calibrator] = None):
        self.tracer = tracer
        self.calibrator = calibrator
        self.scales: List[float] = []
        self.measured_s = 0.0
        self.tally: Dict[str, float] = {}
        self.by_label: Dict[str, Dict[str, float]] = {}

    @property
    def scale(self) -> float:
        """The scale of the last call (1 without a calibrator)."""
        return self.scales[-1] if self.scales else 1.0

    def call(
        self,
        label: str,
        fn: Callable,
        db_before=None,
        db_after: Optional[Callable[[object], object]] = None,
    ):
        """Run ``fn()`` as one measured segment; returns ``(result, seconds)``,
        the seconds at reference speed when the probe has a calibrator.

        ``db_before`` is the database whose counters to read before the
        call; ``db_after(result)`` returns the one to read after it (a
        call that opens a database returns it).  Exceptions propagate.
        """
        before = counter_snapshot(db_before)
        cal = self.calibrator
        first = len(cal.samples) if cal is not None else 0
        tracer = self.tracer
        if tracer is not None:
            tracer.statement += 1
            tracer.active = True
        t0 = perf_counter()
        try:
            out = fn()
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            self.measured_s += dt
        after = counter_snapshot(db_after(out) if db_after else db_before)
        per = self.by_label.setdefault(label, {})
        for key, value in after.items():
            delta = value - before.get(key, 0)
            self.tally[key] = self.tally.get(key, 0) + delta
            per[key] = per.get(key, 0) + delta
        if cal is not None:
            cal.tick()
            self.scales.append(cal.scale_since(first))
            dt *= self.scales[-1]
        return out, dt


class Run:
    """What one workload run reports: metrics, checks and description."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.details: List[Tuple[str, float, str, int]] = []
        self.info: Dict[str, object] = {}

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a failed one is recorded by name."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.check(False, what)

    def detail(self, name: str, value: float, unit: str, n: int) -> None:
        """A printed-only measurement (not in BENCHMARK.json), with its sample count."""
        self.details.append((name, value, unit, n))

    @property
    def ops_failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

