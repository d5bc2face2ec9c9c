"""In-memory span tracer that wraps engine entry points from outside.

A span records ``(kind, start, end, parent, statement)``.  Spans nest by a
call stack: a wrapped call opens a span whose parent is the span open at
the time, so a generator's ``next()`` that pulls from a child operator
nests the child's span inside its own.  Spans are recorded only while the
tracer is ``active`` (inside a measured segment); outside, the wrappers
call straight through.

Nothing under ``src/`` is edited: :meth:`Tracer.wrap_function` rebinds the
function object in every loaded ``repro`` module that imported it, and
:meth:`Tracer.wrap_method` replaces the attribute on the class.
:meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "self_times", "covered_length"]

#: ``count(counts, args, kwargs, result)`` for calls, ``count(counts, item)``
#: for each item a generator yields.
CountFn = Callable[..., None]


class Tracer:
    """Keeps spans in parallel lists; written out once, at the end."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.kind: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.stmt: List[int] = []
        self.stack: List[int] = [-1]
        self.statement = 0
        self.active = False
        self.counts: Counter = Counter()
        self._restore: List[Tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def kind_id(self, name: str) -> int:
        k = self._ids.get(name)
        if k is None:
            k = self._ids[name] = len(self.names)
            self.names.append(name)
        return k

    def _open(self, k: int) -> int:
        i = len(self.start)
        self.kind.append(k)
        self.parent.append(self.stack[-1])
        self.stmt.append(self.statement)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def traced_call(self, fn: Callable, name: str, count: Optional[CountFn] = None) -> Callable:
        """``fn`` wrapped so that each call made while active is one span."""
        k = self.kind_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(k)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[i] = t0
                tracer.end[i] = t1
            if count is not None:
                count(tracer.counts, args, kwargs, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def traced_generator(
        self, fn: Callable, name: str, count: Optional[CountFn] = None
    ) -> Callable:
        """``fn`` (a generator function) wrapped so each ``next()`` is a span."""
        k = self.kind_id(name)
        tracer = self

        def stepped(gen):
            try:
                while True:
                    i = tracer._open(k)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        tracer.stack.pop()
                        tracer.start[i] = t0
                        tracer.end[i] = t1
                    if count is not None:
                        count(tracer.counts, item)
                    yield item
            finally:
                gen.close()

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            return stepped(gen)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation --------------------------------------------------------

    def wrap_function(
        self,
        module,
        attr: str,
        name: str,
        count: Optional[CountFn] = None,
        generator: bool = False,
    ) -> None:
        """Wrap ``module.attr`` and every ``repro`` module's alias of it."""
        orig = getattr(module, attr)
        make = self.traced_generator if generator else self.traced_call
        wrapped = make(orig, name, count)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        count: Optional[CountFn] = None,
        generator: bool = False,
    ) -> None:
        """Wrap a method defined on ``cls`` itself (inherited ones are skipped)."""
        orig = cls.__dict__[attr]
        make = self.traced_generator if generator else self.traced_call
        self._restore.append((cls, attr, orig))
        setattr(cls, attr, make(orig, name, count))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def problem(self, wall: float) -> Optional[str]:
        """What is wrong with the recorded spans, or None.

        Every span must be closed, end no earlier than it starts, belong to
        a measured statement and lie inside its parent; the root spans must
        not cover more than ``wall``, the measured time they were opened in.
        """
        if self.stack != [-1]:
            return f"{len(self.stack) - 1} spans left open"
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start)):
            name = self.names[self.kind[i]]
            if end[i] < start[i]:
                return f"span {i} ({name}) ends before it starts"
            if self.stmt[i] < 1:
                return f"span {i} ({name}) outside any measured statement"
            p = parent[i]
            if p >= 0 and not (start[p] <= start[i] and end[i] <= end[p]):
                return f"span {i} ({name}) is not inside its parent span {p}"
        roots = [(a, b) for a, b, p in zip(start, end, parent) if p < 0]
        lo = min((a for a, _ in roots), default=0.0)
        hi = max((b for _, b in roots), default=0.0)
        covered = covered_length(roots, lo, hi)
        if covered > wall:
            return f"root spans cover {covered!r} s, more than the measured {wall!r} s"
        return None

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as columns: kind names plus per-span arrays."""
        doc = {
            "names": self.names,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "statement": self.stmt,
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        kids = children.get(i)
        covered = covered_length(kids, start[i], end[i]) if kids else 0.0
        out.append((end[i] - start[i]) - covered)
    return out
