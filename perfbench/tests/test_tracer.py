"""Span recording and self-time arithmetic."""

import sys
import types

import pytest

from tracer import Tracer, covered_length, self_times


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert covered_length([(-5.0, 2.0), (9.0, 20.0)], 0.0, 10.0) == 3.0
    assert covered_length([(1.0, 2.0), (1.0, 2.0)], 0.0, 10.0) == 1.0


def test_self_time_of_nested_spans():
    # root [0, 10] has children [1, 4] and [5, 9]; [1, 4] has child [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(start, end, parent)) == 10.0


def test_self_time_counts_overlapping_children_once():
    assert self_times([0.0, 1.0, 2.0], [10.0, 5.0, 6.0], [-1, 0, 0])[0] == 5.0


def _fake_clock(monkeypatch):
    ticks = iter(float(i) for i in range(1000))
    monkeypatch.setattr("tracer.perf_counter", lambda: next(ticks))


def test_generator_steps_nest_inside_their_consumer(monkeypatch):
    tracer = Tracer()
    _fake_clock(monkeypatch)

    def leaf(x):
        return x

    def gen():
        for i in range(2):
            yield wrapped_leaf(i)

    wrapped_leaf = tracer.traced_call(leaf, "leaf")
    wrapped_gen = tracer.traced_generator(gen, "gen")
    consume = tracer.traced_call(lambda: list(wrapped_gen()), "consume")
    tracer.active = True
    assert consume() == [0, 1]
    tracer.active = False
    names = [tracer.names[k] for k in tracer.kind]
    assert names == ["consume", "gen", "leaf", "gen", "leaf", "gen"]
    # every gen step is a child of consume, every leaf a child of a gen step
    assert tracer.parent == [-1, 0, 1, 0, 3, 0]
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    root = tracer.end[0] - tracer.start[0]
    assert sum(selfs) == pytest.approx(root)
    assert all(s >= 0 for s in selfs)


def test_inactive_tracer_records_nothing_and_returns_the_raw_generator():
    tracer = Tracer()

    def gen():
        yield 1

    raw = tracer.traced_generator(gen, "gen")()
    assert isinstance(raw, types.GeneratorType) and list(raw) == [1]
    assert tracer.traced_call(lambda: 2, "f")() == 2
    assert tracer.start == []


def test_abandoned_generator_closes_the_wrapped_one():
    tracer = Tracer()
    closed = []

    def gen():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    tracer.active = True
    it = tracer.traced_generator(gen, "gen")()
    assert next(it) == 1
    it.close()
    assert closed == [True]


def test_exception_still_closes_the_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    tracer.active = True
    with pytest.raises(KeyError):
        tracer.traced_call(boom, "boom")()
    assert tracer.stack == [-1] and tracer.end[0] >= tracer.start[0]


def test_wrap_function_rebinds_aliases_and_uninstall_restores(monkeypatch):
    home = types.ModuleType("repro._perfbench_home")
    alias = types.ModuleType("repro._perfbench_alias")

    def f():
        return 7

    home.f = f
    alias.g = f
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, alias.__name__, alias)
    tracer = Tracer()
    tracer.wrap_function(home, "f", "f")
    assert home.f is not f and alias.g is home.f
    tracer.active = True
    assert alias.g() == 7 and len(tracer.start) == 1
    tracer.uninstall()
    assert home.f is f and alias.g is f


def test_wrap_method_counts_calls():
    class Box:
        def get(self, x):
            return x + 1

    tracer = Tracer()
    orig = Box.__dict__["get"]

    def count(counts, args, kwargs, out):
        counts["gets"] += 1

    tracer.wrap_method(Box, "get", "Box.get", count=count)
    tracer.active = True
    assert Box().get(1) == 2
    tracer.uninstall()
    assert tracer.counts["gets"] == 1 and Box.__dict__["get"] is orig


def _spans(tracer, rows):
    """Record ``(name, start, end, parent)`` spans in statement 1."""
    for name, a, b, p in rows:
        tracer.kind.append(tracer.kind_id(name))
        tracer.start.append(a)
        tracer.end.append(b)
        tracer.parent.append(p)
        tracer.stmt.append(1)


def test_well_formed_spans_have_no_problem():
    tracer = Tracer()
    _spans(tracer, [("root", 0.0, 10.0, -1), ("kid", 1.0, 4.0, 0), ("root", 11.0, 12.0, -1)])
    assert tracer.problem(11.0) is None


@pytest.mark.parametrize(
    "rows, wall, what",
    [
        ([("root", 0.0, 10.0, -1), ("kid", 8.0, 11.0, 0)], 20.0, "not inside its parent"),
        ([("root", 5.0, 4.0, -1)], 20.0, "ends before it starts"),
        ([("root", 0.0, 10.0, -1)], 9.0, "more than the measured"),
    ],
)
def test_malformed_spans_are_reported(rows, wall, what):
    tracer = Tracer()
    _spans(tracer, rows)
    assert what in tracer.problem(wall)


def test_open_span_and_span_outside_a_statement_are_reported():
    tracer = Tracer()
    tracer.active = True
    tracer.traced_call(lambda: 1, "f")()
    assert "outside any measured statement" in tracer.problem(1e9)
    tracer._open(tracer.kind_id("f"))
    assert "left open" in tracer.problem(1e9)
