"""Span recording, self time, and attribute patching."""

import sys
import types

import pytest

from perfbench.spans import (NO_PARENT, Patcher, SpanRecorder, calls_by_name,
                             is_wrapper, self_time_by_name, self_times)


def _clock(*ticks):
    return iter(ticks).__next__


def test_nested_spans_subtract_only_direct_children():
    # outer [0, 10] > middle [1, 9] > inner [2, 5]
    recorder = SpanRecorder(clock=_clock(0.0, 1.0, 2.0, 5.0, 9.0, 10.0))
    with recorder.span("outer"):
        with recorder.span("middle"):
            with recorder.span("inner"):
                pass
    assert list(recorder.parents) == [NO_PARENT, 0, 1]
    assert self_times(recorder) == [2.0, 5.0, 3.0]


def test_back_to_back_children_are_summed():
    # parent [0, 10] with children [1, 3], [3, 6], [7, 8]
    recorder = SpanRecorder(clock=_clock(0.0, 1.0, 3.0, 3.0, 6.0, 7.0, 8.0,
                                         10.0))
    with recorder.span("parent"):
        for name in ("a", "b", "a"):
            with recorder.span(name):
                pass
    assert self_time_by_name(recorder) == {"parent": 4.0, "a": 3.0, "b": 3.0}
    assert calls_by_name(recorder) == {"parent": 1, "a": 2, "b": 1}


def test_self_times_add_up_to_the_root():
    recorder = SpanRecorder()
    work = recorder.wrap(lambda n: sum(range(n)), "leaf")
    outer = recorder.wrap(lambda: [work(2000) for _ in range(5)], "mid")
    with recorder.span("root") as root:
        outer()
        work(1000)
        outer()
    assert sum(self_times(recorder)) == pytest.approx(
        recorder.duration(root), rel=1e-12)
    assert calls_by_name(recorder)["leaf"] == 11


def test_wrap_counts_returned_calls_only():
    recorder = SpanRecorder()

    def boom(x):
        if x < 0:
            raise ValueError(x)
        return x

    def count(rec, args, kwargs, result):
        rec.counts["seen"] += result

    traced = recorder.wrap(boom, "boom", count)
    assert traced(3) == 3
    with pytest.raises(ValueError):
        traced(-1)
    assert recorder.counts["seen"] == 3
    assert len(recorder) == 2 and recorder.duration(1) >= 0


def test_spans_must_close_in_order():
    recorder = SpanRecorder()
    first = recorder.open("a")
    recorder.open("b")
    with pytest.raises(RuntimeError):
        recorder.close(first)


class _Thing:
    def __init__(self):
        self.value = 1

    def hello(self):
        return "hello"

    @property
    def doubled(self):
        return self.value * 2


def _target(x):
    return x + 1


def test_patcher_restores_functions_methods_and_properties():
    module_a = types.ModuleType("repro._bench_test_a")
    module_a.target = _target
    module_b = types.ModuleType("bench_test_b")
    module_b.alias = _target
    sys.modules[module_a.__name__] = module_a
    recorder = SpanRecorder()
    before = (vars(_Thing)["hello"], vars(_Thing)["doubled"])
    try:
        with Patcher() as patcher:
            replaced = patcher.wrap_function(
                _target, lambda f: recorder.wrap(f, "fn"), [module_b])
            patcher.wrap_method(_Thing, "hello",
                                lambda f: recorder.wrap(f, "method"))
            patcher.wrap_method(_Thing, "doubled",
                                lambda f: recorder.wrap(f, "property"))
            assert replaced == 2
            assert module_a.target(1) == module_b.alias(1) == 2
            thing = _Thing()
            assert thing.hello() == "hello" and thing.doubled == 2
            assert is_wrapper(module_b.alias)
            assert is_wrapper(vars(_Thing)["hello"])
            assert calls_by_name(recorder) == {
                "fn": 2, "method": 1, "property": 1}
        assert module_a.target is _target and module_b.alias is _target
        assert (vars(_Thing)["hello"], vars(_Thing)["doubled"]) == before
    finally:
        del sys.modules[module_a.__name__]


def test_write_spans(tmp_path):
    np = pytest.importorskip("numpy")
    recorder = SpanRecorder(clock=_clock(5.0, 6.0, 7.0, 9.0))
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    path = tmp_path / "spans.npz"
    recorder.write(path)
    with np.load(path) as data:
        assert list(data["names"][data["name"]]) == ["outer", "inner"]
        assert list(data["start"]) == [0.0, 1.0]
        assert list(data["end"]) == [4.0, 2.0]
        assert list(data["parent"]) == [NO_PARENT, 0]


def test_wrap_function_requires_a_binding():
    with pytest.raises(LookupError):
        Patcher().wrap_function(lambda: None, lambda f: f)
