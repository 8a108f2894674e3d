"""In-memory span recording around callables patched from outside.

The benchmark measures the simulator's layers without changing its code:
for a traced run it replaces chosen functions, methods and properties
with wrappers that record one span per call (name, start, end, parent
span) and restores the originals afterwards. Self time is computed after
the run from the recorded spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType

#: Parent index of a span opened with no enclosing span.
NO_PARENT = -1


class SpanRecorder:
    """Collects spans in opening order; single-threaded by design.

    Span ``i`` is ``names[i]``, ``starts[i]``, ``ends[i]`` and
    ``parents[i]`` (the index of the enclosing span or
    :data:`NO_PARENT`), kept in flat arrays so that a run with a million
    spans stays small. ``counts`` holds counters fed at the same
    boundaries.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans must close in reverse order of opening")

    @contextmanager
    def span(self, name: str):
        """Record one span around a block; yields the span's index."""
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def wrap(self, fn, name: str, count=None):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``count(recorder, args, kwargs, result)`` runs after a call that
        returned, to add boundary counters to :attr:`counts`.
        """
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        traced.__perfbench_span__ = name
        return traced

    def write(self, path) -> None:
        """Write the spans as a NumPy ``.npz`` archive.

        Arrays: ``names`` (distinct span names), ``name`` (index into
        ``names`` per span), ``start`` and ``end`` (seconds from the first
        span's start) and ``parent``.
        """
        import numpy as np

        distinct = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(distinct)}
        origin = self.starts[0] if self.starts else 0.0
        np.savez(path, names=np.array(distinct),
                 name=np.array([ids[n] for n in self.names], dtype=np.int16),
                 start=np.frombuffer(self.starts, dtype=np.float64) - origin,
                 end=np.frombuffer(self.ends, dtype=np.float64) - origin,
                 parent=np.frombuffer(self.parents, dtype=np.int64))


def self_times(recorder: SpanRecorder) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans recorded on one thread nest properly, so the children of a
    span are disjoint and the time they cover is the sum of their
    durations.
    """
    durations = [end - start
                 for start, end in zip(recorder.starts, recorder.ends)]
    own = list(durations)
    for index, parent in enumerate(recorder.parents):
        if parent != NO_PARENT:
            own[parent] -= durations[index]
    return own


def self_time_by_name(recorder: SpanRecorder) -> dict[str, float]:
    """Total self time per span name."""
    totals: dict[str, float] = defaultdict(float)
    for name, own in zip(recorder.names, self_times(recorder)):
        totals[name] += own
    return dict(totals)


def calls_by_name(recorder: SpanRecorder) -> dict[str, int]:
    """Number of spans per name."""
    totals: dict[str, int] = defaultdict(int)
    for name in recorder.names:
        totals[name] += 1
    return dict(totals)


class Patcher:
    """Replaces attributes and puts the original objects back.

    Every replacement is remembered with the object the owner held
    before, and :meth:`restore` undoes them in reverse order.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrap_method(self, cls: type, attr: str, wrap) -> None:
        """Replace ``cls.attr`` by ``wrap(original)``.

        ``attr`` must be defined on ``cls`` itself. A property is
        rewrapped around its getter.
        """
        original = vars(cls)[attr]
        if isinstance(original, property):
            self.replace(cls, attr, property(wrap(original.fget)))
        else:
            self.replace(cls, attr, wrap(original))

    def wrap_function(self, fn, wrap, extra_modules=()) -> int:
        """Replace ``fn`` by ``wrap(fn)`` wherever a module binds it.

        Searches the ``repro`` package's loaded modules and
        ``extra_modules``, so a function imported by name into other
        modules is wrapped at every call site. Returns the number of
        bindings replaced.
        """
        wrapped = wrap(fn)
        replaced = 0
        for module in modules(extra_modules):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, wrapped)
                    replaced += 1
        if not replaced:
            raise LookupError(f"no loaded module binds {fn.__qualname__}")
        return replaced

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def is_wrapper(value) -> bool:
    """Whether ``value`` is a span wrapper made by :meth:`SpanRecorder.wrap`."""
    return hasattr(value, "__perfbench_span__")


def modules(extra=()) -> list[ModuleType]:
    """The loaded ``repro`` modules plus ``extra``."""
    found = [module for name, module in list(sys.modules.items())
             if module is not None
             and (name == "repro" or name.startswith("repro."))]
    found += [module for module in extra if module not in found]
    return found
