"""Per-layer spans measured from outside the library.

A traced run rebinds every public function of the btpgl layer modules to a
wrapper that opens a span around the call.  Spans are aggregated as they
close: each function gets a call count, an inclusive time and a self time
(its spans' durations minus the time covered by their child spans).  The
run is single-threaded, so child spans of one span never overlap and the
covered time is the sum of the children's durations.

A few tiny, very hot functions are wrapped to count calls only; their time
stays with the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("padic", "linalg", "lattices", "building", "cycles", "serialize", "cli")

# Scalar valuation helpers run millions of times per run; a span around each
# would cost more than the work it measures.
COUNT_ONLY_FUNCTIONS = ("padic.int_val",)
COUNT_ONLY_METHODS = (
    ("padic", "PAdicContext", "val"),
    ("padic", "PAdicContext", "residue"),
    ("padic", "PAdicContext", "is_integral"),
)


class Tracer:
    """Aggregates nested spans into per-name calls, self and inclusive time."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self._stack = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])

    def exit(self) -> None:
        name, start, child_ns = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        self.total_ns[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str) -> None:
        self.calls[name] += 1


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def layer_functions(layer: str):
    """Public functions defined in btpgl.<layer>, as (name, function) pairs."""
    module = importlib.import_module(f"btpgl.{layer}")
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _btpgl_modules():
    return [m for key, m in list(sys.modules.items()) if key == "btpgl" or key.startswith("btpgl.")]


@contextmanager
def traced(tracer: Tracer):
    """Rebind every public layer function, in every btpgl module that holds
    it, to a wrapper feeding `tracer`; restore the originals on exit."""
    wrappers = {}
    for layer in LAYERS:
        for name, fn in layer_functions(layer):
            qualname = f"{layer}.{name}"
            # a generator's body runs after the call returns, outside any span
            count_only = qualname in COUNT_ONLY_FUNCTIONS or inspect.isgeneratorfunction(fn)
            make = _count_wrapper if count_only else _span_wrapper
            wrappers[id(fn)] = (fn, make(tracer, qualname, fn))
    saved = []
    try:
        for module in _btpgl_modules():
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    saved.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        for layer, cls_name, method in COUNT_ONLY_METHODS:
            cls = getattr(importlib.import_module(f"btpgl.{layer}"), cls_name)
            original = cls.__dict__[method]
            saved.append((cls, method, original))
            setattr(cls, method, _count_wrapper(tracer, f"{layer}.{cls_name}.{method}", original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
