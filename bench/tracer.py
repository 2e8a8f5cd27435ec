"""Per-layer tracing from outside the program.

install() wraps every public function of every distmeas module in a span,
and rebinds each wrapped function by object identity in every distmeas module
that imported it (`from .stoch import compose` binds compose in several
modules). It also wraps StochasticMatrix.__post_init__ as the span
stoch.matrix_validate, the json.dumps that the CLI calls as io.json_encode,
and counts Fraction constructions as stoch.fractions_built. A span's self
time is its duration minus the time covered by the spans it called.

Only the traced child process calls install(); it is never undone.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
import types
from fractions import Fraction


class Span:
    """Accumulated calls, total and self seconds, and for a generator
    function the items it yielded and the times it was resumed."""

    __slots__ = ("calls", "total_s", "self_s", "items", "resumes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0
        self.resumes = 0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.fractions_built = 0
        # time covered by child spans, one accumulator per open span
        self._stack = [0.0]
        # span name -> wrapped function (for matching against a profiler)
        self.functions: dict[str, types.FunctionType] = {}

    def _record(self, span: Span, elapsed: float) -> None:
        child = self._stack.pop()
        self._stack[-1] += elapsed
        span.total_s += elapsed
        span.self_s += elapsed - child

    def wrap(self, name: str, fn):
        span = self.spans.setdefault(name, Span())
        self.functions[name] = fn
        stack, record, clock = self._stack, self._record, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                span.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    span.resumes += 1
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        record(span, clock() - start)
                    span.items += 1
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span.calls += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record(span, clock() - start)
        return traced

    def install(self) -> None:
        import distmeas
        from distmeas import cli, stoch

        modules = [distmeas] + [
            importlib.import_module(f"distmeas.{info.name}")
            for info in pkgutil.iter_modules(distmeas.__path__)]
        wrapped = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = self.wrap(f"{short}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])

        matrix = stoch.StochasticMatrix
        matrix.__post_init__ = self.wrap("stoch.matrix_validate", matrix.__post_init__)

        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = self.wrap("io.json_encode", json.dumps)
        cli.json = proxy

        original_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            self.fractions_built += 1
            return original_new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)

    def report(self) -> dict:
        return {
            "spans": {name: {slot: getattr(s, slot) for slot in Span.__slots__}
                      for name, s in self.spans.items()},
            "fractions_built": self.fractions_built,
        }
