"""In-memory span tracer that wraps the public functions of wickchaos.

The tracer reaches each layer only from outside: it replaces every public
function of the layer modules (and a few public methods) by a wrapper,
wherever the package binds that function object.  ``from .chaos import
wick_product`` binds one object under several modules, so each binding is
patched, and ``install`` then asserts through the garbage collector that
nothing else still refers to an unwrapped function.

A span is (name, start, end, parent span, task id).  Spans live in memory
and are written out by ``write_spans`` when the run ends.  Self time is the
span's duration minus the union of its children's intervals, because with
a thread pool children of one span overlap in time.
"""

from __future__ import annotations

import gc
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("multiindex", "hermite", "chaos", "stransform", "malliavin",
          "stratonovich", "renormalization", "jacobi", "sampling",
          "montecarlo", "checks", "dsl", "runtime", "cli", "serialization")

# Called tens of thousands of times per task: counted, not spanned, so the
# trace stays small and its overhead does not swamp the callers' self time.
COUNT_ONLY = frozenset({
    "multiindex.MultiIndex.__init__", "hermite.factorial",
    "hermite.hermite_eval", "hermite.hermite_linearize",
    "hermite.hermite_shift", "hermite.power_to_hermite",
    "hermite.hermite_to_power", "stratonovich.hu_meyer_coeff",
})

# Public methods traced besides module-level functions.
METHODS = (("multiindex", "MultiIndex", "__init__"),
           ("runtime", "Session", "execute"),
           ("runtime", "Session", "run_program"))

MAX_SPANS = 2_000_000


def _union_length(intervals, lo=None, hi=None) -> float:
    """Length of the union of (start, end) intervals, optionally clipped."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if lo is not None:
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class _Span:
    __slots__ = ("sid", "name", "start", "parent", "children")

    def __init__(self, sid, name, start, parent):
        self.sid = sid
        self.name = name
        self.start = start
        self.parent = parent
        self.children = []


class Tracer:
    """Wraps the layers of one imported wickchaos package."""

    def __init__(self, package):
        self.package = package
        self.task = -1
        self.enabled = False
        self.spans: list[tuple] = []
        self.dropped = 0
        self.intervals: dict[str, list] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self._counters: dict[str, itertools.count] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[_Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: list[object] = []
        self._by_name: dict[str, object] = {}

    # -- stack handling --------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A pool thread's first span belongs to the span the main thread
        # is blocked in (mean_estimate waiting on its workers).
        return self._main_stack[-1] if self._main_stack else None

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = _Span(next(tracer._ids), name, perf_counter(),
                         tracer._parent(stack))
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(span, end)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        tracer = self
        counter = self._counters.setdefault(name, itertools.count())

        def counted(*args, **kwargs):
            if tracer.enabled:
                next(counter)
            return fn(*args, **kwargs)

        return counted

    def _close(self, span: _Span, end: float):
        covered = _union_length(span.children, span.start, end)
        with self._lock:
            self.intervals[span.name].append((span.start, end))
            self.self_s[span.name] += (end - span.start) - covered
            if span.parent is not None:
                span.parent.children.append((span.start, end))
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span.sid, span.name, span.start, end,
                                   span.parent.sid if span.parent else 0,
                                   self.task))
            else:
                self.dropped += 1

    def add(self, key: str, value: float):
        with self._lock:
            self.extra[key] += value

    def count(self, name: str) -> int:
        """Calls so far of a count-only function."""
        c = self._counters.get(name)
        if c is None:
            return 0
        # itertools.count (thread-safe to advance) has no getter; its repr
        # is "count(n)".
        return int(repr(c)[6:-1])

    def original(self, name: str):
        """The unwrapped function behind a traced name, or None."""
        return self._by_name.get(name)

    # -- installation ----------------------------------------------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "wickchaos" or n.startswith("wickchaos."))]

    def _make(self, name, fn, hooks):
        self._by_name[name] = fn
        if name in COUNT_ONLY:
            wrapped = self._count_wrapper(name, fn)
        else:
            wrapped = self._span_wrapper(name, fn, hooks.get(name))
        self._wrappers.append(wrapped)
        return wrapped

    def install(self, hooks):
        """Patch every binding of every public layer function, then verify
        that no unwrapped reference is left anywhere in the process.
        Layers or methods the package no longer has are skipped."""
        pkg = self.package.__name__
        modules = self._modules()
        for layer in LAYERS:
            mod = sys.modules.get(f"{pkg}.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._make(f"{layer}.{attr}", fn, hooks)
                for m in modules:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, a, wrapped)
                            self._patched.append((m, a, fn))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(f"{pkg}.{layer}"), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is None:
                continue
            name = f"{layer}.{cls_name}.{meth}"
            if name not in COUNT_ONLY:
                name = f"{layer}.{meth}"
            setattr(cls, meth, self._make(name, fn, hooks))
            self._patched.append((cls, meth, fn))
        self.assert_no_escape()

    def assert_no_escape(self):
        """Every reference to an original must come from the tracer itself."""
        allowed = {id(self._by_name), id(self._patched)}
        for w in self._wrappers:
            allowed.update(id(c) for c in (w.__closure__ or ()))
        allowed.update(id(t) for t in self._patched)
        gc.collect()
        frame = sys._getframe()
        escapes = []
        for fn in self._by_name.values():
            for ref in gc.get_referrers(fn):
                if id(ref) in allowed or ref is frame:
                    continue
                escapes.append((getattr(fn, "__qualname__", repr(fn)), type(ref).__name__))
        if escapes:
            raise RuntimeError(f"unwrapped references remain: {escapes[:5]}")

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def stats(self, name: str) -> dict:
        iv = self.intervals.get(name, [])
        return {"calls": len(iv), "busy_s": _union_length(iv),
                "self_s": self.self_s.get(name, 0.0)}

    def write_spans(self, path):
        """One JSON array per span after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "task"],
                                 "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
