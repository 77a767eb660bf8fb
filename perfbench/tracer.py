"""Spans and counts around calls into a package's functions, from outside.

``Tracer.wrap("vat.vat_order")`` replaces the function on every loaded
module of the package that holds a reference to it, so callers that did
``from .vat import vat_order`` are traced too.  Each call records a span
(id, name, start, end, parent span, op id) in memory; counters computed
from a call's arguments and result are summed per op.

A span's parent is the innermost open span on the same thread.  A span
opened on a thread with no open span of its own (a worker of a thread pool)
takes the innermost open span of the thread that created the tracer, which
is the call that is waiting for the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, package: str, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.op = None
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.counts: dict = defaultdict(float)  # (op, "name.key") -> total
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _modules(self, only_in):
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(prefix)):
                continue
            if only_in is None or name[len(prefix):] in only_in:
                yield mod

    def wrap(self, qualname: str, counters=None, *, name=None, only_in=None):
        """Trace ``<package>.<module>.<function>``, given as ``module.function``.

        ``counters`` maps a key to ``fn(args, kwargs, result) -> number``,
        summed per op as ``<name>.<key>``.  ``only_in`` limits rebinding to
        the named modules.  Returns the number of references rebound.
        """
        mod_name, func_name = qualname.rsplit(".", 1)
        home = importlib.import_module(f"{self.package}.{mod_name}")
        original = getattr(home, func_name)
        wrapper = self._wrapper(name or qualname, original, counters or {})
        rebound = 0
        for mod in self._modules(only_in):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    rebound += 1
        return rebound

    def _wrapper(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if parent is None and stack is not self._root_stack:
                try:
                    parent = self._root_stack[-1]
                except IndexError:
                    pass
            span_id = next(self._ids)
            op = self.op
            stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, op))
            if counters:
                values = {k: f(args, kwargs, result) for k, f in counters.items()}
                with self._lock:
                    for k, v in values.items():
                        self.counts[(op, f"{name}.{k}")] += v
            return result

        return traced

    def totals(self, op=None) -> dict:
        """Per-name ``.s`` (inclusive), ``.self_s``, ``.calls`` and counters."""
        return layer_totals(
            [s for s in self.spans if s[5] == op],
            {key: v for (o, key), v in self.counts.items() if o == op},
        )


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_totals(spans, counts=None) -> dict:
    """Sum spans ``(id, name, start, end, parent, op)`` per name.

    Self time is a span's duration minus the part of its interval that its
    child spans cover, so children running in parallel are not subtracted
    twice.
    """
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += (end - start) - _covered(
            children.get(span_id, ()), start, end)
        out[f"{name}.calls"] += 1
    for key, value in (counts or {}).items():
        out[key] += value
    return dict(out)
