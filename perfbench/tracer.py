"""Per-layer counters, self times and spans, installed around holoflow from outside.

Nothing under src/ knows about this module.  `rebind` replaces a function or
method wherever a holoflow module or class binds it: verify, cli and states
import `boundary`, `cells_near`, `apply_operator` and others by name, so
patching only the defining module would miss their calls.

Every wrapped call adds to its layer's call count and self time, which is
its wall time minus the time of wrapped calls made inside it.  Hot leaf
calls (coeff_b, derive, __mul__, boundary, ...) stay in-memory counters;
coarse boundaries (a CLI command, a sweep, a verify_sphere call) also
record a span with its parent.  The worker writes everything out once,
when its round ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def rebind(original, replacement) -> int:
    """Point every holoflow module- and class-level binding of `original` at `replacement`."""
    rebound = 0
    for name, module in list(sys.modules.items()):
        if name != "holoflow" and not name.startswith("holoflow."):
            continue
        for namespace in [module, *(v for v in vars(module).values()
                                    if isinstance(v, type) and v.__module__ == name)]:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, replacement)
                    rebound += 1
    return rebound


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()           # outcomes counted at a boundary: sites, no-op reductions
        self.keys = defaultdict(set)      # distinct argument keys, for repeat ratios
        self.spans: list[dict] = []
        self._stack: list[float] = []     # time spent in wrapped children of each open call
        self._open: list[int] = []        # ids of the open spans

    def _close(self, name: str, elapsed: float) -> None:
        child = self._stack.pop()
        self.self_s[name] += elapsed - child
        self.total_s[name] += elapsed
        if self._stack:
            self._stack[-1] += elapsed

    def _bookkeeping(self, t0: float) -> None:
        """Charge tracer bookkeeping to no layer: hide it from the enclosing call."""
        if self._stack:
            self._stack[-1] += time.perf_counter() - t0

    @contextmanager
    def span(self, name: str):
        """A traced region that is also recorded as a span."""
        sid = len(self.spans)
        self.spans.append({"id": sid, "parent": self._open[-1] if self._open else None,
                           "name": name})
        self._open.append(sid)
        self.calls[name] += 1
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self._close(name, elapsed)
            self._open.pop()
            self.spans[sid].update(start=t0, end=t0 + elapsed)

    def wrap(self, name: str, fn, post=None, span: bool = False):
        """fn with its calls counted and timed; post(args, result) runs untimed after each."""
        calls, stack, clock = self.calls, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if span:
                with self.span(name):
                    result = fn(*args, **kwargs)
            else:
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    calls[name] += 1
                    self._close(name, clock() - t0)
            if post is not None:
                t1 = clock()
                post(args, result)
                self._bookkeeping(t1)
            return result

        return traced

    def wrap_iter(self, name: str, fn):
        """Like wrap, for a function that returns an iterator: each step is timed too."""
        start = self.wrap(name, fn)
        stack, clock = self._stack, time.perf_counter

        def steps(iterator):
            step = iterator.__next__
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = step()
                except StopIteration:
                    return
                finally:
                    self._close(name, clock() - t0)
                yield item

        return lambda *args, **kwargs: steps(start(*args, **kwargs))

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "spans": self.spans,
        }


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every holoflow layer the benchmark measures."""
    from holoflow import cells, operators, poly, states, verify

    keys, counts = tracer.keys, tracer.counts

    def coeff_b_key(args, result):
        op, p, q = args
        keys["operators.coeff_b"].add((
            op.d, op.scale, op.variant, frozenset(op.table_overrides.items()),
            p.plane, tuple(b - a for a, b in zip(p.coords, q.coords)),
        ))

    def covariance_key(args, result):
        keys["states.ym_covariance"].add(tuple(args[0]))

    def reduce_noop(args, result):
        if result is args[1]:
            counts["poly.reduce.noop"] += 1

    def sites(metric):
        def post(args, result):
            counts[metric] += len(result)
        return post

    functions = [
        (cells.boundary, "cells.boundary", None, False),
        (cells.children, "cells.children", None, False),
        (operators.apply_operator, "operators.apply_operator", None, False),
        (verify.gauge_sweep, "verify.gauge", sites("verify.gauge.sites"), True),
        (verify.compat_sweep, "verify.compat", sites("verify.compat.sites"), True),
        (verify.welldefined_property, "verify.welldefined", sites("verify.welldefined.sites"), True),
        (states.exp_state, "states.exp_state", None, False),
        (states.ym_moment, "states.ym_moment", None, False),
        (states.ym_covariance, "states.ym_covariance", covariance_key, False),
        (states.isserlis_moment, "states.isserlis_moment", None, False),
        (states.covariance_window, "states.covariance_window", None, False),
        (states.psd_probe, "states.psd_probe", None, False),
        (states.verify_sphere, "states.verify_sphere", None, True),
        (operators.CubicalFamilyOp.coeff_b, "operators.coeff_b", coeff_b_key, False),
        (operators.ExplicitOp.coeff_b, "operators.explicit_coeff_b", None, False),
        (poly.Polynomial.__mul__, "poly.mul", None, False),
        (poly.Polynomial.derive, "poly.derive", None, False),
        (poly.Polynomial.substitute, "poly.substitute", None, False),
        (poly.LinearIdeal.reduce, "poly.reduce", reduce_noop, False),
    ]
    for fn, name, post, span in functions:
        rebind(fn, tracer.wrap(name, fn, post=post, span=span))
    rebind(cells.cells_near, tracer.wrap_iter("cells.cells_near", cells.cells_near))
