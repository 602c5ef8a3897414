"""In-memory spans around calls into webrank's layers, recorded from outside.

A layer function is wrapped by replacing every module-level binding of it in
the loaded `webrank.*` modules, so a caller that imported the function by
name (`from .tpoly import taylor`) reaches the wrapper just like a caller
that looks it up on its module (`linalg.float_rank`).  Each span adds its
duration minus the time covered by its direct child spans to the layer's
self time.  A recursive call of a layer already open on the stack is not
spanned again, so a recursive function such as `report.jsonable` counts one
span per outermost call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Self times and counters per layer, filled while `installed()` is active."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._open: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, tally=None):
        """A wrapper of fn that records a span named `name`.

        tally(counts, args, result), when given, adds the layer's work counters.
        """

        def traced(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            children = [0.0]
            self._stack.append(children)
            self._open.add(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._open.discard(name)
                self.self_s[name] += elapsed - children[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
            if tally is not None:
                tally(self.counts, args, result)
            return result

        return traced

    def _rebind(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "webrank" and not module_name.startswith("webrank."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def wrap_function(self, module, attr: str, name: str, tally=None) -> None:
        """Span every binding of module.attr in the loaded webrank modules."""
        original = getattr(module, attr)
        self._rebind(original, self._span(name, original, tally))

    def count_method(self, cls, attr: str, counter: str) -> None:
        """Count calls of a method without timing them."""
        original = getattr(cls, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        setattr(cls, attr, counted)
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextmanager
    def root(self, name: str):
        """An outermost span; its self time is the time no layer span covers."""
        children = [0.0]
        self._stack.append(children)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.self_s[name] += elapsed - children[0]
