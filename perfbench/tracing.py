"""Spans recorded from the benchmark's side of each call into isoconn.

A span is ``(name, start_ns, end_ns, parent, op_id)``: ``parent`` is the index
of the enclosing operation span (``None`` for an operation itself) and
``op_id`` the operation it belongs to.  Span names are ``<layer>.<function>``,
where the layer is the isoconn module that defines the function, so every
span maps onto one module of ``src/isoconn``.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time

LAYERS = ("topology", "matrices", "spectral", "mobility", "zones", "families", "render", "cli")


class Tracer:
    """In-memory span recorder for one closed-loop run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._parent: int | None = None
        self._op_id: int | None = None

    @contextlib.contextmanager
    def op(self, op_id: int, name: str):
        index = len(self.spans)
        self.spans.append(None)
        self._parent, self._op_id = index, op_id
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter_ns(), None, op_id)
            self._parent = self._op_id = None

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter_ns(), self._parent, self._op_id))

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def layer_shares(self) -> dict[str, float]:
        """Time inside each layer's calls as a share of total operation time."""
        op_ns = sum(end - start for _, start, end, parent, _ in self.spans if parent is None)
        busy = dict.fromkeys(LAYERS, 0)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                busy[name.split(".", 1)[0]] += end - start
        return {layer: busy[layer] / op_ns if op_ns else 0.0 for layer in LAYERS}

    def write(self, path) -> None:
        fields = ["name", "start_ns", "end_ns", "parent", "op_id"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


class TracedLibrary:
    """Stand-in for the ``isoconn`` module whose public functions record spans."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer
        self._cache: dict[str, object] = {}

    def __getattr__(self, attr: str):
        if attr not in self._cache:
            value = getattr(self._module, attr)
            if callable(value) and not isinstance(value, type):
                layer = value.__module__.rsplit(".", 1)[-1]
                value = self._tracer.wrap(value, f"{layer}.{value.__name__}")
            self._cache[attr] = value
        return self._cache[attr]
