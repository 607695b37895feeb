"""Per-layer tracing from outside the engine.

``Tracer.install()`` replaces every public function of the layer
modules with a wrapper that records a span per call: wall time, CPU
time of the driver and every process of the Ray session, rows out and
the spans of the calls it makes.  Engine code that calls another
layer's function through a module attribute (``exchange.cell_halo_exchange``
from ``knn_graph``) or a module global (``zonal_tessellation`` from
``morphological_graph``) reaches the wrapper too.

Engine functions return lazy Datasets, so a wrapper materialises what
its call returns; the span then covers the work the call set up.  This
changes where execution happens and is part of the tracing overhead
that ``trace.overhead_s`` reports.  Wrappers called inside a Ray task
(a worker process) pass straight through.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time

from graphbench.proc import CpuMeter

LAYERS = ("sources.interleaved", "exchange", "shuffle", "joins",
          "ops.proximity", "ops.topology", "ops.morphology", "state.lineage")
FIELDS = ("wall_s", "self_s", "cpu_s", "rows_out", "calls")


def _materialise(out):
    """(out with lazy Datasets materialised, rows out)."""
    import ray
    import ray.data
    if isinstance(out, ray.data.Dataset):
        out = out.materialize()
        return out, out.count()
    if isinstance(out, tuple) and any(isinstance(o, ray.data.Dataset) for o in out):
        pairs = [_materialise(o) for o in out]
        return tuple(o for o, _ in pairs), sum(r for _, r in pairs)
    if isinstance(out, dict) and any(isinstance(o, ray.data.Dataset)
                                     for o in out.values()):
        pairs = {k: _materialise(o) for k, o in out.items()}
        return {k: o for k, (o, _) in pairs.items()}, sum(r for _, r in pairs.values())
    if isinstance(out, ray.ObjectRef):
        ray.wait([out], fetch_local=False)
        return out, 0
    if isinstance(out, dict) and "rows" in out:      # checkpointed_write
        return out, int(out["rows"])
    if hasattr(out, "__len__") and not isinstance(out, (str, bytes)):
        return out, len(out)
    return out, 0


class Tracer:
    """Records spans of the layer modules' public functions while
    ``active``; ``take()`` returns and clears the per-function totals."""

    def __init__(self, cpu: CpuMeter):
        self.active = False
        self._cpu = cpu
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []       # per open span: child wall
        self._totals: dict[str, dict[str, float]] = {}

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module("city2graph_ray." + layer)
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(f"{layer}.{name}", fn))

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    def take(self) -> dict[str, dict[str, float]]:
        out, self._totals = self._totals, {}
        return out

    def _wrap(self, qual: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            tracer._stack.append([0.0])
            c0, t0 = tracer._cpu.total_s(), time.perf_counter()
            try:
                out, rows = _materialise(fn(*args, **kwargs))
            finally:
                wall = time.perf_counter() - t0
                cpu = tracer._cpu.total_s() - c0
                child = tracer._stack.pop()[0]
                if tracer._stack:
                    tracer._stack[-1][0] += wall
                tot = tracer._totals.setdefault(qual, dict.fromkeys(FIELDS, 0.0))
                tot["wall_s"] += wall
                tot["self_s"] += wall - child
                tot["cpu_s"] += cpu
                tot["calls"] += 1
            tot["rows_out"] += rows
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced
