"""Outside-in layer tracing: wrap ``repro``'s layer entry points for a pass.

The program carries no spans of its own that cover every layer, so the
benchmark wraps each layer's entry points from here, for the length of a
traced pass only (:meth:`LayerTracer.installed`), and restores every
binding afterwards.  A module-level function is imported by name into
several modules (each placement module holds its own ``finalize``), so
every ``repro`` module attribute bound to the original is wrapped, and
every one is put back.

A layer's *self time* is its spans' duration minus their direct child
spans, so the self times of all layers sum to the time spent inside
top-level spans; the runner adds ``other_s`` for the rest of the op.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable

from repro.core import BenefitEngine, RestorationSession
from repro.core import _common, planner, restoration
from repro.experiments import DeploymentCache
from repro.field import FieldModel
from repro.geometry import points
from repro.network.coverage import CoverageState
from repro.parallel import SharedFieldStore, WorkerPool

#: (layer, class, method names) wrapped on the class.
METHOD_LAYERS: tuple[tuple[str, type, tuple[str, ...]], ...] = (
    ("field.build", FieldModel,
     ("__init__", "adjacency", "grid_partition", "same_cell_adjacency")),
    ("field.query", FieldModel, ("query_ball", "query_ball_many", "dirty_region")),
    ("benefit.init", BenefitEngine, ("__init__",)),
    ("benefit.update", BenefitEngine,
     ("place_at", "add_sensor_at_position", "remove_covered")),
    ("benefit.remove_rows", BenefitEngine, ("remove_rows",)),
    ("benefit.select", BenefitEngine, ("argmax",)),
    ("coverage.recount", CoverageState, ("from_deployment",)),
    ("restore", RestorationSession, ("restore",)),
    ("pool.prefill", WorkerPool, ("prefill",)),
    ("pool.publish", SharedFieldStore, ("publish_field",)),
    ("pool.merge", DeploymentCache, ("absorb",)),
)

#: (layer, defining module, function name) wrapped at every module binding.
#: ``method`` spans are named after the method run (``method.grid``, ...).
FUNCTION_LAYERS: tuple[tuple[str, Any, str], ...] = (
    ("method", planner, "run_method"),
    ("finalize", _common, "finalize"),
    ("restore", restoration, "restore"),
)

#: Functions whose calls are counted but not timed: a call costs about
#: as much as a wrapper, so a span would mostly measure itself.
COUNTED: tuple[tuple[str, Any, str], ...] = (
    ("geometry.validate", points, "as_point"),
    ("geometry.validate", points, "as_points"),
)


class LayerTracer:
    """Accumulates self time and call counts per layer while installed."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.field_models: list[FieldModel] = []
        self.engines: list[BenefitEngine] = []
        self.dirty_points = 0
        self.dirty_field_points = 0
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _timed(self, layer: str, fn: Callable, name_arg: bool = False) -> Callable:
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if name_arg:
                name = f"{layer}.{args[0] if args else kwargs['name']}"
            else:
                name = layer
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += duration

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _counted(self, layer: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------
    # observers that read state the program already keeps
    # ------------------------------------------------------------------
    def _observe(self, layer: str, name: str, fn: Callable) -> Callable:
        if name == "__init__" and layer == "field.build":
            def observed(obj, *args, **kwargs):
                fn(obj, *args, **kwargs)
                self.field_models.append(obj)
        elif name == "__init__" and layer == "benefit.init":
            def observed(obj, *args, **kwargs):
                fn(obj, *args, **kwargs)
                self.engines.append(obj)
        elif name == "dirty_region":
            def observed(obj, *args, **kwargs):
                region = fn(obj, *args, **kwargs)
                self.dirty_points += region.n_points
                self.dirty_field_points += obj.n_points
                return region
        else:
            return fn
        return observed

    # ------------------------------------------------------------------
    # install / restore
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, name: str, new: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _patch_bindings(self, module: Any, name: str, make: Callable) -> None:
        original = getattr(module, name)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, cls, names in METHOD_LAYERS:
            for name in names:
                raw = vars(cls)[name]
                if isinstance(raw, classmethod):
                    new: Any = classmethod(self._timed(layer, raw.__func__))
                else:
                    new = self._timed(layer, self._observe(layer, name, raw))
                self._patch(cls, name, new)
        for layer, module, name in FUNCTION_LAYERS:
            self._patch_bindings(
                module, name,
                lambda fn, layer=layer: self._timed(
                    layer, fn, name_arg=(layer == "method")
                ),
            )
        for layer, module, name in COUNTED:
            self._patch_bindings(
                module, name, lambda fn, layer=layer: self._counted(layer, fn)
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        """Zero the counters between ops (the wrappers stay installed)."""
        self.self_s.clear()
        self.calls.clear()
        self.field_models.clear()
        self.engines.clear()
        self.dirty_points = self.dirty_field_points = 0

    def patched(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` of every binding now wrapped."""
        return list(self._patches)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def field_counts(models: list[FieldModel]) -> dict[int, tuple[int, int]]:
    """``id -> (builds, hits)`` of each distinct model's cache counters."""
    return {
        id(m): (sum(m.stats.builds.values()), sum(m.stats.hits.values()))
        for m in models
    }
