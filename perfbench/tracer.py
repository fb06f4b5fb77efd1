"""Layer tracing from outside the program.

The traced run replaces public functions of ``repro`` with wrappers at
the module attribute each caller looks up (``repro.core.simulator``
imports ``build_iteration_ops`` by name, so the wrapper goes on
``repro.core.simulator.build_iteration_ops``, not on its home module).
Every wrapped call records one span ``[layer, start, end, parent]``
in memory; self time is a span's duration minus the time its child
spans cover.  Hot inner functions are counted, never timed, so the
trace does not swamp what it measures.

Nothing here runs unless :meth:`LayerTracer.install` is called; the
untraced run calls :func:`assert_untouched` to prove that.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import Counter
from contextlib import contextmanager

#: Marker attribute set on every installed wrapper.
MARKER = "_perfbench_layer"

#: (layer, owner module, attribute); ``Class.method`` attributes wrap
#: the method on the class.
SPANNED = (
    ("dnn.build", "repro.dnn.registry", "build_network"),
    ("dnn.build", "repro.core.simulator", "build_network"),
    ("dnn.build", "repro.serving.server", "build_network"),
    ("dnn.build", "repro.cluster.oracle", "build_network"),
    ("core.plan", "repro.core.simulator", "plan_iteration"),
    ("core.plan", "repro.core.simulator", "plan_inference"),
    ("core.plan", "repro.pipeline.lowering", "plan_pipeline"),
    ("core.price", "repro.core.simulator", "iteration_pricer"),
    ("core.price", "repro.core.simulator", "plan_training_prefetch"),
    ("core.price", "repro.core.simulator", "inference_pricer"),
    ("core.price", "repro.core.simulator", "plan_inference_prefetch"),
    ("core.price", "repro.pipeline.lowering", "pipeline_pricer"),
    ("core.price", "repro.pipeline.lowering", "plan_pipeline_prefetch"),
    ("core.emit", "repro.core.simulator", "build_iteration_ops"),
    ("core.emit", "repro.core.simulator", "build_inference_ops"),
    ("core.emit", "repro.pipeline.lowering", "build_pipeline_ops"),
    ("core.schedule", "repro.core.simulator", "schedule_ops"),
    ("core.stats", "repro.core.simulator", "collect_prefetch_stats"),
    ("core.stats", "repro.pipeline.lowering", "pipeline_stats"),
    # simulate() itself: its self time is result assembly (busy-time
    # sums, the result record) around the phases above.
    ("core.result", "repro.campaign.runner", "simulate"),
    ("core.result", "repro.serving.server", "simulate"),
    ("core.result", "repro.cluster.oracle", "simulate"),
    ("pipeline.search", "repro.pipeline.lowering", "build_schedule"),
    ("serving.loop", "repro.serving.server", "simulate_serving"),
    ("cluster.loop", "repro.cluster.simulator", "simulate_cluster"),
    ("cluster.oracle", "repro.cluster.oracle", "CostOracle.profile"),
    ("campaign.cache.key", "repro.campaign.cache", "code_fingerprint"),
    ("campaign.cache.key", "repro.campaign.cache", "ResultCache.key"),
    ("campaign.cache.get", "repro.campaign.cache", "ResultCache.get"),
    ("campaign.cache.put", "repro.campaign.cache", "ResultCache.put"),
    ("campaign.runner", "repro.campaign.runner", "run_campaign"),
    ("campaign.runner", "repro.scenarios.runner", "run_campaign"),
    ("scenarios.lower", "repro.scenarios.runner", "lower_scenario"),
    ("scenarios.evaluate", "repro.scenarios.runner", "evaluate_claims"),
    ("scenarios.render", "repro.scenarios.verdict", "render_json"),
)

#: Called thousands of times per cell or claim run: counted only.
COUNTED = (
    ("pipeline.makespan_evals", "repro.pipeline.schedules",
     "evaluate_makespan"),
    ("serving.latency_lookups", "repro.serving.server",
     "BatchLatencyModel.result"),
)

#: Layers whose op tally is taken: ``len()`` of what they return.
OPS_LAYERS = ("core.emit",)


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _split(attribute: str, owner_path: str) -> tuple[str, str]:
    """``"Class.method"`` on a module -> (``"module:Class"``,
    ``"method"``)."""
    if "." in attribute:
        class_name, method = attribute.split(".")
        return f"{owner_path}:{class_name}", method
    return owner_path, attribute


def targets() -> list[tuple[str, object, str, bool]]:
    """Every wrapped (layer, owner object, attribute, counted) entry.

    Resolving the whole list imports every owner module before any
    wrapper is installed: a module imported afterwards would bind a
    wrapper under its own name with ``from ... import``.
    """
    return [(layer, _owner(path), name, counted)
            for table, counted in ((SPANNED, False), (COUNTED, True))
            for layer, owner_path, attribute in table
            for path, name in [_split(attribute, owner_path)]]


def site(owner, name: str) -> str:
    """``module.attribute`` (or ``module.Class.attribute``): the key
    under which calls through one wrapped attribute are counted."""
    prefix = (owner.__name__ if isinstance(owner, types.ModuleType)
              else f"{owner.__module__}.{owner.__qualname__}")
    return f"{prefix}.{name}"


def _home(fn):
    """The object ``fn``'s own module binds under its qualified name."""
    obj = importlib.import_module(fn.__module__)
    for part in fn.__qualname__.split("."):
        obj = getattr(obj, part)
    return obj


def assert_untouched() -> None:
    """Raise unless every traced attribute is the program's own
    definition: no wrapper installed, every import alias intact."""
    for layer, owner, name, _ in targets():
        fn = getattr(owner, name)
        if hasattr(fn, MARKER) or _home(fn) is not fn:
            raise AssertionError(
                f"{owner.__name__}.{name} ({layer}) is not the "
                f"program's own function in an untraced run")


class LayerTracer:
    """In-memory span recorder fed by installed wrappers."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent index or -1]`` per span.
        self.spans: list[list] = []
        #: Calls per layer, and per wrapped attribute (:func:`site`).
        self.calls: Counter = Counter()
        self.ops: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, layer: str):
        index = self._open(layer)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, layer: str, fn, where: str):
        tracer = self
        count_ops = layer in OPS_LAYERS

        def wrapper(*args, **kwargs):
            index = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer.calls[layer] += 1
            tracer.calls[where] += 1
            if count_ops:
                tracer.ops[layer] += len(result)
            return result
        return wrapper

    def _counted(self, layer: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for layer, owner, name, counted in targets():
            original = getattr(owner, name)
            wrapper = (self._counted(layer, original) if counted else
                       self._spanned(layer, original, site(owner, name)))
            setattr(wrapper, MARKER, layer)
            setattr(owner, name, wrapper)
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def self_times(self, root: str) -> dict[str, float]:
        """Per-layer self seconds of the spans under the root span
        named ``root`` (the root's own self time included)."""
        spans = self.spans
        under = [False] * len(spans)
        child_time = [0.0] * len(spans)
        for index, (layer, start, end, parent) in enumerate(spans):
            under[index] = (layer == root and parent == -1) or (
                parent >= 0 and under[parent])
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for index, (layer, start, end, _) in enumerate(spans):
            if under[index]:
                totals[layer] += end - start - child_time[index]
        return dict(totals)

    def duration(self, root: str) -> float:
        """Wall seconds of the root span named ``root``."""
        for layer, start, end, parent in self.spans:
            if layer == root and parent == -1:
                return end - start
        raise KeyError(root)
