"""Outside-in layer tracing: wrap each layer's public entry points.

The benchmark never edits the program to trace it.  Instead, after the
program is imported, :class:`LayerTracer` replaces each public entry
point with a wrapper that records a span (name, start, end, parent) on
a call stack and folds it into per-layer totals in memory:

* ``calls``  — how many times the entry point ran;
* ``self_s`` — span time minus the time covered by traced child spans.

Many callers bind a function by value (``from X import f``), so
replacing ``X.f`` alone would miss them.  :meth:`LayerTracer.patch_function`
therefore rebinds *every* ``repro.*`` module attribute that is the
original function object.  Methods are patched on their class.  The
benchmark then asserts that each layer expected to work on a workload
recorded calls, so a binding that escaped the patch fails loudly
instead of reading as zero.

Spans recorded inside pool worker processes stay in the workers; the
parent times the whole batch plan (pool start-up and waiting included)
as one layer.
"""

from __future__ import annotations

import functools
import sys
import time

#: (layer name, "module:attribute" or "module:Class.method", kind).
#: kind "span" records calls and self time, "count" records calls only
#: (the θ objective runs ~10^5 times per stream; its time is part of
#: the enclosing θ solve's self time).
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("curves.construct", "repro.curves.piecewise:PiecewiseLinearCurve.__init__", "span"),
    ("curves.eval", "repro.curves.piecewise:PiecewiseLinearCurve.__call__", "span"),
    ("curves.pseudo_inverse", "repro.curves.piecewise:PiecewiseLinearCurve.pseudo_inverse", "span"),
    ("curves.add", "repro.curves.piecewise:PiecewiseLinearCurve.__add__", "span"),
    ("curves.add", "repro.curves.piecewise:PiecewiseLinearCurve.__radd__", "span"),
    ("curves.convolve", "repro.curves.operations:convolve", "span"),
    ("curves.deconvolve", "repro.curves.operations:deconvolve", "span"),
    ("network.flows_at", "repro.network.topology:Network.flows_at", "span"),
    ("network.edit", "repro.network.topology:Network.with_flow", "span"),
    ("network.edit", "repro.network.topology:Network.without_flow", "span"),
    ("server_step", "repro.analysis.propagation:server_step", "span"),
    ("block_step", "repro.core.integrated:evaluate_block", "span"),
    ("theta.solve", "repro.core.fifo_family:family_pair_bound", "span"),
    ("theta.objective", "repro.core.fifo_family:family_delay_for_thetas", "count"),
    ("theorem1", "repro.core.theorem1:theorem1_bound", "span"),
    ("analyzer.decomposed", "repro.analysis.decomposed:DecomposedAnalysis.analyze", "span"),
    ("analyzer.service_curve", "repro.analysis.service_curve:ServiceCurveAnalysis.analyze", "span"),
    ("analyzer.integrated", "repro.core.integrated:IntegratedAnalysis.analyze", "span"),
    ("engine.analyze", "repro.engine.incremental:IncrementalEngine.analyze", "span"),
    ("store.get", "repro.store.store:AnalysisStore.get", "span"),
    ("store.put", "repro.store.store:AnalysisStore.put", "span"),
    ("admission.test", "repro.admission.controller:AdmissionController.test", "span"),
    ("admission.commit", "repro.admission.controller:AdmissionController.commit", "span"),
    ("batch.plan", "repro.admission.batch:plan_batch", "span"),
    ("journal.append", "repro.service.journal:Journal.write_admit", "span"),
    ("journal.append", "repro.service.journal:Journal.write_release", "span"),
    ("journal.snapshot", "repro.service.journal:Journal.snapshot", "span"),
    ("recovery.replay", "repro.service.recovery:recover_state", "span"),
    ("recovery.verify", "repro.service.recovery:verify_recovery", "span"),
)

#: Traced layers, in ENTRY_POINTS order without duplicates.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in ENTRY_POINTS))
#: Layers published by call count only, and by self time only (one
#: recovery runs per restart, so its call count says nothing).
CALLS_ONLY = frozenset(name for name, _, kind in ENTRY_POINTS if kind == "count")
SELF_ONLY = frozenset({"recovery.replay", "recovery.verify"})
#: Every published span metric name.
METRIC_NAMES: tuple[str, ...] = tuple(
    f"{layer}.{what}" for layer in LAYERS for what in ("calls", "self_s")
    if not (what == "self_s" and layer in CALLS_ONLY)
    and not (what == "calls" and layer in SELF_ONLY))


class LayerTracer:
    """Per-layer span totals from wrapped entry points (single thread)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        #: layer -> [calls, self seconds]
        self.totals: dict[str, list] = {name: [0, 0.0] for name in LAYERS}
        #: open spans, innermost last: [time covered by child spans]
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, layer: str, fn):
        totals = self.totals[layer]
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                totals[0] += 1
                totals[1] += span - frame[0]
                if stack:
                    stack[-1][0] += span

        return traced

    def _count(self, layer: str, fn):
        totals = self.totals[layer]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            totals[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, layer: str, module_name: str, attr: str, kind: str) -> None:
        """Rebind every ``repro.*`` module binding of one function."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = (self._span if kind == "span" else self._count)(layer, original)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def patch_method(self, layer: str, module_name: str, qualname: str,
                     kind: str) -> None:
        cls_name, method = qualname.split(".")
        cls = getattr(sys.modules[module_name], cls_name)
        original = cls.__dict__[method]
        wrapper = (self._span if kind == "span" else self._count)(layer, original)
        self._set(cls, method, wrapper)

    def install(self) -> None:
        """Patch every entry point in :data:`ENTRY_POINTS`."""
        import importlib

        for layer, target, kind in ENTRY_POINTS:
            module_name, attr = target.split(":")
            importlib.import_module(module_name)
            if "." in attr:
                self.patch_method(layer, module_name, attr, kind)
            else:
                self.patch_function(layer, module_name, attr, kind)

    def uninstall(self) -> None:
        """Restore every original binding, newest patch first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def calls(self, layer: str) -> int:
        return self.totals[layer][0]

    def metrics(self) -> dict[str, float]:
        """Every name in :data:`METRIC_NAMES` with its value."""
        out: dict[str, float] = {}
        for name in METRIC_NAMES:
            layer, what = name.rsplit(".", 1)
            out[name] = self.totals[layer][0 if what == "calls" else 1]
        return out
