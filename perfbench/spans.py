"""Spans around jck's public functions, installed from outside the package.

Each traced function is replaced, at every module binding that refers to it,
by a wrapper that records one span (name, start, end, parent span, item) and
adds to the per-layer counters.  The package source is never edited: since
modules call each other through their own global names, replacing the
bindings also traces intra-package calls.

A layer marked `outermost` records only its outermost call; nested calls of
the same layer (recursion, `necessitate` calling `lift`) run unwrapped and
count as part of the outer span.  Self time is span time minus the time of
child spans.  Time spent in the tracer's own hooks is charged to no layer.
Spans stay in memory and are written out by `write_spans` when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass, field


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)


@dataclass(frozen=True)
class Target:
    """One traced function: `module.name`, recorded under `layer`.

    `after(tracer, stat, args, result)` runs once the span has closed and
    adds layer-specific counts.
    """

    layer: str
    module: str
    name: str
    outermost: bool = False
    after: object = None


class Tracer:
    def __init__(self):
        self.enabled = False
        self.item = -1
        self.stats: dict[str, LayerStat] = {}
        self.active: dict[str, int] = {}
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, child seconds]
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._installed: list[tuple[object, str, object]] = []
        self.scratch: dict = {}

    # -- installation --------------------------------------------------------

    def install(self, targets, namespaces) -> None:
        """Wrap every target at each binding in `namespaces` (modules) that
        holds the original function object."""
        for target in targets:
            owner = sys.modules[target.module]
            original = getattr(owner, target.name)
            self.stats.setdefault(target.layer, LayerStat())
            self.active.setdefault(target.layer, 0)
            if target.layer not in self._layer_ids:
                self._layer_ids[target.layer] = len(self.layer_names)
                self.layer_names.append(target.layer)
            wrapper = self._wrap(target, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._installed.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._installed):
            setattr(ns, attr, original)
        self._installed.clear()

    def _wrap(self, target: Target, fn):
        tracer = self
        layer = target.layer
        layer_id = self._layer_ids[layer]
        outermost = target.outermost
        after = target.after
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled or (outermost and tracer.active[layer]):
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = len(tracer.span_layer)
            tracer.span_layer.append(layer_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_item.append(tracer.item)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            tracer.active[layer] += 1
            start = tracer.span_start[span] = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.active[layer] -= 1
                stack.pop()
                duration = end - start
                stat = tracer.stats[layer]
                stat.calls += 1
                stat.inclusive_s += duration
                stat.self_s += duration - frame[1]
                tracer.span_end[span] = end
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                hook_start = clock()
                after(tracer, stat, args, return_value)
                if stack:
                    # the parent's self time excludes the hook as well
                    stack[-1][1] += clock() - hook_start
            return return_value

        traced.__wrapped__ = fn
        return traced

    # -- reading -------------------------------------------------------------

    def stat(self, layer: str) -> LayerStat:
        return self.stats.get(layer, LayerStat())

    def write_spans(self, path) -> None:
        """One tab-separated line per span, times in microseconds from the
        first span's start."""
        if not len(self.span_start):
            origin = 0.0
        else:
            origin = min(self.span_start)
        names = self.layer_names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tlayer\tparent\titem\tstart_us\tend_us\n")
            for k in range(len(self.span_start)):
                fh.write(f"{k}\t{names[self.span_layer[k]]}\t{self.span_parent[k]}\t"
                         f"{self.span_item[k]}\t"
                         f"{(self.span_start[k] - origin) * 1e6:.1f}\t"
                         f"{(self.span_end[k] - origin) * 1e6:.1f}\n")
