"""Tracing of nmcode calls from outside the package.

`Tracer.install` wraps each function of the layer map and rebinds the
wrapper in every module namespace that bound the original (nmext, for
example, imports `min_copy_distance_m1` by name), or on the class for
methods. `Tracer.uninstall` puts the originals back.

Stage boundaries (SPAN layers) keep one span per call: name, start, end,
parent span and the time covered by its children. Per-op layers (OP) keep
only aggregates per (function, parent, label): calls, total time, child
time and, for generators, yields. Self time is total time minus child time,
so the self times of all wrapped calls never add up to more than the wall
time of the traced region.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

from layers import ARG_COUNTERS, SPAN, Layer

ROOT = "<root>"


class Tracer:
    def __init__(self, layers: Iterable[Layer]):
        self.layers = tuple(layers)
        self.label: Optional[str] = None  # verdict kind, set by the caller
        # A frame is [name, child time, index of the enclosing span or -1].
        self._stack: List[list] = [[ROOT, 0.0, -1]]
        self._agg: Dict[Tuple[str, str, Optional[str]], list] = {}
        self.spans: List[Optional[tuple]] = []
        self.counters: Dict[str, int] = {}
        self._restore: List[Tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "nmcode" or n.startswith("nmcode.")]
        for layer in self.layers:
            module = importlib.import_module(f"nmcode.{layer.module}")
            if "." in layer.qualname:
                cls_name, attr = layer.qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__))
                else:
                    wrapped = self._wrap(layer, raw)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, layer.qualname)
            wrapped = self._wrap(layer, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, attr, original))
                        setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: Layer, fn):
        name = layer.name
        counter = ARG_COUNTERS.get(name)
        if counter is not None:
            fn = self._counting(fn, *counter)
        if inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(name, fn)
        elif layer.kind == SPAN:
            wrapper = self._wrap_span(name, fn)
        else:
            wrapper = self._wrap_op(name, fn)
        return functools.update_wrapper(wrapper, fn)

    def _counting(self, fn, counter_name, count):
        signature = inspect.signature(fn)
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counters[counter_name] = counters.get(counter_name, 0) + count(bound.arguments)
            return fn(*args, **kwargs)

        return counted

    def _record(self, name: str, parent: list, frame: list, dt: float, yields: int = 0):
        key = (name, parent[0], self.label)
        rec = self._agg.get(key)
        if rec is None:
            rec = self._agg[key] = [0, 0.0, 0.0, 0]
        rec[1] += dt
        rec[2] += frame[1]
        rec[3] += yields
        return rec

    def _wrap_op(self, name: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, parent[2]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                self._record(name, parent, frame, dt)[0] += 1

        return wrapper

    def _wrap_span(self, name: str, fn):
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            frame = [name, 0.0, index]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                parent[1] += t1 - t0
                spans[index] = (name, t0, t1, parent[2], frame[1], self.label)

        return wrapper

    def _wrap_generator(self, name: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            self._record(name, stack[-1], [name, 0.0], 0.0)[0] += 1
            try:
                while True:
                    parent = stack[-1]
                    frame = [name, 0.0, parent[2]]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        stack.pop()
                        parent[1] += dt
                        rec = self._record(name, parent, frame, dt)
                    rec[3] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    # -- results -------------------------------------------------------------

    def calls(self, name: str, parent: Optional[str] = None, label: Optional[str] = None) -> int:
        """Calls of `name`, optionally only under `parent` or with `label`."""
        total = sum(
            rec[0] for (n, p, lab), rec in self._agg.items()
            if n == name and parent in (None, p) and label in (None, lab)
        )
        total += sum(
            1 for span in self.spans
            if span is not None and span[0] == name and label in (None, span[5])
            and (parent is None or self._span_parent_name(span) == parent)
        )
        return total

    def _span_parent_name(self, span: tuple) -> str:
        return ROOT if span[3] < 0 else self.spans[span[3]][0]

    def yields(self, name: str, label: Optional[str] = None) -> int:
        return sum(
            rec[3] for (n, _, lab), rec in self._agg.items()
            if n == name and label in (None, lab)
        )

    def self_times(self) -> Dict[str, float]:
        """Seconds spent in each function outside its wrapped callees."""
        out = {layer.name: 0.0 for layer in self.layers}
        for (name, _, _), rec in self._agg.items():
            out[name] += rec[1] - rec[2]
        for span in self.spans:
            if span is not None:
                out[span[0]] += span[2] - span[1] - span[4]
        return out
