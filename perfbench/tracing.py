"""In-memory span tracer for the esdsim layers.

`Tracer.install` wraps every public function of each layer module at every
``esdsim.*`` module binding (the package imports with ``from .x import y``,
so one module's function is reachable under several module attributes).  A
span records its function, start, end and parent span; spans stay in
compact arrays until `aggregate` turns them into per-layer counts and self
times, and `dump` writes them out.

Self time is a span's duration minus the time covered by its direct child
spans.  Calls are single-threaded and nested, so direct children never
overlap and their durations can simply be summed.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("fock", "states", "optics", "discrimination", "protocols", "keyrate", "cli")

# Layers whose spans also count the sparse terms of their input and result.
_TERM_LAYERS = frozenset({"fock", "optics"})


def _num_terms(value) -> int:
    counter = getattr(value, "num_terms", None)
    return counter() if callable(counter) else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "<layer>.<function>", indexed by name id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.terms_in: dict[str, int] = {}  # per layer
        self.terms_out: dict[str, int] = {}
        self._stack = [-1]

    def install(self) -> None:
        """Replace each layer's public functions with traced wrappers."""
        packages = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "esdsim"}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = packages.get(f"esdsim.{layer}")
            if module is None:  # a layer removed at a later commit reads as zero calls
                continue
            for attr, fn in vars(module).items():
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(layer, f"{layer}.{attr}", fn)
        for module in packages.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap(self, layer: str, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        count_terms = layer in _TERM_LAYERS
        stack = self._stack
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count_terms:
                if args:
                    self.terms_in[layer] = self.terms_in.get(layer, 0) + _num_terms(args[0])
                self.terms_out[layer] = self.terms_out.get(layer, 0) + _num_terms(result)
            return result

        return traced

    def aggregate(self) -> dict[str, float]:
        """Per-function and per-layer calls and self times, plus term counts
        per layer: keys ``<layer>[.<function>].calls|self_s`` and
        ``<layer>.terms_in|terms_out``."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_time = duration - covered
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for i, full in enumerate(self.names):
            layer = full.split(".")[0]
            out[f"{full}.calls"] = int(calls[i])
            out[f"{full}.self_s"] = float(self_s[i])
            out[f"{layer}.calls"] += int(calls[i])
            out[f"{layer}.self_s"] += float(self_s[i])
        out.update({f"{layer}.terms_in": n for layer, n in self.terms_in.items()})
        out.update({f"{layer}.terms_out": n for layer, n in self.terms_out.items()})
        return out

    def dump(self, path: str) -> None:
        """Write every span as parallel arrays: name id, parent index (-1 for
        a root), start and end in seconds on the perf_counter clock."""
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
