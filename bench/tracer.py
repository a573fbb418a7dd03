"""Out-of-process-boundary tracing: wrap liedeform's public callables in place.

Every binding of a public liedeform function (in every liedeform module
namespace that holds it, so that callers which look the name up at call time
hit the wrapper), the ``__init__`` and public methods of liedeform's public
classes, the public ``numpy.linalg`` functions and ``scipy.linalg.polar`` /
``expm`` (in ``scipy.linalg`` and wherever a liedeform module binds them) are
replaced by wrappers that record one span per call.  ``install`` imports every
liedeform module and ``scipy.linalg`` first, so the set of wrapped names does
not depend on what a workload happened to import.  Nothing under ``src/`` is
edited; ``uninstall`` puts every original back.

A span is ``(id, parent_id, name, op, t0, t1, self, raised)``.  Self time is
the span's duration minus the durations of its direct children.  Spans stay
in memory until ``write_spans`` is called at the end of a run.
"""
from __future__ import annotations

import importlib
import json
import time
import types

import numpy as np

LIEDEFORM_MODULES = ("liedeform", "liedeform.algebra", "liedeform.cohomology",
                     "liedeform.phase_space", "liedeform.symmetry",
                     "liedeform.dynamics", "liedeform.cli", "liedeform.errors")

#: the scipy.linalg functions liedeform calls
SCIPY_FUNCTIONS = ("polar", "expm")


def layer_of(name: str) -> str:
    """Layer of a span name: the liedeform module, or numpy/scipy for linalg."""
    return name.split(".", 1)[0]


def is_linalg(name: str) -> bool:
    return name.startswith(("numpy.linalg.", "scipy.linalg."))


class Tracer:
    """Records nested spans while ``active``; inert (pass-through) otherwise."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []            # finished spans, in finishing order
        self._stack = []           # [span id, name, t0, child time]
        self._next_id = 0
        self._patches = []         # (owner, attribute, original)
        self.names = set()         # span names of every wrapped callable

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        self.names.add(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, name, time.perf_counter(), 0.0]
            stack.append(frame)
            raised = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - frame[2]
                if stack:
                    stack[-1][3] += dur
                tracer.spans.append((sid, parent, name, tracer.op, frame[2], t1,
                                     dur - frame[3], raised))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public liedeform callable, numpy.linalg and polar/expm."""
        modules = [importlib.import_module(m) for m in LIEDEFORM_MODULES]
        wrappers = {}   # id(original) -> wrapper, shared by all bindings
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not str(getattr(obj, "__module__", "")).startswith("liedeform"):
                    continue
                if isinstance(obj, types.FunctionType):
                    if id(obj) not in wrappers:
                        short = obj.__module__.rsplit(".", 1)[-1]
                        wrappers[id(obj)] = self._wrap(obj, f"{short}.{obj.__qualname__}")
                    self._patch(module, attr, wrappers[id(obj)])
                elif isinstance(obj, type) and not issubclass(obj, BaseException) \
                        and id(obj) not in wrappers:
                    wrappers[id(obj)] = obj
                    self._wrap_class(obj)
        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                self._patch(np.linalg, name, self._wrap(fn, f"numpy.linalg.{name}"))
        scipy_linalg = importlib.import_module("scipy.linalg")
        for name in SCIPY_FUNCTIONS:
            fn = getattr(scipy_linalg, name)
            wrapper = self._wrap(fn, f"scipy.linalg.{name}")
            for owner in (scipy_linalg, *modules):
                for attr, obj in list(vars(owner).items()):
                    if obj is fn:
                        self._patch(owner, attr, wrapper)

    def _wrap_class(self, cls):
        short = cls.__module__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__":
                name = f"{short}.{cls.__qualname__}"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{short}.{cls.__qualname__}.{attr}"
            if isinstance(obj, types.FunctionType):
                self._patch(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._wrap(obj.__func__, name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """name -> {"calls", "self_s", "raised"} over every recorded span."""
        out = {}
        for _, _, name, _, _, _, self_s, raised in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "raised": 0})
            row["calls"] += 1
            row["self_s"] += self_s
            row["raised"] += raised
        return out

    def linalg_calls_by_parent_layer(self, ops=None) -> dict:
        """Count linalg spans by the layer of the innermost enclosing span.

        ``ops`` restricts the count to spans recorded under those op indices.
        """
        names = {sid: name for sid, _, name, *_ in self.spans}
        counts = {}
        for _, parent, name, op, *_ in self.spans:
            if not is_linalg(name) or (ops is not None and op not in ops):
                continue
            layer = layer_of(names[parent]) if parent >= 0 else "bench"
            counts[layer] = counts.get(layer, 0) + 1
        return counts

    def write_spans(self, path):
        """One JSON array per line: id, parent, name, op, t0_us, dur_us, self_us, raised."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, name, op, t0, t1, self_s, raised in self.spans:
                fh.write(json.dumps([sid, parent, name, op,
                                     round((t0 - origin) * 1e6, 3),
                                     round((t1 - t0) * 1e6, 3),
                                     round(self_s * 1e6, 3), raised]) + "\n")
