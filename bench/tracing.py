"""Outside-in tracing of the manyworlds layers.

Wraps every public function of each layer module, and the validating
constructors of `UnitaryOperator` and `DensityMatrix`, by rebinding the
names in every manyworlds module that holds them. Nothing in the package
changes. Each wrapped call records one span in memory; `Tracer.dump`
writes them out once, when the traced process ends.

A span is `[name, start, end, parent, op, counts]`: `parent` is the index
of the span that caused it (-1 at the top), `op` identifies the operation
the span belongs to, and `counts` holds the computed counts of the call
(or None).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np
from manyworlds.hilbert import DEGENERACY_GAP

LAYERS = ("hilbert", "schmidt", "branching", "experiments", "rng", "reporting", "cli")
CONSTRUCTORS = ("hilbert.UnitaryOperator", "hilbert.DensityMatrix")


def _eig_counts(args, result):
    values = result[0]
    linked = (values[:-1] - values[1:]) < DEGENERACY_GAP
    in_cluster = np.zeros(values.size, dtype=bool)
    in_cluster[:-1] |= linked
    in_cluster[1:] |= linked
    return {"flop_est": values.size**3, "degenerate_cols": int(in_cluster.sum())}


# Counts computed from a call's arguments and result, not measured.
COUNTERS = {
    "hilbert.eig_hermitian": _eig_counts,
    "hilbert.UnitaryOperator": lambda args, result: {"bytes": args[0].dim ** 2 * 16},
    "branching.interact_and_branch": lambda args, result: {"branches": len(result)},
    "reporting.emit_report": lambda args, result: {"bytes": len(result)},
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.wrapped: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
            return result

        self.wrapped.append(name)
        return traced

    def install(self) -> "Tracer":
        """Wrap the layers' public functions wherever the package binds them."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"manyworlds.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    replacements[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name in CONSTRUCTORS:
            layer, cls_name = name.split(".")
            cls = getattr(importlib.import_module(f"manyworlds.{layer}"), cls_name)
            cls.__post_init__ = self.wrap(name, cls.__post_init__)
        for module_name, module in list(sys.modules.items()):
            if module_name == "manyworlds" or module_name.startswith("manyworlds."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replacements:
                        setattr(module, attr, replacements[obj])
        return self

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"wrapped": self.wrapped, "spans": self.spans}, fh)
