"""The names BENCHMARK.json declares per layer still exist in the package.

`bench/run.py --trace 1` wraps every public function of each layer and the
validating constructors of `UnitaryOperator` and `DensityMatrix`, and it
raises KeyError at the end of a run for a declared metric whose function is
gone. This checks the same rule up front.
"""

import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

LAYERS = ("hilbert", "schmidt", "branching", "experiments", "rng", "reporting", "cli")
CONSTRUCTORS = {"hilbert.UnitaryOperator", "hilbert.DensityMatrix"}
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_names() -> set[str]:
    names = set(CONSTRUCTORS) | set(LAYERS) | {"trace"}
    for layer in LAYERS:
        module = importlib.import_module(f"manyworlds.{layer}")
        names.update(
            f"{layer}.{attr}" for attr, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not attr.startswith("_")
        )
    return names


DECLARED = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]


@pytest.mark.parametrize("metric", DECLARED)
def test_per_layer_metric_names_a_traced_function_or_layer(metric):
    assert metric.rsplit(".", 1)[0] in traced_names()


# A valid argument list per traced constructor, and the dim it declares
CONSTRUCTOR_ARGS = {
    "hilbert.UnitaryOperator": (np.eye(2), 4),
    "hilbert.DensityMatrix": (np.eye(2) / 2, 2),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructor_calls_its_post_init_after_setting_dim(monkeypatch, name):
    # tracing.py rebinds cls.__post_init__ and its counter reads args[0].dim
    layer, cls_name = name.split(".")
    cls = getattr(importlib.import_module(f"manyworlds.{layer}"), cls_name)
    original, seen = cls.__post_init__, []

    def spy(self):
        seen.append(self.dim)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", spy)
    args = CONSTRUCTOR_ARGS[name]
    cls(*args)
    assert seen == [args[1]]
