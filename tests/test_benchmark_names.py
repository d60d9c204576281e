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
