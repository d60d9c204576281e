"""What the benchmark reads of the package still exists.

`bench/run.py --trace 1` wraps every public function of each layer and the
validating constructors of `UnitaryOperator` and `DensityMatrix`, and it
raises KeyError at the end of a run for a declared metric whose function is
gone. This checks the same rule up front. `bench/checks.py` reads fields of
each report it checks, and counts an operation whose report lacks one as
failed; one small run of each checked subcommand must pass its check here.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

LAYERS = ("hilbert", "schmidt", "branching", "experiments", "rng", "reporting", "cli")
CONSTRUCTORS = {"hilbert.UnitaryOperator", "hilbert.DensityMatrix"}
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
CHECKS = BENCHMARK.with_name("bench") / "checks.py"


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


# One small operation per subcommand bench/checks.py checks, as bench/run.py builds it
CHECKED_OPS = {
    "schmidt": {"d_left": 4, "d_right": 6},
    "branch": {"dim": 3},
    "chain": {"dim": 2, "devices": 3},
    "overlap": {"dim": 8, "trials": 2000},
    "zeno-random": {"dim": 8, "k": 2, "trials": 1000},
    "evolve": {"depth": 10, "mode": "single-history", "trials": 2000},
}


def _bench_checks(monkeypatch):
    """bench/checks.py loaded by path, as a module of its own, leaving bench/ as it is."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_checked_subcommand_has_an_op(monkeypatch):
    assert set(_bench_checks(monkeypatch)._CHECKS) == set(CHECKED_OPS)


@pytest.mark.parametrize("experiment", CHECKED_OPS)
def test_report_passes_the_benchmark_check(monkeypatch, tmp_path, experiment):
    from manyworlds.cli import run_experiment
    from manyworlds.reporting import ExperimentConfig

    op = {"experiment": experiment, "parameters": CHECKED_OPS[experiment], "seed": 3}
    out = tmp_path / "report.json"
    run_experiment(ExperimentConfig(experiment, op["parameters"], op["seed"],
                                    output_path=str(out)))
    assert _bench_checks(monkeypatch).check_report(op, out.read_text(encoding="utf-8")) is None
