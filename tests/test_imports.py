"""Each CLI process loads only the layers its subcommand runs.

The package exports its names lazily and `cli` reaches every numeric layer
through the package on first use, so a Monte Carlo subcommand never loads
the Schmidt stack, a Schmidt or branching subcommand never loads the
experiment drivers, and `zeno`, `worlds`, `--version` and `--help` load no
numpy at all.
"""

import importlib
import json
import subprocess
import sys

import pytest

import manyworlds
from conftest import child_env
from manyworlds import contracts, deterministic, experiments, hilbert, schmidt

# Runs the CLI, then prints the manyworlds modules and whether numpy is loaded
# as the last line of stdout.
CHILD = """
import json, sys
from manyworlds import cli
code = cli.main(sys.argv[1:])
print("\\n" + json.dumps({
    "code": code,
    "layers": sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("manyworlds.")),
    "numpy": "numpy" in sys.modules,
    "codegen": [m for m in ("dataclasses", "inspect") if m in sys.modules],
}))
"""


def loaded(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, *args], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return result


FRONT_END = {"cli", "contracts", "deterministic", "reporting"}

MONTE_CARLO = {"experiments", "rng"}
SCHMIDT = {"hilbert", "rng", "schmidt"}
BRANCHING = SCHMIDT | {"branching"}

# subcommand run -> the manyworlds modules it loads and whether it loads numpy
# (README, "Start-up")
LOADS = {
    "overlap": (["overlap", "--dim", "8", "--trials", "100"], MONTE_CARLO, True),
    "zeno-random": (["zeno-random", "--dim", "8", "--k", "2", "--trials", "100"],
                    MONTE_CARLO, True),
    "evolve": (["evolve", "--depth", "6", "--mode", "single-history", "--trials", "100"],
               MONTE_CARLO, True),
    # The full-branching walk is pure integer arithmetic, but it shares
    # `evolution_walk` with the Monte Carlo walk. BENCHMARK.json declares the
    # per-layer metric `experiments.evolution_walk.self_s`, and the harness
    # fails on a declared name it cannot find, so the walk stays in
    # `experiments` and this case still loads numpy.
    "evolve-full": (["evolve", "--depth", "6", "--mode", "full-branching"],
                    MONTE_CARLO, True),
    "zeno": (["zeno", "--k", "3"], set(), False),
    "worlds": (["worlds"], set(), False),
    "schmidt": (["schmidt", "--d-left", "2", "--d-right", "3"], SCHMIDT, True),
    "branch": (["branch", "--dim", "3"], BRANCHING, True),
    "chain": (["chain", "--dim", "2", "--devices", "3"], BRANCHING, True),
}


@pytest.mark.parametrize("case", LOADS)
def test_each_subcommand_loads_only_its_layers(tmp_path, case):
    args, layers, numpy = LOADS[case]
    result = loaded(args + ["--out", str(tmp_path / "report.json")])
    assert set(result["layers"]) == FRONT_END | layers
    assert result["numpy"] is numpy


@pytest.mark.parametrize("args", [["--version"], ["--help"], ["zeno", "--help"]])
def test_version_and_help_load_no_numpy(args):
    result = loaded(args)
    assert set(result["layers"]) == FRONT_END
    assert not result["numpy"]


@pytest.mark.parametrize("args", [["--version"], ["--help"], ["zeno", "--k", "3"], ["worlds"]])
def test_front_end_defines_its_classes_without_code_generation(tmp_path, args):
    # the value classes are plain __slots__ classes; a dataclass loads both
    # modules and execs generated methods at import
    out = [] if args[0].startswith("-") else ["--out", str(tmp_path / "report.json")]
    assert loaded(args + out)["codegen"] == []


def test_reports_load_no_json(tmp_path):
    # a report's strings need no escaping, and reporting imports json only for one
    # that does; json alone would cost a few ms a process
    child = ("import sys\nfrom manyworlds import cli\n"
             "print(cli.main(sys.argv[1:]), 'json' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", child, "zeno", "--k", "3",
                           "--out", str(tmp_path / "report.json")],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


@pytest.mark.parametrize("name", [n for n in manyworlds.__all__ if n != "__version__"])
def test_every_export_is_its_layers_object(name):
    exported = getattr(manyworlds, name)
    # a class or function is compared with the module that defines it
    owner = getattr(exported, "__module__", f"manyworlds.{manyworlds._MODULE_OF[name]}")
    assert exported is getattr(importlib.import_module(owner), name)
    assert vars(manyworlds)[name] is exported  # bound once, looked up directly after


def test_moved_names_keep_their_identity():
    assert manyworlds.CapacityError is contracts.CapacityError
    assert experiments.CapacityError is deterministic.CapacityError is contracts.CapacityError
    assert experiments.ZenoReport is deterministic.ZenoReport is manyworlds.ZenoReport
    assert hilbert.ShapeError is manyworlds.ShapeError is contracts.ShapeError
    assert schmidt.DecompositionError is manyworlds.DecompositionError
    assert manyworlds.DIM_CAP == contracts.DIM_CAP == 2**14
    assert hilbert._check_dims is experiments._check_dims is contracts._check_dims


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        manyworlds.frobnicate  # noqa: B018
