"""Each CLI process loads only the layers its subcommand runs.

The package exports its names lazily and `cli` reaches every numeric layer
through the package on first use, so a Monte Carlo subcommand never loads
the Schmidt stack, a Schmidt or branching subcommand never loads the
experiment drivers, and `--version` or `--help` loads no numpy at all.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import manyworlds
from manyworlds import contracts, experiments, hilbert, schmidt

SRC = Path(__file__).resolve().parents[1] / "src"

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
}))
"""


def loaded(args: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return result


FRONT_END = {"cli", "contracts", "reporting"}

# subcommand run -> the manyworlds modules it loads (README, "Start-up")
LOADS = {
    "overlap": (["overlap", "--dim", "8", "--trials", "100"], {"experiments", "rng"}),
    "zeno-random": (["zeno-random", "--dim", "8", "--k", "2", "--trials", "100"],
                    {"experiments", "rng"}),
    "evolve": (["evolve", "--depth", "6", "--mode", "single-history", "--trials", "100"],
               {"experiments", "rng"}),
    "evolve-full": (["evolve", "--depth", "6", "--mode", "full-branching"],
                    {"experiments", "rng"}),
    "zeno": (["zeno", "--k", "3"], {"experiments", "rng"}),
    "worlds": (["worlds"], {"experiments", "rng"}),
    "schmidt": (["schmidt", "--d-left", "2", "--d-right", "3"], {"hilbert", "rng", "schmidt"}),
    "branch": (["branch", "--dim", "3"], {"hilbert", "rng", "schmidt", "branching"}),
    "chain": (["chain", "--dim", "2", "--devices", "3"],
              {"hilbert", "rng", "schmidt", "branching"}),
}


@pytest.mark.parametrize("case", LOADS)
def test_each_subcommand_loads_only_its_layers(tmp_path, case):
    args, layers = LOADS[case]
    result = loaded(args + ["--out", str(tmp_path / "report.json")])
    assert set(result["layers"]) == FRONT_END | layers
    assert result["numpy"]


@pytest.mark.parametrize("args", [["--version"], ["--help"], ["zeno", "--help"]])
def test_version_and_help_load_no_numpy(args):
    result = loaded(args)
    assert set(result["layers"]) == FRONT_END
    assert not result["numpy"]


@pytest.mark.parametrize("name", [n for n in manyworlds.__all__ if n != "__version__"])
def test_every_export_is_its_layers_object(name):
    exported = getattr(manyworlds, name)
    # a class or function is compared with the module that defines it
    owner = getattr(exported, "__module__", f"manyworlds.{manyworlds._MODULE_OF[name]}")
    assert exported is getattr(importlib.import_module(owner), name)
    assert vars(manyworlds)[name] is exported  # bound once, looked up directly after


def test_moved_names_keep_their_identity():
    assert hilbert.CapacityError is manyworlds.CapacityError is contracts.CapacityError
    assert experiments.CapacityError is contracts.CapacityError
    assert hilbert.ShapeError is manyworlds.ShapeError is contracts.ShapeError
    assert schmidt.DecompositionError is manyworlds.DecompositionError
    assert hilbert.DIM_CAP == manyworlds.DIM_CAP == contracts.DIM_CAP == 2**14
    assert hilbert._check_dims is experiments._check_dims is contracts._check_dims


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        manyworlds.frobnicate  # noqa: B018
