"""Golden guard: the report bytes of all eight subcommands stay fixed.

The runs cover the small-call and dense paths (`schmidt`, `branch`,
`chain`), the Monte Carlo inputs of the `trials-mc` benchmark workload
(`overlap`, `zeno-random`, single-history `evolve`), and the deterministic
`zeno`, `worlds` and full-branching `evolve`. `report_bytes.json` holds
the sha256 of the JSON and the CSV report of every run below, with the
JSON `version` value masked so that a version bump alone does not fail the
guard. A change that alters any other byte fails here; if the change is
intended (a new RNG stream, report field or numerical method), bump
`__version__` and regenerate the fixture with

    PYTHONPATH=src python3 tests/test_report_bytes.py

which prints every case whose digests differ from the fixture it
overwrites. It refuses, writing nothing and exiting 1, when digests moved
but `__version__` still equals the version the old fixture was made with.
The fixture also records, under BUILT_WITH, the tool version it was made
with, which must equal `__version__`, the numpy version, the OpenBLAS
build configuration numpy reports, the core OpenBLAS picked at run time
and the CPU features numpy dispatches its loops to: the
`schmidt`, `branch` and `chain` bytes depend on that core and the Monte
Carlo bytes on that dispatch, so a failing case prints the recorded values
next to the current ones. `zeno` and `worlds` load no numpy, and their
bytes must not depend on the BLAS at all.
"""

import ctypes
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env
from manyworlds import __version__
from manyworlds.cli import EXPERIMENTS, parse_config, run_experiment

FIXTURE = Path(__file__).with_name("report_bytes.json")
BUILT_WITH = "_built_with"  # fixture key of the build record; not a case

SCHMIDT_SPLITS = ((2, 2), (2, 8), (4, 4), (4, 6), (8, 8), (16, 16), (8, 32))
BRANCH_DIMS = (*range(2, 17), 64)
SEEDS = (0, 1, 2**63 - 1)

RUNS = [
    *(f"schmidt --d-left {a} --d-right {b}" for a, b in SCHMIDT_SPLITS),
    *(f"branch --dim {d}" for d in BRANCH_DIMS),
    "chain --dim 2 --devices 9",
    "overlap --dim 64 --trials 25000",
    "zeno-random --dim 64 --k 4 --trials 15000",
    "evolve --depth 10 --mode single-history --trials 25000",
    *(f"zeno --k {k}" for k in (0, 1, 7, 1000)),
    *(f"worlds --model {model}" for model in ("linear", "exponential")),
    *(f"evolve --depth {depth} --mode full-branching" for depth in (0, 40, 333)),
]
# Runs whose bytes change under NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR", the dispatch of an AVX2-only x86 machine: on an AVX-512 host
# the inverse CDF runs numpy's AVX-512 loops, which round differently.
DISPATCH_CASES = [
    "overlap --dim 64 --trials 1000 --seed 6",
    "zeno-random --dim 64 --k 4 --trials 1000 --seed 4",
]
CASES = [f"{run} --seed {seed}" for run in RUNS for seed in SEEDS] + DISPATCH_CASES


def build_info() -> dict[str, str]:
    """The tool and numpy versions, numpy's OpenBLAS configuration, the BLAS core and CPU dispatch."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    # the optimized loop sets numpy was built with that this CPU runs and none disables
    features = getattr(_multiarray_umath, "__cpu_features__", {})
    dispatch = [t for t in getattr(_multiarray_umath, "__cpu_dispatch__", ()) if features.get(t)]
    # numpy's bundled OpenBLAS; the extension's handle reaches its symbols
    corename = getattr(ctypes.CDLL(_multiarray_umath.__file__),
                       "scipy_openblas_get_corename64_", None)
    if corename is not None:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
    return {
        "manyworlds": __version__,
        "numpy": np.__version__,
        "openblas_config": blas.get("openblas configuration", "unknown"),
        "openblas_core": corename().decode() if corename is not None else "unknown",
        "cpu_dispatch": " ".join(dispatch),
    }


def report_digest(fmt: str, data: bytes) -> str:
    """sha256 of one report, with the JSON version value masked."""
    if fmt == "json":
        version = f'\n  "version": {json.dumps(__version__)}\n'.encode()
        assert data.count(version) == 1, "the JSON report must carry the version once"
        data = data.replace(version, b'\n  "version": "*"\n')
    return hashlib.sha256(data).hexdigest()


def report_digests(args: str, out_dir: Path) -> dict[str, str]:
    """sha256 of the JSON and CSV reports the CLI writes for `args`."""
    digests = {}
    for fmt in ("json", "csv"):
        out = out_dir / f"report.{fmt}"
        run_experiment(parse_config([*args.split(), "--format", fmt, "--out", str(out)]))
        digests[fmt] = report_digest(fmt, out.read_bytes())
    return digests


def changed_cases(table: dict, old: dict) -> list[str]:
    """The cases whose digests in `table` differ from those of the `old` fixture."""
    return [args for args in CASES if table[args] != old.get(args)]


def needs_version_bump(changed: list[str], old: dict) -> bool:
    """Whether digests moved while `__version__` is still the old fixture's version."""
    return bool(changed) and old.get(BUILT_WITH, {}).get("manyworlds") == __version__


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(case for case in golden if case != BUILT_WITH) == sorted(CASES)


def test_fixture_made_with_this_version(golden):
    # a change that moves report bytes bumps the version and regenerates the fixture together
    assert golden[BUILT_WITH]["manyworlds"] == __version__


def test_moved_digests_need_a_version_bump():
    table = {args: {"json": "j", "csv": "c"} for args in CASES}
    moved = {**table, CASES[0]: {"json": "j2", "csv": "c"}}
    same, older = {"manyworlds": __version__}, {"manyworlds": "0.0.0"}
    assert changed_cases(table, {**table, BUILT_WITH: same}) == []
    assert changed_cases(moved, {**table, BUILT_WITH: same}) == [CASES[0]]
    assert needs_version_bump([CASES[0]], {**table, BUILT_WITH: same})
    assert not needs_version_bump([CASES[0]], {**table, BUILT_WITH: older})
    assert not needs_version_bump([], {**table, BUILT_WITH: same})  # a rebuild that moves nothing
    assert not needs_version_bump(CASES, {})  # no fixture yet


@pytest.mark.parametrize("args", CASES)
def test_report_bytes_unchanged(args, golden, tmp_path):
    assert report_digests(args, tmp_path) == golden[args], (
        f"fixture made with {golden.get(BUILT_WITH)}, this run has {build_info()}")


# The first case of each subcommand, run as `python -m manyworlds` with its JSON
# report read from the stdout pipe rather than written by run_experiment in-process.
PROCESS_CASES = [next(case for case in CASES if case.split()[0] == name) for name in EXPERIMENTS]


@pytest.mark.parametrize("args", PROCESS_CASES)
def test_report_bytes_through_the_process(args, golden):
    proc = subprocess.run([sys.executable, "-m", "manyworlds", *args.split()], env=child_env(),
                          check=True, capture_output=True, timeout=120)
    assert report_digest("json", proc.stdout) == golden[args]["json"], (
        f"fixture made with {golden.get(BUILT_WITH)}, this run has {build_info()}")


# Variables set on the child processes only; OpenBLAS reads them when it loads.
BLAS_ENVS = {
    "default": {},
    "haswell-core": {"OPENBLAS_CORETYPE": "Haswell"},
    "two-threads": {"OPENBLAS_NUM_THREADS": "2"},
}


@pytest.mark.parametrize("env", BLAS_ENVS)
@pytest.mark.parametrize("args", ["zeno --k 1000 --seed 0", "worlds --model exponential --seed 0"])
def test_closed_forms_do_not_depend_on_the_blas(args, env, golden, tmp_path):
    digests = {}
    for fmt in ("json", "csv"):
        out = tmp_path / f"report.{fmt}"
        subprocess.run([sys.executable, "-m", "manyworlds", *args.split(), "--format", fmt,
                        "--out", str(out)], env=child_env(**BLAS_ENVS[env]), check=True,
                       capture_output=True, timeout=120)
        digests[fmt] = report_digest(fmt, out.read_bytes())
    assert digests == golden[args], f"fixture made with {golden.get(BUILT_WITH)}"


def test_cli_pins_one_blas_thread(tmp_path):
    # above 64x64 the SVD's bits depend on the thread count; the CLI overrides it
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.json"
        subprocess.run([sys.executable, "-m", "manyworlds", "schmidt", "--d-left", "64",
                        "--d-right", "128", "--seed", "3", "--out", str(out)],
                       env=child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
                       check=True, capture_output=True, timeout=120)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {args: report_digests(args, Path(tmp)) for args in CASES}
    old = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    changed = changed_cases(table, old)
    for args in changed:
        print(f"changed: {args}")
    if needs_version_bump(changed, old):
        sys.exit(f"the fixture was made with version {__version__}; bump __version__ "
                 f"before moving report bytes. {FIXTURE} is unchanged")
    table[BUILT_WITH] = build_info()
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} cases and the build record to {FIXTURE}")
