"""Golden guard: the report bytes of all eight subcommands stay fixed.

The runs cover the small-call and dense paths (`schmidt`, `branch`,
`chain`), the Monte Carlo inputs of the `trials-mc` benchmark workload
(`overlap`, `zeno-random`, single-history `evolve`), and the deterministic
`zeno`, `worlds` and full-branching `evolve`. `report_bytes.json` holds
the sha256 of the JSON and the CSV report of every run below, with the JSON `version` value masked so that a version
bump alone does not fail the guard. A change that alters any other byte
fails here; if the change is intended (a new RNG stream or report field),
bump `__version__` and regenerate the fixture with

    PYTHONPATH=src python3 tests/test_report_bytes.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from manyworlds import __version__
from manyworlds.cli import parse_config, run_experiment

FIXTURE = Path(__file__).with_name("report_bytes.json")

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
CASES = [f"{run} --seed {seed}" for run in RUNS for seed in SEEDS]


def report_digests(args: str, out_dir: Path) -> dict[str, str]:
    """sha256 of the JSON (version masked) and CSV reports the CLI writes for `args`."""
    digests = {}
    for fmt in ("json", "csv"):
        out = out_dir / f"report.{fmt}"
        run_experiment(parse_config([*args.split(), "--format", fmt, "--out", str(out)]))
        data = out.read_bytes()
        if fmt == "json":
            version = f'\n  "version": {json.dumps(__version__)}\n'.encode()
            assert data.count(version) == 1, "the JSON report must carry the version once"
            data = data.replace(version, b'\n  "version": "*"\n')
        digests[fmt] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("args", CASES)
def test_report_bytes_unchanged(args, golden, tmp_path):
    assert report_digests(args, tmp_path) == golden[args]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {args: report_digests(args, Path(tmp)) for args in CASES}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {FIXTURE}")
