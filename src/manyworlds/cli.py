"""Command-line front end: one subcommand per experiment.

Exit codes: 0 success, 2 invalid configuration, 3 unreadable or unwritable
file, 4 resource cap exceeded or out of memory, 5 numerical self-check
failed (a decomposition or the polarizer chain missed its own tolerance).
Every error prints one `error:` line on stderr. Flags override config-file
values; all validation happens before any computation starts.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from . import __version__
from .branching import BranchTree, interact_and_branch, premeasurement_unitary, run_chain_protocol
from .experiments import (
    DEFAULT_PLANCK_TIME_S,
    DEFAULT_UNIVERSE_AGE_S,
    WorldCountConfig,
    evolution_walk,
    overlap_statistics,
    polarizer_chain,
    random_projection_chain,
    world_count,
)
from .hilbert import (
    BipartiteSplit, CapacityError, _norm, basis_state, haar_random_state, tensor,
)
from .reporting import (
    BranchReport,
    ChainReport,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    SchmidtReport,
    emit_report,
)
from .schmidt import (
    DecompositionError, entanglement_entropy, reconstruct, schmidt_decompose, spectra_gap,
)


class ConfigFileError(Exception):
    """Config file could not be read (exit code 3)."""


_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    name: str
    convert: type
    default: object = _REQUIRED
    minimum: Optional[float] = None
    choices: Optional[tuple[str, ...]] = None
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def validate(self, value) -> None:
        if self.minimum is not None and not value >= self.minimum:
            raise ConfigError(f"{self.name} must be >= {self.minimum}, got {value}")
        if self.choices is not None and value not in self.choices:
            raise ConfigError(
                f"{self.name} must be one of {', '.join(self.choices)}, got {value!r}"
            )


@dataclass(frozen=True)
class Experiment:
    name: str
    params: tuple[Param, ...]
    runner: Callable[[dict, int], object]
    help: str = ""


def _run_schmidt(p: dict, seed: int):
    split = BipartiteSplit(p["d_left"], p["d_right"])
    psi = haar_random_state(split.total, seed)
    dec = schmidt_decompose(psi, split)
    return SchmidtReport(
        d_left=p["d_left"],
        d_right=p["d_right"],
        seed=seed,
        rank=dec.rank,
        lambdas=tuple(dec.lambdas.tolist()),
        entanglement_entropy=entanglement_entropy(dec),
        spectra_gap=spectra_gap(psi, dec),
        reconstruction_error=float(_norm(reconstruct(dec).amplitudes - psi.amplitudes)),
    )


def _run_branch(p: dict, seed: int):
    dim = p["dim"]
    obj = haar_random_state(dim, seed)
    tree = BranchTree(tensor(obj, basis_state(0, dim)))
    children = interact_and_branch(
        tree, tree.root_id, premeasurement_unitary(dim, dim), BipartiteSplit(dim, dim)
    )
    nodes = [tree.node(c) for c in children]
    return BranchReport(
        object_dim=dim,
        seed=seed,
        n_branches=len(nodes),
        weights=tuple(n.weight for n in nodes),
        branch_entropies=tuple(n.relative_entropy for n in nodes),
        total_entropy=tree.ledger.records[-1].total_entropy,
    )


def _run_chain(p: dict, seed: int):
    ledger = run_chain_protocol(p["dim"], p["devices"], amplitudes=None, seed=seed)
    steps = tuple(r.total_entropy for r in ledger)
    return ChainReport(
        object_dim=p["dim"],
        n_devices=p["devices"],
        seed=seed,
        entropy_steps=steps,
        final_entropy=steps[-1],
        leaf_count=len(ledger.records[-1].branch_entropies),
    )


def _run_worlds(p: dict, seed: int):
    return world_count(
        WorldCountConfig(
            universe_age_s=p["universe_age_s"],
            planck_time_s=p["planck_time_s"],
            growth_model=p["model"],
        )
    )


EXPERIMENTS: dict[str, Experiment] = {e.name: e for e in (
    Experiment(
        "schmidt",
        (
            Param("d_left", int, minimum=1, help="left factor dimension"),
            Param("d_right", int, minimum=1, help="right factor dimension"),
        ),
        _run_schmidt,
        help="decompose a seeded random bipartite state",
    ),
    Experiment(
        "branch",
        (Param("dim", int, minimum=2, help="object dimension"),),
        _run_branch,
        help="one premeasurement branching of a seeded random object",
    ),
    Experiment(
        "chain",
        (
            Param("dim", int, minimum=1, help="object dimension"),
            Param("devices", int, default=5, minimum=1, help="number of fresh devices"),
        ),
        _run_chain,
        help="device-chain protocol entropy ledger",
    ),
    Experiment(
        "overlap",
        (
            Param("dim", int, minimum=1, help="Hilbert-space dimension"),
            Param("trials", int, default=100_000, help="Monte Carlo trials"),
        ),
        lambda p, seed: overlap_statistics(p["dim"], p["trials"], seed),
        help="mean squared overlap of random state pairs",
    ),
    Experiment(
        "zeno",
        (Param("k", int, minimum=0, help="intermediate lens count"),),
        lambda p, seed: polarizer_chain(p["k"]),
        help="deterministic polarizer chain transmission",
    ),
    Experiment(
        "zeno-random",
        (
            Param("dim", int, minimum=2, help="Hilbert-space dimension"),
            Param("k", int, minimum=0, help="intermediate projector count"),
            Param("trials", int, default=100_000, help="Monte Carlo trials"),
        ),
        lambda p, seed: random_projection_chain(p["dim"], p["k"], p["trials"], seed),
        help="random projection chain transmission",
    ),
    Experiment(
        "worlds",
        (
            Param("universe_age_s", float, default=DEFAULT_UNIVERSE_AGE_S, minimum=0.0,
                  help="age of the universe in seconds"),
            Param("planck_time_s", float, default=DEFAULT_PLANCK_TIME_S, minimum=0.0,
                  help="elementary time step in seconds"),
            Param("model", str, default="linear", choices=("linear", "exponential"),
                  help="growth model"),
        ),
        _run_worlds,
        help="order-of-magnitude world count",
    ),
    Experiment(
        "evolve",
        (
            Param("depth", int, minimum=0, help="number of mutation steps"),
            Param("mode", str, choices=("single-history", "full-branching"),
                  help="walk mode"),
            Param("trials", int, default=100_000, help="trials (single-history mode)"),
        ),
        lambda p, seed: evolution_walk(p["depth"], p["mode"], seed, p["trials"]),
        help="complexity random walk with reflecting barrier",
    ),
)}


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises ConfigError, so its errors print one line too.

    Subparsers are made with the parser's own class; --help and --version
    still print and exit as usual.
    """

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="manyworlds",
        description="Seeded branching-dynamics experiments with deterministic reports.",
    )
    parser.add_argument("--version", action="version", version=f"manyworlds {__version__}")
    subparsers = parser.add_subparsers(dest="experiment", required=True)
    for exp in EXPERIMENTS.values():
        sub = subparsers.add_parser(exp.name, help=exp.help)
        for param in exp.params:
            kwargs: dict = {"type": param.convert, "default": None, "help": param.help}
            if param.choices is not None:
                kwargs["choices"] = param.choices
            sub.add_argument(param.flag, dest=param.name, **kwargs)
        sub.add_argument("--seed", type=int, default=None, help="64-bit experiment seed")
        sub.add_argument("--format", dest="output_format", default=None,
                         choices=("json", "csv"), help="output format")
        sub.add_argument("--out", dest="output_path", default=None,
                         help="output file (default: stdout)")
        sub.add_argument("--config", dest="config_file", default=None,
                         help="key=value config file; flags take precedence")
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _convert(param: Param, text: str):
    try:
        return param.convert(text)
    except ValueError:
        raise ConfigError(
            f"{param.name} expects {param.convert.__name__}, got {text!r}"
        ) from None


def parse_config(argv=None) -> ExperimentConfig:
    """Parse argv (and an optional config file) into a validated config."""
    args = build_parser().parse_args(argv)
    exp = EXPERIMENTS[args.experiment]

    file_values = _load_config_file(args.config_file) if args.config_file else {}
    known_keys = {p.name for p in exp.params} | {"seed", "format", "out", "experiment"}
    unknown = sorted(set(file_values) - known_keys)
    if unknown:
        raise ConfigError(
            f"unknown config keys for experiment {exp.name!r}: {', '.join(unknown)}"
        )
    if file_values.get("experiment", exp.name) != exp.name:
        raise ConfigError(
            f"config file names experiment {file_values['experiment']!r}, "
            f"but {exp.name!r} was requested"
        )

    parameters: dict = {}
    for param in exp.params:
        flag_value = getattr(args, param.name)
        if flag_value is not None:
            value = flag_value
        elif param.name in file_values:
            value = _convert(param, file_values[param.name])
        elif param.default is not _REQUIRED:
            value = param.default
        else:
            raise ConfigError(f"missing required parameter {param.flag} for {exp.name}")
        param.validate(value)
        parameters[param.name] = value

    if args.seed is not None:
        seed = args.seed
    elif "seed" in file_values:
        seed = _convert(Param("seed", int), file_values["seed"])
    else:
        seed = 0

    output_format = args.output_format or file_values.get("format", "json")
    output_path = args.output_path or file_values.get("out") or None

    return ExperimentConfig(
        experiment=exp.name,
        parameters=parameters,
        seed=seed,
        output_format=output_format,
        output_path=output_path,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run exactly one experiment and write its serialized report."""
    exp = EXPERIMENTS.get(config.experiment)
    if exp is None:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    started = time.perf_counter()
    payload = exp.runner(config.parameters, config.seed)
    report = ExperimentReport(
        config=config,
        version=__version__,
        result=payload,
        wall_time_s=time.perf_counter() - started,
    )
    data = emit_report(report, config.output_format)
    if config.output_path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(config.output_path).write_bytes(data)
    return report


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except SystemExit as exc:  # --help or --version has printed its text
        return exc.code
    except ConfigFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_experiment(config)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4
    except (DecompositionError, ArithmeticError) as exc:
        print(f"error: numerical self-check failed: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    destination = config.output_path or "stdout"
    print(
        f"{config.experiment}: wrote {destination} ({report.wall_time_s:.3f} s)",
        file=sys.stderr,
    )
    return 0


def entrypoint() -> None:
    sys.exit(main())
