"""Command-line front end: one subcommand per experiment, each one library call.

Exit codes: 0 success, 2 invalid configuration, 3 unreadable or unwritable
file or closed stdout, 4 resource cap exceeded or out of memory, 5 numerical
self-check failed (a decomposition or the polarizer chain missed its own
tolerance). Every error prints one `error:` line on stderr. Flags override
config-file values, which override defaults. argparse only collects text:
a flag and a file value go through the one converter, `_convert`, and are
then validated by the library alone, each rule by the constructor or driver
that owns it, before any computation starts. Only `entrypoint` closes a
standard stream: one whose flush fails at exit.
"""

import argparse
import gc
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

# The numeric layers are reached as attributes of the package, which imports
# each on first use, so a process loads only the layers its subcommand runs
# and a later call pays one attribute lookup per layer.
import manyworlds as _package

from . import __version__, deterministic
from .contracts import CapacityError, DecompositionError
from .reporting import ConfigError, ExperimentConfig, emit_report


_REQUIRED = object()


class Param(NamedTuple):
    name: str
    convert: type
    default: object = _REQUIRED
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


# Shared by every subcommand; parse_config moves them out of the parameters.
COMMON_PARAMS = (
    Param("seed", int, default=0, help="64-bit experiment seed"),
    Param("format", str, default="json", help="output format: json or csv"),
    Param("out", str, default=None, help="output file (default: stdout)"),
)


class Experiment(NamedTuple):
    name: str
    params: tuple[Param, ...]
    runner: Callable[[dict, int], object]
    help: str = ""


EXPERIMENTS: dict[str, Experiment] = {e.name: e for e in (
    Experiment(
        "schmidt",
        (
            Param("d_left", int, help="left factor dimension"),
            Param("d_right", int, help="right factor dimension"),
        ),
        lambda p, seed: _package.schmidt.random_state_report(p["d_left"], p["d_right"], seed),
        help="decompose a seeded random bipartite state",
    ),
    Experiment(
        "branch",
        (Param("dim", int, help="object dimension"),),
        lambda p, seed: _package.branching.branching_report(p["dim"], seed),
        help="one premeasurement branching of a seeded random object",
    ),
    Experiment(
        "chain",
        (
            Param("dim", int, help="object dimension"),
            Param("devices", int, default=5, help="number of fresh devices"),
        ),
        lambda p, seed: _package.branching.chain_report(p["dim"], p["devices"], seed),
        help="device-chain protocol entropy ledger",
    ),
    Experiment(
        "overlap",
        (
            Param("dim", int, help="Hilbert-space dimension"),
            Param("trials", int, default=100_000, help="Monte Carlo trials"),
        ),
        lambda p, seed: _package.experiments.overlap_statistics(p["dim"], p["trials"], seed),
        help="mean squared overlap of random state pairs",
    ),
    Experiment(
        "zeno",
        (Param("k", int, help="intermediate lens count"),),
        lambda p, seed: deterministic.polarizer_chain(p["k"]),
        help="deterministic polarizer chain transmission",
    ),
    Experiment(
        "zeno-random",
        (
            Param("dim", int, help="Hilbert-space dimension"),
            Param("k", int, help="intermediate projector count"),
            Param("trials", int, default=100_000, help="Monte Carlo trials"),
        ),
        lambda p, seed: _package.experiments.random_projection_chain(
            p["dim"], p["k"], p["trials"], seed),
        help="random projection chain transmission",
    ),
    Experiment(
        "worlds",
        (
            Param("universe_age_s", float, default=deterministic.DEFAULT_UNIVERSE_AGE_S,
                  help="age of the universe in seconds"),
            Param("planck_time_s", float, default=deterministic.DEFAULT_PLANCK_TIME_S,
                  help="elementary time step in seconds"),
            Param("model", str, default="linear", help="growth model: linear or exponential"),
        ),
        lambda p, seed: deterministic.world_count(
            p["universe_age_s"], p["planck_time_s"], p["model"]),
        help="order-of-magnitude world count",
    ),
    Experiment(
        "evolve",
        (
            Param("depth", int, help="number of mutation steps"),
            Param("mode", str, help="walk mode: single-history or full-branching"),
            Param("trials", int, default=100_000, help="trials (single-history mode)"),
        ),
        lambda p, seed: _package.experiments.evolution_walk(
            p["depth"], p["mode"], seed, p["trials"]),
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


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for `argv` (default: sys.argv[1:]).

    Every subcommand is listed, but only the one `argv` names gets its
    arguments, since adding those to all eight costs a few ms a process.
    The top-level options take no value, so that name is the first token
    that does not start with "-", and argparse dispatches to no other.
    """
    named = next((a for a in (sys.argv[1:] if argv is None else argv)
                  if not a.startswith("-")), None)
    parser = _Parser(
        prog="manyworlds",
        description="Seeded branching-dynamics experiments with deterministic reports.",
    )
    parser.add_argument("--version", action="version", version=f"manyworlds {__version__}")
    subparsers = parser.add_subparsers(dest="experiment", required=True)
    for exp in EXPERIMENTS.values():
        sub = subparsers.add_parser(exp.name, help=exp.help)
        if exp.name != named:
            continue
        for param in exp.params + COMMON_PARAMS:
            sub.add_argument(param.flag, dest=param.name, help=param.help)
        sub.add_argument("--config", dest="config_file",
                         help="key=value config file; flags take precedence")
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
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


def _refuse_unknown(exp: Experiment, keys, known: set) -> None:
    unknown = sorted(map(str, set(keys) - known))
    if unknown:
        raise ConfigError(
            f"unknown config keys for experiment {exp.name!r}: {', '.join(unknown)}"
        )


def parse_config(argv=None) -> ExperimentConfig:
    """Parse argv (and an optional config file) into a config.

    Each parameter takes its flag's text, else its config-file text, converted
    by `_convert` either way, else its default; a required parameter given by
    neither is left out, for run_experiment to refuse.
    """
    args = build_parser(argv).parse_args(argv)
    exp = EXPERIMENTS[args.experiment]
    params = exp.params + COMMON_PARAMS

    texts = _load_config_file(args.config_file) if args.config_file else {}
    texts.update((p.name, getattr(args, p.name)) for p in params
                 if getattr(args, p.name) is not None)
    named = texts.pop("experiment", exp.name)
    _refuse_unknown(exp, texts, {p.name for p in params})
    if named != exp.name:
        raise ConfigError(
            f"config file names experiment {named!r}, but {exp.name!r} was requested")

    parameters = {p.name: _convert(p, texts[p.name]) if p.name in texts else p.default
                  for p in params if p.name in texts or p.default is not _REQUIRED}

    return ExperimentConfig(
        experiment=exp.name,
        seed=parameters.pop("seed"),
        output_format=parameters.pop("format"),
        output_path=parameters.pop("out") or None,  # --out '' means stdout
        parameters=parameters,
    )


def run_experiment(config: ExperimentConfig):
    """Run exactly one experiment, write its report and return its payload record.

    config.parameters must name every parameter of the experiment and no
    other, each with a value of the parameter's exact type (a bool is not an
    int); parse_config fills in the defaults. The payload is the record the
    experiment's library call returns. With no output path the report goes
    to sys.stdout.buffer, or as UTF-8 text to a stdout with no byte buffer.
    A failed write raises OSError and leaves the stream as it is, to its owner.
    """
    exp = EXPERIMENTS.get(config.experiment)
    if exp is None:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    parameters = config.parameters
    for param in exp.params:
        value = parameters.get(param.name, _REQUIRED)
        if type(value) is not param.convert:
            if value is _REQUIRED:
                raise ConfigError(f"missing required parameter {param.flag} for {exp.name}")
            raise ConfigError(f"{param.name} expects {param.convert.__name__}, "
                              f"got {type(value).__name__} {value!r}")
    if len(parameters) != len(exp.params):  # all are present, so some key is unknown
        _refuse_unknown(exp, parameters, {p.name for p in exp.params})
    if config.output_path is None and sys.stdout is None:  # started with fd 1 closed
        raise OSError("cannot write the report: stdout is closed")
    payload = exp.runner(parameters, config.seed)
    data = emit_report(config, payload)
    if config.output_path is not None:
        Path(config.output_path).write_bytes(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:  # a text-only stream, such as io.StringIO
        sys.stdout.write(data.decode("utf-8"))
        sys.stdout.flush()
    return payload


def _note(line: str) -> None:
    """Print one line on stderr; a closed or failing stderr does not change the exit code."""
    stream = sys.stderr
    if stream is None or stream.closed:  # None when started with fd 2 closed
        return
    try:
        print(line, file=stream)
    except OSError:
        pass


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        started = time.perf_counter()
        run_experiment(config)
        wall_time_s = time.perf_counter() - started
    except SystemExit as exc:  # --help or --version has printed its text
        return exc.code
    except CapacityError as exc:
        _note(f"error: {exc}")
        return 4
    except MemoryError as exc:
        _note(f"error: out of memory: {exc}")
        return 4
    except (DecompositionError, ArithmeticError) as exc:
        _note(f"error: numerical self-check failed: {exc}")
        return 5
    except OSError as exc:
        _note(f"error: {exc}")
        return 3
    except ValueError as exc:
        _note(f"error: {exc}")
        return 2

    destination = config.output_path or "stdout"
    _note(f"{config.experiment}: wrote {destination} ({wall_time_s:.3f} s)")
    return 0


def entrypoint() -> None:
    """`python -m manyworlds` and the console script: main() on one BLAS thread.

    OpenBLAS reads these when numpy first loads, which no module imported
    so far has done. One thread overrides the caller's setting, because an
    SVD's bits depend on the thread count (README, "Report bytes and the BLAS").
    """
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    code = main()
    # A standard stream whose write failed still holds its bytes, and the
    # interpreter's flush at exit would fail on them again and exit 120.
    for stream in (sys.stdout, sys.stderr):
        if stream is None or stream.closed:  # None when started with its fd closed
            continue
        try:
            stream.flush()
        except OSError:
            try:
                stream.close()
            except OSError:  # the close flushes the same bytes again
                pass
    # Interpreter teardown runs full collections over every tracked object,
    # 21-23k once numpy is loaded, at 4-8 ms a collection. Frozen objects are
    # out of their reach, and SystemExit still runs finally blocks, atexit
    # handlers and a wrapping profiler, which os._exit would skip.
    gc.freeze()
    sys.exit(code)
