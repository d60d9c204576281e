"""Deterministic report serialization for the experiment front end.

Serialized bytes depend only on the experiment configuration and the tool
version: JSON output is a single object with sorted keys, CSV output is a
header row plus one data row, and all floating-point values are printed
with 17 significant digits so doubles round-trip exactly. Volatile data
(wall time, output destination) never reaches the serialized form.
Reports are write-only: the package never reads one back, and any JSON
reader reads the JSON form.

Reports are flat: every payload field and config parameter is a scalar
(None, bool, int, float or str) or a list or tuple of floats, so a report
is written field by field with all of its floats formatted in one pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_string
from typing import NamedTuple


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2 at the CLI)."""


class SchmidtReport(NamedTuple):
    """Decomposition diagnostics of one seeded random bipartite state."""

    d_left: int
    d_right: int
    seed: int
    rank: int
    lambdas: tuple[float, ...]
    entanglement_entropy: float
    spectra_gap: float
    reconstruction_error: float


class BranchReport(NamedTuple):
    """Outcome weights and entropies of a single premeasurement branching."""

    object_dim: int
    seed: int
    n_branches: int
    weights: tuple[float, ...]
    branch_entropies: tuple[float, ...]
    total_entropy: float


class ChainReport(NamedTuple):
    """Total-entropy trajectory of a device-chain protocol."""

    object_dim: int
    n_devices: int
    seed: int
    entropy_steps: tuple[float, ...]
    final_entropy: float
    leaf_count: int


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run; checks its format, and the library its parameters when run."""

    experiment: str
    parameters: dict
    seed: int
    output_format: str = "json"
    output_path: str | None = None

    def __post_init__(self):
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"unknown output format {self.output_format!r}")


@dataclass
class ExperimentReport:
    """Config echo, tool version, result payload, and the measured wall time.

    The wall time is informational only and is excluded from serialization,
    otherwise reruns could never be byte-identical.
    """

    config: ExperimentConfig
    version: str
    result: object
    wall_time_s: float | None = None


def _format_floats(values) -> list[str]:
    """17-significant-digit decimal form of each value, which always reads back as a float.

    All values are formatted by one %-format call.
    """
    texts = (("%.17g\n" * len(values)) % tuple(values)).split("\n")
    texts.pop()
    return [t if "." in t or "e" in t else _integral_float(t) for t in texts]


def _integral_float(text: str) -> str:
    if "n" in text:  # "inf", "-inf" or "nan"
        raise ValueError(f"non-finite value {float(text)!r} cannot be serialized")
    return text + ".0"


def _texts(values: list, scalar) -> list:
    """Per flat value, its text, or for a sequence the list of its elements' texts.

    Every float, scalar or in a sequence, is formatted by one _format_floats
    call; any other scalar by `scalar`.
    """
    floats = []
    for value in values:
        if isinstance(value, float):
            floats.append(value)
        elif isinstance(value, (list, tuple)):
            if not all(isinstance(v, float) for v in value):
                raise TypeError("a report sequence must hold floats only")
            floats += value
    formatted = iter(_format_floats(floats))
    return [
        next(formatted) if isinstance(value, float)
        else list(islice(formatted, len(value))) if isinstance(value, (list, tuple))
        else scalar(value)
        for value in values
    ]


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _json_string(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_object(keys, values: list, pad: str) -> str:
    """Flat values under their sorted keys as a JSON object, closed at indent `pad`."""
    if not keys:
        return "{}"
    inner = pad + "  "
    items = []
    for key, text in zip(keys, _texts(values, _json_scalar)):
        if isinstance(text, list):
            text = ("[\n" + inner + "  " + (",\n" + inner + "  ").join(text)
                    + "\n" + inner + "]") if text else "[]"
        items.append(f"{inner}{_json_string(str(key))}: {text}")
    return "{\n" + ",\n".join(items) + "\n" + pad + "}"


@functools.cache
def _field_names(payload_type: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A payload class's field names in declaration order and sorted, found once per class."""
    names = payload_type._fields
    return names, tuple(sorted(names))


def emit_report(report: ExperimentReport, output_format: str) -> bytes:
    """Serialize a report. JSON carries the config echo, CSV the payload row."""
    if output_format == "json":
        config, result = report.config, report.result
        param_keys = sorted(config.parameters)
        params = _json_object(param_keys, [config.parameters[k] for k in param_keys], "    ")
        result_keys = _field_names(type(result))[1]
        payload = _json_object(result_keys, [getattr(result, k) for k in result_keys], "  ")
        return (
            "{\n"
            '  "config": {\n'
            f'    "experiment": {_json_scalar(config.experiment)},\n'
            f'    "parameters": {params},\n'
            f'    "seed": {_json_scalar(config.seed)}\n'
            "  },\n"
            f'  "result": {payload},\n'
            f'  "version": {_json_scalar(report.version)}\n'
            "}\n"
        ).encode("utf-8")
    if output_format == "csv":
        return _csv_bytes(report.result)
    raise ConfigError(f"unknown output format {output_format!r}")


_CSV_FORBIDDEN = set(',"\n\r')


def _csv_scalar(value) -> str:
    if value is None:
        return ""
    text = str(value)
    if _CSV_FORBIDDEN & set(text):
        raise ValueError(f"value {text!r} is not representable in a CSV cell")
    return text


def _csv_bytes(payload) -> bytes:
    names = _field_names(type(payload))[0]
    cells = [";".join(t) if isinstance(t, list) else t
             for t in _texts([getattr(payload, n) for n in names], _csv_scalar)]
    return (",".join(names) + "\n" + ",".join(cells) + "\n").encode("utf-8")
