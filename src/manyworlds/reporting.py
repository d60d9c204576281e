"""Deterministic report serialization for the experiment front end.

Serialized bytes depend only on the experiment configuration and the tool
version: JSON output is a single object with sorted keys, CSV output is a
header row plus one data row, and all floating-point values are printed
with 17 significant digits so doubles round-trip exactly. Volatile data
(wall time, output destination) never reaches the serialized form.

Reports are flat: every payload field and config parameter is a scalar
(None, bool, int, float or str) or a list or tuple of floats, so a report
is written field by field with all of its floats formatted in one pass.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_string
from typing import Optional

from .experiments import ComplexityReport, OverlapReport, WorldCountReport, ZenoReport


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2 at the CLI)."""


@dataclass(frozen=True)
class SchmidtReport:
    """Decomposition diagnostics of one seeded random bipartite state."""

    d_left: int
    d_right: int
    seed: int
    rank: int
    lambdas: tuple[float, ...]
    entanglement_entropy: float
    spectra_gap: float
    reconstruction_error: float


@dataclass(frozen=True)
class BranchReport:
    """Outcome weights and entropies of a single premeasurement branching."""

    object_dim: int
    seed: int
    n_branches: int
    weights: tuple[float, ...]
    branch_entropies: tuple[float, ...]
    total_entropy: float


@dataclass(frozen=True)
class ChainReport:
    """Total-entropy trajectory of a device-chain protocol."""

    object_dim: int
    n_devices: int
    seed: int
    entropy_steps: tuple[float, ...]
    final_entropy: float
    leaf_count: int


PAYLOAD_TYPES: dict[str, type] = {
    "schmidt": SchmidtReport,
    "branch": BranchReport,
    "chain": ChainReport,
    "overlap": OverlapReport,
    "zeno": ZenoReport,
    "zeno-random": ZenoReport,
    "worlds": WorldCountReport,
    "evolve": ComplexityReport,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated description of one experiment run."""

    experiment: str
    parameters: dict
    seed: int
    output_format: str = "json"
    output_path: Optional[str] = None

    def __post_init__(self):
        if self.experiment not in PAYLOAD_TYPES:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
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
    wall_time_s: Optional[float] = None


def format_float(x: float) -> str:
    """17-significant-digit decimal form that always reads back as a float."""
    return _format_floats((x,))[0]


def _format_floats(values) -> list[str]:
    """format_float of each value, all formatted by one %-format call."""
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


def _json_object(mapping: dict, pad: str) -> str:
    """A flat mapping as a JSON object with sorted keys, closed at indent `pad`."""
    if not mapping:
        return "{}"
    keys = sorted(mapping)
    inner = pad + "  "
    items = []
    for key, text in zip(keys, _texts([mapping[k] for k in keys], _json_scalar)):
        if isinstance(text, list):
            text = ("[\n" + inner + "  " + (",\n" + inner + "  ").join(text)
                    + "\n" + inner + "]") if text else "[]"
        items.append(f"{inner}{_json_string(str(key))}: {text}")
    return "{\n" + ",\n".join(items) + "\n" + pad + "}"


def _payload_dict(payload) -> dict:
    return {f.name: getattr(payload, f.name) for f in dataclasses.fields(payload)}


def emit_report(report: ExperimentReport, output_format: str) -> bytes:
    """Serialize a report. JSON carries the config echo, CSV the payload row."""
    if output_format == "json":
        config = report.config
        return (
            "{\n"
            '  "config": {\n'
            f'    "experiment": {_json_scalar(config.experiment)},\n'
            f'    "parameters": {_json_object(config.parameters, "    ")},\n'
            f'    "seed": {_json_scalar(config.seed)}\n'
            "  },\n"
            f'  "result": {_json_object(_payload_dict(report.result), "  ")},\n'
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
    fields = _payload_dict(payload)
    cells = [";".join(t) if isinstance(t, list) else t
             for t in _texts(list(fields.values()), _csv_scalar)]
    return (",".join(fields) + "\n" + ",".join(cells) + "\n").encode("utf-8")


def _coerce(value, annotation):
    origin = typing.get_origin(annotation)
    if origin is typing.Union:  # Optional[...]
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if value is None or value == "":
            return None
        return _coerce(value, args[0])
    if origin is tuple:
        element = typing.get_args(annotation)[0]
        if isinstance(value, str):
            parts = [p for p in value.split(";") if p != ""]
            return tuple(_coerce(p, element) for p in parts)
        return tuple(_coerce(v, element) for v in value)
    if annotation is int:
        return int(value)
    if annotation is float:
        return float(value)
    if annotation is str:
        return str(value)
    raise TypeError(f"unsupported field annotation {annotation!r}")


def _payload_from_mapping(payload_type: type, mapping: dict):
    hints = typing.get_type_hints(payload_type)
    kwargs = {}
    for f in dataclasses.fields(payload_type):
        if f.name not in mapping:
            raise ValueError(f"missing field {f.name!r} for {payload_type.__name__}")
        kwargs[f.name] = _coerce(mapping[f.name], hints[f.name])
    return payload_type(**kwargs)


def parse_report(data: bytes, output_format: str, payload_type: Optional[type] = None):
    """Inverse of emit_report.

    JSON input reconstructs the full ExperimentReport (wall time unknown);
    CSV input carries only the payload row, so the payload type must be
    supplied and the payload instance is returned.
    """
    if output_format == "json":
        envelope = json.loads(data.decode("utf-8"))
        experiment = envelope["config"]["experiment"]
        ptype = PAYLOAD_TYPES[experiment]
        config = ExperimentConfig(
            experiment=experiment,
            parameters=dict(envelope["config"]["parameters"]),
            seed=int(envelope["config"]["seed"]),
        )
        result = _payload_from_mapping(ptype, envelope["result"])
        return ExperimentReport(config, str(envelope["version"]), result, None)
    if output_format == "csv":
        if payload_type is None:
            raise ValueError("CSV parsing requires the payload type")
        lines = data.decode("utf-8").split("\n")
        if len(lines) < 2:
            raise ValueError("CSV report must have a header row and a data row")
        names = lines[0].split(",")
        cells = lines[1].split(",")
        if len(names) != len(cells):
            raise ValueError("CSV header and data row differ in length")
        return _payload_from_mapping(payload_type, dict(zip(names, cells)))
    raise ConfigError(f"unknown output format {output_format!r}")
