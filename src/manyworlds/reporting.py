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
is written value by value, each in the format its config names.
"""

from typing import NamedTuple

from .contracts import Frozen


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


class ExperimentConfig(Frozen):
    """One experiment run; checks its format and seed, and the library its parameters when run.

    `parameters` is copied, so a caller's later change to its dict changes
    no config, and equal configs hash alike.
    """

    __slots__ = _fields = ("experiment", "parameters", "seed", "output_format", "output_path")
    experiment: str
    parameters: dict
    seed: int
    output_format: str
    output_path: str | None

    def __init__(self, experiment: str, parameters: dict, seed: int,
                 output_format: str = "json", output_path: str | None = None):
        self._set(experiment, dict(parameters), seed, output_format, output_path)
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        if type(self.seed) is not int:  # a bool or a numpy integer is not an int
            raise ConfigError(f"seed expects int, got {type(self.seed).__name__} {self.seed!r}")

    def __hash__(self):  # a dict has no hash; the frozenset of its items does
        return hash((self.experiment, frozenset(self.parameters.items()), self.seed,
                     self.output_format, self.output_path))


class ExperimentReport:
    """Config echo, tool version, result payload, and the measured wall time.

    The wall time is informational only and is excluded from serialization,
    otherwise reruns could never be byte-identical.
    """

    __slots__ = ("config", "version", "result", "wall_time_s")
    config: ExperimentConfig
    version: str
    result: object
    wall_time_s: float | None

    def __init__(self, config: ExperimentConfig, version: str, result: object,
                 wall_time_s: float | None = None):
        self.config = config
        self.version = version
        self.result = result
        self.wall_time_s = wall_time_s


def _json_string(text: str) -> str:
    """`text` as an ASCII-only JSON string, as json.encoder.encode_basestring_ascii writes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'  # nothing to escape: every string a CLI report holds
    from json.encoder import encode_basestring_ascii  # loads json only for such a string
    return encode_basestring_ascii(text)


def _float_text(value: float) -> str:
    """17-significant-digit decimal form of a finite float, which always reads back as a float."""
    text = "%.17g" % value
    if "." in text or "e" in text:
        return text
    if "n" in text:  # "inf", "-inf" or "nan"
        raise ValueError(f"non-finite value {value!r} cannot be serialized")
    return text + ".0"


def _float_texts(values) -> list[str]:
    """The text of each element of a report sequence, which must hold floats only."""
    if not all(isinstance(v, float) for v in values):
        raise TypeError("a report sequence must hold floats only")
    return [_float_text(v) for v in values]


def _json_value(value, pad: str) -> str:
    """One flat value as JSON; a sequence is closed at indent `pad`."""
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        texts = _float_texts(value)
        if not texts:
            return "[]"
        return "[\n" + pad + "  " + (",\n" + pad + "  ").join(texts) + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _json_string(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_object(fields: dict, pad: str) -> str:
    """Flat fields under their sorted keys as a JSON object, closed at indent `pad`."""
    if not fields:
        return "{}"
    inner = pad + "  "
    items = [f"{inner}{_json_string(str(key))}: {_json_value(fields[key], inner)}"
             for key in sorted(fields)]
    return "{\n" + ",\n".join(items) + "\n" + pad + "}"


def _csv_cell(value) -> str:
    """One flat value as a CSV cell: a sequence joined by ';', None as the empty cell."""
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_float_texts(value))
    if value is None:
        return ""
    text = str(value)
    if not set(text).isdisjoint(',"\n\r'):
        raise ValueError(f"value {text!r} is not representable in a CSV cell")
    return text


def emit_report(report: ExperimentReport) -> bytes:
    """Serialize a report in its config's format: JSON echoes the config, CSV only the payload."""
    config, fields = report.config, report.result._asdict()
    if config.output_format == "csv":
        return (",".join(fields) + "\n" + ",".join(map(_csv_cell, fields.values()))
                + "\n").encode("utf-8")
    return (
        "{\n"
        '  "config": {\n'
        f'    "experiment": {_json_value(config.experiment, "")},\n'
        f'    "parameters": {_json_object(config.parameters, "    ")},\n'
        f'    "seed": {config.seed}\n'
        "  },\n"
        f'  "result": {_json_object(fields, "  ")},\n'
        f'  "version": {_json_value(report.version, "")}\n'
        "}\n"
    ).encode("utf-8")
