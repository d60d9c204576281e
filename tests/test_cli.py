import dataclasses
import json
import math
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manyworlds import DIM_CAP, cli
from manyworlds.cli import main, parse_config
from manyworlds.experiments import (
    FULL_BRANCHING_DEPTH_CAP,
    TRIAL_BLOCK_CAP,
    TRIALS_CAP,
    ComplexityReport,
    OverlapReport,
    WorldCountReport,
    ZenoReport,
)
from manyworlds.reporting import (
    PAYLOAD_TYPES,
    BranchReport,
    ChainReport,
    ExperimentConfig,
    ExperimentReport,
    SchmidtReport,
    emit_report,
    format_float,
    parse_report,
)
from manyworlds.schmidt import DecompositionError


class TestParseConfig:
    def test_valid_overlap_command(self):
        config = parse_config(["overlap", "--dim", "64", "--trials", "100000", "--seed", "7"])
        assert config.experiment == "overlap"
        assert config.parameters == {"dim": 64, "trials": 100000}
        assert config.seed == 7
        assert config.output_format == "json"
        assert config.output_path is None

    def test_defaults_fill_optional_parameters(self):
        config = parse_config(["overlap", "--dim", "4"])
        assert config.parameters["trials"] == 100_000
        assert config.seed == 0

    def test_flag_overrides_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dim=32\ntrials=1000  # small smoke run\nseed=9\n")
        config = parse_config(["overlap", "--config", str(path), "--dim", "64"])
        assert config.parameters == {"dim": 64, "trials": 1000}
        assert config.seed == 9

    def test_config_file_may_name_matching_experiment(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment=zeno\nk=2\n")
        config = parse_config(["zeno", "--config", str(path)])
        assert config.parameters == {"k": 2}

    def test_config_file_experiment_mismatch(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("experiment=overlap\nk=2\n")
        assert main(["zeno", "--config", str(path)]) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("k=1\nfrobnicate=3\n")
        assert main(["zeno", "--config", str(path)]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_malformed_config_line_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("this is not a key value pair\n")
        assert main(["zeno", "--config", str(path)]) == 2


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["zeno", "--k", "1", "--out", str(out)]) == 0
        assert out.exists()

    def test_out_of_range_parameter_is_two(self, capsys):
        assert main(["zeno", "--k", "-1"]) == 2
        assert "k must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value,message", [
        ("nan", "error: universe_age_s must be >= 0.0, got nan\n"),
        ("inf", "error: ages and times must be positive and finite\n"),
    ], ids=["nan", "inf"])
    def test_non_finite_float_flag_is_two(self, tmp_path, capsys, value, message):
        out = tmp_path / "never.json"
        assert main(["worlds", "--universe-age-s", value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_unknown_experiment_is_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_parameter_is_two(self, capsys):
        assert main(["overlap"]) == 2
        assert "--dim" in capsys.readouterr().err

    def test_unreadable_config_file_is_three(self, tmp_path, capsys):
        assert main(["zeno", "--k", "1", "--config", str(tmp_path / "absent.cfg")]) == 3

    def test_unwritable_output_is_three(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "r.json"
        assert main(["zeno", "--k", "1", "--out", str(target)]) == 3

    def test_dimension_cap_is_four(self, capsys):
        assert main(["chain", "--dim", "2", "--devices", "14"]) == 4

    @pytest.mark.parametrize("args", [
        ["overlap", "--trials", "1"],
        ["zeno-random", "--k", "0", "--trials", "1"],
    ])
    def test_monte_carlo_dimension_cap_is_four(self, tmp_path, capsys, args):
        out = tmp_path / "never.json"
        assert main(args + ["--dim", str(DIM_CAP + 1), "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("error: total dimension")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["zeno-random", "--dim", "2", "--k", str(TRIAL_BLOCK_CAP)],  # k + 1 = cap + 1
        ["evolve", "--mode", "single-history", "--depth", str(TRIAL_BLOCK_CAP + 1)],
    ])
    def test_trial_block_cap_is_four(self, tmp_path, capsys, args):
        out = tmp_path / "never.json"
        assert main(args + ["--trials", "1", "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: one trial needs {TRIAL_BLOCK_CAP + 1} uniforms, "
            f"above the cap {TRIAL_BLOCK_CAP}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["overlap", "--dim", "2"],
        ["zeno-random", "--dim", "2", "--k", "0"],
        ["evolve", "--mode", "single-history", "--depth", "1"],
    ])
    def test_trials_cap_is_four(self, tmp_path, capsys, args):
        # refused before anything is drawn: the run would keep ~16 B per trial
        out = tmp_path / "never.json"
        tracemalloc.start()
        try:
            code = main(args + ["--trials", str(TRIALS_CAP + 1), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert capsys.readouterr().err == (
            f"error: {TRIALS_CAP + 1} trials exceed the cap {TRIALS_CAP}\n"
        )
        assert peak < 2**20
        assert not out.exists()

    def test_full_branching_depth_cap_is_four(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        depth = FULL_BRANCHING_DEPTH_CAP + 1
        assert main(["evolve", "--mode", "full-branching", "--depth", str(depth),
                     "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith(f"error: full-branching depth {depth}")
        assert not out.exists()

    def test_full_branching_at_depth_cap_reports(self, tmp_path, capsys):
        out = tmp_path / "walk.json"
        assert main(["evolve", "--mode", "full-branching",
                     "--depth", str(FULL_BRANCHING_DEPTH_CAP), "--out", str(out)]) == 0
        result = parse_report(out.read_bytes(), "json").result
        assert result.branch_count == 2**FULL_BRANCHING_DEPTH_CAP
        assert result.max_complexity == FULL_BRANCHING_DEPTH_CAP

    def test_out_of_memory_is_four(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(cli, "run_chain_protocol", exhausted)
        assert main(["chain", "--dim", "2", "--devices", "3"]) == 4
        assert capsys.readouterr().err == "error: out of memory: cannot allocate\n"

    def test_failed_self_check_is_five(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise DecompositionError("reconstruction residual 1e-3")

        monkeypatch.setattr(cli, "schmidt_decompose", failing)
        assert main(["schmidt", "--d-left", "2", "--d-right", "2"]) == 5
        err = capsys.readouterr().err
        assert err == "error: numerical self-check failed: reconstruction residual 1e-3\n"

    def test_validation_happens_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        assert main(["overlap", "--dim", "0", "--out", str(out)]) == 2
        assert main(["overlap", "--dim", "4", "--trials", "0", "--out", str(out)]) == 2
        assert not out.exists()


class TestOutputs:
    def test_worlds_default_json(self, tmp_path, capsys):
        out = tmp_path / "worlds.json"
        assert main(["worlds", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["result"]["log10_worlds"] - 60.9069004917679) < 1e-9
        assert payload["config"]["experiment"] == "worlds"
        assert payload["version"] == "0.7.0"

    def test_zeno_csv_row(self, tmp_path, capsys):
        out = tmp_path / "zeno.csv"
        assert main(["zeno", "--k", "1", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_intermediate,transmission_probability,mode,trials,seed"
        assert lines[1] == "1,0.25,deterministic-polarizer,,"

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        args = ["overlap", "--dim", "8", "--trials", "500", "--seed", "42"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_stdout_when_no_output_path(self, capsysbinary):
        assert main(["zeno", "--k", "2"]) == 0
        data = capsysbinary.readouterr().out
        assert b"0.421875" in data

    @pytest.mark.parametrize(
        "args",
        [
            ["schmidt", "--d-left", "3", "--d-right", "5", "--seed", "4"],
            ["branch", "--dim", "3", "--seed", "4"],
            ["chain", "--dim", "2", "--devices", "3", "--seed", "4"],
            ["zeno-random", "--dim", "8", "--k", "2", "--trials", "200", "--seed", "4"],
            ["evolve", "--depth", "8", "--mode", "single-history", "--trials", "200"],
            ["evolve", "--depth", "8", "--mode", "full-branching"],
        ],
    )
    def test_every_experiment_round_trips_through_json(self, tmp_path, capsys, args):
        out = tmp_path / "r.json"
        assert main(args + ["--out", str(out)]) == 0
        report = parse_report(out.read_bytes(), "json")
        assert report.config.experiment == args[0]
        rerun = tmp_path / "r2.json"
        assert main(args + ["--out", str(rerun)]) == 0
        assert out.read_bytes() == rerun.read_bytes()

    def test_schmidt_report_is_clean(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["schmidt", "--d-left", "4", "--d-right", "6", "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["rank"] <= 4
        assert result["spectra_gap"] < 1e-10
        assert result["reconstruction_error"] < 1e-10
        assert abs(sum(result["lambdas"]) - 1.0) < 1e-10

    @pytest.mark.parametrize("d_left,d_right", [(2, 2), (4, 6), (8, 3)])
    def test_schmidt_run_factors_once(self, tmp_path, monkeypatch, capsys, d_left, d_right):
        # the report's spectrum, gap and reconstruction all come from one SVD
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        out = tmp_path / "s.json"
        assert main(["schmidt", "--d-left", str(d_left), "--d-right", str(d_right),
                     "--out", str(out)]) == 0
        assert calls == [(d_left, d_right)]


class TestRunsAtDimensionCap:
    """Runs whose total dimension is exactly DIM_CAP finish and keep the invariants."""

    def test_chain_at_cap(self, tmp_path, capsys):
        out = tmp_path / "chain.json"
        assert main(["chain", "--dim", "2", "--devices", "13", "--seed", "5",
                     "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        steps = result["entropy_steps"]
        assert len(steps) == 1 + 2 * 13
        assert all(b >= a - 1e-12 for a, b in zip(steps, steps[1:]))
        assert result["final_entropy"] == steps[-1]

    def test_schmidt_at_cap(self, tmp_path, capsys):
        out = tmp_path / "schmidt.json"
        assert main(["schmidt", "--d-left", str(DIM_CAP), "--d-right", "1", "--seed", "5",
                     "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["rank"] == len(result["lambdas"]) == 1
        assert abs(result["lambdas"][0] - 1.0) < 1e-10
        assert result["spectra_gap"] < 1e-10
        assert result["reconstruction_error"] < 1e-10

    def test_branch_at_cap(self, tmp_path, capsys):
        out = tmp_path / "branch.json"
        assert main(["branch", "--dim", "128", "--seed", "5", "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["n_branches"] == len(result["weights"]) == 128
        assert abs(math.fsum(result["weights"]) - 1.0) < 1e-10
        assert abs(result["total_entropy"] - math.fsum(result["branch_entropies"])) < 1e-10


PAYLOADS = [
    ("overlap", OverlapReport(4, 100, 0.2512345678901234, 0.001, 7)),
    ("zeno", ZenoReport(1, 0.25, "deterministic-polarizer")),
    ("zeno-random", ZenoReport(2, 0.015625, "random-projection", trials=1000, seed=3)),
    ("worlds", WorldCountReport(60.9069004917679, 60.9069004917679, None)),
    ("worlds", WorldCountReport(60.9069004917679, None, 60.544684803068435)),
    ("evolve", ComplexityReport(10, "single-history", 7, 2.083984375, None)),
    ("evolve", ComplexityReport(20, "full-branching", 20, 1.7880668640136719, 2**20)),
    ("schmidt", SchmidtReport(4, 6, 3, 4, (0.5, 0.3, 0.15, 0.05), 1.2, 1e-16, 2e-16)),
    ("branch", BranchReport(3, 5, 3, (0.5, 0.3, 0.2),
                            (0.34657359027997264, 0.3611918412977808, 0.3218875824868201),
                            1.0296530140645737)),
    ("chain", ChainReport(2, 2, 3, (0.0, 0.6931471805599453, 0.6931471805599453),
                          0.6931471805599453, 3)),
]


class TestSerializationRoundTrip:
    @pytest.mark.parametrize("experiment,payload", PAYLOADS)
    def test_json_round_trip(self, experiment, payload):
        config = ExperimentConfig(experiment=experiment, parameters={"x": 1}, seed=3)
        report = ExperimentReport(config, "0.1.0", payload, wall_time_s=0.5)
        data = emit_report(report, "json")
        parsed = parse_report(data, "json")
        assert parsed.result == payload
        assert parsed.config.experiment == experiment
        assert parsed.config.seed == 3
        assert parsed.version == "0.1.0"
        assert parsed.wall_time_s is None  # volatile, never serialized

    @pytest.mark.parametrize("experiment,payload", PAYLOADS)
    def test_csv_round_trip(self, experiment, payload):
        config = ExperimentConfig(experiment=experiment, parameters={}, seed=3)
        report = ExperimentReport(config, "0.1.0", payload, wall_time_s=0.5)
        data = emit_report(report, "csv")
        assert data.endswith(b"\n")
        assert b"\r" not in data
        parsed = parse_report(data, "csv", payload_type=type(payload))
        assert parsed == payload

    def test_emitted_json_is_sorted_and_newline_terminated(self):
        config = ExperimentConfig(experiment="zeno", parameters={"k": 1}, seed=0)
        report = ExperimentReport(config, "0.1.0", ZenoReport(1, 0.25, "deterministic-polarizer"))
        text = emit_report(report, "json").decode()
        assert text.endswith("\n")
        keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
        assert keys == sorted(keys)


# every finite double, with the edge cases named: signed zero, subnormals,
# integer-valued floats that print without a decimal point or in e-notation
FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308 / 3,
                     1e16, 2.0**53 + 2, 12345678901234568.0, -1e22, 1.7976931348623157e308]),
)


def _field_strategy(annotation):
    origin = typing.get_origin(annotation)
    if origin is typing.Union:  # Optional[...]
        inner = [a for a in typing.get_args(annotation) if a is not type(None)][0]
        return st.none() | _field_strategy(inner)
    if origin is tuple:
        return st.lists(_field_strategy(typing.get_args(annotation)[0]), max_size=6).map(tuple)
    if annotation is float:
        return FINITE_FLOATS
    if annotation is int:
        return st.integers()
    return st.sampled_from(["random-projection", "single-history", "full-branching"])


def _payloads(payload_type):
    hints = typing.get_type_hints(payload_type)
    return st.builds(payload_type, **{name: _field_strategy(t) for name, t in hints.items()})


class TestSerializationProperties:
    """emit_report then parse_report returns the payload bit for bit, for any finite floats."""

    @pytest.mark.parametrize("experiment", sorted(PAYLOAD_TYPES))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_json_round_trip(self, experiment, data):
        payload = data.draw(_payloads(PAYLOAD_TYPES[experiment]))
        seed = data.draw(st.integers(-(2**63), 2**64 - 1))
        config = ExperimentConfig(experiment=experiment, parameters={"x": 1}, seed=seed)
        parsed = parse_report(emit_report(ExperimentReport(config, "0.5.0", payload), "json"),
                              "json")
        assert repr(parsed.result) == repr(payload)  # also tells -0.0 from 0.0, 1 from 1.0
        assert parsed.config.seed == seed

    @pytest.mark.parametrize("experiment", sorted(PAYLOAD_TYPES))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_csv_round_trip(self, experiment, data):
        payload_type = PAYLOAD_TYPES[experiment]
        payload = data.draw(_payloads(payload_type))
        config = ExperimentConfig(experiment=experiment, parameters={}, seed=0)
        emitted = emit_report(ExperimentReport(config, "0.5.0", payload), "csv")
        parsed = parse_report(emitted, "csv", payload_type=payload_type)
        assert repr(parsed) == repr(payload)


# Oracles: the recursive serializer that emit_report replaced. The flat
# emitter must write the same bytes for every flat report.

def json_fragment_oracle(value, indent: int) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(key))}: {json_fragment_oracle(value[key], indent + 1)}'
            for key in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {json_fragment_oracle(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"non-finite value {value!r} cannot be serialized")
        text = f"{value:.17g}"
        return text if any(c in text for c in ".eE") else text + ".0"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def csv_cell_oracle(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return json_fragment_oracle(value, 0)
    if isinstance(value, (list, tuple)):
        return ";".join(csv_cell_oracle(v) for v in value)
    text = str(value)
    if set(',"\n\r') & set(text):
        raise ValueError(f"value {text!r} is not representable in a CSV cell")
    return text


def emit_report_oracle(report, output_format: str) -> bytes:
    fields = {f.name: getattr(report.result, f.name) for f in dataclasses.fields(report.result)}
    if output_format == "json":
        envelope = {
            "config": {
                "experiment": report.config.experiment,
                "parameters": dict(report.config.parameters),
                "seed": report.config.seed,
            },
            "result": fields,
            "version": report.version,
        }
        return (json_fragment_oracle(envelope, 0) + "\n").encode("utf-8")
    cells = [csv_cell_oracle(v) for v in fields.values()]
    return (",".join(fields) + "\n" + ",".join(cells) + "\n").encode("utf-8")


PARAMETERS = st.dictionaries(
    st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
    st.one_of(st.none(), st.booleans(), st.integers(), FINITE_FLOATS, st.text(max_size=8),
              st.lists(FINITE_FLOATS, max_size=4).map(tuple)),
    max_size=4,
)


class TestFlatEmitterMatchesRecursiveOracle:
    @pytest.mark.parametrize("experiment", sorted(PAYLOAD_TYPES))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_same_bytes(self, experiment, data):
        payload = data.draw(_payloads(PAYLOAD_TYPES[experiment]))
        config = ExperimentConfig(experiment=experiment, parameters=data.draw(PARAMETERS),
                                  seed=data.draw(st.integers(-(2**63), 2**64 - 1)))
        report = ExperimentReport(config, data.draw(st.sampled_from(["0.5.0", "x\u00e9"])),
                                  payload)
        for output_format in ("json", "csv"):
            assert emit_report(report, output_format) == emit_report_oracle(report, output_format)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_non_finite_rejected(self, bad, output_format):
        payload = BranchReport(3, 5, 3, (0.5, bad, 0.2), (), 1.0)
        report = ExperimentReport(ExperimentConfig("branch", {}, 0), "0.5.0", payload)
        with pytest.raises(ValueError, match="non-finite"):
            emit_report(report, output_format)


class TestFloatFormatting:
    @pytest.mark.parametrize(
        "value",
        [0.5, 1 / 3, 0.1, 5.39e-44, 4.35e17, 1e308, 5e-324, 60.0, -0.0,
         math.pi, 2.083984375, 1.0000000000000002],
    )
    def test_seventeen_digits_round_trip(self, value):
        assert float(format_float(value)) == value

    def test_integral_floats_keep_a_decimal_point(self):
        assert format_float(60.0) == "60.0"
        assert format_float(0.0) == "0.0"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(math.inf)
        with pytest.raises(ValueError):
            format_float(math.nan)
