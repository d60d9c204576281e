import contextlib
import errno
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import child_env
from manyworlds import DIM_CAP, __version__, branching, cli, deterministic, experiments, schmidt
from manyworlds.branching import CHAIN_DEVICES_CAP, BranchReport, ChainReport
from manyworlds.cli import main, parse_config
from manyworlds.deterministic import POLARIZER_K_CAP, WorldCountReport, ZenoReport
from manyworlds.experiments import FULL_BRANCHING_DEPTH_CAP, ComplexityReport, OverlapReport
from manyworlds.reporting import (
    ConfigError,
    ExperimentConfig,
    _float_text,
    _json_string,
    emit_report,
)
from manyworlds.rng import UNIFORMS_CAP
from manyworlds.schmidt import DecompositionError, SchmidtReport

PAYLOAD_TYPES = {
    "schmidt": SchmidtReport,
    "branch": BranchReport,
    "chain": ChainReport,
    "overlap": OverlapReport,
    "zeno": ZenoReport,
    "zeno-random": ZenoReport,
    "worlds": WorldCountReport,
    "evolve": ComplexityReport,
}


# The one library call each subcommand is. Each takes its parameters under the
# names the command line gives them, but `worlds` takes its model as growth_model,
# and all but `zeno` and `worlds` take the seed.
LIBRARY = {
    "schmidt": schmidt.random_state_report,
    "branch": branching.branching_report,
    "chain": branching.chain_report,
    "overlap": experiments.overlap_statistics,
    "zeno": deterministic.polarizer_chain,
    "zeno-random": experiments.random_projection_chain,
    "worlds": deterministic.world_count,
    "evolve": experiments.evolution_walk,
}


def library_call(experiment: str, parameters: dict, seed: int):
    """The payload of the experiment's library function, called with keyword arguments."""
    keywords = {"growth_model" if name == "model" else name: value
                for name, value in parameters.items()}
    if experiment not in ("zeno", "worlds"):
        keywords["seed"] = seed
    return LIBRARY[experiment](**keywords)


def field_names(payload_type) -> set[str]:
    return set(payload_type._fields)


def json_values(payload) -> dict:
    """repr of each payload value as json.loads reads it back: tuples as lists."""
    return {name: repr(list(value) if isinstance(value, tuple) else value)
            for name, value in payload._asdict().items()}


def read_csv_payload(data: bytes, payload):
    """A CSV report read back cell by cell, each by the type of the payload's value."""
    header, row, end = data.decode("utf-8").split("\n")
    assert end == ""
    assert header.split(",") == list(payload._fields)
    values = {}
    for (name, like), cell in zip(payload._asdict().items(), row.split(","),
                                  strict=True):
        if isinstance(like, tuple):
            values[name] = tuple(float(t) for t in cell.split(";")) if cell else ()
        elif cell == "":
            values[name] = None
        else:
            values[name] = type(like)(cell) if isinstance(like, (int, float)) else cell
    return type(payload)(**values)


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

    def test_common_flags_override_config_file(self, tmp_path):
        # seed, format and out resolve flag -> file -> default like any parameter,
        # and --out '' means stdout even over a file's out
        path = tmp_path / "run.cfg"
        path.write_text(f"k=1\nseed=9\nformat=csv\nout={tmp_path / 'r.csv'}\n")
        config = parse_config(["zeno", "--config", str(path)])
        assert (config.seed, config.output_format, config.output_path) == (
            9, "csv", str(tmp_path / "r.csv"))
        config = parse_config(["zeno", "--config", str(path), "--seed", "3",
                               "--format", "json", "--out", ""])
        assert (config.seed, config.output_format, config.output_path) == (3, "json", None)
        assert config.parameters == {"k": 1}

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


# The values the library accepts for each parameter that takes one of a few words.
CHOICES = {
    "format": ("json", "csv"),
    "model": ("linear", "exponential"),
    "mode": ("single-history", "full-branching"),
}


def _param_values(param: cli.Param):
    """Valid values of one parameter, each written the same way as a flag and in a file."""
    if param.name in CHOICES:
        return st.sampled_from(CHOICES[param.name])
    if param.convert is int:
        return st.integers(1, 2**63)
    if param.convert is float:
        return st.floats(1e-300, 1e300)  # str of a float reads back exactly
    return st.text("abcxyz_./0123456789", min_size=1, max_size=12)  # --out


class TestConfigPrecedence:
    """Every parameter of every subcommand: its flag, else its file value, else its default."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_flag_then_file_then_default(self, tmp_path, data):
        exp = cli.EXPERIMENTS[data.draw(st.sampled_from(sorted(cli.EXPERIMENTS)))]
        argv, lines, expected = [exp.name], [], {}
        if data.draw(st.booleans()):
            lines.append(f"experiment={exp.name}")
        for param in exp.params + cli.COMMON_PARAMS:
            values = _param_values(param)
            flag, in_file = data.draw(st.none() | values), data.draw(st.none() | values)
            if flag is not None:
                argv.append(f"{param.flag}={flag}")
            if in_file is not None:
                lines.append(f"{param.name}={in_file}")
            value = flag if flag is not None else in_file if in_file is not None else param.default
            if value is not cli._REQUIRED:  # a required parameter given by neither is left out
                expected[param.name] = value
        order = data.draw(st.permutations(lines))
        path = tmp_path / "run.cfg"
        path.write_text("".join(line + "\n" for line in order), encoding="utf-8")
        config = cli.parse_config(argv + ["--config", str(path)])
        assert (config.seed, config.output_format, config.output_path) == (
            expected.pop("seed"), expected.pop("format"), expected.pop("out"))
        assert config.experiment == exp.name and config.parameters == expected


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["zeno", "--k", "1", "--out", str(out)]) == 0
        assert out.exists()

    def test_out_of_range_parameter_is_two(self, capsys):
        assert main(["zeno", "--k", "-1"]) == 2
        assert "k must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value,message", [
        ("nan", "error: ages and times must be positive and finite\n"),
        ("inf", "error: ages and times must be positive and finite\n"),
    ], ids=["nan", "inf"])
    def test_non_finite_float_flag_is_two(self, tmp_path, capsys, value, message):
        out = tmp_path / "never.json"
        assert main(["worlds", "--universe-age-s", value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_age_not_above_time_step_is_two(self, tmp_path, capsys, source):
        out = tmp_path / "never.json"
        if source == "flags":
            args = ["worlds", "--universe-age-s", "1", "--planck-time-s", "2"]
        else:
            path = tmp_path / "run.cfg"
            path.write_text("universe_age_s=1\nplanck_time_s=2\n")
            args = ["worlds", "--config", str(path)]
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "must exceed" in err[0]
        assert not out.exists()

    def test_config_file_format_outside_json_csv_is_two(self, tmp_path, capsys):
        out = tmp_path / "never.xml"
        path = tmp_path / "run.cfg"
        path.write_text("k=1\nformat=xml\n")
        assert main(["zeno", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'xml'" in err[0]
        assert not out.exists()

    def test_unknown_experiment_is_two(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("args", [
        ["zeno", "--k", "abc"],
        ["zeno", "--k", "1", "--format", "xml"],
        ["frobnicate"],
        [],
        ["zeno", "--k", "1", "--bogus", "2"],
        ["zeno", "--k", "1", "--dim", "2"],
    ], ids=["bad-int", "bad-format", "unknown-subcommand", "no-subcommand", "unknown-flag",
            "another-subcommands-flag"])
    def test_argument_errors_print_one_line(self, capsys, args):
        assert main(args) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args", [["--help"], ["zeno", "--help"], ["--version"]])
    def test_help_and_version_still_print(self, capsys, args):
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(("usage: manyworlds", "manyworlds 0.11.0"))
        assert captured.err == ""

    @pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
    def test_subcommand_help_names_its_own_flags(self, capsys, experiment):
        assert main([experiment, "--help"]) == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        own = {p.flag for p in cli.EXPERIMENTS[experiment].params}
        assert flags == own | {"--seed", "--format", "--out", "--config", "--help"}

    def test_help_lists_every_subcommand(self, capsys):
        assert main(["--help"]) == 0
        listed = capsys.readouterr().out.split("positional arguments:")[1]
        assert all(f"\n    {name} " in listed for name in cli.EXPERIMENTS)

    def test_library_caller_gets_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment 'frobnicate'"):
            cli.run_experiment(ExperimentConfig("frobnicate", {}, 0))

    def test_library_caller_gets_unknown_parameter(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        with pytest.raises(ConfigError) as refused:
            cli.run_experiment(ExperimentConfig("zeno", {"k": 1, "bogus": 3}, 0, "json",
                                                str(out)))
        assert not out.exists()
        path = tmp_path / "run.cfg"
        path.write_text("k=1\nbogus=3\n")
        assert main(["zeno", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {refused.value}\n"
        assert str(refused.value) == "unknown config keys for experiment 'zeno': bogus"

    @pytest.mark.parametrize("experiment,parameters,message", [
        ("overlap", {"dim": "4", "trials": 10}, "dim expects int, got str '4'"),
        ("overlap", {"dim": 4.0, "trials": 10}, "dim expects int, got float 4.0"),
        ("overlap", {"dim": True, "trials": 10}, "dim expects int, got bool True"),
        ("zeno", {"k": np.int64(2)}, "k expects int, got int64 "),
        ("worlds", {"universe_age_s": 1, "planck_time_s": 5.39e-44, "model": "linear"},
         "universe_age_s expects float, got int 1"),
        ("evolve", {"depth": 4, "mode": None, "trials": 10}, "mode expects str, got NoneType"),
    ])
    def test_library_caller_gets_mistyped_parameter(self, tmp_path, experiment, parameters,
                                                    message):
        out = tmp_path / "never.json"
        with pytest.raises(ConfigError, match=f"^{message}"):
            cli.run_experiment(ExperimentConfig(experiment, parameters, 0, "json", str(out)))
        assert not out.exists()

    @pytest.mark.parametrize("seed,message", [
        (True, "seed expects int, got bool True"),
        (1.5, "seed expects int, got float 1.5"),
        ("7", "seed expects int, got str '7'"),
        (None, "seed expects int, got NoneType None"),
        (np.int64(7), "seed expects int, got int64 "),
    ])
    def test_library_caller_gets_mistyped_seed(self, tmp_path, capsys, seed, message):
        out = tmp_path / "never.json"
        for output_path in (str(out), None):
            with pytest.raises(ConfigError, match=f"^{message}"):
                cli.run_experiment(ExperimentConfig("zeno", {"k": 1}, seed, "json", output_path))
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_missing_required_parameter_is_two(self, capsys):
        assert main(["overlap"]) == 2
        assert "--dim" in capsys.readouterr().err

    def test_unreadable_config_file_is_three(self, tmp_path, capsys):
        assert main(["zeno", "--k", "1", "--config", str(tmp_path / "absent.cfg")]) == 3

    def test_undecodable_config_file_is_three(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"k=1\n\xff\xfe\n")
        assert main(["zeno", "--config", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read config file {path}: ")

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

    @pytest.mark.parametrize("args,trials,per_trial", [
        (["overlap", "--dim", "2"], UNIFORMS_CAP // 4 + 1, 4),
        (["zeno-random", "--dim", "2", "--k", "0"], UNIFORMS_CAP // 4 + 1, 4),
        (["zeno-random", "--dim", "2", "--k", str(UNIFORMS_CAP)], 1, UNIFORMS_CAP + 4),
        (["evolve", "--mode", "single-history", "--depth", "16"], UNIFORMS_CAP // 16 + 1, 16),
        (["evolve", "--mode", "single-history", "--depth", str(UNIFORMS_CAP + 1)],
         1, UNIFORMS_CAP + 4),
    ], ids=["overlap-trials", "zeno-random-trials", "zeno-random-row", "evolve-trials",
            "evolve-row"])
    def test_uniforms_cap_is_four(self, tmp_path, capsys, args, trials, per_trial):
        # the smallest runs above the cap, by many trials or by one long row,
        # are refused before anything is drawn or allocated
        out = tmp_path / "never.json"
        tracemalloc.start()
        try:
            code = main(args + ["--trials", str(trials), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert capsys.readouterr().err == (
            f"error: {trials} trials of {per_trial} uniforms exceed the cap {UNIFORMS_CAP}\n"
        )
        assert peak < 2**20
        assert not out.exists()

    def test_row_above_one_chunk_runs_in_pieces(self, tmp_path, capsys):
        # 2**24 + 4 uniforms in one row, folded piece by piece in O(TRIAL_CHUNK) memory
        out = tmp_path / "walk.json"
        assert main(["evolve", "--mode", "single-history", "--depth", str(2**24 + 4),
                     "--trials", "1", "--out", str(out)]) == 0
        result = json.loads(out.read_bytes())["result"]
        assert result["mean_final_complexity"] == result["max_complexity"] <= 2**24 + 4

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
        result = json.loads(out.read_bytes())["result"]
        assert set(result) == field_names(ComplexityReport)
        assert result["branch_count"] == 2**FULL_BRANCHING_DEPTH_CAP
        assert result["max_complexity"] == FULL_BRANCHING_DEPTH_CAP

    def test_out_of_memory_is_four(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(branching, "run_chain_protocol", exhausted)
        assert main(["chain", "--dim", "2", "--devices", "3"]) == 4
        assert capsys.readouterr().err == "error: out of memory: cannot allocate\n"

    def test_failed_self_check_is_five(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise DecompositionError("reconstruction residual 1e-3")

        monkeypatch.setattr(schmidt, "schmidt_decompose", failing)
        assert main(["schmidt", "--d-left", "2", "--d-right", "2"]) == 5
        err = capsys.readouterr().err
        assert err == "error: numerical self-check failed: reconstruction residual 1e-3\n"

    def test_failed_polarizer_self_check_is_five(self, monkeypatch, capsys):
        def failing(k):
            raise ArithmeticError("sequential projection 0.5 disagrees with closed form 0.25")

        monkeypatch.setattr(deterministic, "polarizer_chain", failing)
        assert main(["zeno", "--k", "3"]) == 5
        assert capsys.readouterr().err == (
            "error: numerical self-check failed: "
            "sequential projection 0.5 disagrees with closed form 0.25\n"
        )

    @pytest.mark.parametrize("args,message", [
        (["zeno", "--k", str(POLARIZER_K_CAP + 1)], "lenses exceed the cap"),
        (["chain", "--dim", "1", "--devices", str(CHAIN_DEVICES_CAP + 1)],
         "devices exceed the cap"),
        (["chain", "--dim", "2", "--devices", "20000"], "devices exceed the cap"),
        (["chain", "--dim", "3", "--devices", "30000000"], "devices exceed the cap"),
    ], ids=["zeno", "chain-dim-1", "chain-dim-2", "chain-dim-3"])
    def test_loop_caps_are_four_before_any_work(self, tmp_path, capsys, args, message):
        out = tmp_path / "never.json"
        started = time.perf_counter()
        assert main(args + ["--out", str(out)]) == 4
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["zeno", "--k", str(POLARIZER_K_CAP)],
        ["chain", "--dim", "1", "--devices", str(CHAIN_DEVICES_CAP)],
    ], ids=["zeno", "chain-dim-1"])
    def test_loop_caps_admit_their_limit(self, tmp_path, capsys, args):
        out = tmp_path / "r.json"
        assert main(args + ["--out", str(out)]) == 0
        assert json.loads(out.read_bytes())["config"]["experiment"] == args[0]

    def test_validation_happens_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        assert main(["overlap", "--dim", "0", "--out", str(out)]) == 2
        assert main(["overlap", "--dim", "4", "--trials", "0", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["overlap", "--dim", "4"],
        ["zeno-random", "--dim", "2", "--k", "1"],
        ["evolve", "--depth", "5", "--mode", "single-history"],
    ], ids=["overlap", "zeno-random", "evolve-single-history"])
    def test_zero_trials_is_two_where_trials_are_drawn(self, tmp_path, capsys, args):
        out = tmp_path / "never.json"
        assert main(args + ["--trials", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: trials must be >= 1, got 0"]
        assert not out.exists()

    def test_full_branching_ignores_trials(self, tmp_path, capsys):
        # the full-branching walk is exact and never reads the trial count
        out = tmp_path / "walk.json"
        assert main(["evolve", "--depth", "5", "--mode", "full-branching", "--trials", "0",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_bytes())["result"]["branch_count"] == 32


# Out-of-range or missing inputs, at least one per parameter rule: (experiment,
# the parameters a library caller passes, which the command line passes as
# flags). The library owns every rule, so both paths must refuse with the same
# message.
REFUSED = {
    "schmidt-d-left-0": ("schmidt", {"d_left": 0, "d_right": 2}),
    "schmidt-d-right-0": ("schmidt", {"d_left": 2, "d_right": 0}),
    "branch-dim-1": ("branch", {"dim": 1}),
    "branch-dim-0": ("branch", {"dim": 0}),
    "chain-dim-0": ("chain", {"dim": 0, "devices": 5}),
    "chain-devices-0": ("chain", {"dim": 2, "devices": 0}),
    "overlap-dim-0": ("overlap", {"dim": 0, "trials": 10}),
    "overlap-trials-0": ("overlap", {"dim": 4, "trials": 0}),
    "overlap-dim-missing": ("overlap", {"trials": 10}),
    "zeno-k-minus-1": ("zeno", {"k": -1}),
    "zeno-random-dim-1": ("zeno-random", {"dim": 1, "k": 2, "trials": 10}),
    "zeno-random-k-minus-1": ("zeno-random", {"dim": 4, "k": -1, "trials": 10}),
    "zeno-random-trials-0": ("zeno-random", {"dim": 4, "k": 2, "trials": 0}),
    "worlds-age-0": ("worlds", {"universe_age_s": 0.0, "planck_time_s": 5.39e-44,
                                "model": "linear"}),
    "worlds-age-nan": ("worlds", {"universe_age_s": math.nan, "planck_time_s": 5.39e-44,
                                  "model": "linear"}),
    "worlds-time-minus-1": ("worlds", {"universe_age_s": 4.35e17, "planck_time_s": -1.0,
                                       "model": "linear"}),
    "worlds-age-below-time": ("worlds", {"universe_age_s": 1.0, "planck_time_s": 2.0,
                                         "model": "linear"}),
    "worlds-model-bogus": ("worlds", {"universe_age_s": 4.35e17, "planck_time_s": 5.39e-44,
                                      "model": "bogus"}),
    "evolve-depth-minus-1": ("evolve", {"depth": -1, "mode": "single-history",
                                        "trials": 10}),
    "evolve-mode-bogus": ("evolve", {"depth": 4, "mode": "bogus", "trials": 10}),
    "evolve-trials-0": ("evolve", {"depth": 4, "mode": "single-history", "trials": 0}),
}


@pytest.mark.parametrize("case", REFUSED)
def test_cli_and_library_refuse_alike(tmp_path, capsys, case):
    experiment, parameters = REFUSED[case]
    out = tmp_path / "never.json"
    with pytest.raises(ValueError) as refused:
        cli.run_experiment(ExperimentConfig(experiment, parameters, 0, "json", str(out)))
    assert not out.exists()

    # a missing parameter is the config's rule; a direct call without it is Python's TypeError
    complete = set(parameters) == {p.name for p in cli.EXPERIMENTS[experiment].params}
    with pytest.raises(ValueError if complete else TypeError) as direct:
        library_call(experiment, parameters, 0)
    if complete:
        assert (type(direct.value), str(direct.value)) == (type(refused.value),
                                                           str(refused.value))

    argv = [experiment, "--out", str(out)]
    for name, value in parameters.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {refused.value}\n"
    assert captured.out == ""
    assert not out.exists()


# One small run of each subcommand.
RUNS = {
    "schmidt": {"d_left": 3, "d_right": 4},
    "branch": {"dim": 3},
    "chain": {"dim": 2, "devices": 3},
    "overlap": {"dim": 8, "trials": 200},
    "zeno": {"k": 3},
    "zeno-random": {"dim": 8, "k": 2, "trials": 200},
    "worlds": {"universe_age_s": 4.35e17, "planck_time_s": 5.39e-44, "model": "exponential"},
    "evolve": {"depth": 8, "mode": "single-history", "trials": 200},
}


@pytest.mark.parametrize("output_format", ["json", "csv"])
@pytest.mark.parametrize("seed", [7, 2**63 + 5])
@pytest.mark.parametrize("experiment", RUNS)
def test_cli_writes_the_library_payload(tmp_path, experiment, seed, output_format):
    # the command line adds nothing to a payload: it only writes what the library returns
    out = tmp_path / "report"
    config = ExperimentConfig(experiment, RUNS[experiment], seed, output_format, str(out))
    payload = library_call(experiment, RUNS[experiment], seed)
    assert cli.run_experiment(config) == payload
    assert out.read_bytes() == emit_report(config, payload)


# (the rest of the command line, a key, a value no converter or library rule accepts)
BAD_VALUES = [
    (["zeno"], "k", "abc"),
    (["zeno", "--k", "1"], "format", "xml"),
    (["evolve", "--depth", "4"], "mode", "bogus"),
    (["worlds"], "model", "bogus"),
    (["worlds"], "universe_age_s", "abc"),
    (["zeno", "--k", "1"], "seed", "1.5"),
]


@pytest.mark.parametrize("argv, key, value", BAD_VALUES,
                         ids=[f"{key}={value}" for _, key, value in BAD_VALUES])
def test_flag_and_config_file_refuse_alike(tmp_path, capsys, argv, key, value):
    # argparse only collects text: both sources reach one converter and the library
    out = tmp_path / "never.json"
    path = tmp_path / "run.cfg"
    path.write_text(f"{key}={value}\n")
    errors = []
    for given in (["--" + key.replace("_", "-"), value], ["--config", str(path)]):
        assert main(argv + given + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert not out.exists()


class TestOutputs:
    def test_worlds_default_json(self, tmp_path, capsys):
        out = tmp_path / "worlds.json"
        assert main(["worlds", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["result"]["log10_worlds"] - 60.9069004917679) < 1e-9
        assert payload["config"]["experiment"] == "worlds"
        assert payload["version"] == "0.11.0"

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

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_text_only_stdout_gets_the_report_text(self, tmp_path, capsys, output_format):
        # a stream with no byte buffer, such as io.StringIO, gets the report as text
        args = ["zeno", "--k", "1", "--format", output_format]
        out = tmp_path / "zeno.report"
        assert main(args + ["--out", str(out)]) == 0
        with contextlib.redirect_stdout(io.StringIO()) as stream:
            assert main(args) == 0
        assert stream.getvalue().encode("utf-8") == out.read_bytes()
        note = capsys.readouterr().err.splitlines()[-1]
        assert re.fullmatch(r"zeno: wrote stdout \(\d+\.\d{3} s\)", note)

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
        report = json.loads(out.read_bytes())
        assert report["config"]["experiment"] == args[0]
        assert set(report["result"]) == field_names(PAYLOAD_TYPES[args[0]])
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

    @staticmethod
    def count_factorizations(monkeypatch) -> dict:
        """Record the argument shape of every SVD, eigvalsh and reconstruction formed."""
        calls = {"svd": [], "eigvalsh": [], "reconstruction": []}

        def record(key, module, name, shape_of):
            fn = getattr(module, name)

            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[key].append(shape_of(args[0], result))
                return result

            monkeypatch.setattr(module, name, counting)

        record("svd", np.linalg, "svd", lambda a, result: a.shape)
        record("eigvalsh", np.linalg, "eigvalsh", lambda a, result: a.shape)
        record("reconstruction", schmidt, "_reconstruction_amplitudes",
               lambda a, result: result.shape)
        return calls

    @pytest.mark.parametrize("d_left,d_right", [(2, 2), (4, 6), (8, 3)])
    def test_schmidt_run_factors_once(self, tmp_path, monkeypatch, capsys, d_left, d_right):
        # the report's spectrum and reconstruction come from one SVD, each
        # formed once; the gap takes one eigensolve of the smaller side
        calls = self.count_factorizations(monkeypatch)
        out = tmp_path / "s.json"
        assert main(["schmidt", "--d-left", str(d_left), "--d-right", str(d_right),
                     "--out", str(out)]) == 0
        smaller = min(d_left, d_right)
        assert calls == {"svd": [(d_left, d_right)], "eigvalsh": [(smaller, smaller)],
                         "reconstruction": [(d_left * d_right,)]}

    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_branch_run_factors_once(self, tmp_path, monkeypatch, capsys, dim):
        calls = self.count_factorizations(monkeypatch)
        out = tmp_path / "b.json"
        assert main(["branch", "--dim", str(dim), "--out", str(out)]) == 0
        assert calls == {"svd": [(dim, dim)], "eigvalsh": [],
                         "reconstruction": [(dim * dim,)]}


class TestProcessExit:
    """A CLI process freezes its heap for teardown and still leaves through SystemExit."""

    def test_closed_stdout_is_three(self):
        # Python starts with sys.stdout = None when fd 1 is closed
        proc = subprocess.run([sys.executable, "-m", "manyworlds", "zeno", "--k", "3"],
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              preexec_fn=lambda: os.close(1), timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == ["error: cannot write the report: stdout is closed"]

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stderr", ["closed", "read-only"])
    @pytest.mark.parametrize("args, code, stdout", [
        (["zeno", "--k", "3", "--format", "csv"], 0,
         "n_intermediate,transmission_probability,mode,trials,seed\n"
         "3,0.53079004294495524,deterministic-polarizer,,\n"),
        (["zeno", "--k", "-1"], 2, ""),
    ], ids=["report", "config-error"])
    def test_unusable_stderr_keeps_the_exit_code(self, tmp_path, args, code, stdout, stderr,
                                                 buffered):
        # With fd 2 closed Python starts with sys.stderr None, and print would
        # fall back to stdout. On a read-only fd 2 each write fails with EBADF,
        # and a buffered line would fail again in the flush at exit.
        (tmp_path / "ro").touch()
        with open(tmp_path / "ro", "rb") as read_only:
            proc = subprocess.run(
                [sys.executable, "-m", "manyworlds", *args],
                env=child_env(PYTHONUNBUFFERED="" if buffered else "1"),
                stdout=subprocess.PIPE, text=True, timeout=120,
                **({"preexec_fn": lambda: os.close(2)} if stderr == "closed"
                   else {"stderr": read_only}))
        assert (proc.returncode, proc.stdout) == (code, stdout)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args, code, stderr", [
        (["zeno", "--k", "3"], 3, [f"error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}"]),
        (["--version"], 0, []),
        (["--help"], 0, []),
    ], ids=["report", "version", "help"])
    def test_unwritable_stdout_keeps_the_exit_code(self, tmp_path, args, code, stderr, buffered):
        # Each write to a read-only fd 1 fails with EBADF; a buffered stdout
        # would still hold the bytes, fail the flush at exit and exit 120.
        (tmp_path / "ro").touch()
        with open(tmp_path / "ro", "rb") as read_only:
            proc = subprocess.run(
                [sys.executable, "-m", "manyworlds", *args],
                env=child_env(PYTHONUNBUFFERED="" if buffered else "1"),
                stdout=read_only, stderr=subprocess.PIPE, text=True, timeout=120)
        assert (proc.returncode, proc.stderr.splitlines()) == (code, stderr)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args, code", [
        (["zeno", "--k", "3"], 3),
        (["zeno", "--k", "-1"], 2),
        (["--version"], 0),
        (["--help"], 0),
    ], ids=["report", "config-error", "version", "help"])
    def test_one_unwritable_fd_for_both_streams_keeps_the_exit_code(self, tmp_path, args, code,
                                                                    buffered):
        # stdout and stderr on one read-only fd: the report or help text fails,
        # and so does the error line that would tell of it
        (tmp_path / "ro").touch()
        with open(tmp_path / "ro", "rb") as read_only:
            proc = subprocess.run(
                [sys.executable, "-m", "manyworlds", *args],
                env=child_env(PYTHONUNBUFFERED="" if buffered else "1"),
                stdout=read_only, stderr=read_only, timeout=120)
        assert proc.returncode == code

    def test_finally_and_atexit_run_with_the_heap_frozen(self):
        child = ("import atexit, gc, sys\nfrom manyworlds import cli\n"
                 "atexit.register(lambda: print('atexit frozen', gc.get_freeze_count(),\n"
                 "                              file=sys.stderr))\n"
                 "try:\n    cli.entrypoint()\n"
                 "finally:\n    print('finally ran', file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", child, "zeno", "--k", "3"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert '"experiment": "zeno"' in proc.stdout
        *_, finally_line, atexit_line = proc.stderr.splitlines()
        assert finally_line == "finally ran"
        assert atexit_line.startswith("atexit frozen ")
        assert int(atexit_line.split()[-1]) > 0

    def test_profiler_still_prints_its_stats(self):
        proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "manyworlds",
                               "zeno", "--k", "3"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "function calls" in proc.stdout and "Ordered by" in proc.stdout


class TestRunsAtDimensionCap:
    """Runs whose total dimension is exactly DIM_CAP finish and keep the invariants."""

    def test_chain_at_cap(self, tmp_path, capsys):
        out = tmp_path / "chain.json"
        assert main(["chain", "--dim", "2", "--devices", "13", "--seed", "5",
                     "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        steps = result["entropy_steps"]
        assert len(steps) == 1 + 13
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

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_branch_at_cap_peak_rss(self, tmp_path):
        # 128 dense children would take 32 MiB; each keeps its Schmidt pair instead.
        # VmHWM is this process's own peak; ru_maxrss would count the forking parent's.
        child = ("import sys\nfrom manyworlds import cli\ntry:\n    cli.entrypoint()\n"
                 "finally:\n    print(open('/proc/self/status').read(), file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", child, "branch", "--dim", "128",
                               "--out", str(tmp_path / "branch.json")],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peak_kib = int(proc.stderr.split("VmHWM:")[1].split()[0])
        assert peak_kib < 45 * 1024


def _limit_address_space():
    # runs in the child only: what a cap admits must fit an 8 GB machine
    resource.setrlimit(resource.RLIMIT_AS, (8 * 2**30, 8 * 2**30))


def _run_limited(args, out):
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "manyworlds", *args, "--out", str(out)],
                          capture_output=True, text=True, env=child_env(),
                          preexec_fn=_limit_address_space, timeout=600)
    return proc, time.perf_counter() - started


# One row per cap the CLI can reach: the run at the edge, the run just above it,
# and the edge's wall budget in seconds (about 4x its time on a 2-vCPU machine,
# start-up included). UNIFORMS_CAP runs on its slowest subcommand, the walk at one
# Philox block a trial: 2**26 trials in about 11 s.
CAP_EDGES = {
    "DIM_CAP": (["schmidt", "--d-left", str(DIM_CAP), "--d-right", "1"],
                ["schmidt", "--d-left", str(DIM_CAP + 1), "--d-right", "1"], 5),
    "CHAIN_DEVICES_CAP": (["chain", "--dim", "1", "--devices", str(CHAIN_DEVICES_CAP)],
                          ["chain", "--dim", "1", "--devices", str(CHAIN_DEVICES_CAP + 1)], 5),
    "POLARIZER_K_CAP": (["zeno", "--k", str(POLARIZER_K_CAP)],
                        ["zeno", "--k", str(POLARIZER_K_CAP + 1)], 16),
    "FULL_BRANCHING_DEPTH_CAP": (
        ["evolve", "--mode", "full-branching", "--depth", str(FULL_BRANCHING_DEPTH_CAP)],
        ["evolve", "--mode", "full-branching", "--depth", str(FULL_BRANCHING_DEPTH_CAP + 1)], 5),
    "UNIFORMS_CAP": (
        ["evolve", "--mode", "single-history", "--depth", "4", "--trials", str(UNIFORMS_CAP // 4)],
        ["evolve", "--mode", "single-history", "--depth", "4",
         "--trials", str(UNIFORMS_CAP // 4 + 1)], 45),
}


@pytest.mark.parametrize("cap", CAP_EDGES)
class TestCapEdges:
    """Each cap's edge finishes under 8 GiB of address space; cap + 1 exits 4 at once."""

    def test_edge_finishes_within_budget(self, tmp_path, cap):
        args, _, budget = CAP_EDGES[cap]
        proc, wall = _run_limited(args, tmp_path / "edge.json")
        assert proc.returncode == 0, proc.stderr
        assert wall < budget
        assert json.loads((tmp_path / "edge.json").read_bytes())["config"]["experiment"] == args[0]

    def test_cap_plus_one_is_four_within_a_second(self, tmp_path, cap):
        _, args, _ = CAP_EDGES[cap]
        proc, wall = _run_limited(args, tmp_path / "never.json")
        assert proc.returncode == 4
        assert wall < 1.0
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "cap" in err[0]
        assert not (tmp_path / "never.json").exists()


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
        parsed = json.loads(emit_report(config, payload))
        assert {k: repr(v) for k, v in parsed["result"].items()} == json_values(payload)
        assert parsed["config"] == {"experiment": experiment, "parameters": {"x": 1}, "seed": 3}
        assert parsed["version"] == __version__
        assert set(parsed) == {"config", "result", "version"}  # wall time never serialized

    @pytest.mark.parametrize("experiment,payload", PAYLOADS)
    def test_csv_round_trip(self, experiment, payload):
        config = ExperimentConfig(experiment=experiment, parameters={}, seed=3,
                                  output_format="csv")
        data = emit_report(config, payload)
        assert data.endswith(b"\n")
        assert b"\r" not in data
        assert read_csv_payload(data, payload) == payload

    def test_emitted_json_is_sorted_and_newline_terminated(self):
        config = ExperimentConfig(experiment="zeno", parameters={"k": 1}, seed=0)
        text = emit_report(config, ZenoReport(1, 0.25, "deterministic-polarizer")).decode()
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
    """Any reader gets every payload value back bit for bit, for any finite floats.

    JSON is read by json.loads, CSV cell by cell by the type of each value;
    comparing repr also tells -0.0 from 0.0 and 1 from 1.0.
    """

    @pytest.mark.parametrize("experiment", sorted(PAYLOAD_TYPES))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_json_round_trip(self, experiment, data):
        payload = data.draw(_payloads(PAYLOAD_TYPES[experiment]))
        seed = data.draw(st.integers(-(2**63), 2**64 - 1))
        config = ExperimentConfig(experiment=experiment, parameters={"x": 1}, seed=seed)
        parsed = json.loads(emit_report(config, payload))
        assert {k: repr(v) for k, v in parsed["result"].items()} == json_values(payload)
        assert parsed["config"]["seed"] == seed

    @pytest.mark.parametrize("experiment", sorted(PAYLOAD_TYPES))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_csv_round_trip(self, experiment, data):
        payload_type = PAYLOAD_TYPES[experiment]
        payload = data.draw(_payloads(payload_type))
        config = ExperimentConfig(experiment=experiment, parameters={}, seed=0,
                                  output_format="csv")
        emitted = emit_report(config, payload)
        assert repr(read_csv_payload(emitted, payload)) == repr(payload)

    # st.text() leaves out lone surrogates; the second alphabet admits them
    @settings(max_examples=500, deadline=None)
    @given(text=st.text() | st.text(st.characters(exclude_categories=())))
    def test_strings_escape_as_json_does(self, text):
        assert _json_string(text) == json.encoder.encode_basestring_ascii(text)


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


def emit_report_oracle(config, payload) -> bytes:
    fields = payload._asdict()
    if config.output_format == "json":
        envelope = {
            "config": {
                "experiment": config.experiment,
                "parameters": dict(config.parameters),
                "seed": config.seed,
            },
            "result": fields,
            "version": __version__,
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
        parameters = data.draw(PARAMETERS)
        seed = data.draw(st.integers(-(2**63), 2**64 - 1))
        for output_format in ("json", "csv"):
            config = ExperimentConfig(experiment, parameters, seed, output_format)
            assert emit_report(config, payload) == emit_report_oracle(config, payload)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_non_finite_rejected(self, bad, output_format):
        payload = BranchReport(3, 5, 3, (0.5, bad, 0.2), (), 1.0)
        config = ExperimentConfig("branch", {}, 0, output_format=output_format)
        with pytest.raises(ValueError, match="non-finite"):
            emit_report(config, payload)


class TestWriterRefusals:
    """A value no reader could get back is refused, in both formats."""

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_sequence_of_non_floats_is_a_type_error(self, output_format):
        payload = BranchReport(2, 5, 2, (1, 0.5), (0.0, 0.0), 0.0)
        config = ExperimentConfig("branch", {}, 0, output_format=output_format)
        with pytest.raises(TypeError, match="floats only"):
            emit_report(config, payload)

    @pytest.mark.parametrize("value,message", [
        ([1, 2], "floats only"), ({"a": 1.0}, "cannot serialize dict"),
        (np.int64(2), "cannot serialize int64"),
    ])
    def test_unserializable_parameter_is_a_type_error(self, value, message):
        config = ExperimentConfig("zeno", {"x": value}, 0)
        with pytest.raises(TypeError, match=message):
            emit_report(config, ZenoReport(1, 0.25, "deterministic-polarizer"))

    @pytest.mark.parametrize("text", ["a,b", 'a"b', "a\nb", "a\rb"])
    def test_csv_cell_with_a_separator_is_a_value_error(self, text):
        config = ExperimentConfig("zeno", {}, 0, output_format="csv")
        with pytest.raises(ValueError, match="not representable in a CSV cell"):
            emit_report(config, ZenoReport(1, 0.25, text))


class TestFloatFormatting:
    @pytest.mark.parametrize(
        "value",
        [0.5, 1 / 3, 0.1, 5.39e-44, 4.35e17, 1e308, 5e-324, 60.0, -0.0,
         math.pi, 2.083984375, 1.0000000000000002],
    )
    def test_seventeen_digits_round_trip(self, value):
        assert repr(float(_float_text(value))) == repr(value)

    def test_integral_floats_keep_a_decimal_point(self):
        assert [_float_text(60.0), _float_text(0.0)] == ["60.0", "0.0"]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            _float_text(math.inf)
        with pytest.raises(ValueError):
            _float_text(-math.inf)
        with pytest.raises(ValueError):
            _float_text(math.nan)
