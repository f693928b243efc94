import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppsde
from ppsde.cli import (
    TRACE_COLUMNS,
    ExperimentSpec,
    execute,
    load_config_file,
    main,
    parse_args,
    read_trace_csv,
    write_trace_csv,
)
from ppsde.problems import canonical_problem_id, make_suite_problem
from ppsde.solver import ALGORITHMS, RunConfig, _resolve, run

FAST = {"n_pop": 10, "top_size": 5, "max_fes": 210}


# every setting a flag sets: its flag, its config-file spellings and its valid values
FLAG_SETTINGS = {
    "problem": ("--problem", ["problem"], st.lists(
        st.sampled_from(["P1", "P2", "P3", "p4", "P5-rosenbrock-ball"]),
        min_size=1, max_size=3, unique_by=canonical_problem_id)),
    "dim": ("--dim", ["dim"], st.lists(st.integers(2, 60), min_size=1, max_size=3, unique=True)),
    "algo": ("--algo", ["algo"], st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3,
                                          unique=True)),
    "runs": ("--runs", ["runs"], st.integers(1, 50)),
    "seed": ("--seed", ["seed"], st.integers(0, 10**6)),
    "out": ("--out", ["out"], st.text("abcxyz_/.", min_size=1, max_size=10)),
    "workers": ("--workers", ["workers"], st.integers(1, 8)),
    # the sizes are drawn relative to each other, so that most merged batches
    # pass ExperimentSpec's checks: a top size up to 10 fits every population,
    # given or defaulted to max(5 * dim, 8) >= 10, and every budget covers
    # every population; a top size of 11 to 16 still fails some batches
    "max_fes": ("--max-fes", ["max-fes", "max_fes"], st.integers(500, 10**6)),
    "n_pop": ("--pop", ["pop", "n_pop", "n-pop"], st.integers(10, 500)),
    "top_size": ("--top", ["top", "top_size", "top-size"], st.integers(4, 16)),
}
# the RunConfig field only a config file sets
FILE_SETTINGS = {
    "learning_period": st.integers(1, 100),
}
DEFAULTS = {"dim": [10], "algo": ["pps-de"], "runs": 25, "seed": 0, "out": "results",
            "workers": 1}


def fast_spec(out_dir, **kw):
    defaults = dict(
        problems=(("P1-sphere-shifted", 2), ("P2-active-linear", 2)),
        algorithms=("pps-de", "sf-de"),
        runs=2,
        base_seed=0,
        out_dir=str(out_dir),
        overrides=dict(FAST),
        workers=1,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestParseArgs:
    def test_minimal_flags_and_defaults(self):
        spec = parse_args(["run", "--problem", "P1"])
        assert spec.problems == (("P1-sphere-shifted", 10),)
        assert spec.algorithms == ("pps-de",)
        assert spec.runs == 25
        assert spec.base_seed == 0
        assert spec.out_dir == "results"
        assert spec.workers == 1
        assert spec.overrides == {}

    def test_cross_product_and_repeatable_flags(self):
        spec = parse_args(["run", "--problem", "P1", "--problem", "p3",
                           "--dim", "2", "--dim", "5",
                           "--algo", "pps-de", "--algo", "eps-de"])
        assert spec.problems == (
            ("P1-sphere-shifted", 2), ("P1-sphere-shifted", 5),
            ("P3-equality", 2), ("P3-equality", 5),
        )
        assert spec.algorithms == ("pps-de", "eps-de")

    def test_override_flags(self):
        spec = parse_args(["run", "--problem", "P1", "--max-fes", "500",
                           "--pop", "12", "--top", "6"])
        assert spec.overrides == {"max_fes": 500, "n_pop": 12, "top_size": 6}

    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "# comment line\n"
            "problem = P1, P2\n"
            "dim = 3\n"
            "algo = sf-de\n"
            "runs = 7\n"
            "seed = 5\n"
            "max-fes = 300   # inline comment\n"
            "learning-period = 7\n"
        )
        spec = parse_args(["run", "--config", str(cfg), "--runs", "2"])
        assert spec.problems == (("P1-sphere-shifted", 3), ("P2-active-linear", 3))
        assert spec.algorithms == ("sf-de",)
        assert spec.runs == 2  # flag beats file
        assert spec.base_seed == 5
        assert spec.overrides == {"max_fes": 300, "learning_period": 7}

    @pytest.mark.parametrize("flag, key, text, value", [
        ("--max-fes", "max-fes", "1e3", 1000.0),
        ("--max-fes", "max_fes", "500", 500),
        ("--pop", "pop", "1.2e1", 12.0),
        ("--top", "top-size", "6", 6),
        ("--top", "top", "2.5", 2.5),
    ])
    def test_flag_and_file_read_a_number_alike(self, tmp_path, capsys, flag, key, text, value):
        """A flag and its file key read a number alike; a size that is not a
        whole number then fails the batch check alike, with exit code 2."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem = P1\n{key} = {text}\n")
        outcomes = []
        for argv in (["run", "--config", str(cfg)], ["run", "--problem", "P1", flag, text]):
            try:
                outcomes.append(parse_args(argv))
            except SystemExit as exc:
                outcomes.append((exc.code, capsys.readouterr().err))
        by_file, by_flag = outcomes
        assert by_flag == by_file
        if value % 1:
            code, err = by_flag
            assert code == 2 and "must be a whole number" in err
        else:
            (got,) = by_flag.overrides.values()
            assert got == value and type(got) is type(value)

    @pytest.mark.parametrize("flag", ["--max-fes", "--pop", "--top"])
    def test_a_flag_that_is_not_a_number_exits_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--problem", "P1", flag, "many"])
        assert exc.value.code == 2
        assert "invalid number value: 'many'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["run", "--problem", "P9"],
        ["run", "--problem", "P1", "--algo", "nope"],
        ["run", "--problem", "P1", "--runs", "0"],
        ["run", "--problem", "P1", "--dim", "1"],
        ["run", "--problem", "P1", "--workers", "0"],
        ["run", "--problem", "P1", "--no-such-flag"],
        ["nope"],
        ["run", "--problem", "P1", "--algo", "pps-de", "--algo", "nope"],
        ["run", "--problem", "P1", "--seed", "-1"],
        ["run", "--problem", "P1", "--pop", "3"],
        ["run", "--problem", "P1", "--max-fes", "5"],
    ])
    def test_bad_usage_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, config", [
        (["--pop", "3"], ""),
        ([], "runs = abc\n"),
        ([], "bogus = 1\n"),
    ], ids=["batch", "file-value", "file-key"])
    def test_an_error_after_parsing_prints_the_run_usage(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--problem", "P1", "--config", str(cfg), *argv])
        assert exc.value.code == 2
        usage, _, error = capsys.readouterr().err.partition("ppsde run: error: ")
        assert usage.startswith("usage: ppsde run ") and "--pop" in usage
        assert error

    @pytest.mark.parametrize("line, flag, error", [
        ("runs = abc", "--runs 2", "'runs' must be an integer"),
        ("dim = ten", "--dim 3", "'dim' must be an integer"),
        ("dim = 3, ten", "--dim 3", "'dim' must be an integer"),
        ("seed = 1.5", "--seed 1", "'seed' must be an integer"),
        ("workers = two", "--workers 1", "'workers' must be an integer"),
        ("max-fes = xyz", "--max-fes 500", "'max_fes' must be a number"),
        ("pop = many", "--pop 12", "'n_pop' must be a number"),
    ])
    def test_malformed_config_value_exits_2_when_a_flag_wins(self, tmp_path, capsys, line,
                                                            flag, error):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"problem = P1\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--config", str(cfg), *flag.split()])
        assert exc.value.code == 2
        assert f"config key {error}" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_flag_then_file_then_default(self, data):
        """Each setting split at random between the flags and the file, some
        in both, merges as the flag if given, else the file, else the
        default; the overrides are the RunConfig fields either one gave.
        Merged settings that ExperimentSpec rejects, such as a top size above
        the population, exit 2 with its message instead."""
        argv, lines, flags, files = ["run"], [], {}, {}
        for key, (flag, spellings, values) in FLAG_SETTINGS.items():
            sources = ["file", "flag", "both"] + ([] if key == "problem" else ["none"])
            source = data.draw(st.sampled_from(sources), label=f"{key} source")
            if source in ("file", "both"):
                files[key] = data.draw(values, label=f"{key} file value")
                text = files[key]
                text = ", ".join(map(str, text)) if isinstance(text, list) else str(text)
                lines.append(f"{data.draw(st.sampled_from(spellings))} = {text}")
            if source in ("flag", "both"):
                flags[key] = data.draw(values, label=f"{key} flag value")
                for value in flags[key] if isinstance(flags[key], list) else [flags[key]]:
                    argv += [flag, str(value)]
        for key, values in FILE_SETTINGS.items():
            if data.draw(st.booleans(), label=f"{key} in file"):
                files[key] = data.draw(values, label=f"{key} file value")
                lines.append(f"{key} = {files[key]!r}")
        lines = data.draw(st.permutations(lines), label="file lines")

        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp, "run.cfg")
            cfg.write_text("".join(line + "\n" for line in lines))
            try:
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    spec = parse_args(argv + ["--config", str(cfg)])
            except SystemExit as exc:
                spec = exc.code

        want = {**DEFAULTS, **files, **flags}
        problems = tuple((pid, dim) for pid in want["problem"] for dim in want["dim"])
        overrides = {key: want[key] for key in (*FILE_SETTINGS, "max_fes", "n_pop", "top_size")
                     if key in want}
        if spec == 2:
            with pytest.raises(ValueError) as rejected:
                ExperimentSpec(problems=problems, algorithms=tuple(want["algo"]),
                               runs=want["runs"], base_seed=want["seed"], out_dir=want["out"],
                               overrides=overrides, workers=want["workers"])
            assert f"error: {rejected.value}\n" in err.getvalue()
            return
        assert spec.problems == tuple((canonical_problem_id(pid), dim) for pid, dim in problems)
        assert spec.algorithms == tuple(want["algo"])
        assert (spec.runs, spec.base_seed, spec.out_dir, spec.workers) == (
            want["runs"], want["seed"], want["out"], want["workers"])
        assert spec.overrides == overrides

    @settings(max_examples=100, deadline=None)
    @given(problems=st.lists(st.sampled_from(["P1", "p3", "P4-disconnected"]), min_size=1,
                             max_size=2, unique_by=canonical_problem_id),
           dims=st.lists(st.integers(2, 4), min_size=1, max_size=3, unique=True),
           algos=st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3, unique=True),
           runs=st.integers(1, 3), seed=st.integers(-2, 5),
           pop=st.none() | st.integers(1, 60) | st.just(2.5),
           top=st.none() | st.integers(1, 60) | st.just(2.5),
           max_fes=st.none() | st.integers(1, 2000))
    def test_a_batch_exits_2_or_holds_its_resolved_runs(self, problems, dims, algos, runs, seed,
                                                       pop, top, max_fes):
        """Every setting is checked when the spec is built: parse_args exits 2
        and creates nothing, or the spec's jobs are the runs as ``run``
        resolves them, in problem, algorithm, run order under their trace
        names.  No run executes."""
        given_sizes = {"n_pop": pop, "top_size": top, "max_fes": max_fes}
        argv = ["run", "--runs", str(runs), "--seed", str(seed)]
        argv += [arg for pid in problems for arg in ("--problem", pid)]
        argv += [arg for dim in dims for arg in ("--dim", str(dim))]
        argv += [arg for algo in algos for arg in ("--algo", algo)]
        for flag, value in zip(("--pop", "--top", "--max-fes"), given_sizes.values()):
            argv += [] if value is None else [flag, str(value)]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch("ppsde.cli.run", side_effect=AssertionError("a run executed")):
            out = Path(tmp, "out")
            try:
                spec = parse_args(argv + ["--out", str(out)])
            except SystemExit as exc:
                assert exc.code == 2
                assert not out.exists()
                return
            assert not out.exists()

        order = [(canonical_problem_id(pid), dim, algo, i)
                 for pid in problems for dim in dims for algo in algos for i in range(runs)]
        assert len(spec.jobs) == len(order)
        for (problem, config, path), (pid, dim, algo, i) in zip(spec.jobs, order):
            assert (problem.name, problem.dim) == (pid, dim)
            assert (config.algorithm, config.seed) == (algo, seed + i)
            assert all(getattr(config, key) == value
                       for key, value in given_sizes.items() if value is not None)
            assert all(type(getattr(config, key)) is int
                       for key in ("seed", "n_pop", "top_size", "max_fes", "learning_period"))
            assert _resolve(problem, config) == config
            assert path == str(out / f"{pid.split('-')[0]}_d{dim}_{algo}_run{i:02d}.csv")

    def test_repeated_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("problem = P1\nruns = 3\nruns = 5\n")
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "twice.cfg:3" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem = P1\nbogus = 3\n")
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--config", str(cfg)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key", ["p-fraction", "memory-length", "switch-threshold",
                                     "switch-delta", "eps-quantile", "eps-shrink",
                                     "eps-feasible-trigger", "eps-decay-power",
                                     "eps-cutoff-fraction"])
    def test_fixed_constants_are_not_config_keys(self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"problem = P1\n{key} = 0.5\n")
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["runs = abc", "seed = 1.5", "dim = ten",
                                      "workers = two"])
    def test_non_integer_config_value_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"problem = P1\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_non_numeric_setting_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem = P1\nlearning_period = abc\n")
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "config key 'learning_period' must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["sigma = 1e-3", "eps_initial = 0", "eps-initial = 0.5"])
    def test_a_problem_or_start_level_setting_exits_2_before_any_output(self, tmp_path, capsys,
                                                                      line):
        """sigma is the problem's and the start level is initial_eps's, so a
        config file that sets either exits 2 and writes nothing."""
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text(f"problem = P1\ndim = 2\nruns = 1\nmax-fes = 100\nout = {out}\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "unknown config key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, config", [
        (["--problem", "P1", "--problem", "p1"], ""),
        (["--problem", "P1", "--problem", "P1-sphere-shifted"], ""),
        (["--problem", "P1", "--dim", "4", "--dim", "4"], ""),
        (["--problem", "P1", "--algo", "sf-de", "--algo", "sf-de"], ""),
        ([], "problem = P2, p2\n"),
        ([], "problem = P1\ndim = 3, 5, 3\n"),
        ([], "problem = P1\nalgo = eps-de, pps-de, eps-de\n"),
    ], ids=["problem", "problem-full-name", "dim", "algo",
            "file-problem", "file-dim", "file-algo"])
    def test_repeated_cell_exits_2(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--config", str(cfg), "--runs", "1", *argv])
        assert exc.value.code == 2
        assert "may be given only once" in capsys.readouterr().err


class TestExperimentSpec:
    @pytest.mark.parametrize("change, message", [
        ({"problems": ()}, "at least one problem"),
        ({"algorithms": ()}, "at least one algorithm"),
        ({"problems": (("P1-sphere-shifted", 1),)}, "dim must be a whole number >= 2"),
        ({"problems": (("P1-sphere-shifted", 2.5),)}, "dim must be a whole number >= 2"),
        ({"problems": (("P1-sphere-shifted", math.nan),)}, "dim must be a whole number >= 2"),
        ({"problems": (("P9", 2),)}, "unknown problem id"),
        ({"problems": (("P1-sphere-shifted", 2),) * 2}, "cell may be given only once"),
        ({"problems": (("P1", 2), ("P1-sphere-shifted", 2))}, "cell may be given only once"),
        ({"algorithms": ("pps-de", "nope")}, "unknown algorithm"),
        ({"algorithms": ("pps-de", "sf-de", "pps-de")}, "algorithm may be given only once"),
        ({"runs": 0}, "runs must be a whole number >= 1"),
        ({"runs": 2.5}, "runs must be a whole number"),
        ({"workers": 0}, "workers must be a whole number >= 1"),
        ({"workers": 1.5}, "workers must be a whole number"),
        ({"overrides": {"seed": 5}}, "unknown override key"),
        ({"overrides": {"max_fes": 300, "bogus": 1}}, "unknown override key"),
        ({"base_seed": -1}, "seed must be a whole number >= 0"),
        ({"base_seed": 1.5}, "seed must be a whole number >= 0"),
        ({"base_seed": math.nan}, "seed must be a whole number >= 0"),
        ({"overrides": {"n_pop": 3}}, "population size must be a whole number >= 4"),
        ({"overrides": {"sigma": math.nan}}, "unknown override key"),
    ], ids=["no-problem", "no-algorithm", "dim-1", "dim-fraction", "dim-nan", "unknown-problem",
            "repeated-cell", "repeated-short-id", "unknown-algorithm", "repeated-algorithm",
            "runs-0", "runs-fraction", "workers-0", "workers-fraction",
            "override-seed", "override-unknown", "seed-negative", "seed-fraction", "seed-nan",
            "pop-3", "sigma-nan"])
    def test_an_invalid_batch_raises_value_error(self, tmp_path, change, message):
        with pytest.raises(ValueError, match=message):
            fast_spec(tmp_path, **change)

    @pytest.mark.parametrize("key", ["sigma", "eps_initial"])
    def test_a_problem_or_start_level_override_names_the_allowed_keys(self, tmp_path, key):
        with pytest.raises(ValueError) as exc:
            fast_spec(tmp_path, overrides={key: 1e-3})
        assert str(exc.value).endswith(
            "choose from ('n_pop', 'top_size', 'max_fes', 'learning_period')")

    def test_whole_numbers_are_stored_as_ints(self, tmp_path):
        spec = fast_spec(tmp_path, problems=(("P1", 2.0), ("P2", np.int64(3))), runs=2.0,
                         workers=np.float64(1.0), base_seed=np.float64(4.0))
        assert spec.problems == (("P1-sphere-shifted", 2), ("P2-active-linear", 3))
        assert spec.base_seed == 4
        values = (*(dim for _, dim in spec.problems), spec.runs, spec.workers, spec.base_seed)
        assert all(type(v) is int for v in values)

    def test_a_whole_float_base_seed_writes_the_same_summary(self, tmp_path):
        spec = dict(problems=(("P1-sphere-shifted", 2),), algorithms=("pps-de",), runs=1)
        assert execute(fast_spec(tmp_path / "int", base_seed=1, **spec)) == 0
        assert execute(fast_spec(tmp_path / "float", base_seed=1.0, **spec)) == 0
        summary = (tmp_path / "float" / "summary.json").read_bytes()
        assert summary == (tmp_path / "int" / "summary.json").read_bytes()
        assert b'"base_seed": 1,' in summary

    def test_jobs_are_derived_not_compared(self, tmp_path):
        spec = fast_spec(tmp_path)
        assert len(spec.jobs) == 8 and "jobs=" not in repr(spec)
        assert spec == fast_spec(tmp_path)
        with pytest.raises(TypeError):
            fast_spec(tmp_path, jobs=())

    def test_overrides_are_a_read_only_copy(self, tmp_path):
        given = dict(FAST)
        spec = fast_spec(tmp_path, runs=1, overrides=given)
        with pytest.raises(TypeError):
            spec.overrides["seed"] = 5
        given["seed"] = 5  # a later change to the caller's dict does not reach the spec
        assert spec.overrides == FAST
        assert execute(spec) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["overrides"] == FAST

    def test_a_checked_batch_cannot_be_changed(self, tmp_path):
        spec = fast_spec(tmp_path)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.runs = 0

    def test_problem_ids_are_kept_in_full(self, tmp_path):
        spec = fast_spec(tmp_path, problems=(("p2", 3), ("P4-disconnected", 3)))
        assert spec.problems == (("P2-active-linear", 3), ("P4-disconnected", 3))


class TestConfigFile:
    def test_parses_flat_keys(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("alpha = 1\n\n# full comment\nbeta-key = two words\n")
        assert load_config_file(str(cfg)) == {"alpha": "1", "beta_key": "two words"}

    def test_rejects_lines_without_assignment(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("just text\n")
        with pytest.raises(ValueError, match="b.cfg:1"):
            load_config_file(str(cfg))

    def test_rejects_empty_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("= 3\n")
        with pytest.raises(ValueError):
            load_config_file(str(cfg))

    def test_flag_keys_name_their_setting(self, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("pop = 12\ntop = 6\nmax-fes = 300\n")
        assert load_config_file(str(cfg)) == {"n_pop": "12", "top_size": "6", "max_fes": "300"}

    @pytest.mark.parametrize("text, line", [
        ("runs = 3\nruns = 5\n", 2),
        ("max-fes = 300\n# a comment\nmax_fes = 400\n", 3),
        ("n_pop = 12\npop = 14\n", 2),
        ("problem = P1\ntop = 6\ntop-size = 6\n", 3),
    ], ids=["same", "dash-underscore", "pop-n_pop", "top-top_size"])
    def test_rejects_a_repeated_setting(self, tmp_path, text, line):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(text)
        with pytest.raises(ValueError, match=f"e.cfg:{line}: .* repeats the setting"):
            load_config_file(str(cfg))


class TestTraceCsv:
    def test_round_trip_is_exact(self, tmp_path):
        prob = make_suite_problem("P2", 2)
        res = run(prob, RunConfig(seed=0, **FAST))
        path = tmp_path / "trace.csv"
        write_trace_csv(res, str(path))
        back = read_trace_csv(str(path))
        np.testing.assert_array_equal(back["generation"], res.trace.generation)
        np.testing.assert_array_equal(back["fes"], res.trace.fes)
        np.testing.assert_array_equal(back["best_f"], res.trace.best_f)
        np.testing.assert_array_equal(back["best_phi"], res.trace.best_phi)
        np.testing.assert_array_equal(back["phase"], res.trace.phase)
        np.testing.assert_array_equal(back["eps_k"], res.trace.eps)
        for j in range(3):
            np.testing.assert_array_equal(back[f"sr{j + 1}"], res.trace.sr[:, j])

    def test_bytes_equal_a_per_element_writer(self, tmp_path):
        """The column-wise writer prints what formatting each element does."""
        res = run(make_suite_problem("P2", 2), RunConfig(seed=0, **FAST))
        n = len(res.trace.generation)
        assert n >= 3
        edge = [math.inf, math.nan, -0.0, 0.0, 1e-300, -2.5e17, 0.1]
        column = np.resize(edge, n)
        trace = dataclasses.replace(
            res.trace, best_f=column, best_phi=column[::-1].copy(),
            eps=np.roll(column, 1), phase=np.resize(np.array(["push", "pull", "sf"]), n),
            sr=np.column_stack((column, np.roll(column, 2), np.full(n, 1.0 / 3.0))))
        result = dataclasses.replace(res, trace=trace)
        path, reference = tmp_path / "trace.csv", tmp_path / "reference.csv"
        write_trace_csv(result, str(path))
        with open(reference, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for i in range(n):
                writer.writerow([
                    int(trace.generation[i]), int(trace.fes[i]),
                    repr(float(trace.best_f[i])), repr(float(trace.best_phi[i])),
                    str(trace.phase[i]), repr(float(trace.eps[i])),
                    *(repr(float(trace.sr[i, j])) for j in range(3)),
                ])
        assert path.read_bytes() == reference.read_bytes()
        text = path.read_text()
        assert all(token in text for token in ("inf", "nan", "-0.0", "push", "pull", "sf"))

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(str(path))

    @pytest.mark.parametrize("body", [
        None,
        "0,58,1.5,0.0,push\n",
        "0,58,1.5,0.0,push,inf,0.25,0.25,0.5,7\n",
        "0,58,1.5,0.0,push,inf,0.25,0.25,0.5\n\n",
        "0,58," + "9" * 200_000 + "\n",
    ], ids=["empty", "short-row", "long-row", "blank-line", "oversized-field"])
    def test_a_file_that_is_not_a_whole_trace_raises_value_error(self, tmp_path, body):
        # a truncated trace must read as a bad file, not crash its reader
        path = tmp_path / "bad.csv"
        path.write_text("" if body is None else ",".join(TRACE_COLUMNS) + "\n" + body)
        with pytest.raises(ValueError, match="bad.csv"):
            read_trace_csv(str(path))


class TestExecute:
    def test_small_batch_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "batch"
        assert execute(fast_spec(out)) == 0
        names = sorted(os.listdir(out))
        csvs = [n for n in names if n.endswith(".csv")]
        assert len(csvs) == 8
        assert "P1_d2_pps-de_run00.csv" in csvs
        assert "P2_d2_sf-de_run01.csv" in csvs
        assert "summary.json" in names and "friedman.json" in names

        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"] == 2
        assert summary["algorithms"] == ["pps-de", "sf-de"]
        assert len(summary["cells"]) == 4
        cell = summary["cells"]["P1-sphere-shifted/D2/pps-de"]
        assert len(cell["final_f"]) == 2
        assert cell["summary_on"] in ("objective", "violation")
        assert summary["friedman"]["algorithms"] == ["pps-de", "sf-de"]
        captured = capsys.readouterr()
        assert "wrote 8 traces" in captured.out

    def test_summary_statistics_match_trace_files(self, tmp_path):
        """Every cell record, the cells on violation and every Friedman
        matrix entry equal what the run's trace CSVs give, so each sits at
        its own problem and algorithm.  The second batch has cells of both
        kinds: its P3 cells end infeasible and its P4 cells feasible."""
        specs = [fast_spec(tmp_path / "fast"),
                 fast_spec(tmp_path / "p3p4",
                           problems=(("P3-equality", 2), ("P4-disconnected", 2)),
                           algorithms=ALGORITHMS, runs=3, overrides={"max_fes": 200})]
        for spec in specs:
            assert execute(spec) == 0
            out = Path(spec.out_dir)
            summary = json.loads((out / "summary.json").read_text())
            friedman = json.loads((out / "friedman.json").read_text())
            assert summary["friedman"] == friedman
            assert friedman["problems"] == [f"{pid}/D{dim}" for pid, dim in spec.problems]
            assert friedman["algorithms"] == list(spec.algorithms)
            assert len(summary["cells"]) == len(spec.problems) * len(spec.algorithms)
            on_violation = []
            for p, (pid, dim) in enumerate(spec.problems):
                for a, algo in enumerate(spec.algorithms):
                    key = f"{pid}/D{dim}/{algo}"
                    short = pid.split("-")[0]
                    traces = [read_trace_csv(str(out / f"{short}_d{dim}_{algo}_run{i:02d}.csv"))
                              for i in range(spec.runs)]
                    last_f = np.array([tr["best_f"][-1] for tr in traces])
                    last_phi = np.array([tr["best_phi"][-1] for tr in traces])
                    feasible = last_phi == 0.0
                    sample = last_f[feasible] if feasible.any() else last_phi
                    if not feasible.any():
                        on_violation.append(key)
                    assert summary["cells"][key] == {
                        "final_f": last_f.tolist(), "final_phi": last_phi.tolist(),
                        "feasibility_rate": np.mean(feasible),
                        "summary_on": "objective" if feasible.any() else "violation",
                        "cell_mean": np.mean(sample), "mean": np.mean(sample),
                        "std": np.std(sample, ddof=1) if sample.size > 1 else 0.0,
                        "best": sample.min(), "worst": sample.max(),
                        "median": np.median(sample),
                    }, key
                    assert friedman["matrix"][p][a] == np.mean(sample), key
            assert friedman["cells_on_violation"] == sorted(on_violation)
        assert 0 < len(on_violation) < len(summary["cells"])

    def test_a_row_of_feasible_and_infeasible_cells_is_ranked_feasibility_first(self, tmp_path):
        """On P3 D=5 at 3000 evaluations pps-de ends infeasible in all five
        runs, the other two feasible in all five.  Its mean violation is
        below their mean objectives, yet ranked feasibility first it comes
        last on P3 and has the worst average rank; the P1 row, feasible in
        every run, keeps its cell means."""
        spec = fast_spec(tmp_path / "mixed", problems=(("P3", 5), ("P1", 5)),
                         algorithms=ALGORITHMS, runs=5, overrides={"max_fes": 3000})
        assert execute(spec) == 0
        out = Path(spec.out_dir)
        cells = json.loads((out / "summary.json").read_text())["cells"]
        friedman = json.loads((out / "friedman.json").read_text())
        p3 = [cells[f"P3-equality/D5/{algo}"] for algo in ALGORITHMS]
        assert [c["feasibility_rate"] for c in p3] == [0.0, 1.0, 1.0]
        assert p3[0]["cell_mean"] < min(p3[1]["cell_mean"], p3[2]["cell_mean"])
        assert friedman["ranked_problems"] == ["P3-equality/D5"]
        assert friedman["cells_on_violation"] == ["P3-equality/D5/pps-de"]
        assert friedman["matrix"][0] == [3.0, 1.0, 2.0]
        assert friedman["matrix"][1] == [cells[f"P1-sphere-shifted/D5/{algo}"]["cell_mean"]
                                         for algo in ALGORITHMS]
        ranks = friedman["avg_ranks"]
        assert ranks["pps-de"] == max(ranks.values())

    def test_seed_derivation_matches_direct_run(self, tmp_path):
        out = tmp_path / "batch"
        spec = fast_spec(out, problems=(("P2-active-linear", 2),),
                         algorithms=("pps-de",), runs=2, base_seed=40)
        assert execute(spec) == 0
        summary = json.loads((out / "summary.json").read_text())
        cell = summary["cells"]["P2-active-linear/D2/pps-de"]
        direct = run(make_suite_problem("P2", 2), RunConfig(seed=41, **FAST))
        assert cell["final_f"][1] == direct.best.f
        assert cell["final_phi"][1] == direct.best.phi

    def test_friedman_skipped_for_single_cell(self, tmp_path, capsys):
        out = tmp_path / "solo"
        spec = fast_spec(out, problems=(("P1-sphere-shifted", 2),),
                         algorithms=("pps-de",), runs=1)
        assert execute(spec) == 0
        assert json.loads((out / "summary.json").read_text())["friedman"] is None
        assert not (out / "friedman.json").exists()
        assert "skipped" in capsys.readouterr().out

    def test_outputs_reproduce_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert execute(fast_spec(a)) == 0
        assert execute(fast_spec(b)) == 0
        files = sorted(os.listdir(a))
        assert files == sorted(os.listdir(b))
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_parallel_workers_change_nothing(self, tmp_path):
        a, c = tmp_path / "a", tmp_path / "c"
        assert execute(fast_spec(a)) == 0
        assert execute(fast_spec(c, workers=2)) == 0
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (c / name).read_bytes(), name

    def test_failure_returns_1(self, tmp_path, capsys):
        # an invalid setting fails when the spec is built, so what execute
        # reports is a failure while it runs, here an output path that is a file
        blocked = tmp_path / "file"
        blocked.write_text("")
        assert execute(fast_spec(blocked)) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_fails_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "P1", "--dim", "2", "--runs", "1", "--seed", "-1",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "error: seed" in capsys.readouterr().err
        assert not out.exists()

    def test_config_invalid_for_a_later_cell_fails_before_any_output(self, tmp_path, capsys):
        # a top part of 20 fits the D=10 population of 50 but not the D=2
        # population of 10
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "P1", "--dim", "10", "--dim", "2", "--runs", "2",
                  "--top", "20", "--max-fes", "300", "--out", str(out)])
        assert exc.value.code == 2
        assert "error: top size" in capsys.readouterr().err
        assert not out.exists()

    def test_main_raises_system_exit(self, tmp_path):
        out = tmp_path / "m"
        argv = ["run", "--problem", "P1", "--dim", "2", "--runs", "1",
                "--pop", "10", "--top", "5", "--max-fes", "210",
                "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert (out / "summary.json").exists()


def _python_m(module, args, cwd):
    """Run ``python -m module args`` on this checkout's package."""
    src = str(Path(ppsde.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", module, *args], cwd=cwd, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)


@pytest.mark.parametrize("module", ["ppsde", "ppsde.cli"])
class TestModuleEntryPoints:
    def test_tiny_batch_writes_summary(self, module, tmp_path):
        out = tmp_path / "out"
        done = _python_m(module, ["run", "--problem", "P1", "--dim", "2", "--runs", "1",
                                  "--max-fes", "100", "--out", str(out)], tmp_path)
        assert done.returncode == 0, done.stderr
        assert (out / "summary.json").exists()
        assert "wrote 1 traces" in done.stdout

    def test_unknown_flag_exits_2(self, module, tmp_path):
        done = _python_m(module, ["run", "--problem", "P1", "--no-such-flag"], tmp_path)
        assert done.returncode == 2
        assert "unrecognized arguments" in done.stderr
