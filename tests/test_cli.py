import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from ppsde.problems import make_suite_problem
from ppsde.solver import RunConfig, run

FAST = {"n_pop": 10, "top_size": 5, "max_fes": 210}


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
            "eps-initial = 0.5\n"
        )
        spec = parse_args(["run", "--config", str(cfg), "--runs", "2"])
        assert spec.problems == (("P1-sphere-shifted", 3), ("P2-active-linear", 3))
        assert spec.algorithms == ("sf-de",)
        assert spec.runs == 2  # flag beats file
        assert spec.base_seed == 5
        assert spec.overrides == {"max_fes": 300, "eps_initial": 0.5}

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["run", "--problem", "P9"],
        ["run", "--problem", "P1", "--algo", "nope"],
        ["run", "--problem", "P1", "--runs", "0"],
        ["run", "--problem", "P1", "--dim", "1"],
        ["run", "--problem", "P1", "--workers", "0"],
        ["run", "--problem", "P1", "--no-such-flag"],
        ["nope"],
    ])
    def test_bad_usage_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2

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
        cfg.write_text("problem = P1\nsigma = abc\n")
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "config key 'sigma' must be a number" in capsys.readouterr().err

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
        out = tmp_path / "batch"
        assert execute(fast_spec(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        for (pid, dim) in (("P1-sphere-shifted", 2), ("P2-active-linear", 2)):
            for algo in ("pps-de", "sf-de"):
                cell = summary["cells"][f"{pid}/D{dim}/{algo}"]
                short = pid.split("-")[0]
                last_f, last_phi = [], []
                for i in range(2):
                    tr = read_trace_csv(str(out / f"{short}_d{dim}_{algo}_run{i:02d}.csv"))
                    last_f.append(tr["best_f"][-1])
                    last_phi.append(tr["best_phi"][-1])
                last_f, last_phi = np.array(last_f), np.array(last_phi)
                np.testing.assert_array_equal(cell["final_f"], last_f)
                np.testing.assert_array_equal(cell["final_phi"], last_phi)
                feasible = last_phi == 0.0
                if cell["summary_on"] == "objective":
                    assert cell["mean"] == np.mean(last_f[feasible])
                    assert cell["feasibility_rate"] == np.mean(feasible)
                else:
                    assert cell["mean"] == np.mean(last_phi)

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
        spec = fast_spec(tmp_path / "x", overrides={"n_pop": 3})
        assert execute(spec) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_fails_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert execute(fast_spec(out, base_seed=-1)) == 1
        assert "error: seed" in capsys.readouterr().err
        assert not out.exists()

    def test_config_invalid_for_a_later_cell_fails_before_any_output(self, tmp_path, capsys):
        # a top part of 20 fits the D=10 population of 50 but not the D=2
        # population of 10
        out = tmp_path / "x"
        spec = fast_spec(out, problems=(("P1-sphere-shifted", 10), ("P1-sphere-shifted", 2)),
                         algorithms=("pps-de",), overrides={"top_size": 20, "max_fes": 300})
        assert execute(spec) == 1
        assert "error:" in capsys.readouterr().err
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
