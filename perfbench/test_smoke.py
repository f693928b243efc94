"""Smoke test of the benchmark at a tiny budget.

    python3 -m pytest perfbench/test_smoke.py

It checks that the metric and workload names match BENCHMARK.json, that
the traced pass accounts for about all of its wall time, and that a run
raising on a non-finite evaluation is counted as failed while the rest of
the pass completes.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.prepare()

import numpy as np  # noqa: E402

import bench  # noqa: E402
import workloads  # noqa: E402
from ppsde import Problem, RunConfig, make_suite_problem  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at one seed per cell and a budget of a few generations."""
    for name, w in list(workloads.WORKLOADS.items()):
        budget = 150 * max(dim for _, dim in w.problems)
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(w, runs=1, max_fes=budget))


def _names(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_metrics_match_spec_and_trace_covers_wall(tiny, name):
    result, record = bench.measure(name, 0, 0.0, 0, setup_samples=1, min_reps=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names(SPEC["end_to_end"])
    assert all(result["metrics"][k]["value"] > 0 for k in ("setup_s", "evals_per_s", "peak_rss_mb"))
    assert all(d["digest"] for d in record["digests"])

    result, record = bench.measure(name, 0, 0.0, 1, import_samples=1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names(SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.coverage"] == pytest.approx(1.0, abs=0.05)
    assert sum(record["samples"]["layer_shares"].values()) == pytest.approx(1.0, abs=0.05)
    assert metrics["solver.run.calls"] == len(workloads.WORKLOADS[name].jobs(0))


def _log_objective(x):
    with np.errstate(invalid="ignore"):
        return np.log(x[..., 0])    # NaN on half of the box


def test_non_finite_problem_counts_as_failed_without_aborting(tmp_path):
    broken = Problem(dim=2, lower=-1.0, upper=1.0, objective=_log_objective,
                     known_optimum=0.0, name="broken-log")
    good = make_suite_problem("P1", 2)
    jobs = [(good, RunConfig(seed=0, max_fes=500)),
            (broken, RunConfig(seed=0, max_fes=500)),
            (good, RunConfig(seed=1, max_fes=500))]
    workload = dataclasses.replace(workloads.WORKLOADS["run-p4-d30"], problems=())
    rep = workloads.execute_rep(workload, 0, jobs, str(tmp_path))
    tally = bench.Tally()
    outcome = tally.add(jobs, rep)
    assert outcome.failed == [False, True, False]
    assert (tally.attempted, tally.failed) == (3, 1)
    assert not isinstance(rep.results[2], BaseException)
    assert any("EvaluationError" in message for message in tally.messages)
