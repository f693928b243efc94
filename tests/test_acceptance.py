"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single ``[acceptance] ... PASS/FAIL`` line.  The first
two share expensive run batches through session fixtures; run this module
with ``-s`` to watch the lines appear.  The full module takes a few minutes
because it executes the complete benchmark workloads at default budgets.
"""

import json
import os

import numpy as np
import pytest
import scipy.stats as ss

from ppsde.cli import ExperimentSpec, execute
from ppsde.de import ParameterMemory, Strategy, improvement_weights
from ppsde.phases import PhaseTracker
from ppsde.problems import make_suite_problem
from ppsde.selection import pull_accept_mask, sf_accept_mask
from ppsde.solver import RunConfig, run
from ppsde.stats import friedman_aligned

from conftest import random_pairs

RUNS = 25
TOL = 1e-6


def report(cid, ok, detail):
    line = f"[acceptance] {cid} {'PASS' if ok else 'FAIL'}: {detail}"
    print(f"\n{line}")
    assert ok, line


def batch(pid, algorithm, runs=RUNS):
    prob = make_suite_problem(pid, 10)
    return [run(prob, RunConfig(algorithm=algorithm, seed=s)) for s in range(runs)]


def successes(results, known_optimum):
    return sum(
        1 for r in results
        if r.best.phi == 0.0 and r.best.f - known_optimum <= TOL
    )


@pytest.fixture(scope="session")
def default_batches():
    return {pid: batch(pid, "pps-de") for pid in ("P1", "P2", "P3", "P5")}


@pytest.fixture(scope="session")
def island_batches():
    return batch("P4", "pps-de"), batch("P4", "sf-de")


def test_c1_suite_solved_at_default_budget(default_batches):
    counts = {}
    for pid, results in default_batches.items():
        opt = make_suite_problem(pid, 10).known_optimum
        counts[pid] = successes(results, opt)
    ok = all(c >= RUNS - 1 for c in counts.values())
    detail = ", ".join(f"{pid} {c}/{RUNS}" for pid, c in counts.items())
    report("C1", ok, f"feasible and within {TOL:g} of the optimum on {detail}")


def test_c2_disconnected_region_beats_feasibility_first(island_batches):
    pps, sf = island_batches
    opt = make_suite_problem("P4", 10).known_optimum
    pps_n, sf_n = successes(pps, opt), successes(sf, opt)
    ok = pps_n >= 20 and pps_n >= sf_n
    report("C2", ok, f"island crossings {pps_n}/{RUNS} vs feasibility-first {sf_n}/{RUNS}")


def test_c3_zero_relaxation_equals_feasibility_first():
    """Pull at eps = 0 agrees with feasibility-first on ``random_pairs``.

    The equality holds on these pairs because their positive violations are
    continuous and never tie.  Where both violations are equal and positive
    and the trial's objective is worse, the two rules differ; that case is
    pinned by ``test_eps_zero_differs_from_feasibility_first_only_on_equal_positive_violations``
    in ``test_selection.py``.
    """
    rng = np.random.default_rng(0)
    phi_p, f_p = random_pairs(rng, 100000)
    phi_t, f_t = random_pairs(rng, 100000)
    pull = pull_accept_mask(phi_p, f_p, phi_t, f_t, eps=0.0)
    sf = sf_accept_mask(phi_p, f_p, phi_t, f_t)
    agree = int((pull == sf).sum())
    report("C3", agree == 100000, f"{agree}/100000 acceptance decisions agree")


def test_c4_evaluation_ledger_on_default_traces(default_batches):
    tr = default_batches["P1"][0].trace
    expected = 50 + 100 * (tr.generation + 1)
    ok = bool(np.array_equal(tr.fes, expected)) and tr.fes[-1] <= 200000
    report("C4", ok, f"trace charges 50 + 100*(g+1) evaluations over {len(tr.fes)} generations")


def test_c5_parameter_sampling_ranges():
    rng = np.random.default_rng(1)
    mem = ParameterMemory(length=5)
    mem.f_memory[:] = rng.uniform(0.01, 1.0, mem.f_memory.shape)
    mem.cr_memory[:] = rng.uniform(0.0, 1.0, mem.cr_memory.shape)
    draws = (334000, 333000, 333000)
    range_ok = True
    for strategy, size in zip(Strategy, draws):
        f, cr = mem.sample_parameters_many(strategy, size, rng)
        range_ok &= bool(np.all((f > 0.0) & (f <= 1.0)))
        range_ok &= bool(np.all((cr >= 0.0) & (cr <= 1.0)))

    lehmer_ok, weights_ok = True, True
    for _ in range(200):
        m = ParameterMemory(length=1)
        fs = rng.uniform(0.05, 1.0, rng.integers(1, 15))
        deltas = rng.exponential(1.0, fs.size) * rng.integers(0, 2, fs.size)
        for val, delta in zip(fs, deltas):
            m.record_success(Strategy.RAND_1_BIN, val, rng.random(), delta)
        m.update_memory(Strategy.RAND_1_BIN)
        cell = m.f_memory[0, 0]
        lehmer_ok &= fs.min() - 1e-12 <= cell <= fs.max() + 1e-12
        weights_ok &= abs(improvement_weights(deltas).sum() - 1.0) <= 1e-12
    ok = range_ok and lehmer_ok and weights_ok
    report("C5", ok, "1e6 draws in range, memory means bounded by successes, "
                     "weights normalized to 1e-12")


def test_c6_phase_structure_and_relaxation_level(default_batches, island_batches):
    phases_ok, eps_ok = True, True
    traces = [r.trace for rs in default_batches.values() for r in rs]
    traces += [r.trace for r in island_batches[0]]
    for tr in traces:
        labels = list(tr.phase)
        phases_ok &= set(labels) <= {"push", "pull"}
        if "pull" in labels:
            first = labels.index("pull")
            phases_ok &= all(p == "push" for p in labels[:first])
            phases_ok &= all(p == "pull" for p in labels[first:])
        pull_rows = tr.phase == "pull"
        eps_ok &= bool(np.all(tr.eps[pull_rows] >= 0.0))
        eps_ok &= bool(np.all(np.isfinite(tr.eps[pull_rows])))

    # relaxation hits zero from the cutoff on: D=4 run, cutoff 0.9*4000/40 = 90
    res = run(make_suite_problem("P2", 4),
              RunConfig(algorithm="eps-de", seed=0, max_fes=4000))
    cutoff_ok = res.generations > 90 and bool(np.all(res.trace.eps[90:] == 0.0))

    tracker = PhaseTracker(learning_period=25)
    for g in range(26):
        tracker.update_rate(g, 3.0)
        switched = tracker.should_switch()
    switch_ok = switched and tracker.switch_generation == 25

    ok = phases_ok and eps_ok and cutoff_ok and switch_ok
    report("C6", ok, f"{len(traces)} traces push-then-pull, level >= 0, zero past "
                     "cutoff, stagnation switch at generation 25")


def test_c7_reruns_reproduce_outputs_byte_for_byte(tmp_path):
    def spec(out):
        return ExperimentSpec(
            problems=(("P1-sphere-shifted", 2), ("P2-active-linear", 2)),
            algorithms=("pps-de", "sf-de"),
            runs=2, base_seed=0, out_dir=str(out),
            overrides={"n_pop": 10, "top_size": 5, "max_fes": 210},
        )

    a, b = tmp_path / "first", tmp_path / "second"
    code_a, code_b = execute(spec(a)), execute(spec(b))
    files = sorted(os.listdir(a))
    identical = (
        code_a == 0 and code_b == 0 and files == sorted(os.listdir(b))
        and all((a / name).read_bytes() == (b / name).read_bytes() for name in files)
    )
    has_outputs = "summary.json" in files and "friedman.json" in files
    report("C7", identical and has_outputs,
           f"{len(files)} output files identical across two executions")


def test_c8_aligned_rank_report_matches_oracle():
    frozen = friedman_aligned([[1.0, 2.0], [3.0, 5.0]])
    frozen_ok = (
        np.array_equal(frozen.avg_ranks, [1.5, 3.5])
        and frozen.statistic == 1.6
        and frozen.p_value == float(ss.chi2.sf(1.6, 1))
    )

    def oracle_ranks(m):
        n, k = m.shape
        aligned = [[m[i][j] - sum(m[i]) / k for j in range(k)] for i in range(n)]
        flat = [v for row in aligned for v in row]
        out = [1.0 + sum(y < x for y in flat) + (sum(y == x for y in flat) - 1) / 2.0
               for x in flat]
        return np.array(out).reshape(n, k)

    rng = np.random.default_rng(2)
    oracle_ok, sums_ok = True, True
    for _ in range(25):
        m = rng.normal(0.0, 2.0, (5, 3))
        res = friedman_aligned(m)
        oracle_ok &= bool(np.array_equal(res.avg_ranks, oracle_ranks(m).mean(axis=0)))
        sums_ok &= abs(res.avg_ranks.sum() * 5 - 15 * 16 / 2) <= 1e-9
    ok = frozen_ok and oracle_ok and sums_ok
    report("C8", ok, "frozen 2x2 case exact, 25 random 5x3 matrices match the "
                     "double-loop oracle, rank sums total n*k*(n*k+1)/2")


def test_c9_forced_wins_steer_strategy_selection():
    res = run(make_suite_problem("P2", 3), RunConfig(seed=3, max_fes=6000),
              force_win_strategy=0)
    settled = res.trace.generation >= 25
    n_bottom = res.config.n_pop - res.config.top_size
    sr_ok = bool(np.all(res.trace.sr[settled] == np.array([1.0, 0.0, 0.0])))
    picks_ok = bool(np.all(res.trace.bottom_strategies[settled, 0] == n_bottom))
    ok = settled.sum() > 0 and sr_ok and picks_ok
    report("C9", ok, f"forced wins drive rates to (1, 0, 0) and all "
                     f"{int(settled.sum())} settled generations pick that strategy")
