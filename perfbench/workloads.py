"""Workloads of the ppsde benchmark, the checks on their outputs, and the
per-run result digests.

A workload is a fixed list of runs made from the workload seed.  One
repetition ("rep") executes that list once through a public entry point:
``solver.run`` called once per run, or ``cli.execute`` on a whole batch.
Every rep of one invocation repeats the same runs, so timings can be
sampled several times while every count and digest must repeat exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ppsde import cli, solver
from ppsde.problems import evaluate, make_suite_problem

# A run counts as solved when it ends feasible within this distance of the
# problem's known optimum.
TARGET = 1e-6

# Trace fields hashed into a run digest, in this order.
TRACE_FIELDS = ("generation", "fes", "best_f", "best_phi", "phase", "eps", "sr",
                "pop_min_f", "feasible_ratio", "wins", "bottom_strategies", "rate")


@dataclass(frozen=True)
class Workload:
    """Problems x algorithms x ``runs`` seeds, driven directly or through the CLI."""

    name: str
    why: str
    problems: tuple          # (suite id, dimension) pairs
    algorithms: tuple
    runs: int                # seeds per problem/algorithm cell
    max_fes: int | None      # None keeps the solver's default budget
    via_cli: bool

    def base_seed(self, seed):
        # each workload seed owns a disjoint block of run seeds
        return seed * self.runs

    def jobs(self, seed):
        """(problem, config) per run, in the order the CLI executes them."""
        base = self.base_seed(seed)
        out = []
        for suite_id, dim in self.problems:
            problem = make_suite_problem(suite_id, dim)
            for algo in self.algorithms:
                for i in range(self.runs):
                    config = solver.RunConfig(algorithm=algo, seed=base + i, max_fes=self.max_fes)
                    out.append((problem, config))
        return out

    def cli_argv(self, seed, out_dir):
        argv = ["run"]
        for suite_id, dim in self.problems:
            argv += ["--problem", suite_id]
        for dim in sorted({dim for _, dim in self.problems}):
            argv += ["--dim", str(dim)]
        for algo in self.algorithms:
            argv += ["--algo", algo]
        argv += ["--runs", str(self.runs), "--seed", str(self.base_seed(seed)),
                 "--out", out_dir, "--workers", "1"]
        if self.max_fes is not None:
            argv += ["--max-fes", str(self.max_fes)]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload(
        name="run-p4-d30",
        why="one pps-de run on the island-crossing P4 at D=30 and full budget: "
            "largest default arrays, and nothing for run batching to batch",
        problems=(("P4", 30),), algorithms=("pps-de",), runs=1, max_fes=None,
        via_cli=False,
    ),
    Workload(
        name="cell-p3p4-d10",
        why="cli.execute over P3,P4 x all three algorithms x 3 seeds at D=10: "
            "every acceptance rule, multi-seed cells, CSV/summary/Friedman output",
        problems=(("P3", 10), ("P4", 10)), algorithms=solver.ALGORITHMS, runs=3,
        max_fes=50000, via_cli=True,
    ),
)}


@dataclass
class Rep:
    """One execution of a workload's run list.

    ``segments`` partition the rep's wall time at each run's end (the CLI's
    last segment is its output after the final run), so timings can be
    compared run by run across reps.
    """

    segments: list
    results: list                  # RunResult or the exception it raised, per job
    failures: list = field(default_factory=list)   # (job index or None, message)
    outputs: dict = field(default_factory=dict)    # CLI output file -> sha256

    @property
    def wall(self):
        return sum(self.segments)

    @property
    def evaluations(self):
        return sum(r.final_fes for r in self.results if not isinstance(r, BaseException))


def execute_rep(workload, seed, jobs, out_dir):
    """Run the job list once; time only the entry-point calls."""
    if workload.via_cli:
        return _execute_cli(workload, seed, jobs, out_dir)
    results, segments = [], []
    for problem, config in jobs:
        started = time.perf_counter()
        try:
            results.append(solver.run(problem, config))
        except Exception as exc:  # noqa: BLE001 - a raised run is counted, not fatal
            results.append(exc)
        segments.append(time.perf_counter() - started)
    return Rep(segments=segments, results=results)


def _execute_cli(workload, seed, jobs, out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    spec = cli.parse_args(workload.cli_argv(seed, out_dir))
    # observe each RunResult the batch produces, so it can be checked and
    # digested like a direct run; the tap costs one call per run
    captured, marks = [], []
    inner = cli.run

    def tap(problem, config, **kwargs):
        result = inner(problem, config, **kwargs)
        captured.append(result)
        marks.append(time.perf_counter())
        return result

    cli.run = tap
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            marks.append(time.perf_counter())
            code = cli.execute(spec)
            marks.append(time.perf_counter())
    finally:
        cli.run = inner
    segments = [b - a for a, b in zip(marks, marks[1:])]

    results = list(captured)
    failures = []
    if code != 0:
        failures.append((None, f"cli.execute returned {code}"))
    for i in range(len(results), len(jobs)):
        results.append(RuntimeError("run not completed by cli.execute"))
    outputs = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                outputs[name] = hashlib.sha256(fh.read()).hexdigest()
    rep = Rep(segments=segments, results=results[:len(jobs)], failures=failures, outputs=outputs)
    if code == 0:
        rep.failures += _check_cli_outputs(workload, jobs, rep.results, out_dir)
    return rep


def _check_cli_outputs(workload, jobs, results, out_dir):
    """Trace CSVs and summary.json agree with the runs that produced them."""
    failures = []
    per_cell = {}
    for index, ((problem, config), result) in enumerate(zip(jobs, results)):
        if isinstance(result, BaseException):
            continue
        # trace files are named as documented in the README: P2_d10_pps-de_run00.csv
        short = problem.name.split("-")[0]
        name = f"{short}_d{problem.dim}_{config.algorithm}_run{index % workload.runs:02d}.csv"
        path = os.path.join(out_dir, name)
        try:
            trace = cli.read_trace_csv(path)
        except (OSError, ValueError) as exc:
            failures.append((index, f"trace CSV unreadable: {exc}"))
            continue
        if (len(trace["generation"]) != result.generations
                or (result.generations and (trace["fes"][-1] != result.final_fes
                                            or trace["best_f"][-1] != result.best.f
                                            or trace["best_phi"][-1] != result.best.phi))):
            failures.append((index, "trace CSV disagrees with the run"))
        key = f"{problem.name}/D{problem.dim}/{config.algorithm}"
        per_cell.setdefault(key, []).append(result)
    try:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            cells = json.load(fh)["cells"]
    except (OSError, ValueError, KeyError) as exc:
        return failures + [(None, f"summary.json unreadable: {exc}")]
    for key, cell_results in per_cell.items():
        cell = cells.get(key, {})
        if (cell.get("final_f") != [r.best.f for r in cell_results]
                or cell.get("final_phi") != [r.best.phi for r in cell_results]):
            failures.append((None, f"summary.json cell {key} disagrees with its runs"))
    if len(workload.problems) >= 2 and len(workload.algorithms) >= 2 \
            and not os.path.isfile(os.path.join(out_dir, "friedman.json")):
        failures.append((None, "friedman.json missing"))
    return failures


def check_run(problem, config, result):
    """Messages for every output check the run fails; empty when it passes."""
    cfg = result.config
    failures = []
    if (cfg.algorithm, cfg.seed) != (config.algorithm, config.seed) \
            or result.problem_name != problem.name:
        failures.append("result belongs to another job")
    n, t = cfg.n_pop, cfg.top_size
    if result.final_fes != n + (3 * t + n - t) * result.generations:
        failures.append("final_fes breaks the ledger N + (3T + N - T) * generations")
    if len(result.trace.generation) != result.generations:
        failures.append("trace length differs from the generation count")
    try:
        again = evaluate(problem, result.best.x)
    except ValueError as exc:
        failures.append(f"best.x cannot be re-evaluated: {exc}")
    else:
        if again.f != result.best.f or again.phi != result.best.phi:
            failures.append("re-evaluating best.x does not reproduce best.f and best.phi")
    return failures


def run_digest(result):
    """sha256 of the best point, generation counts and the full trace."""
    h = hashlib.sha256()

    def put(label, values):
        values = np.asarray(values)
        if values.dtype.kind in "US":
            data = "\0".join(str(v) for v in values.ravel()).encode()
        else:
            dtype = np.int64 if values.dtype.kind in "biu" else np.float64
            data = np.ascontiguousarray(values, dtype=dtype).tobytes()
        h.update(f"{label}:{values.shape}:".encode())
        h.update(data)

    best = result.best
    put("x", best.x)
    put("f_phi", [best.f, best.phi])
    put("g", best.evaluation.g_values)
    put("h", best.evaluation.h_values)
    h.update(f"generations={result.generations};switch={result.switch_generation};"
             f"fes={result.final_fes};".encode())
    for name in TRACE_FIELDS:
        put(name, getattr(result.trace, name))
    return h.hexdigest()


def fes_to_target(problem, result):
    """Evaluations until the incumbent first meets the target; budget + 1 if never."""
    tr = result.trace
    hit = (tr.best_phi == 0.0) & (tr.best_f - problem.known_optimum <= TARGET)
    first = np.flatnonzero(hit)
    return int(tr.fes[first[0]]) if first.size else result.config.max_fes + 1


def is_solved(problem, result):
    return result.best.phi == 0.0 and result.best.f - problem.known_optimum <= TARGET


@dataclass
class Outcome:
    """Per-run verdicts of one rep, in job order."""

    failed: list           # bool per job
    messages: list         # (job index or None, message)
    digests: list          # hex digest or None per job
    outputs: dict          # CLI output file -> sha256
    solved: list           # bool per job
    fes_to_target: list    # int per job

    @property
    def attempted(self):
        return len(self.failed)


def judge(jobs, rep, reference=None):
    """Check every run of a rep; compare digests and outputs with a reference Outcome."""
    failed = [False] * len(jobs)
    messages = list(rep.failures)
    digests, solved, to_target = [], [], []
    for index, ((problem, config), result) in enumerate(zip(jobs, rep.results)):
        if isinstance(result, BaseException):
            messages.append((index, f"run raised {type(result).__name__}: {result}"))
            digests.append(None)
            solved.append(False)
            # the budget the solver would have given the run
            to_target.append(solver._resolve(problem, config).max_fes + 1)
            continue
        messages += [(index, message) for message in check_run(problem, config, result)]
        digests.append(run_digest(result))
        solved.append(is_solved(problem, result))
        to_target.append(fes_to_target(problem, result))
    if reference is not None:
        for index, digest in enumerate(digests):
            if digest != reference.digests[index]:
                messages.append((index, "digest differs from the first rep"))
        if rep.outputs != reference.outputs:
            messages.append((None, "CLI output bytes differ from the first rep"))
    for index, _ in messages:
        if index is None:
            failed = [True] * len(jobs)    # a batch-level output is wrong
            break
        failed[index] = True
    return Outcome(failed=failed, messages=messages, digests=digests, outputs=rep.outputs,
                   solved=solved, fes_to_target=to_target)


def median(values):
    return float(statistics.median(values))
