"""Benchmark command line.

``ppsde run`` executes a batch of runs over the cross product of the
requested problems, dimensions and algorithms, with per-run seeds derived
as base seed plus run index.  Each run writes one convergence trace CSV;
the batch writes a summary JSON and, when at least two algorithms meet at
least two problems, an aligned-ranks comparison report.  Outputs contain no
timestamps and print floats at full round-trip precision, so rerunning the
same specification reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .problems import canonical_problem_id, make_suite_problem
from .solver import ALGORITHMS, RunConfig, _resolve, run
from .stats import cell_mean, friedman_aligned, summarize

__all__ = [
    "ExperimentSpec",
    "build_parser",
    "execute",
    "load_config_file",
    "main",
    "parse_args",
    "read_trace_csv",
    "write_trace_csv",
]

TRACE_COLUMNS = ("generation", "fes", "best_f", "best_phi", "phase", "eps_k",
                 "sr1", "sr2", "sr3")

_OVERRIDE_FIELDS = tuple(
    f.name for f in dataclasses.fields(RunConfig) if f.name not in ("algorithm", "seed")
)


@dataclass
class ExperimentSpec:
    """A fully resolved batch: problem instances, algorithms, seeds, output."""

    problems: tuple
    algorithms: tuple
    runs: int
    base_seed: int
    out_dir: str
    overrides: dict
    workers: int = 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ppsde",
        description="Constrained differential evolution benchmark runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a benchmark batch")
    runp.add_argument("--problem", action="append",
                      help="suite problem id (P1..P5 or full name); repeatable")
    runp.add_argument("--dim", action="append", type=int,
                      help="dimension, crossed with every problem; repeatable")
    runp.add_argument("--algo", action="append", choices=ALGORITHMS,
                      help="algorithm; repeatable")
    runp.add_argument("--runs", type=int, help="independent runs per cell")
    runp.add_argument("--seed", type=int, help="base seed; run i uses seed + i")
    runp.add_argument("--max-fes", dest="max_fes", type=int,
                      help="evaluation budget per run")
    runp.add_argument("--pop", type=int, help="population size")
    runp.add_argument("--top", type=int, help="top sub-population size")
    runp.add_argument("--out", help="output directory")
    runp.add_argument("--config", help="key = value config file; flags win")
    runp.add_argument("--workers", type=int, help="parallel cell workers")
    return parser


def load_config_file(path):
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _split_list(text):
    return [part.strip() for part in str(text).split(",") if part.strip()]


def parse_args(argv):
    """Resolve flags and the optional config file into an ExperimentSpec."""
    parser = build_parser()
    ns = parser.parse_args(argv)

    file_values = {}
    if ns.config:
        try:
            file_values = load_config_file(ns.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))

    # reserved keys are always consumed from the file so a flag overriding
    # one does not leave it behind as an unknown override
    def setting(key, default):
        return file_values.pop(key, default)

    def file_int(key, text):
        try:
            return int(text)
        except ValueError:
            parser.error(f"config key {key!r} must be an integer, got {text!r}")

    def file_number(key, text):
        for cast in (int, float):
            try:
                return cast(text)
            except ValueError:
                pass
        parser.error(f"config key {key!r} must be a number, got {text!r}")

    file_problems = _split_list(setting("problem", ""))
    file_dims = _split_list(setting("dim", "10"))
    file_algos = _split_list(setting("algo", "pps-de"))
    file_runs = setting("runs", 25)
    file_seed = setting("seed", 0)
    file_out = setting("out", "results")
    file_workers = setting("workers", 1)

    raw_problems = ns.problem if ns.problem else file_problems
    if not raw_problems:
        parser.error("at least one --problem is required")
    try:
        problem_ids = [canonical_problem_id(p) for p in raw_problems]
    except ValueError as exc:
        parser.error(str(exc))

    dims = ns.dim if ns.dim else [file_int("dim", v) for v in file_dims]
    if any(d < 2 for d in dims):
        parser.error("--dim must be >= 2")

    algos = ns.algo if ns.algo else file_algos
    for algo in algos:
        if algo not in ALGORITHMS:
            parser.error(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
    # a repeated cell would write its traces twice under one name
    for what, values in (("problem", problem_ids), ("dim", dims), ("algorithm", algos)):
        if len(set(values)) < len(values):
            parser.error(f"each {what} may be given only once, got {values}")

    runs = ns.runs if ns.runs is not None else file_int("runs", file_runs)
    if runs < 1:
        parser.error("--runs must be >= 1")
    seed = ns.seed if ns.seed is not None else file_int("seed", file_seed)
    out_dir = ns.out if ns.out is not None else str(file_out)
    workers = ns.workers if ns.workers is not None else file_int("workers", file_workers)
    if workers < 1:
        parser.error("--workers must be >= 1")

    overrides = {}
    for key, raw in file_values.items():
        name = {"pop": "n_pop", "top": "top_size"}.get(key, key)
        if name not in _OVERRIDE_FIELDS:
            parser.error(f"unknown config key {key!r}")
        overrides[name] = file_number(key, raw)
    if ns.max_fes is not None:
        overrides["max_fes"] = ns.max_fes
    if ns.pop is not None:
        overrides["n_pop"] = ns.pop
    if ns.top is not None:
        overrides["top_size"] = ns.top

    instances = tuple((pid, dim) for pid in problem_ids for dim in dims)
    return ExperimentSpec(
        problems=instances,
        algorithms=tuple(algos),
        runs=runs,
        base_seed=seed,
        out_dir=out_dir,
        overrides=overrides,
        workers=workers,
    )


def _trace_name(problem_id, dim, algo, run_index):
    short = problem_id.split("-")[0]
    return f"{short}_d{dim}_{algo}_run{run_index:02d}.csv"


def write_trace_csv(result, path):
    """Write one run's convergence trace with round-trip float precision."""
    tr = result.trace
    # one conversion per column to Python ints, floats and strings; the csv
    # module writes a float as str(), which is its shortest round-trip repr
    columns = (tr.generation, tr.fes, tr.best_f, tr.best_phi, tr.phase, tr.eps, *tr.sr.T)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(zip(*(column.tolist() for column in columns)))


def read_trace_csv(path):
    """Read a trace CSV back into a dict of numpy arrays."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header in {path}")
        rows = list(reader)
    out = {}
    for j, name in enumerate(TRACE_COLUMNS):
        col = [row[j] for row in rows]
        if name in ("generation", "fes"):
            out[name] = np.array([int(v) for v in col], dtype=int)
        elif name == "phase":
            out[name] = np.array(col)
        else:
            out[name] = np.array([float(v) for v in col])
    return out


def _run_job(job):
    problem_id, dim, algo, run_index, seed, overrides, out_dir = job
    problem = make_suite_problem(problem_id, dim)
    config = RunConfig(algorithm=algo, seed=seed, **overrides)
    result = run(problem, config)
    write_trace_csv(result, os.path.join(out_dir, _trace_name(problem_id, dim, algo, run_index)))
    return float(result.best.f), float(result.best.phi)


def _cell_key(problem_id, dim, algo):
    return f"{problem_id}/D{dim}/{algo}"


def execute(spec):
    """Run the batch described by an ExperimentSpec; returns an exit code."""
    try:
        # an invalid cell fails the batch before any output is written
        for pid, dim in spec.problems:
            problem = make_suite_problem(pid, dim)
            for algo in spec.algorithms:
                _resolve(problem, RunConfig(algorithm=algo, seed=spec.base_seed,
                                            **spec.overrides))
        os.makedirs(spec.out_dir, exist_ok=True)
        jobs = [
            (pid, dim, algo, i, spec.base_seed + i, spec.overrides, spec.out_dir)
            for pid, dim in spec.problems
            for algo in spec.algorithms
            for i in range(spec.runs)
        ]
        if spec.workers > 1:
            # imported here, since a serial batch needs no process pool
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=spec.workers) as pool:
                outcomes = list(pool.map(_run_job, jobs))
        else:
            outcomes = [_run_job(job) for job in jobs]

        cells = {}
        for (pid, dim, algo, *_), (final_f, final_phi) in zip(jobs, outcomes):
            cell = cells.setdefault(_cell_key(pid, dim, algo), {"final_f": [], "final_phi": []})
            cell["final_f"].append(final_f)
            cell["final_phi"].append(final_phi)

        for key, cell in cells.items():
            final_f = np.array(cell["final_f"])
            final_phi = np.array(cell["final_phi"])
            feasible = final_phi == 0.0
            value, on_violation = cell_mean(final_f, final_phi)
            stats_input = final_phi if on_violation else final_f[feasible]
            s = summarize(stats_input)
            cell.update(
                feasibility_rate=float(np.mean(feasible)),
                summary_on="violation" if on_violation else "objective",
                cell_mean=value,
                mean=s.mean, std=s.std, best=s.best, worst=s.worst, median=s.median,
            )
            print(f"{key}: {len(final_f)} runs, feasible {int(feasible.sum())}/{len(final_f)}, "
                  f"{'violation' if on_violation else 'objective'} mean {s.mean:.6e}")

        friedman = None
        if len(spec.problems) >= 2 and len(spec.algorithms) >= 2:
            matrix = [
                [cells[_cell_key(pid, dim, algo)]["cell_mean"] for algo in spec.algorithms]
                for pid, dim in spec.problems
            ]
            result = friedman_aligned(matrix)
            friedman = {
                "problems": [f"{pid}/D{dim}" for pid, dim in spec.problems],
                "algorithms": list(spec.algorithms),
                "matrix": [[float(v) for v in row] for row in matrix],
                "cells_on_violation": sorted(
                    key for key, cell in cells.items() if cell["summary_on"] == "violation"
                ),
                "avg_ranks": {
                    algo: float(result.avg_ranks[j])
                    for j, algo in enumerate(spec.algorithms)
                },
                "statistic": float(result.statistic),
                "p_value": float(result.p_value),
                "significant_at_0.05": bool(result.p_value < 0.05),
            }
            with open(os.path.join(spec.out_dir, "friedman.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(friedman, fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            print("friedman report skipped: needs at least 2 algorithms and 2 problems")

        summary = {
            "problems": [[pid, dim] for pid, dim in spec.problems],
            "algorithms": list(spec.algorithms),
            "runs": spec.runs,
            "base_seed": spec.base_seed,
            "overrides": {k: spec.overrides[k] for k in sorted(spec.overrides)},
            "cells": cells,
            "friedman": friedman,
        }
        with open(os.path.join(spec.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(jobs)} traces and summary.json to {spec.out_dir}")
        return 0
    except Exception as exc:  # noqa: BLE001 - batch boundary, report and fail
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    spec = parse_args(sys.argv[1:] if argv is None else argv)
    raise SystemExit(execute(spec))


if __name__ == "__main__":
    main()
