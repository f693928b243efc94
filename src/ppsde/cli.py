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
import contextlib
import csv
import dataclasses
import json
import os
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ._counts import whole
from .problems import canonical_problem_id, make_suite_problem
from .solver import ALGORITHMS, RunConfig, _resolve, run
from .stats import cell_mean, friedman_aligned, friedman_matrix, summarize

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


# each flag under its dest: the flag, its default, the type that both the flag
# and its config-file value read as, and its help; a tuple default marks a
# repeatable flag and a comma-separated file value, and a None default leaves
# a RunConfig field unset; a RunConfig field without a flag reads as a float
_SETTINGS = {
    "problem": ("--problem", (), str, "suite problem id (P1..P5 or full name); repeatable"),
    "dim": ("--dim", (10,), int, "dimension, crossed with every problem; repeatable"),
    "algo": ("--algo", ("pps-de",), str,
             f"algorithm, one of {', '.join(ALGORITHMS)}; repeatable"),
    "runs": ("--runs", 25, int, "independent runs per cell"),
    "seed": ("--seed", 0, int, "base seed; run i uses seed + i"),
    "max_fes": ("--max-fes", None, float, "evaluation budget per run"),
    "n_pop": ("--pop", None, float, "population size"),
    "top_size": ("--top", None, float, "top sub-population size"),
    "out": ("--out", "results", str, "output directory"),
    "workers": ("--workers", 1, int, "worker processes that the batch's runs are split across"),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A batch: problem instances, algorithms, seeds, output, and its runs.

    Construction raises ValueError for a batch with no problem or no
    algorithm, a repeated algorithm or (problem, dimension) cell, a run or
    worker count that is not a whole number >= 1, or an override key that
    is not a ``RunConfig`` field other than ``algorithm`` and ``seed``.  It
    then builds each cell's problem and resolves each run's ``RunConfig`` as
    ``run`` would, so a bad dimension or base seed, an unknown algorithm or
    an override that some cell cannot use raises too.
    ``jobs`` holds each run's problem, resolved config and trace path, in
    problem, algorithm, run order.  Problem ids are kept in full form, and
    numbers as ints, each override as the whole number its runs use.  The
    spec is frozen and keeps the algorithms as a tuple and a read-only copy
    of the overrides, so a checked batch stays checked.
    """

    problems: tuple
    algorithms: tuple
    runs: int
    base_seed: int
    out_dir: str
    overrides: Mapping
    workers: int = 1
    jobs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = tuple((canonical_problem_id(p), dim) for p, dim in self.problems)
        algos = tuple(self.algorithms)
        # a repeated cell would write its traces twice under one name
        checks = (
            (len(cells) >= 1, "at least one problem is required"),
            (len(algos) >= 1, "at least one algorithm is required"),
            (len(set(cells)) == len(cells), f"each cell may be given only once, got {cells}"),
            (len(set(algos)) == len(algos), f"each algorithm may be given only once, got {algos}"),
            (set(self.overrides) <= set(_OVERRIDE_FIELDS),
             f"unknown override key in {tuple(self.overrides)}; choose from {_OVERRIDE_FIELDS}"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)
        runs, workers = whole(self.runs, "runs", 1), whole(self.workers, "workers", 1)
        base_seed, jobs = whole(self.base_seed, "seed", 0), []
        built = tuple((pid, make_suite_problem(pid, dim)) for pid, dim in cells)
        for pid, problem in built:
            short, dim = pid.split("-")[0], problem.dim
            for algo in algos:
                for i in range(runs):
                    config = RunConfig(algorithm=algo, seed=base_seed + i, **self.overrides)
                    path = os.path.join(self.out_dir, f"{short}_d{dim}_{algo}_run{i:02d}.csv")
                    jobs.append((problem, _resolve(problem, config), path))
        object.__setattr__(self, "problems", tuple((pid, p.dim) for pid, p in built))
        object.__setattr__(self, "algorithms", algos)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "base_seed", base_seed)
        object.__setattr__(self, "workers", workers)
        # each job's _resolve has checked every override by the count rule
        object.__setattr__(self, "overrides", MappingProxyType(
            {key: None if value is None else int(value) for key, value in self.overrides.items()}))
        object.__setattr__(self, "jobs", tuple(jobs))


def build_parser():
    """The ``ppsde`` parser and its ``run`` subparser."""
    parser = argparse.ArgumentParser(
        prog="ppsde",
        description="Constrained differential evolution benchmark runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a benchmark batch")
    for dest, (flag, default, cast, text) in _SETTINGS.items():
        runp.add_argument(flag, dest=dest, type=cast, help=text,
                          action="append" if isinstance(default, tuple) else "store")
    runp.add_argument("--config", help="key = value config file; flags win")
    return parser, runp


def load_config_file(path):
    """Parse a flat ``key = value`` file; '#' starts a comment.

    Keys are normalised: '-' becomes '_', and ``pop`` and ``top`` become the
    settings they set, ``n_pop`` and ``top_size``.  A key that repeats after
    that raises ValueError naming the file and line.
    """
    # a flag's name is a file key for its setting, such as pop for n_pop
    aliases = {flag[2:].replace("-", "_"): dest for dest, (flag, *_) in _SETTINGS.items()}
    values, lines = {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            name = key.strip().replace("-", "_")
            name = aliases.get(name, name)
            if name in values:
                raise ValueError(f"{path}:{lineno}: {key.strip()!r} repeats the setting "
                                 f"{name!r} of line {lines[name]}")
            values[name], lines[name] = val.strip(), lineno
    return values


def _file_value(parser, key, text):
    """One config-file value read as its setting's type; a bad value exits 2."""
    if key not in _SETTINGS and key not in _OVERRIDE_FIELDS:
        parser.error(f"unknown config key {key!r}")
    default, cast = _SETTINGS[key][1:3] if key in _SETTINGS else (None, float)
    listed = isinstance(default, tuple)
    parts = [p.strip() for p in text.split(",") if p.strip()] if listed else [text]
    try:
        values = tuple(map(cast, parts))
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        parser.error(f"config key {key!r} must be {kind}, got {text!r}")
    return values if listed else values[0]


def parse_args(argv):
    """Resolve flags and the optional config file into an ExperimentSpec.

    Each setting takes its flag if one is given, else its config-file value,
    else its default.  Every file value is checked, also one that a flag
    wins over, and the batch is checked by ExperimentSpec; bad usage exits 2,
    and an error found after argparse's own parsing prints ``ppsde run``'s usage.
    """
    root, parser = build_parser()
    ns = root.parse_args(argv)
    file_values = {}
    if ns.config:
        try:
            file_values = load_config_file(ns.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))

    s = {key: default for key, (_, default, _, _) in _SETTINGS.items() if default is not None}
    s.update((key, _file_value(parser, key, text)) for key, text in file_values.items())
    s.update((key, value) for key, value in vars(ns).items()
             if value is not None and key not in ("command", "config"))
    overrides = {key: s.pop(key) for key in _OVERRIDE_FIELDS if key in s}
    try:
        return ExperimentSpec(
            problems=tuple((pid, dim) for pid in s["problem"] for dim in s["dim"]),
            algorithms=s["algo"], runs=s["runs"], base_seed=s["seed"],
            out_dir=s["out"], overrides=overrides, workers=s["workers"])
    except ValueError as exc:
        parser.error(str(exc))


@contextlib.contextmanager
def _replacing(path):
    """A temporary path beside ``path`` that replaces it when the block ends.

    A block that raises removes the temporary file and leaves ``path`` as it
    was, so a report file that exists is whole.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_trace_csv(result, path):
    """Write one run's convergence trace with round-trip float precision,
    through a temporary file that replaces ``path`` once it is whole."""
    tr = result.trace
    # one conversion per column to Python ints, floats and strings; the csv
    # module writes a float as str(), which is its shortest round-trip repr
    columns = (tr.generation, tr.fes, tr.best_f, tr.best_phi, tr.phase, tr.eps, *tr.sr.T)
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(zip(*(column.tolist() for column in columns)))


def read_trace_csv(path):
    """Read a trace CSV back into a dict of numpy arrays.

    A file that is not a whole trace, such as an empty or truncated one,
    raises ValueError.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if tuple(next(reader, ())) != TRACE_COLUMNS:
                raise ValueError(f"unexpected trace header in {path}")
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    for lineno, row in enumerate(rows, 2):
        if len(row) != len(TRACE_COLUMNS):
            raise ValueError(f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} fields, "
                             f"got {len(row)}")
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
    problem, config, path = job
    result = run(problem, config)
    write_trace_csv(result, path)
    return (float(result.best.f), float(result.best.phi), result.generations,
            result.switch_generation)


def _write_json(path, record):
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def execute(spec):
    """Run a checked ExperimentSpec's jobs and report them; returns an exit code."""
    try:
        os.makedirs(spec.out_dir, exist_ok=True)
        if spec.workers > 1:
            # imported here, since a serial batch needs no process pool
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=spec.workers) as pool:
                outcomes = list(pool.map(_run_job, spec.jobs))
        else:
            outcomes = [_run_job(job) for job in spec.jobs]

        # each run's final f and phi, generation count and switch generation,
        # in job order: problem, algorithm, run
        outcomes = np.array(outcomes, dtype=object).reshape(
            len(spec.problems), len(spec.algorithms), spec.runs, 4)
        finals = outcomes[..., :2].astype(float)
        cells = {}
        for p, (pid, dim) in enumerate(spec.problems):
            for a, algo in enumerate(spec.algorithms):
                final_f, final_phi = finals[p, a].T
                generations, switches = outcomes[p, a, :, 2:].T
                feasible = final_phi == 0.0
                mean, on_violation = cell_mean(final_f, final_phi)
                s = summarize(final_phi if on_violation else final_f[feasible])
                summary_on = "violation" if on_violation else "objective"
                key = f"{pid}/D{dim}/{algo}"
                cells[key] = dict(final_f=final_f.tolist(), final_phi=final_phi.tolist(),
                                  generations=generations.tolist(),
                                  switch_generation=switches.tolist(),
                                  feasibility_rate=float(np.mean(feasible)),
                                  summary_on=summary_on, cell_mean=mean,
                                  **s._asdict())
                print(f"{key}: {spec.runs} runs, feasible {int(feasible.sum())}/{spec.runs}, "
                      f"{summary_on} mean {s.mean:.6e}")

        friedman = None
        if len(spec.problems) >= 2 and len(spec.algorithms) >= 2:
            optima = [make_suite_problem(pid, dim).known_optimum for pid, dim in spec.problems]
            matrix, ranked, ranks = friedman_matrix(finals[..., 0], finals[..., 1], optima)
            result = friedman_aligned(matrix)
            names = [f"{pid}/D{dim}" for pid, dim in spec.problems]
            friedman = {
                "problems": names,
                "algorithms": list(spec.algorithms),
                "matrix": matrix.tolist(),
                "ranked_problems": [names[p] for p in ranked],
                "cells_on_violation": sorted(
                    key for key, cell in cells.items() if cell["summary_on"] == "violation"),
                "avg_ranks": dict(zip(spec.algorithms, result.avg_ranks.tolist())),
                "mean_ranks": dict(zip(spec.algorithms, ranks.mean(axis=0).tolist())),
                "statistic": result.statistic,
                "p_value": result.p_value,
                "significant_at_0.05": result.p_value < 0.05,
            }
            _write_json(os.path.join(spec.out_dir, "friedman.json"), friedman)
        else:
            print("friedman report skipped: needs at least 2 algorithms and 2 problems")

        _write_json(os.path.join(spec.out_dir, "summary.json"), {
            "problems": [[pid, dim] for pid, dim in spec.problems],
            "algorithms": list(spec.algorithms),
            "runs": spec.runs,
            "base_seed": spec.base_seed,
            "overrides": dict(spec.overrides),
            "cells": cells,
            "friedman": friedman,
        })
        print(f"wrote {len(spec.jobs)} traces and summary.json to {spec.out_dir}")
        return 0
    except Exception as exc:  # noqa: BLE001 - batch boundary, report and fail
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    spec = parse_args(sys.argv[1:] if argv is None else argv)
    raise SystemExit(execute(spec))


if __name__ == "__main__":
    main()
