"""Print one sha256 over the traces of a fixed run matrix and a CLI cell.

Usage::

    python3 scripts/trace_digest.py [CHECKOUT]

CHECKOUT is a ppsde source tree (default: this repository); the script
imports ``ppsde`` from its ``src`` directory.  It then runs

- P1-P5 x D in {3, 10} x pps-de, sf-de, eps-de x seeds 0 and 1 at 3000*D
  evaluations (60 runs),
- eight edge runs: two forced-win runs, eps-de at relaxation 0, two budgets
  below one generation (pps-de and eps-de), a top-only population, a run
  with ``sigma`` and ``eps_initial`` overrides, and one P4 D=10 run at the
  default budget,
- one ``cli.execute`` batch of P3, P4 x D=4 x all three algorithms x 2 runs,

and prints a sha256 over each run's ``perfbench.workloads.run_digest`` (best
point, generation count, switch generation, final evaluation count and every
trace field) and over the name and bytes of every file the batch wrote.
Two checkouts print the same digest when their traces are bit-identical.
The digest function is always taken from this repository's ``perfbench``,
so both sides are hashed the same way.  A default run takes about half a
minute on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALGORITHMS = ("pps-de", "sf-de", "eps-de")

# (problem, dim, algorithm, seed, RunConfig overrides, force_win_strategy)
MATRIX = [
    (pid, dim, algo, seed, {"max_fes": 3000 * dim}, None)
    for pid in ("P1", "P2", "P3", "P4", "P5")
    for dim in (3, 10)
    for algo in ALGORITHMS
    for seed in (0, 1)
]
EDGE_RUNS = [
    ("P2", 3, "pps-de", 15, {"max_fes": 3000, "learning_period": 4}, 1),
    ("P2", 3, "pps-de", 3, {"max_fes": 6000}, 0),
    ("P2", 3, "eps-de", 14, {"max_fes": 2500, "eps_initial": 0.0}, None),
    ("P1", 5, "pps-de", 0, {"max_fes": 30}, None),
    ("P1", 5, "eps-de", 0, {"max_fes": 30}, None),
    ("P2", 3, "pps-de", 11, {"n_pop": 8, "top_size": 8, "max_fes": 500}, None),
    ("P3", 4, "pps-de", 2, {"max_fes": 12000, "sigma": 1e-3, "eps_initial": 2.0}, None),
    ("P4", 10, "pps-de", 0, {}, None),
]
CLI_ARGS = ["run", "--problem", "P3", "--problem", "P4", "--dim", "4",
            "--algo", "pps-de", "--algo", "sf-de", "--algo", "eps-de",
            "--runs", "2", "--seed", "0", "--max-fes", "4000"]


def import_checkout(checkout):
    """Put the checkout's ``src`` first on the import path, ahead of any installed ppsde."""
    src = (Path(checkout) / "src").resolve()
    if not (src / "ppsde" / "__init__.py").is_file():
        raise SystemExit(f"error: no ppsde source under {src}")
    sys.path[:0] = [str(src), str(REPO / "perfbench")]


def digest():
    from ppsde import cli
    from ppsde.problems import make_suite_problem
    from ppsde.solver import RunConfig, run
    from workloads import run_digest

    h = hashlib.sha256()
    for pid, dim, algo, seed, overrides, force in MATRIX + EDGE_RUNS:
        config = RunConfig(algorithm=algo, seed=seed, **overrides)
        result = run(make_suite_problem(pid, dim), config, force_win_strategy=force)
        h.update(run_digest(result).encode())

    with tempfile.TemporaryDirectory() as out:
        spec = cli.parse_args(CLI_ARGS + ["--out", out])
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.execute(spec)
        if code != 0:
            raise SystemExit(f"cli.execute returned {code}")
        for name in sorted(os.listdir(out)):
            h.update(name.encode() + b"\0")
            h.update(Path(out, name).read_bytes())
    return h.hexdigest()


def main(argv):
    if len(argv) > 1:
        raise SystemExit(__doc__)
    import_checkout(argv[0] if argv else REPO)
    print(digest())


if __name__ == "__main__":
    main(sys.argv[1:])
