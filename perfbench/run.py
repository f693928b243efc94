"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Run from the root of a checkout; ppsde is imported from that checkout's
``src`` directory, never from an installed copy.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics of a separate traced pass.  ``--workload
all`` runs every workload both ways and prints the tables.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# BLAS/OpenMP pools pinned to one thread: the load is one run at a time
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def prepare():
    """Pin thread pools and put the checkout's ppsde first on the import path.

    Must run before numpy is imported.  Exits with an error when the
    checkout holds no ppsde source.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "ppsde" / "__init__.py").is_file():
        raise SystemExit(f"error: no ppsde source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def build_parser():
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics of a traced pass")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    prepare()
    import bench  # imports numpy and ppsde, so only after prepare()

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
