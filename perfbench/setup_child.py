"""Set-up probe run in a fresh interpreter: import ppsde from the checkout's
``src`` and build one workload's problems and run configurations.

    python3 perfbench/setup_child.py WORKLOAD

The parent times this whole process, interpreter start included.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402 - imports ppsde, which must come from src

workloads.WORKLOADS[sys.argv[1]].jobs(0)
