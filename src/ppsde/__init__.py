"""Push-pull search differential evolution for constrained minimization.

The search first pushes toward good objective values while ignoring
constraints, then pulls the population back to feasibility under a decaying
violation budget, inside an adaptive differential-evolution engine with
three trial strategies and success-history parameter control.  Ablation
baselines, an analytic problem suite, summary statistics and an
aligned-ranks comparison test are included.
"""

from .de import (
    ParameterMemory,
    Strategy,
    StrategyStats,
    pbest_pool_size,
)
from .phases import EpsilonSchedule, PhaseTracker
from .problems import (
    SUITE_IDS,
    EvaluationError,
    Point,
    Problem,
    canonical_problem_id,
    evaluate,
    evaluate_many,
    make_suite_problem,
    overall_violation,
)
from .solver import (
    ALGORITHMS,
    RunConfig,
    RunResult,
    run,
)
from .stats import friedman_aligned, summarize

__version__ = "0.7.0"

__all__ = [
    "ALGORITHMS",
    "EpsilonSchedule",
    "EvaluationError",
    "ParameterMemory",
    "PhaseTracker",
    "Point",
    "Problem",
    "RunConfig",
    "RunResult",
    "SUITE_IDS",
    "Strategy",
    "StrategyStats",
    "canonical_problem_id",
    "evaluate",
    "evaluate_many",
    "friedman_aligned",
    "make_suite_problem",
    "overall_violation",
    "pbest_pool_size",
    "run",
    "summarize",
]
