"""Timing spans around the public functions of each ppsde module.

``Tracer.installed()`` replaces module attributes and class methods with
wrappers for the duration of a ``with`` block and restores them on exit.
Module functions are wrapped in the namespace that calls them (``solver``
imports its helpers by name, ``cli`` imports ``run`` and the statistics),
so a span records exactly the calls the solver and the CLI make.

Spans nest through a stack: each span's duration is added to its parent's
child time, and its self time is its duration minus that child time.  Spans
are folded into per-name totals as they close instead of being stored,
which keeps the traced pass's memory flat over hundreds of thousands of
calls.  A wrapped name that ppsde no longer has raises on installation, so
a renamed layer breaks the traced pass instead of reading zero.
"""

from __future__ import annotations

import contextlib
import functools
import time

from ppsde import cli, de, phases, solver

SELECTION = ("sf_order", "sf_best_index", "sf_better_mask",
             "push_accept_mask", "pull_accept_mask", "sf_accept_mask")
TRIALS = ("rand_1_bin_batch", "current_to_pbest_batch", "current_to_rand_batch")
CLASS_METHODS = {
    (de, "ParameterMemory"): ("__init__", "sample_parameters_many", "record_success",
                              "update_memory"),
    (de, "StrategyStats"): ("__init__", "record_generation", "windowed_wins", "success_rates"),
    (phases, "PhaseTracker"): ("__init__", "update_rate", "should_switch"),
    (phases, "EpsilonSchedule"): ("__init__", "from_violations", "level"),
}


def _rows_of_second_argument(args, kwargs, result):
    return len(args[1])


def _generations(args, kwargs, result):
    return result.generations


def _targets():
    """(owner, attribute, span name, row counter) for every wrapped callable."""
    out = [(solver, "evaluate_many", "problems.evaluate_many", _rows_of_second_argument)]
    out += [(solver, name, f"de.{name}", _rows_of_second_argument) for name in TRIALS]
    out += [(solver, name, f"de.{name}", None)
            for name in ("pbest_pool_size", "select_strategies")]
    out += [(solver, name, f"selection.{name}", None) for name in SELECTION]
    for (module, cls_name), methods in CLASS_METHODS.items():
        cls = getattr(module, cls_name)
        out += [(cls, m, f"{module.__name__.split('.')[-1]}.{cls_name}.{m}", None)
                for m in methods]
    out += [(solver, "run", "solver.run", _generations),
            (cli, "run", "solver.run", _generations),
            (cli, "execute", "cli.execute", None),
            (cli, "write_trace_csv", "cli.write_trace_csv", None),
            (cli, "make_suite_problem", "problems.make_suite_problem", None)]
    out += [(cli, name, f"stats.{name}", None)
            for name in ("summarize", "cell_mean", "friedman_aligned")]
    return out


class Span:
    __slots__ = ("calls", "rows", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    """Per-name span totals: calls, rows, busy (inclusive) and self time."""

    def __init__(self):
        self.spans = {}
        self._child_time = []

    def span(self, name):
        if name not in self.spans:
            self.spans[name] = Span()
        return self.spans[name]

    def wrap(self, name, fn, count_rows):
        tracer = self
        stack = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - started
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                span = tracer.span(name)
                span.calls += 1
                span.busy += duration
                span.self_time += duration - child
            if count_rows is not None:
                span.rows += count_rows(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        restore = []
        try:
            for owner, attr, name, count_rows in _targets():
                # a class method must be the class's own, not inherited
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, count_rows))
                else:
                    wrapped = self.wrap(name, raw, count_rows)
                restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)


# Layers for the shares: a layer is every span whose name starts with one
# of its prefixes.
LAYERS = (
    ("problems", ("problems.",)),
    ("de.trials", tuple(f"de.{name}" for name in TRIALS) + ("de.pbest_pool_size",)),
    ("de.memory", ("de.ParameterMemory.",)),
    ("de.strategy", ("de.select_strategies", "de.StrategyStats.")),
    ("selection", ("selection.",)),
    ("phases", ("phases.",)),
    ("solver", ("solver.",)),
    ("cli", ("cli.",)),
    ("stats", ("stats.",)),
)


def group(spans, prefixes):
    """Calls and self time summed over every span whose name starts with a prefix.

    Summing self time gives a class's busy time without counting a method
    that calls another method of the same class twice.
    """
    chosen = [s for n, s in spans.items() if n.startswith(prefixes)]
    return sum(s.calls for s in chosen), sum(s.self_time for s in chosen)


def layer_self_times(spans):
    return {layer: group(spans, prefixes)[1] for layer, prefixes in LAYERS}
