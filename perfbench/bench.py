"""Measurement of one workload.

``--trace 0``: untraced reps of the workload until the time is up, with
set-up probes in fresh interpreters spread between them, reporting the
end-to-end metrics.
``--trace 1``: untraced and traced reps alternate; the traced reps give the
per-layer metrics, and their outputs must match the untraced reps byte for
byte.  Every rep's runs are checked, and a failed check or a raised run
counts as failed without stopping the pass.

Set-up time is the median of its probes and each run's time its maximum
over reps; counts come from the runs themselves and repeat exactly for a
given seed.  A record with the samples, run digests and machine description
is written to ``.perfbench/``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import ppsde
import tracing
import workloads
from workloads import WORKLOADS, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_CHILD = HERE / "setup_child.py"

END_TO_END = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "solved_share": "ratio",
    "fes_to_target_p50": "evals",
    "ok_share": "ratio",
}


def _per_layer_units():
    units = {}
    units.update({f"problems.evaluate_many.{q}": u for q, u in
                  (("calls", "count"), ("rows", "count"), ("busy_s", "s"), ("share", "ratio"))})
    for name in tracing.TRIALS:
        units.update({f"de.{name}.{q}": u for q, u in
                      (("calls", "count"), ("rows", "count"), ("busy_s", "s"))})
    units["de.trials.share"] = "ratio"
    for method in ("sample_parameters_many", "record_success", "update_memory"):
        units.update({f"de.ParameterMemory.{method}.calls": "count",
                      f"de.ParameterMemory.{method}.busy_s": "s"})
    units["de.memory.share"] = "ratio"
    units["de.success_per_trial"] = "ratio"
    for name in ("de.select_strategies", "de.StrategyStats"):
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s"})
    units["de.strategy.share"] = "ratio"
    for name in tracing.SELECTION:
        units.update({f"selection.{name}.calls": "count", f"selection.{name}.busy_s": "s"})
    units["selection.share"] = "ratio"
    for name in ("PhaseTracker", "EpsilonSchedule"):
        units.update({f"phases.{name}.calls": "count", f"phases.{name}.busy_s": "s"})
    units["phases.switch_generation_p50"] = "generation"
    units["phases.share"] = "ratio"
    units.update({"solver.run.calls": "count", "solver.run.generations": "count",
                  "solver.run.self_s": "s", "solver.run.share": "ratio"})
    units.update({"cli.write_trace_csv.calls": "count", "cli.write_trace_csv.busy_s": "s",
                  "cli.execute.self_s": "s", "cli.share": "ratio"})
    units.update({f"stats.{name}.busy_s": "s"
                  for name in ("summarize", "cell_mean", "friedman_aligned")})
    units["stats.share"] = "ratio"
    units.update({f"setup.import.{name}": "s" for name in ("numpy_s", "scipy_stats_s", "ppsde_s")})
    units.update({"trace.overhead_s": "s", "trace.coverage": "ratio", "trace.wall_s": "s"})
    return units


PER_LAYER = _per_layer_units()
IMPORTED = {"numpy": "numpy_s", "scipy.stats": "scipy_stats_s", "ppsde": "ppsde_s"}


# ---------------------------------------------------------------------------
# Machine and set-up

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ppsde": getattr(ppsde, "__version__", "unknown"),
        "commit": _commit(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def _child(workload, *flags):
    """Run the set-up probe in a fresh interpreter; return (wall, stderr)."""
    started = time.perf_counter()
    out = subprocess.run([sys.executable, *flags, str(SETUP_CHILD), workload.name],
                         capture_output=True, text=True, timeout=150)
    wall = time.perf_counter() - started
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    return wall, out.stderr


def import_times(workload, samples):
    """Cumulative import times of numpy, scipy.stats and ppsde from -X importtime."""
    found = {key: [] for key in IMPORTED.values()}
    for _ in range(samples):
        _, stderr = _child(workload, "-X", "importtime")
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORTED:
                found[IMPORTED[parts[2].strip()]].append(int(parts[1]) / 1e6)
    return {f"setup.import.{key}": median(values) if values else 0.0
            for key, values in found.items()}


# ---------------------------------------------------------------------------
# Reps

def warm_up(workload, seed, out_dir):
    """One tiny rep, so first-call costs are paid before timing starts."""
    tiny = max(dim for _, dim in workload.problems) * 75
    small = dataclasses.replace(workload, max_fes=tiny, runs=1)
    workloads.execute_rep(small, seed, small.jobs(seed), str(out_dir))


class Tally:
    """Runs attempted and failed over every rep, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.reference = None

    def add(self, jobs, rep):
        outcome = workloads.judge(jobs, rep, self.reference)
        if self.reference is None:
            self.reference = outcome
        self.attempted += outcome.attempted
        self.failed += sum(outcome.failed)
        for index, message in outcome.messages:
            where = "batch" if index is None else f"run {index}"
            self.messages.append(f"{where}: {message}")
        return outcome


def end_to_end(workload, seed, seconds, *, setup_samples=7, min_reps=3):
    jobs = workload.jobs(seed)
    work = OUT / f"{workload.name}-seed{seed}"
    warm_up(workload, seed, work / "warm")
    tally = Tally()
    segments, setup = [], []
    started = time.perf_counter()

    def elapsed():
        # set-up probes run between reps but do not use up the window
        return time.perf_counter() - started - sum(setup)

    def take_setup(due):
        while len(setup) < due:
            setup.append(_child(workload)[0])

    while len(segments) < min_reps or elapsed() < seconds:
        # spread the set-up probes over the window, so they see the same
        # drift in host speed as the reps do
        done = min(elapsed() / seconds, 1.0) if seconds > 0 else 1.0
        take_setup(max(1, math.ceil(setup_samples * done)))
        rep = workloads.execute_rep(workload, seed, jobs, str(work / "out"))
        tally.add(jobs, rep)
        segments.append(rep.segments)
        evaluations = rep.evaluations   # the same in every rep
    take_setup(setup_samples)
    # each run's segment takes its slowest rep.  This host runs at one steady
    # speed most of the time, with spells of seconds to minutes up to 1.5x
    # faster; the slowest rep reads the steady speed, whereas the median and
    # the minimum move with how much of the window the fast spells fill
    wall = sum(max(per_run) for per_run in zip(*segments))
    ref = tally.reference
    metrics = {
        # fresh interpreter -> import ppsde -> workload problems built
        "setup_s": median(setup),
        "evals_per_s": evaluations / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_share": sum(ref.solved) / len(ref.solved),
        "fes_to_target_p50": median(ref.fes_to_target),
        "ok_share": 1.0 - tally.failed / tally.attempted,
    }
    samples = {"setup_s": setup, "rep_wall_s": [sum(seg) for seg in segments],
               "max_wall_s": wall, "segments_s": segments}
    return metrics, tally, samples


def layer_metrics(spans, wall, results):
    """Per-layer metrics of one traced rep."""
    empty = tracing.Span()

    def span(name):
        return spans.get(name, empty)

    layers = tracing.layer_self_times(spans)
    m = {}
    ev = span("problems.evaluate_many")
    m.update({"problems.evaluate_many.calls": ev.calls, "problems.evaluate_many.rows": ev.rows,
              "problems.evaluate_many.busy_s": ev.busy,
              "problems.evaluate_many.share": ev.self_time / wall})
    trial_rows = 0
    for name in tracing.TRIALS:
        s = span(f"de.{name}")
        m.update({f"de.{name}.calls": s.calls, f"de.{name}.rows": s.rows,
                  f"de.{name}.busy_s": s.busy})
        trial_rows += s.rows
    m["de.trials.share"] = layers["de.trials"] / wall
    for method in ("sample_parameters_many", "record_success", "update_memory"):
        s = span(f"de.ParameterMemory.{method}")
        m.update({f"de.ParameterMemory.{method}.calls": s.calls,
                  f"de.ParameterMemory.{method}.busy_s": s.busy})
    m["de.memory.share"] = layers["de.memory"] / wall
    m["de.success_per_trial"] = (span("de.ParameterMemory.record_success").calls / trial_rows
                                 if trial_rows else 0.0)
    s = span("de.select_strategies")
    m.update({"de.select_strategies.calls": s.calls, "de.select_strategies.busy_s": s.busy})
    calls, busy = tracing.group(spans, "de.StrategyStats.")
    m.update({"de.StrategyStats.calls": calls, "de.StrategyStats.busy_s": busy})
    m["de.strategy.share"] = layers["de.strategy"] / wall
    for name in tracing.SELECTION:
        s = span(f"selection.{name}")
        m.update({f"selection.{name}.calls": s.calls, f"selection.{name}.busy_s": s.busy})
    m["selection.share"] = layers["selection"] / wall
    for name in ("PhaseTracker", "EpsilonSchedule"):
        calls, busy = tracing.group(spans, f"phases.{name}.")
        m.update({f"phases.{name}.calls": calls, f"phases.{name}.busy_s": busy})
    switches = [r.switch_generation for r in results
                if not isinstance(r, BaseException) and r.switch_generation is not None]
    m["phases.switch_generation_p50"] = median(switches) if switches else -1
    m["phases.share"] = layers["phases"] / wall
    s = span("solver.run")
    m.update({"solver.run.calls": s.calls, "solver.run.generations": s.rows,
              "solver.run.self_s": s.self_time, "solver.run.share": layers["solver"] / wall})
    s = span("cli.write_trace_csv")
    m.update({"cli.write_trace_csv.calls": s.calls, "cli.write_trace_csv.busy_s": s.busy,
              "cli.execute.self_s": span("cli.execute").self_time,
              "cli.share": layers["cli"] / wall})
    for name in ("summarize", "cell_mean", "friedman_aligned"):
        m[f"stats.{name}.busy_s"] = span(f"stats.{name}").busy
    m["stats.share"] = layers["stats"] / wall
    m["trace.coverage"] = sum(s.self_time for s in spans.values()) / wall
    m["trace.wall_s"] = wall
    return m, layers


def per_layer(workload, seed, seconds, *, import_samples=3, min_pairs=1):
    jobs = workload.jobs(seed)
    work = OUT / f"{workload.name}-seed{seed}"
    imports = import_times(workload, import_samples)
    warm_up(workload, seed, work / "warm")
    tally = Tally()
    plain_walls, traced, layer_samples = [], [], []
    started = time.perf_counter()
    while len(traced) < min_pairs or time.perf_counter() - started < seconds:
        rep = workloads.execute_rep(workload, seed, jobs, str(work / "out"))
        tally.add(jobs, rep)
        plain_walls.append(rep.wall)
        tracer = tracing.Tracer()
        with tracer.installed():
            rep = workloads.execute_rep(workload, seed, jobs, str(work / "traced"))
        tally.add(jobs, rep)  # digests and output bytes must equal the untraced rep's
        metrics, layers = layer_metrics(tracer.spans, rep.wall, rep.results)
        traced.append(metrics)
        layer_samples.append({k: v / rep.wall for k, v in layers.items()})
    # counts repeat exactly across reps, so the median of each metric is its
    # value for counts and the median for times
    metrics = {name: median([t[name] for t in traced]) for name in traced[0]}
    metrics.update(imports)
    # adjacent reps see the same machine, so pair them before taking the median
    metrics["trace.overhead_s"] = median([t["trace.wall_s"] - u for t, u in zip(traced, plain_walls)])
    shares = {k: median([s[k] for s in layer_samples]) for k in layer_samples[0]}
    samples = {"untraced_wall_s": plain_walls, "traced_wall_s": [t["trace.wall_s"] for t in traced],
               "layer_shares": shares}
    return metrics, tally, samples


# ---------------------------------------------------------------------------
# Output

def _result(metrics, units, tally):
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }


def _print_metrics(result, samples):
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    for name, values in samples.items():
        if isinstance(values, float):
            print(f"  {name} {values:.6g}")
        elif isinstance(values, list) and not isinstance(values[0], list):
            print(f"  samples {name}: n={len(values)} " + " ".join(f"{v:.6g}" for v in values))


def _print_layers(shares, metrics):
    print("  traced pass, self time by layer (share of traced wall):")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<14} {100 * share:6.2f}%")
    print(f"    {'sum':<14} {100 * sum(shares.values()):6.2f}%   "
          f"traced wall {metrics['trace.wall_s']:.4g} s, "
          f"trace.overhead_s {metrics['trace.overhead_s']:.4g} s")


def measure(name, seed, seconds, trace, **options):
    """Measure one workload; return the result object and the full record."""
    workload = WORKLOADS[name]
    env = environment()
    if trace:
        metrics, tally, samples = per_layer(workload, seed, seconds, **options)
        result = _result(metrics, PER_LAYER, tally)
    else:
        metrics, tally, samples = end_to_end(workload, seed, seconds, **options)
        result = _result(metrics, END_TO_END, tally)
    digests = [
        {"problem": problem.name, "algorithm": config.algorithm, "seed": config.seed,
         "digest": digest}
        for (problem, config), digest in zip(workload.jobs(seed), tally.reference.digests)
    ]
    record = {"workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env, "samples": samples, "digests": digests,
              "failures": tally.messages[:50], "result": result}
    return result, record


def _check_source():
    expected = Path(workloads.__file__).resolve().parents[1] / "src" / "ppsde"
    if Path(ppsde.__file__).resolve().parent != expected:
        raise SystemExit(f"error: ppsde imported from {ppsde.__file__}, not {expected}")


def _run_all(seed, seconds):
    """Every workload both ways, each pass in a fresh interpreter of its own,
    so that its peak RSS and its warm caches are not another pass's."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=900)
            lines = out.stdout.splitlines()
            if out.returncode != 0 or not lines:
                raise SystemExit(f"error: pass {name} trace {trace} exited with {out.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(args):
    _check_source()
    if args.workload == "all":
        return _run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all")
    OUT.mkdir(exist_ok=True)
    name, trace = args.workload, args.trace
    result, record = measure(name, args.seed, args.seconds, trace)
    path = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"{name} seed {args.seed} trace {trace}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']} ({path.name})")
    _print_metrics(result, record["samples"])
    if trace:
        _print_layers(record["samples"]["layer_shares"], {
            k: v["value"] for k, v in result["metrics"].items()})
    for message in record["failures"][:10]:
        print(f"  failure {message}")
    for d in record["digests"]:
        print(f"  digest {d['problem']} {d['algorithm']} seed {d['seed']}: {d['digest']}")
    print(json.dumps(result))
    return 0
