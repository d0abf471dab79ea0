"""Benchmark of the hypercoop command line, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Set-up imports hypercoop and writes the workload's game documents under
``perfbench/out/``.  The timed loop then runs whole rounds of the
workload's tasks, one after another in this process (a closed loop with
one client), until S seconds have passed.  Each task is one call of
``hypercoop.cli.main`` with ``--format json``.  After the loop every answer
of the first round is checked against perfbench/reference.py, and every
later round must repeat the first round's output exactly.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` untraced and traced rounds
alternate; it reports the per-layer metrics of the traced rounds and the
tracing overhead, and writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
# Seconds the speed kernel takes on the machine of the reference figures
# (Intel Xeon, 2 vCPUs, Python 3.11.7); see README.md.
KERNEL_REFERENCE_S = 0.00175


def kernel() -> float:
    """Seconds one run of a fixed pure-Python kernel takes now: Fraction
    sums, frozenset keys and dict updates, like the program's own work."""
    t0 = perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 400):
        key = frozenset((i % 11, i % 7, i % 5))
        acc += Fraction(i % 13 - 6, i % 5 + 1)
        seen[key] = seen.get(key, 0) + 1
    return perf_counter() - t0


def scaled(seconds: float, kernel_s: float) -> float:
    """A time measured next to a kernel run, in seconds on a machine where
    the kernel takes KERNEL_REFERENCE_S.  The machine's speed drifts by
    more than ten percent within minutes; the kernel drifts with it."""
    return seconds * KERNEL_REFERENCE_S / kernel_s


def import_hypercoop():
    """A fresh import of the package and every layer module."""
    for name in [n for n in sys.modules if n == "hypercoop" or n.startswith("hypercoop.")]:
        del sys.modules[name]
    package = importlib.import_module("hypercoop")
    for layer in tracing.LAYERS:
        importlib.import_module(f"hypercoop.{layer}")
    return package


def set_up(workload: str, seed: int, docs: Path, scale: int):
    """Import the program, generate the documents and write them out."""
    package = import_hypercoop()
    games, tasks = workloads.generate(workload, seed, package, scale)
    docs.mkdir(parents=True, exist_ok=True)
    for game in games:
        (docs / f"{game['name']}.json").write_text(json.dumps(game["doc"]), encoding="utf-8")
    return package, games, tasks


def tail_percentile(tasks: int) -> int | None:
    """The highest whole percentile with at least ten of `tasks` above it
    (nearest rank); None below forty tasks."""
    if tasks < 40:
        return None
    return 100 * (tasks - 10) // tasks


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-p * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def call(cli, argv: list[str]) -> tuple[int | str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an uncaught error is a failed task, not a crashed run
        return f"{type(exc).__name__}: {exc}", out.getvalue()
    return code, out.getvalue()


class Loop:
    """Runs rounds of tasks, times each task and keeps what the checks need."""

    def __init__(self, package, argvs: list[list[str]]):
        self.package = package
        self.argvs = argvs
        self.first: list[tuple] | None = None
        self.rounds = 0
        self.repeat_failures = 0

    def round(self, tracer=None) -> list[tuple[float, float]]:
        """One pass over all tasks: (seconds, kernel seconds) per task."""
        cli = self.package.cli
        results, times = [], []
        for n, argv in enumerate(self.argvs):
            t0 = perf_counter()
            if tracer is None:
                result = call(cli, argv)
            else:
                result = tracer.run(n, call, cli, argv)
            times.append((perf_counter() - t0, kernel()))
            results.append(result)
        self.rounds += 1
        if self.first is None:
            self.first = results
        else:
            self.repeat_failures += sum(a != b for a, b in zip(results, self.first))
        return times


def per_task(rounds: list[list[tuple[float, float]]], scale: bool = True) -> list[float]:
    """One latency per task: its median over the rounds, so a fast or slow
    stretch moves a task only if it covers most of that task's rounds.
    A task is scaled by the median of the five kernel runs nearest to it,
    so one kernel run slowed by a collection or an interrupt does not
    skew it."""
    samples = []
    for times in rounds:
        kernels = [k for _, k in times]
        samples.append([
            scaled(t, statistics.median(kernels[max(n - 2, 0):n + 3])) if scale else t
            for n, (t, _k) in enumerate(times)
        ])
    return [statistics.median(task) for task in zip(*samples)]


def check_first_round(games, tasks, first) -> tuple[list[int], list[str]]:
    """Indices of tasks whose first-round answer is wrong, with reasons."""
    checkers = {}
    wrong, reasons = [], []
    for n, ((g, argv), (code, out)) in enumerate(zip(tasks, first)):
        if g not in checkers:
            checkers[g] = reference.Checker(games[g]["doc"], games[g]["ring"])
        try:
            problems = checkers[g].check(argv, code, out)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            wrong.append(n)
            reasons.append(f"{games[g]['name']} {' '.join(argv)}: {'; '.join(problems)}")
    return wrong, reasons


def measure(args) -> dict:
    if not (SRC / "hypercoop" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'hypercoop'}")
    sys.path.insert(0, str(SRC))
    docs = OUT / f"docs-{args.workload}-{args.seed}"

    setups = []
    for _ in range(SETUP_REPEATS):
        before = kernel()
        t0 = perf_counter()
        package, games, tasks = set_up(args.workload, args.seed, docs, args.scale)
        setups.append((perf_counter() - t0, (before + kernel()) / 2))
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported hypercoop from {package.__file__}, not {SRC}")

    argvs = [
        [argv[0], str(docs / f"{games[g]['name']}.json"), *argv[1:], "--format", "json"]
        for g, argv in tasks
    ]
    loop = Loop(package, argvs)
    if args.trace:
        metrics, trace = traced_run(args, package, loop)
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "tasks": [" ".join(a) for a in argvs], **trace}),
            encoding="utf-8",
        )
    else:
        metrics = untraced_run(args, loop)
        metrics["setup_s"] = (statistics.median(scaled(t, k) for t, k in setups), "s")
        print(f"measured: setup_s {statistics.median(t for t, _ in setups):.6f}",
              file=sys.stderr)
    shutil.rmtree(docs, ignore_errors=True)

    wrong, reasons = check_first_round(games, tasks, loop.first)
    for reason in reasons:
        print(f"wrong: {reason}", file=sys.stderr)
    if loop.repeat_failures:
        print(f"wrong: {loop.repeat_failures} answers differ from the first round", file=sys.stderr)
    return {
        "correct": not wrong and not loop.repeat_failures,
        "attempted": loop.rounds * len(tasks),
        "failed": len(wrong) * loop.rounds + loop.repeat_failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def untraced_run(args, loop: Loop) -> dict:
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        rounds.append(loop.round())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    latency = per_task(rounds)
    p = tail_percentile(len(latency))
    metrics = {
        "wall_s": (sum(latency), "s"),
        "task_p50_s": (statistics.median(latency), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    if p is not None:
        metrics["task_tail_s"] = (percentile(latency, p), "s")
    measured = per_task(rounds, scale=False)
    kernel_s = statistics.median(k for times in rounds for _, k in times)
    print(f"measured: wall_s {sum(measured):.6f} task_p50_s {statistics.median(measured):.6f}"
          + (f" task_tail_s {percentile(measured, p):.6f}" if p is not None else "")
          + f" kernel_s {kernel_s:.6f}", file=sys.stderr)
    return metrics


def traced_run(args, package, loop: Loop) -> tuple[dict, dict]:
    """Untraced and traced rounds alternate.  Counts come from the first
    traced round (later ones must repeat them), times are medians over
    the traced rounds, and the overhead compares the two kinds of round."""
    tracer = tracing.Tracer()
    tracer.install(package)
    tracer.reset(keep_spans=False)
    workloads.generate(args.workload, args.seed, package, args.scale)
    corpus_s = tracing.outermost(tracer.stats, {"corpus.game_corpus"})[1]
    tracer.uninstall()

    untraced, traced, per_round = [], [], []
    start = perf_counter()
    while not per_round or perf_counter() - start < args.seconds:
        untraced.append(loop.round())
        tracer.install(package)
        tracer.reset(keep_spans=not per_round)
        traced.append(loop.round(tracer))
        tracer.uninstall()
        per_round.append(tracer.layer_metrics())
        if len(per_round) == 1:
            trace = tracer.dump()

    first = per_round[0]
    for later in per_round[1:]:
        for name, (value, unit) in later.items():
            if unit == "count" and value != first[name][0]:
                print(f"warning: {name} varies between traced rounds", file=sys.stderr)
    metrics = {
        name: (value if unit == "count" else statistics.median(r[name][0] for r in per_round), unit)
        for name, (value, unit) in first.items()
    }
    metrics["corpus.generate_s"] = (corpus_s, "s")
    overhead = sum(per_task(traced)) / sum(per_task(untraced)) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    return metrics, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1,
                        help="keep every SCALE-th slot of the workload (quick test)")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
