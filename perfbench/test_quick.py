"""Quick test of the benchmark itself: a small run of every workload, a
traced run whose counts must repeat, and perturbed answers that the
checks must catch.

    python3 -m pytest -q perfbench/test_quick.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "4"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_is_correct_and_reports_every_metric(workload):
    result = bench(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"] for m in BENCHMARK["end_to_end"]}
    if result["attempted"] < 40:  # too few tasks for a tail percentile
        expected.discard("task_tail_s")
    assert set(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_and_every_layer_metric_is_reported():
    first, second = bench("expansions", trace=1), bench("expansions", trace=1)
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(first["metrics"]) == names
    for name, metric in first["metrics"].items():
        if metric["unit"] == "count":
            assert metric["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["expansion.states"]["value"] > 0


def perturb(payoffs: dict) -> dict:
    player = sorted(payoffs)[0]
    out = dict(payoffs)
    out[player] = str(Fraction(out[player]) + Fraction(1, 7))
    return out


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    """A small expansions game, its document on disk and the program's CLI."""
    games, _tasks = workloads.generate("expansions", 5)
    game = games[-1]
    path = tmp_path_factory.mktemp("docs") / "game.json"
    path.write_text(json.dumps(game["doc"]))
    return game, str(path), run.import_hypercoop().cli


@pytest.mark.parametrize(
    "argv, field",
    [
        (["value", "--rule", "position"], "payoffs"),
        (["value", "--rule", "myerson"], "payoffs"),
        (["solve-axioms"], "payoffs"),
        (["expand", "--k", "2"], "grouped"),
    ],
)
def test_a_perturbed_payoff_is_caught(sample, argv, field):
    game, path, cli = sample
    code, out = run.call(cli, [argv[0], path, *argv[1:], "--format", "json"])
    checker = reference.Checker(game["doc"], game["ring"])
    assert checker.check(argv, code, out) == []
    body = json.loads(out)
    body[field] = perturb(body[field])
    assert checker.check(argv, code, json.dumps(body))


def test_a_perturbed_verification_line_is_caught(sample):
    game, path, cli = sample
    argv = ["verify", "--theorem", "corollary1"]
    code, out = run.call(cli, [argv[0], path, *argv[1:]])
    checker = reference.Checker(game["doc"], game["ring"])
    assert checker.check(argv, code, out) == []
    lines = out.splitlines()
    n = next(i for i, line in enumerate(lines) if "got" in line)
    head, got = lines[n].rsplit("got ", 1)
    lines[n] = f"{head}got {Fraction(got) + 1}"
    assert checker.check(argv, code, "\n".join(lines) + "\n")


def test_a_nonzero_exit_is_a_failure(sample):
    game, _path, _cli = sample
    checker = reference.Checker(game["doc"], game["ring"])
    assert checker.check(["value", "--rule", "position"], 2, "")
