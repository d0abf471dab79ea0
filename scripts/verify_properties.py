#!/usr/bin/env python3
"""Randomized verification sweep over a seeded corpus of hypergraph games.

Replays the core identities with fresh random games and exact rationals:

  1. the position value equals the grouped Shapley value of every
     uniform expansion (per requested k),
  2. the axiomatic system reconstructs the position value,
  3. the agent form's Myerson payoffs, grouped per player, equal the
     position value (Corollary 1),
  4. deleting one copy of a hyperlink matches deleting the hyperlink,
  5. component efficiency holds for both the position and Myerson values.

Exit status 0 when every pass is clean, 1 otherwise.  The report goes to
standard output and the elapsed time to standard error, so two runs of
the same code print the same report.
"""

from __future__ import annotations

import argparse
import sys
import time

from hypercoop import (
    check_component_efficiency,
    check_copy_deletions,
    grouped_position,
    myerson_value,
    position_value,
    value_from_axioms,
)
from hypercoop.corpus import DEFAULT_SEED, game_corpus
from hypercoop.expansion import grouped_agent_form


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--max-players", type=int, default=6)
    parser.add_argument("--max-links", type=int, default=4)
    parser.add_argument("--max-link-size", type=int, default=4)
    parser.add_argument("--ks", type=int, nargs="+", default=[1, 2])
    return parser.parse_args(argv)


def run_pass(name: str, checked: int, failures: list[str]) -> bool:
    verdict = "PASS" if not failures else "FAIL"
    print(f"{verdict}  {name}: {checked} checks")
    for line in failures[:5]:
        print(f"      {line}")
    return not failures


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(argv)
    games = game_corpus(
        seed=cfg.seed,
        count=cfg.count,
        max_players=cfg.max_players,
        max_links=cfg.max_links,
        max_link_size=cfg.max_link_size,
    )
    print(f"corpus: {len(games)} games (seed {cfg.seed})")
    started = time.perf_counter()
    ok = True

    failures: list[str] = []
    checked = 0
    for idx, game in enumerate(games):
        direct = position_value(game)
        for k in cfg.ks:
            checked += 1
            if grouped_position(game, k) != direct:
                failures.append(f"game {idx}, k={k}")
    ok &= run_pass("position value == grouped expansion payoffs", checked, failures)

    failures, checked = [], 0
    for idx, game in enumerate(games):
        checked += 1
        if value_from_axioms(game) != position_value(game):
            failures.append(f"game {idx}")
    ok &= run_pass("axiomatic reconstruction == position value", checked, failures)

    failures, checked = [], 0
    for idx, game in enumerate(games):
        checked += 1
        if grouped_agent_form(game) != position_value(game):
            failures.append(f"game {idx}")
    ok &= run_pass("grouped agent-form payoffs == position value", checked, failures)

    failures, checked = [], 0
    for idx, game in enumerate(games):
        for e, report in check_copy_deletions(game).items():
            checked += 1
            if not report.passed:
                failures.append(f"game {idx}, link {sorted(e)}")
    ok &= run_pass("one-copy deletion == hyperlink deletion", checked, failures)

    failures, checked = [], 0
    for idx, game in enumerate(games):
        for rule_name, rule in (("position", position_value), ("myerson", myerson_value)):
            checked += 1
            if not check_component_efficiency(rule, game).passed:
                failures.append(f"game {idx}, {rule_name}")
    ok &= run_pass("component efficiency (both rules)", checked, failures)

    print("all passes clean" if ok else "FAILURES above")
    print(f"elapsed {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
