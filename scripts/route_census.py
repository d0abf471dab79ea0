#!/usr/bin/env python3
"""How many games each route serves, per workload.

For the position value (the conference game) and the Myerson value (the
point game), counts the routes `solutions._plan` picks over the games of
each benchmark workload (`perfbench/workloads.py`, imported read-only)
and over the seeded game corpus.  Under each count line a `price:` line
sums each route's `Route.price` over its games: the entries its listings
hold, with the signed entries of the complement route, or 2^size for a
table.  Nothing is solved: the planner reads the hypergraph and the
coalitions a table lists, but no worth.

The workloads are taken at seed 5 and the corpus at its default seed
and size, 200 games.  Run from the root of a checkout:

    PYTHONPATH=src python scripts/route_census.py

The report is deterministic, so it can be diffed against
tests/transcripts/route_census.txt.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import hypercoop
from hypercoop.cli import parse_game
from hypercoop.corpus import DEFAULT_SEED, game_corpus
from hypercoop.solutions import _plan

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

ROUTES = ("dividends", "complement", "support", "sets", "pieces", "table")
SEED = 5


def census(label: str, games: list) -> list[str]:
    lines = [f"{label}: {len(games)} games"]
    for rule, point in (("position", False), ("myerson", True)):
        counts, prices = Counter(), Counter()
        for game in games:
            route = _plan(game, point=point)
            counts[route.name] += 1
            prices[route.name] += route.price
        lines.append(f"  {rule}: " + ", ".join(f"{r} {counts[r]}" for r in ROUTES if counts[r]))
        lines.append("    price: " + ", ".join(f"{r} {prices[r]}" for r in ROUTES if counts[r]))
    return lines


def main() -> None:
    for workload in workloads.WORKLOADS:
        games, _ = workloads.generate(workload, SEED, hypercoop)
        parsed = [parse_game(json.dumps(game["doc"])) for game in games]
        print("\n".join(census(f"{workload} (seed {SEED})", parsed)))
    print("\n".join(census(f"corpus (seed {DEFAULT_SEED})", game_corpus())))


if __name__ == "__main__":
    main()
