"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every comparison is exact Fraction equality — there are no
tolerances anywhere in this module.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hypercoop.axioms import (
    check_balanced_conference_contributions,
    check_balanced_link_contributions,
    check_copy_deletion,
    check_partial_balanced_conference_contributions,
    value_from_axioms,
)
from hypercoop.corpus import DEFAULT_SEED, game_corpus, random_game, random_worth
from hypercoop.expansion import (
    agent_form_payoffs,
    build_uniform,
    grouped_position,
    shapley_blockwise,
)
from hypercoop.model import eta, table_function
from hypercoop.solutions import myerson_value, position_value

from oracles import (
    TUGame,
    shapley_by_dividends,
    shapley_by_permutations,
    shapley_by_subsets,
)

F = Fraction

HUB_POSITION = {1: F(1, 8), 2: F(1, 8), 3: F(1, 8), 4: F(5, 24), 5: F(5, 24), 6: F(5, 24)}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    games = game_corpus(seed=DEFAULT_SEED, count=200)
    assert len(games) == 200
    return games


def test_criterion_1_hub_position_by_four_routes(hub):
    routes = {
        "direct": position_value(hub),
        "expansion k=1": grouped_position(build_uniform(hub, 1)),
        "expansion k=2": grouped_position(build_uniform(hub, 2)),
        "axiomatic": value_from_axioms(hub),
    }
    bad = [name for name, alloc in routes.items() if alloc != HUB_POSITION]
    report(
        "criterion 1",
        not bad,
        "hub position value is (1/8, 1/8, 1/8, 5/24, 5/24, 5/24) via direct "
        "definition, k=1 and k=2 expansions, and the axiom solver"
        + (f"; mismatching routes: {bad}" if bad else ""),
    )


def test_criterion_2_hub_expanded_payoffs(hub):
    per_copy = shapley_blockwise(build_uniform(hub, 1))
    ok = len(per_copy) == 24 and set(per_copy.values()) == {F(1, 24)}
    report(
        "criterion 2",
        ok,
        f"all {len(per_copy)} expanded players earn exactly 1/24",
    )


def test_criterion_3_hub_contribution_sides(hub):
    partial = check_partial_balanced_conference_contributions(position_value, hub)
    side_61 = partial.sides[(6, 1)]
    unweighted = check_balanced_conference_contributions(position_value, hub)
    side_16 = unweighted.sides[(1, 6)]
    ok = (
        side_61.left == F(5, 48)
        and side_61.right == F(5, 48)
        and partial.passed
        and side_16.left == F(1, 4)
        and side_16.right == F(5, 24)
        and not unweighted.passed
    )
    report(
        "criterion 3",
        ok,
        "partial-balanced sides for (6,1) both 5/48 (check passes); "
        "unweighted sides for (1,6) are 1/4 vs 5/24 (check fails)",
    )


def test_criterion_4_expansion_identity_on_the_corpus(corpus):
    bad = []
    for n, game in enumerate(corpus):
        pi = position_value(game)
        for k in (1, 2, 3, 4):
            if grouped_position(build_uniform(game, k)) != pi:
                bad.append((n, k))
    report(
        "criterion 4",
        not bad,
        f"grouped expansion payoffs equal the position value on all "
        f"{len(corpus)} corpus games for k in {{1, 2, 3, 4}}"
        + (f"; failures: {bad[:5]}" if bad else ""),
    )


def test_criterion_5_axiomatic_reconstruction_on_the_corpus(corpus):
    eligible = [g for g in corpus if len(g.hyperlinks) <= 5]
    bad = [n for n, g in enumerate(eligible) if value_from_axioms(g) != position_value(g)]
    report(
        "criterion 5",
        not bad and len(eligible) == len(corpus),
        f"the axiom solver reproduces the position value on all "
        f"{len(eligible)} corpus games (every corpus game has at most 5 hyperlinks)"
        + (f"; failures: {bad[:5]}" if bad else ""),
    )


def test_criterion_6_agent_form_pointwise(corpus, hub):
    eligible = [g for g in corpus if eta(g.hypergraph) * len(g.hyperlinks) <= 12]
    eligible.append(hub)
    bad = []
    for n, game in enumerate(eligible):
        per_agent = agent_form_payoffs(game)
        per_copy = shapley_blockwise(build_uniform(game, 1))
        if per_agent != per_copy:
            bad.append(n)
    report(
        "criterion 6",
        not bad and len(eligible) > 50,
        f"agent-form Myerson payoffs equal the expanded Shapley payoffs "
        f"pointwise on {len(eligible) - 1} small corpus games plus the hub "
        f"(24 agents, count-vector reduction)"
        + (f"; failures: {bad[:5]}" if bad else ""),
    )


def _random_table(rng: random.Random, players: list[int]) -> TUGame:
    entries = {}
    for size in range(2, len(players) + 1):
        for combo in itertools.combinations(players, size):
            if rng.random() < 0.5:
                entries[frozenset(combo)] = random_worth(rng)
    return TUGame.from_characteristic(table_function(players, entries))


def test_criterion_7_shapley_engine_cross_validation():
    rng = random.Random(20240804)
    routes_bad, eff_bad, null_bad, sym_bad, add_bad = [], [], [], [], []
    for n in range(100):
        players = list(range(1, rng.randint(1, 6) + 1))
        game = _random_table(rng, players)
        by_subset = shapley_by_subsets(game)
        if not (shapley_by_permutations(game) == by_subset == shapley_by_dividends(game)):
            routes_bad.append(n)
        if sum(by_subset.values()) != game.worth(players):
            eff_bad.append(n)

        # a fresh player added to every coalition without changing worths
        # is null and must earn exactly zero (others keep their payoffs)
        extended_entries = {}
        for t, w in game.characteristic.entries.items():
            extended_entries[t] = w
            extended_entries[t | {0}] = w
        extended = TUGame.from_characteristic(
            table_function([0] + players, extended_entries)
        )
        ext = shapley_by_subsets(extended)
        if ext[0] != 0 or any(ext[p] != by_subset[p] for p in players):
            null_bad.append(n)

        # a game whose worth depends only on coalition size treats all
        # players symmetrically, so everyone earns the same share
        if len(players) >= 2:
            by_size = {0: F(0), 1: F(0)}
            for size in range(2, len(players) + 1):
                by_size[size] = random_worth(rng)
            sym = TUGame(players, lambda s, f=by_size: f[len(s)])
            payoffs = shapley_by_subsets(sym)
            if len(set(payoffs.values())) != 1:
                sym_bad.append(n)

        other = _random_table(rng, players)
        combined = TUGame(
            players, lambda s, a=game, b=other: a.worth(s) + b.worth(s)
        )
        by_other = shapley_by_subsets(other)
        if shapley_by_subsets(combined) != {
            p: by_subset[p] + by_other[p] for p in players
        }:
            add_bad.append(n)
    problems = {
        "routes": routes_bad,
        "efficiency": eff_bad,
        "null-player": null_bad,
        "symmetry": sym_bad,
        "additivity": add_bad,
    }
    bad = {k: v for k, v in problems.items() if v}
    report(
        "criterion 7",
        not bad,
        "permutation, subset, and dividend routes agree on 100 random "
        "TU-games (n <= 6); efficiency, null-player, symmetry, and "
        "additivity hold exactly" + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_8_copy_deletion_on_the_corpus(corpus):
    eligible = [g for g in corpus if len(g.hyperlinks) <= 3]
    bad = []
    checks = 0
    for n, game in enumerate(eligible):
        expansion = build_uniform(game, 1)
        for e in game.hyperlinks:
            for copy in expansion.blocks[tuple(sorted(e))]:
                checks += 1
                if not check_copy_deletion(game, e, removed=copy).passed:
                    bad.append((n, sorted(e), copy))
    report(
        "criterion 8",
        not bad and checks > 0,
        f"deleting any single copy matches deleting the hyperlink outright: "
        f"{checks} (hyperlink, copy) pairs across {len(eligible)} corpus games"
        + (f"; failures: {bad[:5]}" if bad else ""),
    )


def test_criterion_9_graph_case_regression():
    rng = random.Random(20240805)
    games = [
        random_game(rng, max_players=5, max_links=4, max_link_size=2)
        for _ in range(60)
    ]
    nonzero = []
    halves_bad = []
    for n, game in enumerate(games):
        link_report = check_balanced_link_contributions(position_value, game)
        if not link_report.passed:
            nonzero.append(n)
        for rule in (position_value, myerson_value):
            unweighted = check_balanced_conference_contributions(rule, game)
            partial = check_partial_balanced_conference_contributions(rule, game)
            for i in game.players:
                for j in game.players:
                    if partial.residual(i, j) * 2 != unweighted.residual(i, j):
                        halves_bad.append((n, rule.__name__, i, j))
    report(
        "criterion 9",
        not nonzero and not halves_bad,
        f"on {len(games)} random 2-uniform games the position value meets "
        f"balanced link contributions with zero residuals, and every "
        f"partial-balanced residual is exactly half the unweighted one"
        + (f"; failures: {(nonzero + halves_bad)[:5]}" if nonzero or halves_bad else ""),
    )
