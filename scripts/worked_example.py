#!/usr/bin/env python3
"""End-to-end walkthrough of the six-player hub-and-spokes game.

Prints the game, its two restricted games, the Myerson and position
values, the uniform expansions, the agent form, the axiomatic
reconstruction, and the contribution comparisons — every number an
exact rational.
"""

from fractions import Fraction

from hypercoop import (
    agent_form_payoffs,
    check_balanced_conference_contributions,
    check_copy_deletion,
    check_partial_balanced_conference_contributions,
    components,
    copy_counts,
    eta,
    group_copies,
    grouped_position,
    myerson_value,
    position_value,
    uniform_payoffs,
    value_from_axioms,
)
from hypercoop.corpus import hub_and_spokes


def restricted_worth(game, coalition) -> Fraction:
    """Point-game worth: the total worth of the coalition's connected pieces."""
    inside = [e for e in game.hyperlinks if e <= frozenset(coalition)]
    return sum((game.worth(t) for t in components(coalition, inside)), Fraction(0))


def conference_worth(game, hyperlinks) -> Fraction:
    """Conference-game worth: the component worths the hyperlinks induce."""
    return sum((game.worth(t) for t in components(game.players, hyperlinks)), Fraction(0))


def show(title: str, alloc) -> None:
    cells = ", ".join(f"{p}: {alloc[p]}" for p in sorted(alloc))
    print(f"{title}: {{{cells}}}")


def main() -> None:
    game = hub_and_spokes()
    print("players:", list(game.players))
    print("hyperlinks:", [sorted(e) for e in game.hyperlinks])
    print("worth: 1 exactly when a coalition connects players 1, 2 and 3\n")

    print("-- restricted games --")
    print("point-game worth of {1,2,3} (no links inside):", restricted_worth(game, {1, 2, 3}))
    print("point-game worth of all players:", restricted_worth(game, game.players))
    print("conference worth of all four hyperlinks:", conference_worth(game, game.hyperlinks))
    print("conference worth of any three:", conference_worth(game, game.hyperlinks[:3]), "\n")

    print("-- allocation rules --")
    show("myerson ", myerson_value(game))
    show("position", position_value(game))
    print()

    print("-- uniform expansions --")
    base = eta(game.hypergraph)
    for k in (1, 2):
        per_copy = uniform_payoffs(game, k)
        counts = copy_counts(game, k)
        i, e = next(iter(counts))  # the first copy: player 1's first hyperlink
        print(
            f"k={k}: eta={base}, rho={k * base}, "
            f"universe={sum(counts.values())} copies, "
            f"payoff of {i}[{','.join(map(str, sorted(e)))}]#1 = {per_copy[i, e]}"
        )
        show(f"grouped (k={k})", grouped_position(game, k))
    print()

    print("-- agent form --")
    per_agent = agent_form_payoffs(game)
    counts = copy_counts(game)
    print(f"agents: {sum(counts.values())}")
    show("grouped agent payoffs", group_copies(game.players, counts, per_agent))
    print()

    print("-- axiomatic reconstruction --")
    show("solved from the axioms", value_from_axioms(game))
    print()

    print("-- contribution comparisons for the position value --")
    partial = check_partial_balanced_conference_contributions(position_value, game)
    side = partial.sides[(6, 1)]
    print(f"partial-balanced pair (6,1): left {side.left}, right {side.right}"
          f" -> {'balanced' if side.residual == 0 else 'unbalanced'}")
    unweighted = check_balanced_conference_contributions(position_value, game)
    side = unweighted.sides[(1, 6)]
    print(f"unweighted pair (1,6):      left {side.left}, right {side.right}"
          f" -> {'balanced' if side.residual == 0 else 'unbalanced'}")
    print()

    print("-- copy deletion --")
    for e in game.hyperlinks:
        verdict = "PASS" if check_copy_deletion(game, e).passed else "FAIL"
        print(f"one copy of {sorted(e)} deleted == hyperlink deleted: {verdict}")


if __name__ == "__main__":
    main()
