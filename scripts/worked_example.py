#!/usr/bin/env python3
"""End-to-end walkthrough of the six-player hub-and-spokes game.

Prints the game, its two restricted games, the Myerson and position
values, the uniform expansions, the agent form, the axiomatic
reconstruction, and the contribution comparisons — every number an
exact rational.
"""

from hypercoop import (
    agent_form_payoffs,
    build_uniform,
    check_balanced_conference_contributions,
    check_copy_deletion,
    check_partial_balanced_conference_contributions,
    conference_worth,
    group_by_origin,
    grouped_position,
    myerson_value,
    position_value,
    restricted_worth,
    shapley_blockwise,
    value_from_axioms,
)
from hypercoop.corpus import hub_and_spokes


def show(title: str, alloc) -> None:
    cells = ", ".join(f"{p}: {alloc[p]}" for p in sorted(alloc))
    print(f"{title}: {{{cells}}}")


def label(ep) -> str:
    return f"{ep.origin}[{','.join(map(str, ep.hyperlink))}]#{ep.copy}"


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
    for k in (1, 2):
        expansion = build_uniform(game, k)
        per_copy = shapley_blockwise(expansion)
        some = expansion.universe[0]
        print(
            f"k={k}: eta={expansion.eta}, rho={expansion.rho}, "
            f"universe={len(expansion.universe)} copies, "
            f"payoff of {label(some)} = {per_copy[some]}"
        )
        show(f"grouped (k={k})", grouped_position(expansion))
    print()

    print("-- agent form --")
    per_agent = agent_form_payoffs(game)
    print(f"agents: {len(per_agent)}")
    show("grouped agent payoffs", group_by_origin(game.players, per_agent))
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
