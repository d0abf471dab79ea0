"""Axiom checkers, identity verifiers, and the axiomatic reconstruction
of the position value.

The reconstruction solves each component's component-efficiency and
partial-balanced-contributions equations in closed form, one
hyperlink-smaller situation at a time, in one loop over hyperlink masks
on integer numerators over one common denominator; see
`value_from_axioms`.

The axiom checkers take an allocation *rule* — a callable mapping a
hypergraph game to an Allocation — so the same checkers exercise the
position value, the Myerson value, and deliberately broken rules alike.
Every check, axiom or identity, returns one `Report`: a `Side` (left,
right) per key — an ordered player pair, a component or a player — with
an exact residual, never just a boolean, so failures show *where* and
*by how much* an invariant breaks.  `compare` builds the player-by-player
report of two allocations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, lcm
from typing import Callable

from .connectivity import components, mask_components
from .expansion import (
    DEFAULT_STATE_CAP,
    ExpandedPlayer,
    build_uniform,
    grouped_position,
)
from .model import (
    Allocation,
    Hyperlink,
    HypergraphGame,
    ONE,
    ZERO,
    incident_hyperlinks,
    is_r_uniform,
    link_key,
    scaled_worths,
)
from .shapley import DEFAULT_SUBSET_CAP, CapExceeded
from .solutions import position_value

DEFAULT_RECURSION_CAP = 12

Rule = Callable[[HypergraphGame], Allocation]


@dataclass(frozen=True)
class Side:
    """Two exact quantities that a checked property says are equal."""

    left: Fraction
    right: Fraction

    @property
    def residual(self) -> Fraction:
        return self.left - self.right


@dataclass(frozen=True)
class Report:
    """One `Side` per key: an ordered player pair, a component or a player."""

    axiom: str
    sides: dict

    def residual(self, *key) -> Fraction:
        """The residual at `report.residual(i, j)`, `(component)` or `(player)`."""
        return self.sides[key if len(key) > 1 else key[0]].residual

    def failures(self) -> dict:
        return {key: side for key, side in self.sides.items() if side.residual}

    @property
    def passed(self) -> bool:
        return not self.failures()


def compare(axiom: str, left: Allocation, right: Allocation) -> Report:
    """Player-by-player report of two allocations over the same players."""
    return Report(axiom, {p: Side(left[p], right[p]) for p in sorted(right)})


def _pair_report(
    rule: Rule,
    game: HypergraphGame,
    axiom: str,
    weight_of: Callable[[Hyperlink], Fraction],
) -> Report:
    """gain[i, j] totals what i gains from j's hyperlinks existing:
    sum over e containing j of weight(e) * (f_i(H) - f_i(H minus e)).
    The pair (i, j) compares gain[i, j] with gain[j, i]."""
    base = rule(game)
    removed = {e: rule(game.without_hyperlink(e)) for e in game.hyperlinks}
    incident = {j: incident_hyperlinks(game.hypergraph, j) for j in game.players}
    gain = {
        (i, j): sum((weight_of(e) * (base[i] - removed[e][i]) for e in incident[j]), ZERO)
        for i in game.players
        for j in game.players
    }
    return Report(axiom, {(i, j): Side(g, gain[j, i]) for (i, j), g in gain.items()})


def check_balanced_link_contributions(rule: Rule, game: HypergraphGame) -> Report:
    """Pairwise-link version: every hyperlink must have exactly two members."""
    if not is_r_uniform(game.hypergraph, 2):
        raise ValueError("balanced link contributions applies only to 2-member hyperlinks")
    return _pair_report(rule, game, "balanced link contributions", lambda e: ONE)


def check_balanced_conference_contributions(rule: Rule, game: HypergraphGame) -> Report:
    """Unweighted equal gains over whole hyperlinks of any size."""
    return _pair_report(rule, game, "balanced conference contributions", lambda e: ONE)


def check_partial_balanced_conference_contributions(rule: Rule, game: HypergraphGame) -> Report:
    """Equal gains with each hyperlink weighted by one over its size."""
    return _pair_report(
        rule,
        game,
        "partial balanced conference contributions",
        lambda e: Fraction(1, len(e)),
    )


def check_component_efficiency(rule: Rule, game: HypergraphGame) -> Report:
    """Each communication component must split exactly its own worth:
    left is what the rule allocates to it, right its worth."""
    payoffs = rule(game)
    sides = {
        comp: Side(sum((payoffs[i] for i in comp), ZERO), game.worth(comp))
        for comp in components(game.players, game.hyperlinks)
    }
    return Report("component efficiency", sides)


def check_copy_deletion(
    game: HypergraphGame,
    link,
    removed: ExpandedPlayer | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
    cap: int = DEFAULT_SUBSET_CAP,
) -> Report:
    """Deleting one copy of a hyperlink from the one-fold expansion versus
    deleting the hyperlink outright.

    Left sums the expanded game's Shapley payoffs per original player
    after the copy is removed from the universe; right is the position
    value of the game without the hyperlink, under the subset cap `cap`.
    The two must agree exactly.
    """
    e = frozenset(link)
    if e not in game.hyperlinks:
        raise ValueError(f"no hyperlink {sorted(e)} to delete a copy of")
    expansion = build_uniform(game, 1)
    key = link_key(e)
    block = expansion.blocks[key]
    if removed is None:
        removed = block[0]
    if removed not in block:
        raise ValueError("the removed copy must belong to the deleted hyperlink's block")
    pruned = {**expansion.blocks, key: tuple(ep for ep in block if ep != removed)}
    grouped = grouped_position(replace(expansion, blocks=pruned), state_cap)
    return compare("copy deletion", grouped, position_value(game.without_hyperlink(e), cap=cap))


def value_from_axioms(game: HypergraphGame, cap: int = DEFAULT_RECURSION_CAP) -> Allocation:
    """Reconstruct the unique allocation rule satisfying component
    efficiency plus partial balanced conference contributions.

    In a component C of two or more players, let a be its smallest
    player, d_q the weighted degree (sum of 1/|e| over the active
    hyperlinks e containing q) and r_q the known side of the equal-gains
    condition between q and a, made of the payoffs of the
    one-hyperlink-smaller situations.  The conditions read
    d_q*x_a - d_a*x_q = r_q for every q != a, and efficiency reads
    sum(x) = v(C), so

        x_a = (d_a*v(C) + sum of r_q over q != a) / (sum of d_q over C)
        x_q = (d_q*x_a - r_q) / d_a.

    Neither denominator is zero: each hyperlink gives 1/|e| to each of
    its |e| members, so the sum of d_q over C is the number of active
    hyperlinks in C, at least one; and every member of C, a included,
    lies on an active hyperlink, so d_a > 0.  The situations are solved
    in one loop over hyperlink masks, each row indexed by its mask:
    clearing a bit gives a smaller mask, solved before.  Each solution
    is a position value, so rows hold integer numerators over
    D = m!·scale·eta (worths from `scaled_worths`, eta the lcm of the
    hyperlink sizes, d_q scaled by eta).  A division that leaves a
    remainder raises ArithmeticError naming the mask; nothing is rounded.
    """
    links = game.hyperlinks
    m = len(links)
    if m > cap:
        raise CapExceeded(f"{m} hyperlinks exceeds the recursion cap {cap}")
    players = game.players
    n = len(players)
    link_masks = [sum(1 << k for k, p in enumerate(players) if p in e) for e in links]
    eta = lcm(*(len(e) for e in links))
    weight = [eta // len(e) for e in links]
    pieces = [
        mask_components((1 << n) - 1, [e for j, e in enumerate(link_masks) if mask >> j & 1])
        for mask in range(1 << m)
    ]
    scale, worth = scaled_worths(game.characteristic, players, {p for ps in pieces for p in ps})
    unit = factorial(m) * eta
    rows: list[list[int]] = []
    for mask, mask_pieces in enumerate(pieces):
        active = [j for j in range(m) if mask >> j & 1]
        row = [0] * n
        for piece in mask_pieces:
            members = [k for k in range(n) if piece >> k & 1]
            total = worth[piece] * unit
            if len(members) == 1:
                row[members[0]] = total
                continue
            incident = {k: [j for j in active if link_masks[j] >> k & 1] for k in members}
            d = {k: sum(weight[j] for j in incident[k]) for k in members}
            anchor, others = members[0], members[1:]
            r = {
                q: sum(weight[j] * rows[mask ^ (1 << j)][anchor] for j in incident[q])
                - sum(weight[j] * rows[mask ^ (1 << j)][q] for j in incident[anchor])
                for q in others
            }
            x_a, inexact = divmod(d[anchor] * total + sum(r.values()), sum(d.values()))
            row[anchor] = x_a
            for q in others:
                row[q], remainder = divmod(d[q] * x_a - r[q], d[anchor])
                inexact |= remainder
            if inexact:
                raise ArithmeticError(f"axioms unsolvable over 1/{unit * scale} at mask {mask:#b}")
        rows.append(row)
    return {p: Fraction(x, unit * scale) for p, x in zip(players, rows[-1])}
