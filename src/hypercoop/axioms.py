"""Axiom checkers, identity verifiers, and the axiomatic reconstruction
of the position value.

The reconstruction solves each component's component-efficiency and
partial-balanced-contributions equations in closed form, one
hyperlink-smaller situation at a time, in one loop over hyperlink masks
that starts at mask 0; see `value_from_axioms`.

Everything here takes an allocation *rule* — a callable mapping a
hypergraph game to an Allocation — so the same checkers exercise the
position value, the Myerson value, and deliberately broken rules alike.
Reports carry exact residuals for every ordered player pair (or every
component), never just a boolean, so failures show *where* and *by how
much* an invariant breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .connectivity import components, mask_components
from .expansion import (
    DEFAULT_STATE_CAP,
    ExpandedPlayer,
    block_symmetric_shapley,
    build_uniform,
    conference_mask_worth,
    require_state_cap,
)
from .model import (
    Allocation,
    Hyperlink,
    HypergraphGame,
    ONE,
    PlayerId,
    ZERO,
    incident_hyperlinks,
    is_r_uniform,
    link_key,
    zero_allocation,
)
from .shapley import CapExceeded
from .solutions import position_value

DEFAULT_RECURSION_CAP = 12

Rule = Callable[[HypergraphGame], Allocation]


@dataclass(frozen=True)
class PairSides:
    """The two sides of an equal-gains condition for one ordered pair."""

    i: PlayerId
    j: PlayerId
    left: Fraction
    right: Fraction

    @property
    def residual(self) -> Fraction:
        return self.left - self.right


@dataclass(frozen=True)
class ContributionReport:
    """All ordered-pair comparisons for one balanced-contributions axiom."""

    axiom: str
    pairs: dict[tuple[PlayerId, PlayerId], PairSides]

    def residual(self, i: PlayerId, j: PlayerId) -> Fraction:
        return self.pairs[(i, j)].residual

    def failures(self) -> list[PairSides]:
        return [p for p in self.pairs.values() if p.residual != 0]

    @property
    def passed(self) -> bool:
        return not self.failures()


def _pair_report(
    rule: Rule,
    game: HypergraphGame,
    axiom: str,
    weight_of: Callable[[Hyperlink], Fraction],
) -> ContributionReport:
    """left(i, j) totals what i gains from j's hyperlinks existing:
    sum over e containing j of weight(e) * (f_i(H) - f_i(H minus e))."""
    base = rule(game)
    removed = {e: rule(game.without_hyperlink(e)) for e in game.hyperlinks}
    pairs: dict[tuple[PlayerId, PlayerId], PairSides] = {}
    incident = {i: incident_hyperlinks(game.hypergraph, i) for i in game.players}
    for i in game.players:
        for j in game.players:
            left = sum(
                (weight_of(e) * (base[i] - removed[e][i]) for e in incident[j]), ZERO
            )
            right = sum(
                (weight_of(e) * (base[j] - removed[e][j]) for e in incident[i]), ZERO
            )
            pairs[(i, j)] = PairSides(i, j, left, right)
    return ContributionReport(axiom, pairs)


def check_balanced_link_contributions(rule: Rule, game: HypergraphGame) -> ContributionReport:
    """Pairwise-link version: every hyperlink must have exactly two members."""
    if not is_r_uniform(game.hypergraph, 2):
        raise ValueError("balanced link contributions applies only to 2-member hyperlinks")
    return _pair_report(rule, game, "balanced link contributions", lambda e: ONE)


def check_balanced_conference_contributions(rule: Rule, game: HypergraphGame) -> ContributionReport:
    """Unweighted equal gains over whole hyperlinks of any size."""
    return _pair_report(rule, game, "balanced conference contributions", lambda e: ONE)


def check_partial_balanced_conference_contributions(rule: Rule, game: HypergraphGame) -> ContributionReport:
    """Equal gains with each hyperlink weighted by one over its size."""
    return _pair_report(
        rule,
        game,
        "partial balanced conference contributions",
        lambda e: Fraction(1, len(e)),
    )


@dataclass(frozen=True)
class ComponentEntry:
    component: frozenset[PlayerId]
    allocated: Fraction
    worth: Fraction

    @property
    def residual(self) -> Fraction:
        return self.allocated - self.worth


@dataclass(frozen=True)
class ComponentEfficiencyReport:
    entries: tuple[ComponentEntry, ...]

    def failures(self) -> list[ComponentEntry]:
        return [e for e in self.entries if e.residual != 0]

    @property
    def passed(self) -> bool:
        return not self.failures()


def check_component_efficiency(rule: Rule, game: HypergraphGame) -> ComponentEfficiencyReport:
    """Each communication component must split exactly its own worth."""
    payoffs = rule(game)
    entries = []
    for comp in components(game.players, game.hyperlinks):
        allocated = sum((payoffs[i] for i in comp), ZERO)
        entries.append(ComponentEntry(comp, allocated, game.worth(comp)))
    return ComponentEfficiencyReport(tuple(entries))


@dataclass(frozen=True)
class CopyDeletionReport:
    """Deleting one copy of a hyperlink from the one-fold expansion versus
    deleting the hyperlink outright.

    `grouped` sums the expanded game's Shapley payoffs per original
    player after the copy is removed from the universe; `reduced` is the
    position value of the game without the hyperlink.  The two must
    agree exactly.
    """

    link: Hyperlink
    removed: ExpandedPlayer
    grouped: Allocation
    reduced: Allocation

    def residual(self, i: PlayerId) -> Fraction:
        return self.grouped[i] - self.reduced[i]

    @property
    def passed(self) -> bool:
        return self.grouped == self.reduced


def check_copy_deletion(
    game: HypergraphGame,
    link,
    removed: ExpandedPlayer | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> CopyDeletionReport:
    e = frozenset(link)
    if e not in game.hyperlinks:
        raise ValueError(f"no hyperlink {sorted(e)} to delete a copy of")
    expansion = build_uniform(game, 1)
    block = expansion.blocks[link_key(e)]
    if removed is None:
        removed = block[0]
    if removed not in block:
        raise ValueError("the removed copy must belong to the deleted hyperlink's block")
    links = game.hyperlinks
    target = links.index(e)
    sizes = [expansion.rho] * len(links)
    completions = list(sizes)
    sizes[target] -= 1
    require_state_cap(sizes, state_cap)  # before the 2^m conference table
    per_block = block_symmetric_shapley(
        sizes, completions, conference_mask_worth(game), state_cap=state_cap
    )
    grouped = zero_allocation(game.players)
    for j, other in enumerate(links):
        for ep in expansion.blocks[link_key(other)]:
            if ep == removed:
                continue
            grouped[ep.origin] += per_block[j]
    reduced = position_value(game.without_hyperlink(e))
    return CopyDeletionReport(e, removed, grouped, reduced)


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
    clearing a bit gives a smaller mask, solved before.  The loop starts
    at mask 0, the empty structure, where everyone is isolated and
    zero-normalization gives zero.
    """
    links = game.hyperlinks
    m = len(links)
    if m > cap:
        raise CapExceeded(f"{m} hyperlinks exceeds the recursion cap {cap}")
    cf = game.characteristic
    players = game.players
    n = len(players)
    link_masks = [sum(1 << k for k, p in enumerate(players) if p in e) for e in links]
    weight = [Fraction(1, len(e)) for e in links]
    rows: list[list[Fraction]] = []
    for mask in range(1 << m):
        active = [j for j in range(m) if mask >> j & 1]
        row = [ZERO] * n
        for piece in mask_components((1 << n) - 1, [link_masks[j] for j in active]):
            members = [k for k in range(n) if piece >> k & 1]
            worth = cf.worth(players[k] for k in members)
            if len(members) == 1:
                row[members[0]] = worth
                continue
            incident = {k: [j for j in active if link_masks[j] >> k & 1] for k in members}
            d = {k: sum((weight[j] for j in incident[k]), ZERO) for k in members}
            anchor, others = members[0], members[1:]
            r = {}
            for q in others:
                value = ZERO
                for j in incident[q]:
                    value += weight[j] * rows[mask ^ (1 << j)][anchor]
                for j in incident[anchor]:
                    value -= weight[j] * rows[mask ^ (1 << j)][q]
                r[q] = value
            x_a = (d[anchor] * worth + sum(r.values(), ZERO)) / sum(d.values(), ZERO)
            row[anchor] = x_a
            for q in others:
                row[q] = (d[q] * x_a - r[q]) / d[anchor]
        rows.append(row)
    return dict(zip(players, rows[-1]))
