"""Axiom checkers, identity verifiers, and the axiomatic reconstruction
of the position value.

The reconstruction solves each component's component-efficiency and
partial-balanced-contributions equations in closed form, one
hyperlink-smaller situation at a time, with one row per connected
hyperlink set (component efficiency splits every other set into
connected pieces), on integer numerators over one common denominator;
see `value_from_axioms`.  Its recursion cap N admits up to 2^N - 1
connected hyperlink sets.

The axiom checkers take an allocation *rule* — a callable mapping a
hypergraph game to an Allocation — so the same checkers exercise the
position value, the Myerson value, and deliberately broken rules alike.
A rule may also carry `with_deletions`, giving its payoffs on the game
and without each hyperlink from one pass, as the command line's position
rule does with `solutions._position_pass`.  Every check, axiom or
identity, returns one `Report`: a `Side` (left, right) per key — an
ordered player pair, a component or a player — with an exact residual,
never just a boolean, so failures show *where* and *by how much* an
invariant breaks.  `compare` builds the player-by-player report of two
allocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Callable

from .connectivity import components, connected_sets
from .expansion import _block_size, _completion, grouped_position
from .model import (
    Allocation,
    Hyperlink,
    HypergraphGame,
    ONE,
    ZERO,
    incident_hyperlinks,
    is_r_uniform,
)
from .shapley import DEFAULT_SUBSET_CAP, CapExceeded
from .solutions import (
    _conference_shapley,
    _covered,
    _hyperlink_masks,
    _read_worths,
    _shapley,
    _split,
    position_value,
)

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
        return {key: side for key, side in self.sides.items() if side.left != side.right}

    @property
    def passed(self) -> bool:
        return all(side.left == side.right for side in self.sides.values())


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
    The pair (i, j) compares gain[i, j] with gain[j, i].

    A rule may carry `with_deletions`, giving (rule(H), {e: rule(H minus
    e)}) for every e in one pass; otherwise each is its own call.  With
    the payoffs over one common denominator and the weights over another,
    the gains are integer sums."""
    players, links = game.players, game.hyperlinks
    one_pass = getattr(rule, "with_deletions", None) or (
        lambda g: (rule(g), {e: rule(g.without_hyperlink(e)) for e in links}))
    base, removed = one_pass(game)
    rows = [[f[i] for i in players] for f in (base, *(removed[e] for e in links))]
    weights = [weight_of(e) for e in links]
    unit = lcm(*(x.denominator for row in rows for x in row))
    per = lcm(*(w.denominator for w in weights))
    before, *after = [[x.numerator * (unit // x.denominator) for x in row] for row in rows]
    delta = {
        e: [w.numerator * (per // w.denominator) * (b - r) for b, r in zip(before, row)]
        for e, w, row in zip(links, weights, after)
    }
    zero, gain = [0] * len(players), {}
    for j in players:
        column = zip(zero, *(delta[e] for e in incident_hyperlinks(game.hypergraph, j)))
        gain.update(((i, j), Fraction(sum(g), unit * per)) for i, g in zip(players, column))
    return Report(axiom, {(i, j): Side(gain[i, j], gain[j, i]) for i in players for j in players})


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


def check_copy_deletion(game: HypergraphGame, link, cap: int = DEFAULT_SUBSET_CAP) -> Report:
    """Deleting one copy of a hyperlink from the one-fold expansion versus
    deleting the hyperlink outright.

    Left sums the expanded game's Shapley payoffs per original player
    after one copy is taken out of the hyperlink's block (its copies
    then earn 0, so which member held it does not matter); right is the
    position value of the game without the hyperlink.  Both sides run
    under the subset cap `cap` on the hyperlinks, whatever the number of
    copies.  The two must agree exactly.
    """
    e = frozenset(link)
    grouped = grouped_position(game, 1, e, cap)
    return compare("copy deletion", grouped, position_value(game.without_hyperlink(e), cap=cap))


def check_copy_deletions(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> dict[Hyperlink, Report]:
    """`check_copy_deletion` for every hyperlink, Lemma 1 in full, from
    one pass: the sets or table masks without each hyperlink are summed
    with the completion weights of the m - 1 other blocks for the left
    side and with Shapley's for the right."""
    sides = _identity_sides(game, 1, cap)
    return {e: compare("copy deletion", *sides(j)) for j, e in enumerate(game.hyperlinks)}


def _identity_sides(game: HypergraphGame, k: int, cap: int):
    """sides(j): (the k-fold expansion's payoffs grouped per player, the
    position value) without hyperlink j (None: with all), both weightings
    summed in one pass, over the denominators it returns, once k and the
    subset cap are checked."""
    _block_size(game, k)
    solve = _conference_shapley(game, cap, (_completion, _shapley))
    return lambda j=None: tuple(_split(game, *side) for side in solve(j))


def check_uniform_expansion(game: HypergraphGame, k: int = 1, cap: int = DEFAULT_SUBSET_CAP) -> Report:
    """Theorems 1 (k = 1) and 2: the Shapley payoffs of the k-fold uniform
    expansion, summed per original player, against the position value,
    both from one pass."""
    label = f"grouped Shapley payoffs of the {k}-fold uniform expansion"
    return compare(label, *_identity_sides(game, k, cap)())


def value_from_axioms(game: HypergraphGame, cap: int = DEFAULT_RECURSION_CAP) -> Allocation:
    """Reconstruct the unique allocation rule satisfying component
    efficiency plus partial balanced conference contributions.

    By component efficiency, a situation's payoffs are those of its
    connected pieces, each solved on its own, so there is one row per
    connected hyperlink set A (listed by `connected_sets` on the line
    graph of the hyperlinks), solved in order of increasing size.  The
    players of A form one component C.  Let a be its smallest player,
    d_q the weighted degree (sum of 1/|e| over the hyperlinks e of A
    containing q) and r_q the known side of the equal-gains condition
    between q and a, made of the payoffs of the situations A minus one
    hyperlink.  Such a situation is read from its row when it is
    connected, or else from the rows of its pieces (a bitmask closure on
    the line graph); a player on none of its hyperlinks earns 0.
    The conditions read d_q*x_a - d_a*x_q = r_q for every q != a, and
    efficiency reads sum(x) = v(C), so

        x_a = (d_a*v(C) + sum of r_q over q != a) / (sum of d_q over C)
        x_q = (d_q*x_a - r_q) / d_a.

    Neither denominator is zero: each hyperlink gives 1/|e| to each of
    its |e| members, so the sum of d_q over C is the number of
    hyperlinks in A (times eta once scaled), at least one; and every
    member of C, a included, lies on one of them, so d_a > 0.  Each
    solution is a position value, so rows hold integer numerators over
    D = m!·scale·eta (worths read as the position value reads them, by
    `solutions._read_worths`, eta the lcm of the hyperlink sizes, d_q
    scaled by eta).  Like the position value, it raises ValueError on a singleton of nonzero
    worth.  A division that leaves a remainder raises ArithmeticError
    naming the set's mask; nothing is rounded.

    The cap N refuses a structure with more than 2^N - 1 connected
    hyperlink sets, the most that N hyperlinks can form, before any row
    is solved.
    """
    players = game.players
    n = len(players)
    m = len(game.hyperlinks)
    links, touching = _hyperlink_masks(game)
    limit = (1 << cap) - 1
    sets = connected_sets([t ^ (1 << j) for j, t in enumerate(touching)], limit)
    if sets is None:
        raise CapExceeded(
            f"{m} hyperlinks form more than {limit} connected hyperlink sets: "
            f"the recursion cap {cap} admits at most 2^{cap} - 1"
        )
    covered = _covered(links, (s for s, _ in sets))
    members = {s: [k for k in range(n) if c >> k & 1] for s, c in covered.items()}
    scale, worth = _read_worths(game, covered.values())
    eta = lcm(*(len(e) for e in game.hyperlinks))
    weight = [eta // len(e) for e in game.hyperlinks]
    unit = factorial(m) * eta
    # rows[A]: the payoffs with hyperlinks A; players on none of them
    # stand alone and earn 0.
    rows: dict[int, list[int]] = {0: [0] * n}

    def known(sub: int) -> list[int]:
        """The payoffs with hyperlinks `sub`, from the rows of its pieces:
        each piece grows from its lowest hyperlink through shared players."""
        row = rows.get(sub)
        if row is not None:
            return row
        row = rows[0][:]
        while sub:
            piece = frontier = sub & -sub
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown = touching[low.bit_length() - 1] & sub & ~piece
                piece |= grown
                frontier |= grown
            sub ^= piece
            solved = rows[piece]
            for k in members[piece]:
                row[k] = solved[k]
        return row

    for s in sorted(covered, key=int.bit_count):
        anchor, *others = members[s]
        d, r = [0] * n, [0] * n
        for j in [j for j in range(m) if s >> j & 1]:
            before, w = known(s ^ (1 << j)), weight[j]
            for k in members[1 << j]:
                d[k] += w
                r[k] += w * before[anchor]
            if links[j] >> anchor & 1:
                # r[anchor] nets to zero: it gains and loses the same terms
                for q in members[s]:
                    r[q] -= w * before[q]
        row = rows[0][:]
        total = worth[covered[s]] * unit
        x_a, inexact = divmod(d[anchor] * total + sum(r), eta * s.bit_count())
        row[anchor] = x_a
        for q in others:
            row[q], remainder = divmod(d[q] * x_a - r[q], d[anchor])
            inexact |= remainder
        if inexact:
            raise ArithmeticError(f"axioms unsolvable over 1/{unit * scale} at mask {s:#b}")
        rows[s] = row
    return {p: Fraction(x, unit * scale) for p, x in zip(players, known((1 << m) - 1))}
