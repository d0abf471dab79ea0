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
A rule may also carry `rows`, mapping a game to the `rows(j)` of
`solutions._rows`: its payoffs on the game and without each hyperlink,
from one pass, as integer numerators with their denominators, as the
command line's position rule does.
Every check, axiom or identity, returns one `Report`: a (left, right)
pair of integer numerators per key — an ordered player pair, a
component or a player — over one denominator, never just a boolean, so
failures show *where* and *by how much* an invariant breaks.  Passing
and counting compare integers; the exact `Side`s (left, right, residual)
are built for the failures, or for every key when `sides` is first read.
`compare` builds the player-by-player report of two allocations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from operator import add
from typing import Callable

from .connectivity import components, connected_sets
from .expansion import _block_size, _completion
from .model import (
    Allocation,
    Hyperlink,
    HypergraphGame,
    ONE,
    ZERO,
    is_r_uniform,
)
from .shapley import DEFAULT_SUBSET_CAP, CapExceeded
from .solutions import (
    _covered,
    _hyperlink_masks,
    _line_graph,
    _read_worths,
    _rows,
    _shapley,
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


@dataclass(frozen=True, eq=False)
class Report:
    """One (left, right) pair of integer numerators per key — an ordered
    player pair, a component or a player — over one denominator.  Two
    reports are equal when their axioms and `sides` are."""

    axiom: str
    pairs: dict
    denominator: int = 1

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Report):
            return NotImplemented
        return self.axiom == other.axiom and self.sides == other.sides

    def _side(self, left: int, right: int) -> Side:
        return Side(Fraction(left, self.denominator), Fraction(right, self.denominator))

    @cached_property
    def sides(self) -> dict:
        """{key: `Side`} in key order, built on first read."""
        return {key: self._side(*pair) for key, pair in self.pairs.items()}

    def residual(self, *key) -> Fraction:
        """The residual at `report.residual(i, j)`, `(component)` or `(player)`."""
        left, right = self.pairs[key if len(key) > 1 else key[0]]
        return Fraction(left - right, self.denominator)

    def failures(self) -> dict:
        return {key: self._side(left, right) for key, (left, right) in self.pairs.items() if left != right}

    @property
    def passed(self) -> bool:
        return all(left == right for left, right in self.pairs.values())


def _numerators(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm of their denominators."""
    values = list(values)
    unit = lcm(*(x.denominator for x in values))
    return [x.numerator * (unit // x.denominator) for x in values], unit


def _report(axiom: str, keys, left: tuple[list[int], int], right: tuple[list[int], int]) -> Report:
    """The report of two rows of (numerators, denominator), key by key,
    over the lcm of the two denominators."""
    (lefts, p), (rights, q) = left, right
    unit = lcm(p, q)
    pairs = zip([x * (unit // p) for x in lefts], [x * (unit // q) for x in rights])
    return Report(axiom, dict(zip(keys, pairs)), unit)


def compare(axiom: str, left: Allocation, right: Allocation) -> Report:
    """Player-by-player report of two allocations over the same players."""
    keys = sorted(right)
    return _report(axiom, keys, _numerators(left[p] for p in keys), _numerators(right[p] for p in keys))


def _pair_report(
    rule: Rule,
    game: HypergraphGame,
    axiom: str,
    weight_of: Callable[[Hyperlink], Fraction],
) -> Report:
    """gain[i, j] totals what i gains from j's hyperlinks existing:
    sum over e containing j of weight(e) * (f_i(H) - f_i(H minus e)).
    The pair (i, j) compares gain[i, j] with gain[j, i].

    The payoffs on H and on every H minus e are read from the rule's
    `rows` when it carries them, from one pass, or else from one call
    each, and put over the lcm of their denominators.  With the weights
    over another, the gains are integer sums."""
    players, links = game.players, game.hyperlinks
    n = len(players)
    one_pass = getattr(rule, "rows", None)
    if one_pass is not None:
        rows = one_pass(game)
        payoffs = [rows(j)[0] for j in (None, *range(len(links)))]
    else:
        calls = map(rule, (game, *map(game.without_hyperlink, links)))
        payoffs = [_numerators(f[i] for i in players) for f in calls]
    unit = lcm(*(denominator for _, denominator in payoffs))
    (first, denominator), *after = payoffs
    before = [x * (unit // denominator) for x in first]
    weights = [weight_of(e) for e in links]
    per = lcm(*(w.denominator for w in weights))
    index = {p: k for k, p in enumerate(players)}
    # columns[j][i] = gain[i, j]; pair (i, j), i major, is (columns[j][i], columns[i][j])
    columns = [[0] * n for _ in players]
    for e, w, (row, denominator) in zip(links, weights, after):
        w, scale = w.numerator * (per // w.denominator), unit // denominator
        delta = [w * (b - scale * r) for b, r in zip(before, row)]
        for j in e:
            columns[index[j]] = list(map(add, columns[index[j]], delta))
    left = itertools.chain.from_iterable(zip(*columns))
    right = itertools.chain.from_iterable(columns)
    pairs = dict(zip(itertools.product(players, repeat=2), zip(left, right)))
    return Report(axiom, pairs, unit * per)


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
    comps = components(game.players, game.hyperlinks)
    allocated = _numerators(sum((payoffs[i] for i in comp), ZERO) for comp in comps)
    return _report("component efficiency", comps, allocated, _numerators(map(game.worth, comps)))


def check_copy_deletions(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> dict[Hyperlink, Report]:
    """Lemma 1 for every hyperlink e, from one pass: the one-fold
    expansion's payoffs grouped per player once a copy leaves e's block
    (its copies then earn 0, whoever held it) against the position value
    without e, the sets or table masks without e summed with the
    completion weights of the m - 1 other blocks and with Shapley's."""
    sides = _identity_sides(game, 1, cap)
    return {e: _report("copy deletion", game.players, *sides(j)) for j, e in enumerate(game.hyperlinks)}


def _identity_sides(game: HypergraphGame, k: int, cap: int):
    """sides(j): (the k-fold expansion's payoffs grouped per player, the
    position value) without hyperlink j (None: with all), each as player
    numerators with their denominator, both weightings summed in one
    pass, once k and the subset cap are checked."""
    _block_size(game, k)
    return _rows(game, cap, (_completion, _shapley))


def check_uniform_expansion(game: HypergraphGame, k: int = 1, cap: int = DEFAULT_SUBSET_CAP) -> Report:
    """Theorems 1 (k = 1) and 2: the Shapley payoffs of the k-fold uniform
    expansion, summed per original player, against the position value,
    both from one pass."""
    label = f"grouped Shapley payoffs of the {k}-fold uniform expansion"
    return _report(label, game.players, *_identity_sides(game, k, cap)())


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
    the line graph), kept as a row of its own once read; a player on none
    of its hyperlinks earns 0.
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
    links = _hyperlink_masks(game)
    adjacency, limit = _line_graph(links), (1 << cap) - 1
    sets = connected_sets(adjacency, limit)
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
        """The payoffs with hyperlinks `sub`, from the rows of its pieces,
        kept in `rows`: each piece grows from its lowest hyperlink through
        shared players."""
        row = rows.get(sub)
        if row is not None:
            return row
        row, rest = rows[0][:], sub
        while rest:
            piece = frontier = rest & -rest
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown = adjacency[low.bit_length() - 1] & rest & ~piece
                piece |= grown
                frontier |= grown
            rest ^= piece
            solved = rows[piece]
            for k in members[piece]:
                row[k] = solved[k]
        rows[sub] = row
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
