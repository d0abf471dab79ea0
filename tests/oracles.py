"""Slow, independent reference routes the tests compare the package against.

Everything here works on frozenset coalitions and `Fraction` worths, one
coalition at a time, and shares no code with the bitmask integer kernel
`hypercoop.shapley.shapley_of_table`:

* `TUGame`, a ground set plus a memoized worth function;
* three Shapley routes: the permutation average of marginal
  contributions, subset enumeration with the |S|!(n-|S|-1)!/n! weights,
  and Harsanyi dividends split equally inside their coalition;
* the point game and the conference (hyperlink) game of a hypergraph
  game, and the worth of a coalition of copies in a uniform expansion;
* the position value recomputed from the dividends of the one-fold
  expanded game;
* a union-find over hashable elements and `merge_groups`, the reference
  partition for `hypercoop.connectivity.mask_components`;
* the agent form as a game on explicit agents, with its pairwise and
  image hyperlinks, whose Myerson value `agent_form_payoffs` must match.

Each route refuses games larger than its cap.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from hypercoop.expansion import ExpandedPlayer, UniformExpansion, build_uniform
from hypercoop.model import (
    Allocation,
    CharacteristicFunction,
    HypergraphGame,
    PlayerId,
    ZERO,
    as_fraction,
    link_key,
    zero_allocation,
)
from hypercoop.shapley import DEFAULT_SUBSET_CAP, CapExceeded, require_subset_cap
from hypercoop.solutions import conference_worth, restricted_worth

DEFAULT_PERMUTATION_CAP = 8
DEFAULT_DIVIDEND_CAP = 20
DEFAULT_DIVIDEND_UNIVERSE_CAP = 16


class TUGame:
    """A finite TU-game: ordered ground set plus a memoized worth function.

    Ground elements may be anything hashable (player ids, hyperlinks,
    expanded players).  `worth` must map frozensets of them to exact
    rationals with worth(∅) = 0; this is checked at construction.
    """

    def __init__(self, players: Sequence[Hashable], worth: Callable,
                 characteristic: CharacteristicFunction | None = None):
        self.players = tuple(players)
        self._player_set = frozenset(self.players)
        if len(self._player_set) != len(self.players):
            raise ValueError("ground set elements must be distinct")
        self._worth = worth
        self.characteristic = characteristic
        self._cache: dict[frozenset, Fraction] = {}
        if self.worth(frozenset()) != 0:
            raise ValueError("worth of the empty coalition must be 0")

    @classmethod
    def from_characteristic(cls, cf: CharacteristicFunction) -> "TUGame":
        return cls(sorted(cf.players), cf.worth, characteristic=cf)

    def worth(self, coalition: Iterable) -> Fraction:
        s = frozenset(coalition)
        cached = self._cache.get(s)
        if cached is None:
            if not s <= self._player_set:
                raise ValueError("coalition contains elements outside the ground set")
            cached = as_fraction(self._worth(s))
            self._cache[s] = cached
        return cached


def positional_weights(n: int) -> list[Fraction]:
    """weights[s] = s!(n-s-1)!/n! — the chance a player arrives after
    exactly s others in a uniformly random order."""
    fact = [1] * (n + 1)
    for i in range(1, n + 1):
        fact[i] = fact[i - 1] * i
    return [Fraction(fact[s] * fact[n - 1 - s], fact[n]) for s in range(n)]


def _coalitions_by_mask(players: Sequence[Hashable]) -> list[frozenset]:
    """All subsets as frozensets, indexed by bitmask over `players`."""
    n = len(players)
    sets: list[frozenset] = [frozenset()] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        sets[mask] = sets[mask & (mask - 1)] | {players[low]}
    return sets


def shapley_by_permutations(game: TUGame, cap: int = DEFAULT_PERMUTATION_CAP) -> dict:
    """Average marginal contribution over every arrival order."""
    n = len(game.players)
    if n > cap:
        raise CapExceeded(f"{n} players exceeds the permutation cap {cap}")
    totals = {p: ZERO for p in game.players}
    for order in itertools.permutations(game.players):
        before: frozenset = frozenset()
        prev = ZERO
        for p in order:
            after = before | {p}
            cur = game.worth(after)
            totals[p] += cur - prev
            before, prev = after, cur
    scale = Fraction(1, factorial(n)) if n else ZERO
    return {p: v * scale for p, v in totals.items()}


def shapley_by_subsets(game: TUGame, cap: int = DEFAULT_SUBSET_CAP) -> dict:
    """Subset enumeration with exact positional weights."""
    n = len(game.players)
    require_subset_cap(n, cap, "players")
    if n == 0:
        return {}
    sets = _coalitions_by_mask(game.players)
    worths = [game.worth(s) for s in sets]
    weights = positional_weights(n)
    payoffs = {}
    for idx, p in enumerate(game.players):
        bit = 1 << idx
        total = ZERO
        for mask in range(1 << n):
            if mask & bit:
                continue
            diff = worths[mask | bit] - worths[mask]
            if diff:
                total += weights[mask.bit_count()] * diff
        payoffs[p] = total
    return payoffs


def harsanyi_dividends(game: TUGame, cap: int = DEFAULT_DIVIDEND_CAP) -> dict[frozenset, Fraction]:
    """Sparse map of the nonzero Harsanyi dividends of the game.

    Games whose characteristic function is a (weighted) unanimity
    combination expose their coefficients directly; those bypass the 2^n
    Möbius transform entirely, so the cap does not apply to them.
    """
    if game.characteristic is not None:
        coeffs = game.characteristic.unanimity_coefficients()
        if coeffs is not None:
            return {frozenset(t): as_fraction(c) for t, c in coeffs.items() if c != 0}
    n = len(game.players)
    if n > cap:
        raise CapExceeded(f"{n} players exceeds the dividend cap {cap}")
    sets = _coalitions_by_mask(game.players)
    arr = [game.worth(s) for s in sets]
    for idx in range(n):
        bit = 1 << idx
        for mask in range(1 << n):
            if mask & bit:
                arr[mask] -= arr[mask ^ bit]
    return {sets[mask]: arr[mask] for mask in range(1, 1 << n) if arr[mask] != 0}


def shapley_by_dividends(game: TUGame, cap: int = DEFAULT_DIVIDEND_CAP) -> dict:
    """Each dividend split equally among the members of its coalition."""
    payoffs = {p: ZERO for p in game.players}
    for t, coeff in harsanyi_dividends(game, cap=cap).items():
        share = coeff / len(t)
        for p in t:
            payoffs[p] += share
    return payoffs


def point_game(game: HypergraphGame) -> TUGame:
    return TUGame(game.players, lambda s: restricted_worth(game, s))


def hyperlink_game(game: HypergraphGame) -> TUGame:
    """TU-game whose ground set is the hyperlinks themselves."""
    return TUGame(game.hyperlinks, lambda active: conference_worth(game, active))


def expanded_worth(expansion: UniformExpansion, coalition: Iterable) -> Fraction:
    """Worth of a coalition of copies: conference worth of the hyperlinks
    whose blocks the coalition contains completely."""
    s = frozenset(coalition)
    if not s <= frozenset(expansion.universe):
        raise ValueError("coalition contains foreign expanded players")
    complete = [
        e for e in expansion.game.hyperlinks
        if s.issuperset(expansion.blocks[link_key(e)])
    ]
    return conference_worth(expansion.game, complete)


def as_tu_game(expansion: UniformExpansion) -> TUGame:
    return TUGame(expansion.universe, lambda s: expanded_worth(expansion, s))


def position_by_dividends(game: HypergraphGame, cap: int = DEFAULT_DIVIDEND_UNIVERSE_CAP) -> Allocation:
    """Position value recomputed from the dividends of the one-fold
    expanded game: each dividend is split equally over its coalition of
    copies and credited to the copies' original players."""
    payoffs = zero_allocation(game.players)
    if not game.hyperlinks:
        return payoffs
    expansion = build_uniform(game, 1)
    dividends = harsanyi_dividends(as_tu_game(expansion), cap=cap)
    for coalition, coeff in dividends.items():
        share = coeff / len(coalition)
        for ep in coalition:
            payoffs[ep.origin] += share
    return payoffs


class UnionFind:
    """Disjoint sets over arbitrary hashable elements."""

    def __init__(self, elements: Iterable[Hashable] = ()):
        self.parent: dict = {}
        self.size: dict = {}
        for x in elements:
            self.add(x)

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def groups(self) -> list[set]:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return list(out.values())


def merge_groups(elements: Iterable[Hashable], groups: Iterable[Iterable[Hashable]]) -> list[frozenset]:
    """Partition `elements` into the classes generated by merging each group.

    Blocks come back sorted by their smallest element, so the result is
    deterministic for orderable elements (ints, tuples).
    """
    uf = UnionFind(elements)
    for group in groups:
        members = iter(group)
        first = next(members, None)
        if first is None:
            continue
        uf.add(first)
        for other in members:
            uf.add(other)
            uf.union(first, other)
    return sorted((frozenset(g) for g in uf.groups()), key=min)


@dataclass(frozen=True)
class AgentFormGame:
    """The agent form: one agent per held copy (k = 1), all agents of a
    player pairwise linked, plus one image hyperlink per original one.

    A coalition of agents is worth whatever the original players it
    touches are worth.
    """

    game: HypergraphGame
    eta: int
    players: tuple[ExpandedPlayer, ...]
    groups: dict[PlayerId, tuple[ExpandedPlayer, ...]]
    sub_blocks: dict[tuple[PlayerId, tuple[PlayerId, ...]], tuple[ExpandedPlayer, ...]]
    hyperlinks: tuple[frozenset[ExpandedPlayer], ...]

    def original_players(self, agents: Iterable[ExpandedPlayer]) -> frozenset[PlayerId]:
        s = frozenset(agents)
        return frozenset(i for i, mine in self.groups.items() if s & frozenset(mine))

    def worth(self, agents: Iterable[ExpandedPlayer]) -> Fraction:
        return self.game.worth(self.original_players(agents))

    def restricted_worth(self, agents: Iterable[ExpandedPlayer]) -> Fraction:
        """Point-game worth of an agent coalition under the agent-form links."""
        s = frozenset(agents)
        inside = [h for h in self.hyperlinks if h <= s]
        return sum((self.worth(c) for c in merge_groups(s, inside)), ZERO)


def build_agent_form(game: HypergraphGame) -> AgentFormGame:
    if not game.hyperlinks:
        raise ValueError("agent form requires at least one hyperlink")
    expansion = build_uniform(game, 1)
    images = [frozenset(expansion.blocks[link_key(e)]) for e in game.hyperlinks]
    internal = [
        frozenset(pair)
        for i in sorted(expansion.groups)
        for pair in itertools.combinations(expansion.groups[i], 2)
    ]
    return AgentFormGame(
        game,
        expansion.eta,
        expansion.universe,
        expansion.groups,
        expansion.sub_blocks,
        tuple(images + internal),
    )
