"""Slow, independent reference routes the tests compare the package against.

Most routes here work on frozenset coalitions and `Fraction` worths, one
coalition at a time, and shares no code with the bitmask integer kernel
`hypercoop.shapley.shapley_of_table`:

* `TUGame`, a ground set plus a memoized worth function;
* three Shapley routes: the permutation average of marginal
  contributions, subset enumeration with the |S|!(n-|S|-1)!/n! weights,
  and Harsanyi dividends split equally inside their coalition;
* the point game and the conference (hyperlink) game of a hypergraph
  game, on the worths `restricted_worth` and `conference_worth`;
* the uniform expansion as an explicit universe of (player, hyperlink,
  copy) players (`build_uniform`), its game on coalitions of copies,
  optionally with one copy taken out (`as_tu_game`), and
  `group_by_origin`, which sums per-copy payoffs one copy at a time;
* the position value recomputed from the dividends of the one-fold
  expanded game;
* a union-find over hashable elements and `merge_groups`, the reference
  partition for `hypercoop.connectivity.mask_components`;
* the agent form as a game on explicit agents, with its pairwise and
  image hyperlinks, whose Myerson value `agent_form_payoffs` must match;
* the count-vector fold with every other block refolded for each pivot
  (`fold_shapley_by_pivot`), the reference for the divide-and-conquer
  fold, and `block_symmetric_shapley`, that fold on Fraction worths of
  complete-block masks, checked against literal block games;
* the axiomatic reconstruction with one row per hyperlink mask
  (`value_from_axioms_by_masks`), the reference for the connected-set
  rows of `hypercoop.axioms.value_from_axioms`.

Each route refuses games larger than its cap.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, lcm
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from hypercoop.connectivity import components, mask_components
from hypercoop.expansion import DEFAULT_STATE_CAP, _fold_shapley, require_state_cap
from hypercoop.model import (
    Allocation,
    CharacteristicFunction,
    Hyperlink,
    HypergraphGame,
    PlayerId,
    ZERO,
    as_fraction,
    eta,
    incident_hyperlinks,
    link_key,
    scaled_worths,
    zero_allocation,
)
from hypercoop.shapley import DEFAULT_SUBSET_CAP, CapExceeded, require_subset_cap

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


def restricted_worth(game: HypergraphGame, coalition: Iterable) -> Fraction:
    """Point-game worth: total worth of the coalition's connected pieces."""
    s = frozenset(coalition)
    inside = (e for e in game.hyperlinks if e <= s)
    return sum((game.worth(t) for t in components(s, inside)), ZERO)


def conference_worth(game: HypergraphGame, hyperlinks: Iterable[Hyperlink]) -> Fraction:
    """Conference-game worth v^N(H'): component worths over all players."""
    return sum((game.worth(t) for t in components(game.players, hyperlinks)), ZERO)


def point_game(game: HypergraphGame) -> TUGame:
    return TUGame(game.players, lambda s: restricted_worth(game, s))


def hyperlink_game(game: HypergraphGame) -> TUGame:
    """TU-game whose ground set is the hyperlinks themselves."""
    return TUGame(game.hyperlinks, lambda active: conference_worth(game, active))


class ExpandedPlayer(NamedTuple):
    """One copy of a hyperlink membership: (original player, hyperlink, copy)."""

    origin: PlayerId
    hyperlink: tuple[PlayerId, ...]
    copy: int


@dataclass(frozen=True)
class UniformExpansion:
    """The k-fold uniform expansion of a hypergraph game, every copy
    spelled out: `blocks` per hyperlink, `groups` per player and
    `sub_blocks` per (player, hyperlink)."""

    game: HypergraphGame
    k: int
    eta: int
    rho: int
    universe: tuple[ExpandedPlayer, ...]
    blocks: dict[tuple[PlayerId, ...], tuple[ExpandedPlayer, ...]]
    groups: dict[PlayerId, tuple[ExpandedPlayer, ...]]
    sub_blocks: dict[tuple[PlayerId, tuple[PlayerId, ...]], tuple[ExpandedPlayer, ...]]


def build_uniform(game: HypergraphGame, k: int = 1) -> UniformExpansion:
    if not game.hyperlinks:
        raise ValueError("uniform expansion requires at least one hyperlink")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    base = eta(game.hypergraph)
    rho = k * base
    universe: list[ExpandedPlayer] = []
    groups: dict[PlayerId, tuple[ExpandedPlayer, ...]] = {}
    sub_blocks: dict[tuple[PlayerId, tuple[PlayerId, ...]], tuple[ExpandedPlayer, ...]] = {}
    for i in game.players:
        mine: list[ExpandedPlayer] = []
        for e in incident_hyperlinks(game.hypergraph, i):
            key = link_key(e)
            copies = tuple(ExpandedPlayer(i, key, t) for t in range(1, rho // len(e) + 1))
            sub_blocks[(i, key)] = copies
            mine.extend(copies)
        if mine:
            groups[i] = tuple(mine)
            universe.extend(mine)
    blocks = {
        link_key(e): tuple(ep for i in sorted(e) for ep in sub_blocks[(i, link_key(e))])
        for e in game.hyperlinks
    }
    return UniformExpansion(game, k, base, rho, tuple(universe), blocks, groups, sub_blocks)


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


def as_tu_game(expansion: UniformExpansion, removed: ExpandedPlayer | None = None) -> TUGame:
    """The expanded game on the universe, less the copy `removed` if one
    is given: its hyperlink's block can then never be complete."""
    players = [ep for ep in expansion.universe if ep != removed]
    return TUGame(players, lambda s: expanded_worth(expansion, s))


def group_by_origin(players: Iterable[PlayerId], per_copy: dict) -> Allocation:
    """Payoffs of expanded players (copies or agents) summed per original
    player, one copy at a time; players with no copy keep payoff 0."""
    out = zero_allocation(players)
    for ep, value in per_copy.items():
        out[ep.origin] += value
    return out


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


def fold_shapley_by_pivot(
    sizes: list[int], signatures: list[list[int]], worths: Callable, state_cap: int
) -> list[Fraction]:
    """`hypercoop.expansion._fold_shapley` the slow way: for each pivot
    block every other block is folded in afresh, B·(B-1) block folds in
    all, into a map from (coalition size, OR-ed bits) to the number of
    coalitions with them.  Same arguments and results."""
    require_state_cap(sizes, state_cap)
    total = sum(sizes)
    fact = [factorial(s) for s in range(total + 1)]
    payoffs: list[Fraction] = []
    for b0, (size0, sig0) in enumerate(zip(sizes, signatures)):
        states = {(0, 0): 1}
        for j, (size, sig) in enumerate(zip(sizes, signatures)):
            if j == b0:
                continue
            folded: dict[tuple[int, int], int] = {}
            for (s, bits), ways in states.items():
                for c in range(size + 1):
                    key = (s + c, bits | sig[c])
                    folded[key] = folded.get(key, 0) + ways * comb(size, c)
            states = folded
        coefficient: dict[int, int] = {}
        for c in range(size0):
            before, after = sig0[c], sig0[c + 1]
            if before == after:
                continue
            for (s, bits), ways in states.items():
                x = fact[s + c] * fact[total - 1 - s - c] * comb(size0 - 1, c) * ways
                coefficient[bits | after] = coefficient.get(bits | after, 0) + x
                coefficient[bits | before] = coefficient.get(bits | before, 0) - x
        needed = [bits for bits, x in coefficient.items() if x]
        scale, worth = worths(needed)
        payoffs.append(Fraction(sum(coefficient[b] * worth[b] for b in needed), fact[-1] * scale))
    return payoffs


def block_symmetric_shapley(
    block_sizes: list[int],
    completion_sizes: list[int],
    worth_of_mask: Callable[[int], Fraction],
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[Fraction]:
    """Per-member Shapley payoffs of a block-symmetric game, through the
    package's fold with one `Fraction` worth per mask.

    The game's ground set is partitioned into blocks; block j has
    block_sizes[j] members and counts as complete exactly when a
    coalition holds completion_sizes[j] of them.  The worth of a
    coalition must depend only on the set of complete blocks, passed to
    `worth_of_mask` as a bitmask.  Returns one payoff per block (all
    members of a block are symmetric).  A block whose completion size
    exceeds its size can never complete and its members are null players.
    """
    signatures = [
        [1 << j if c == need else 0 for c in range(size + 1)]
        for j, (size, need) in enumerate(zip(block_sizes, completion_sizes))
    ]
    return _fold_shapley(
        block_sizes, signatures, lambda ms: (1, {m: worth_of_mask(m) for m in ms}), state_cap
    )


def value_from_axioms_by_masks(game: HypergraphGame, cap: int = 12) -> Allocation:
    """`hypercoop.axioms.value_from_axioms` with one row per hyperlink
    mask, all 2^m of them, refused above `cap` hyperlinks.  Each mask's
    pieces come from `mask_components` over the players; a piece of two
    or more players is solved by the same closed form (anchor, weighted
    degrees d_q, known sides r_q from the masks one bit smaller), a lone
    player takes its own worth.  Integer rows over m!·scale·eta."""
    links = game.hyperlinks
    m = len(links)
    if m > cap:
        raise CapExceeded(f"{m} hyperlinks exceeds the mask cap {cap}")
    players = game.players
    n = len(players)
    link_masks = [sum(1 << k for k, p in enumerate(players) if p in e) for e in links]
    sizes_lcm = lcm(*(len(e) for e in links))
    weight = [sizes_lcm // len(e) for e in links]
    pieces = [
        mask_components((1 << n) - 1, [e for j, e in enumerate(link_masks) if mask >> j & 1])
        for mask in range(1 << m)
    ]
    scale, worth = scaled_worths(game.characteristic, players, {p for ps in pieces for p in ps})
    unit = factorial(m) * sizes_lcm
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
