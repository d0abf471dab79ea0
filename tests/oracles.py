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
* the count-vector fold (`fold_shapley`), which solves a game of blocks
  of interchangeable players from the OR of per-block signature bits
  under a cap on the product of (block size + 1); the same fold with
  every other block refolded for each pivot (`fold_shapley_by_pivot`);
  `block_symmetric_shapley`, the fold on Fraction worths of
  complete-block masks, checked against literal block games; and the
  fold's uniform expansion (`uniform_by_fold`) and full-signature agent
  form (`agent_form_by_fold`), the references for the completion-weight
  kernel of `hypercoop.expansion`, and the completion weights themselves
  summed as `Fraction`s (`completion_weights_by_fractions`) and as
  integers term by term (`completion_numerators_by_terms`);
* the axiomatic reconstruction with one row per hyperlink mask
  (`value_from_axioms_by_masks`), the reference for the connected-set
  rows of `hypercoop.axioms.value_from_axioms`;
* the pair report of the contribution axioms with one rule call per
  hyperlink deletion and `Fraction` gains (`pair_report_by_rule_calls`),
  the reference for the integer gains of `hypercoop.axioms`;
* the player-by-player report of two allocations (`compare`), and
  Lemma 1 for one hyperlink on two passes (`check_copy_deletion`), the
  reference for the one-pass `hypercoop.axioms.check_copy_deletions`;
* the game document parser that checks each field through the error
  helpers and then again in `make_hypergraph` and the characteristic
  constructors (`parse_game_by_fields`), the reference for the one-pass
  `hypercoop.cli.parse_game`.

Each route refuses games larger than its cap: the subset enumeration
with the package's `CapExceeded`, the others with `OracleCapExceeded`,
which names its own cap.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb, factorial, lcm, prod
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from hypercoop.axioms import Report, _numerators, _report
from hypercoop.cli import DocumentError, _int_list, _known_keys, _require, parse_rational
from hypercoop.connectivity import components, mask_components
from hypercoop.expansion import grouped_position
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
    make_hypergraph,
    scaled_worths,
    table_function,
    unanimity,
    weighted_unanimity,
    zero_allocation,
)
from hypercoop.shapley import DEFAULT_SUBSET_CAP, CapExceeded, factorials
from hypercoop.solutions import conference_table, position_value

DEFAULT_PERMUTATION_CAP = 8
DEFAULT_DIVIDEND_CAP = 20
DEFAULT_DIVIDEND_UNIVERSE_CAP = 16
DEFAULT_STATE_CAP = 10_000_000


class OracleCapExceeded(RuntimeError):
    """A reference route past one of its own caps (permutations,
    dividends, count-vector states or hyperlink masks), which the
    message names; the package's subset cap raises `CapExceeded`."""


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
        raise OracleCapExceeded(f"{n} players exceeds the permutation cap {cap}")
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
    if n > cap:
        raise CapExceeded(f"the table of {n} players", f"2^{n}", cap)
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
        raise OracleCapExceeded(f"{n} players exceeds the dividend cap {cap}")
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


def require_state_cap(sizes: list[int], state_cap: int) -> None:
    """Refuse a count-vector fold whose product of (block size + 1)
    exceeds the cap."""
    if prod(n + 1 for n in sizes) > state_cap:
        raise OracleCapExceeded(f"count-vector state space exceeds the cap {state_cap}")


def _fold_block(states: dict[int, int], size: int, sig: list[int], shift: int) -> dict[int, int]:
    """Fold one block into the map from (bits << shift | coalition size) to ways."""
    row = [(c, sig[c] << shift, comb(size, c)) for c in range(size + 1)]
    folded: dict[int, int] = {}
    for state, ways in states.items():
        for c, high, w in row:
            key = (state + c) | high
            folded[key] = folded.get(key, 0) + ways * w
    return folded


def fold_shapley(
    sizes: list[int], signatures: list[list[int]], worths: Callable, state_cap: int = DEFAULT_STATE_CAP
) -> list[Fraction]:
    """Per-member Shapley payoffs of a game whose members fall into blocks
    of interchangeable players, one payoff per block, by folding count
    vectors.

    A coalition holding c of block j's sizes[j] members gets the bits
    signatures[j][c] from it, and its worth depends only on the OR of its
    blocks' bits.  `solve(lo, hi, states)` holds the fold of every block
    outside [lo, hi) and recurses into each half with the other half
    folded in: about B·log2(B) block folds in all, not B·(B-1).  A pivot
    member arriving to c others of its block changes the worth only where
    signatures[pivot][c] differs from signatures[pivot][c+1], so only
    those counts contribute.  Each pivot keeps one integer coefficient
    per OR-ed bits; `worths(needed)`, asked once for the union over all
    pivots, returns (scale, w) with w[bits] = scale·worth, and each pivot
    ends in one Fraction.  It uses nothing beyond the symmetry inside
    blocks, and no worth table: the slow reference for the package's
    completion-weight kernel.
    """
    if not sizes:
        return []
    require_state_cap(sizes, state_cap)
    total = sum(sizes)
    shift = total.bit_length()
    fact = factorials(total)

    def fold(states: dict[int, int], blocks: range) -> dict[int, int]:
        for j in blocks:
            states = _fold_block(states, sizes[j], signatures[j], shift)
        return states

    def solve(lo: int, hi: int, states: dict[int, int]) -> list[dict[int, int]]:
        if hi - lo > 1:
            mid = (lo + hi) // 2
            left = solve(lo, mid, fold(states, range(mid, hi)))
            return left + solve(mid, hi, fold(states, range(lo, mid)))
        # n!·Sh = Σ (s+c)!·(n-s-c-1)!·C(size0-1, c)·ways·(v(after) - v(before)),
        # summed per OR-ed bits, then gathered as one integer coefficient per worth.
        size0, sig0 = sizes[lo], signatures[lo]
        coefficient: dict[int, int] = {}
        for c in range(size0):
            before, after = sig0[c], sig0[c + 1]
            if before == after:
                continue
            weight = [fact[s + c] * fact[total - 1 - s - c] for s in range(total - size0 + 1)]
            per_bits: dict[int, int] = {}
            for state, ways in states.items():
                bits = state >> shift
                per_bits[bits] = per_bits.get(bits, 0) + weight[state - (bits << shift)] * ways
            pivot_ways = comb(size0 - 1, c)
            for bits, x in per_bits.items():
                coefficient[bits | after] = coefficient.get(bits | after, 0) + x * pivot_ways
                coefficient[bits | before] = coefficient.get(bits | before, 0) - x * pivot_ways
        return [{bits: x for bits, x in coefficient.items() if x}]

    coefficients = solve(0, len(sizes), {0: 1})
    scale, worth = worths(list({bits for coefficient in coefficients for bits in coefficient}))
    return [
        Fraction(sum(x * worth[bits] for bits, x in coefficient.items()), fact[-1] * scale)
        for coefficient in coefficients
    ]


def fold_shapley_by_pivot(
    sizes: list[int], signatures: list[list[int]], worths: Callable, state_cap: int = DEFAULT_STATE_CAP
) -> list[Fraction]:
    """`fold_shapley` the slow way: for each pivot
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
    """Per-member Shapley payoffs of a block-symmetric game, through
    `fold_shapley` with one `Fraction` worth per mask.

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
    return fold_shapley(
        block_sizes, signatures, lambda ms: (1, {m: worth_of_mask(m) for m in ms}), state_cap
    )


def completion_weights_by_fractions(blocks: int, rho: int) -> list[Fraction]:
    """π(t) = Σ_i (-1)^i C(r, i) / (rho(1+t+i)), r = blocks-1-t, for
    t = 0..blocks-1, term by term in `Fraction`s: the reference for
    `hypercoop.expansion.completion_numerators`."""
    return [
        sum(
            (Fraction((-1) ** i * comb(blocks - 1 - t, i), rho * (1 + t + i)) for i in range(blocks - t)),
            Fraction(0),
        )
        for t in range(blocks)
    ]


def completion_numerators_by_terms(blocks: int) -> tuple[int, ...]:
    """c(t) = Σ_i (-1)^i C(r, i)·(lcm(1..blocks) // (1+t+i)), r =
    blocks-1-t, for t = 0..blocks-1, term by term in integers: the
    reference for the forward-difference table of
    `hypercoop.expansion.completion_numerators`."""
    unit = lcm(*range(1, blocks + 1))
    return tuple(
        sum((-1) ** i * comb(blocks - 1 - t, i) * (unit // (1 + t + i)) for i in range(blocks - t))
        for t in range(blocks)
    )


def uniform_by_fold(
    game: HypergraphGame, k: int = 1, removed: Iterable[PlayerId] | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> dict[tuple[PlayerId, Hyperlink], Fraction]:
    """`hypercoop.expansion.uniform_payoffs` by `fold_shapley`: one block
    of k*eta copies per hyperlink with one signature bit once complete,
    the copy-deleted block (which never completes) left out, and the
    worths read off the conference table."""
    removed = None if removed is None else frozenset(removed)
    rho = k * eta(game.hypergraph)
    folded = [j for j, e in enumerate(game.hyperlinks) if e != removed]
    signatures = [[1 << j if c == rho else 0 for c in range(rho + 1)] for j in folded]
    values, scale = conference_table(game)
    per_block = fold_shapley([rho] * len(folded), signatures, lambda needed: (scale, values), state_cap)
    payoff = dict(zip(folded, per_block))
    return {(i, e): payoff.get(j, ZERO) for j, e in enumerate(game.hyperlinks) for i in sorted(e)}


def agent_form_by_fold(
    game: HypergraphGame, state_cap: int = DEFAULT_STATE_CAP
) -> dict[tuple[PlayerId, Hyperlink], Fraction]:
    """`hypercoop.expansion.agent_form_payoffs` by `fold_shapley` with the
    full signatures of the agent form, assuming nothing of the worths.

    Agents of one (player, hyperlink) sub-block are interchangeable.  A
    sub-block holding c of its agents marks its player present when c > 0
    and its hyperlink's image incomplete when c is below its size.  A
    coalition of agents is worth the total worth of the components the
    complete images induce among the present players, singletons
    included at whatever worth they have.
    """
    if not game.hyperlinks:
        raise ValueError("agent form requires at least one hyperlink")
    size_of = eta(game.hypergraph)
    counts = {
        (i, e): size_of // len(e) for i in game.players for e in incident_hyperlinks(game.hypergraph, i)
    }
    n = len(game.players)
    player_bit = {p: 1 << k for k, p in enumerate(game.players)}
    image_bit = {e: 1 << (n + t) for t, e in enumerate(game.hyperlinks)}
    link_masks = [sum(player_bit[p] for p in e) for e in game.hyperlinks]
    sizes = list(counts.values())
    signatures = [
        [(player_bit[i] if c else 0) | (image_bit[e] if c < size else 0) for c in range(size + 1)]
        for (i, e), size in counts.items()
    ]

    def pieces_of(bits: int) -> list[int]:
        complete = [e for t, e in enumerate(link_masks) if not bits >> (n + t) & 1]
        return mask_components(bits & ((1 << n) - 1), complete)

    def worths(needed: list[int]) -> tuple[int, dict[int, int]]:
        pieces = {bits: pieces_of(bits) for bits in needed}
        union = {p for ps in pieces.values() for p in ps}
        scale, worth = scaled_worths(game.characteristic, game.players, union)
        return scale, {bits: sum(worth[p] for p in ps) for bits, ps in pieces.items()}

    return dict(zip(counts, fold_shapley(sizes, signatures, worths, state_cap)))


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
        raise OracleCapExceeded(f"{m} hyperlinks exceeds the mask cap {cap}")
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


def pair_report_by_rule_calls(
    rule: Callable[[HypergraphGame], Allocation],
    game: HypergraphGame,
    axiom: str,
    weight_of: Callable[[Hyperlink], Fraction],
) -> Report:
    """The contribution axioms' pair report from the definition: one
    rule call per game without a hyperlink, and gain[i, j] = sum over e
    containing j of weight(e) * (f_i(H) - f_i(H minus e)) in Fractions,
    put over the lcm of their denominators for the report.  The pair
    (i, j) compares gain[i, j] with gain[j, i]."""
    base = rule(game)
    removed = {e: rule(game.without_hyperlink(e)) for e in game.hyperlinks}
    incident = {j: incident_hyperlinks(game.hypergraph, j) for j in game.players}
    gain = {
        (i, j): sum((weight_of(e) * (base[i] - removed[e][i]) for e in incident[j]), ZERO)
        for i in game.players
        for j in game.players
    }
    unit = lcm(*(g.denominator for g in gain.values()))
    numerator = {key: g.numerator * (unit // g.denominator) for key, g in gain.items()}
    return Report(axiom, {(i, j): (g, numerator[j, i]) for (i, j), g in numerator.items()}, unit)


def compare(axiom: str, left: Allocation, right: Allocation) -> Report:
    """Player-by-player report of two allocations over the same players."""
    keys = sorted(right)
    return _report(axiom, keys, _numerators(left[p] for p in keys), _numerators(right[p] for p in keys))


def check_copy_deletion(game: HypergraphGame, link, cap: int = DEFAULT_SUBSET_CAP) -> Report:
    """Deleting one copy of a hyperlink from the one-fold expansion versus
    deleting the hyperlink outright.

    Left sums the expanded game's Shapley payoffs per original player
    after one copy is taken out of the hyperlink's block (its copies
    then earn 0, so which member held it does not matter); right is the
    position value of the game without the hyperlink.  Both sides run
    on the route the subset cap `cap` admits over the hyperlinks (a
    table only within it), whatever the number of copies.  The two must
    agree exactly.
    """
    e = frozenset(link)
    grouped = grouped_position(game, 1, e, cap)
    return compare("copy deletion", grouped, position_value(game.without_hyperlink(e), cap=cap))


def parse_game_by_fields(text: str) -> HypergraphGame:
    """Parse and validate a JSON game document field by field, building
    every error message's field path as it goes, then hand the checked
    fields to `make_hypergraph` and the characteristic constructors, which
    check them again.  The first error is the same as `parse_game`'s."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a decode error, or an integer past int's digit limit
        raise DocumentError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError("document root must be a JSON object")
    _known_keys(doc, ("players", "hyperlinks", "characteristic"), "document")

    players = _int_list(_require(doc, "players", "document"), "players")
    if not players:
        raise DocumentError("players: player set must be nonempty")
    player_set = set(players)
    if len(player_set) < len(players) or min(players) < 0:
        first_at: dict[int, int] = {}
        for n, p in enumerate(players):
            if p < 0:
                raise DocumentError(f"players[{n}]: player ids must be non-negative integers, got {p}")
            if (first := first_at.setdefault(p, n)) != n:
                raise DocumentError(f"players[{n}]: duplicate player id {p}, already players[{first}]")

    raw_links = doc.get("hyperlinks", [])
    if not isinstance(raw_links, list):
        raise DocumentError("hyperlinks: expected a list of player lists")
    links: dict[frozenset[int], int] = {}
    for n, raw in enumerate(raw_links):
        members = _int_list(raw, f"hyperlinks[{n}]")
        if len(members) < 2:
            raise DocumentError(f"hyperlinks[{n}]: a hyperlink needs at least two members")
        if not player_set.issuperset(members):
            unknown = sorted(p for p in members if p not in player_set)
            raise DocumentError(f"hyperlinks[{n}]: unknown players {unknown}")
        if len(set(members)) != len(members):
            raise DocumentError(f"hyperlinks[{n}]: duplicate members")
        if (first := links.setdefault(frozenset(members), n)) != n:
            raise DocumentError(
                f"hyperlinks[{n}]: duplicate hyperlink {sorted(members)}, already hyperlinks[{first}]"
            )

    raw_cf = _require(doc, "characteristic", "document")
    if not isinstance(raw_cf, dict):
        raise DocumentError("characteristic: expected an object")
    _known_keys(raw_cf, ("table", "unanimity", "weighted_unanimity"), "characteristic")
    if len(raw_cf) != 1:
        raise DocumentError(
            "characteristic: provide exactly one of 'table', "
            "'unanimity' or 'weighted_unanimity'"
        )

    try:
        structure = make_hypergraph(players, links)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None

    [(kind, raw_kind)] = raw_cf.items()
    try:
        if kind == "unanimity":
            support = _int_list(raw_kind, "characteristic.unanimity")
            cf = unanimity(players, support)
        elif kind == "weighted_unanimity":
            if not isinstance(raw_kind, list):
                raise DocumentError("characteristic.weighted_unanimity: expected a list")
            terms = []
            for n, item in enumerate(raw_kind):
                where = f"characteristic.weighted_unanimity[{n}]"
                if not isinstance(item, dict):
                    raise DocumentError(f"{where}: expected an object")
                _known_keys(item, ("coalition", "coeff"), where)
                coalition = _int_list(_require(item, "coalition", where), f"{where}.coalition")
                coeff = parse_rational(_require(item, "coeff", where), f"{where}.coeff")
                terms.append((coalition, coeff))
            cf = weighted_unanimity(players, terms)
        else:
            if not isinstance(raw_kind, list):
                raise DocumentError("characteristic.table: expected a list of entries")
            entries: dict[frozenset[int], Fraction] = {}
            for n, item in enumerate(raw_kind):
                where = f"characteristic.table[{n}]"
                if not isinstance(item, dict):
                    raise DocumentError(f"{where}: expected an object")
                _known_keys(item, ("coalition", "worth"), where)
                coalition = frozenset(
                    _int_list(_require(item, "coalition", where), f"{where}.coalition")
                )
                if coalition in entries:
                    raise DocumentError(f"{where}: duplicate coalition {sorted(coalition)}")
                entries[coalition] = parse_rational(
                    _require(item, "worth", where), f"{where}.worth"
                )
            cf = table_function(players, entries)
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(f"characteristic: {exc}") from None

    return HypergraphGame(structure, cf)
