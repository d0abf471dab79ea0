"""Uniform hyperlink expansions, the agent form, and exact Shapley values
on the expanded universes.

Every hyperlink e is replaced by a block of rho = k*eta equal copies,
rho/|e| of them held by each member, where eta is the lcm of the
hyperlink sizes.  The expanded game w gives a coalition of copies the
conference worth of the hyperlinks whose blocks it contains completely.

The expanded games are symmetric under permuting copies inside a block,
so a coalition matters only through its per-block member counts.  The
engines below enumerate those count vectors and weight each one by the
exact number of coalitions realizing it (products of binomials).  They
use nothing beyond that within-block symmetry — in particular they never
assume the grouped-payoff identity they are used to verify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

from .connectivity import merge_groups
from .model import (
    Allocation,
    HypergraphGame,
    PlayerId,
    ZERO,
    eta,
    incident_hyperlinks,
    link_key,
    zero_allocation,
)
from .shapley import CapExceeded, TUGame, positional_weights
from .solutions import conference_worth

DEFAULT_STATE_CAP = 10_000_000


class ExpandedPlayer(NamedTuple):
    """One copy of a hyperlink membership: (original player, hyperlink, copy)."""

    origin: PlayerId
    hyperlink: tuple[PlayerId, ...]
    copy: int


@dataclass(frozen=True)
class UniformExpansion:
    """The k-fold uniform expansion of a hypergraph game."""

    game: HypergraphGame
    k: int
    eta: int
    rho: int
    universe: tuple[ExpandedPlayer, ...]
    blocks: dict[tuple[PlayerId, ...], tuple[ExpandedPlayer, ...]]
    groups: dict[PlayerId, tuple[ExpandedPlayer, ...]]
    sub_blocks: dict[tuple[PlayerId, tuple[PlayerId, ...]], tuple[ExpandedPlayer, ...]]


def _expanded_index(game: HypergraphGame, k: int):
    """Shared builder for the (origin, hyperlink, copy) universe."""
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
        link_key(e): tuple(
            ep for i in sorted(e) for ep in sub_blocks[(i, link_key(e))]
        )
        for e in game.hyperlinks
    }
    return base, rho, tuple(universe), blocks, groups, sub_blocks


def build_uniform(game: HypergraphGame, k: int = 1) -> UniformExpansion:
    if not game.hyperlinks:
        raise ValueError("uniform expansion requires at least one hyperlink")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    base, rho, universe, blocks, groups, sub_blocks = _expanded_index(game, k)
    return UniformExpansion(game, k, base, rho, universe, blocks, groups, sub_blocks)


def expanded_worth(expansion: UniformExpansion, coalition: Iterable[ExpandedPlayer]) -> Fraction:
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


def block_symmetric_shapley(
    block_sizes: list[int],
    completion_sizes: list[int],
    worth_of_mask: Callable[[int], Fraction],
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[Fraction]:
    """Per-member Shapley payoffs of a block-symmetric game.

    The game's ground set is partitioned into blocks; block j has
    block_sizes[j] members and counts as complete exactly when a
    coalition holds completion_sizes[j] of them.  The worth of a
    coalition must depend only on the set of complete blocks, passed to
    `worth_of_mask` as a bitmask.  Returns one payoff per block (all
    members of a block are symmetric).

    Adding a member to block j changes the complete set only when the
    coalition already holds completion_sizes[j]-1 copies of that block,
    so only count vectors pinned there contribute; everything else of the
    classic subset sum cancels.  A block whose completion size exceeds
    its size can never complete and its members are null players.
    """
    m = len(block_sizes)
    if math.prod(n + 1 for n in block_sizes) > state_cap:
        raise CapExceeded(f"count-vector state space exceeds the cap {state_cap}")
    total = sum(block_sizes)
    weights = positional_weights(total)
    payoffs: list[Fraction] = []
    for b0 in range(m):
        need = completion_sizes[b0] - 1
        if not 0 <= need <= block_sizes[b0] - 1:
            payoffs.append(ZERO)
            continue
        pivot_ways = math.comb(block_sizes[b0] - 1, need)
        rows = []
        for j in range(m):
            if j == b0:
                continue
            size, full = block_sizes[j], completion_sizes[j]
            bit = 1 << j
            rows.append(
                [(c, math.comb(size, c), bit if c == full else 0) for c in range(size + 1)]
            )
        acc: dict[tuple[int, int], int] = {}
        for combo in itertools.product(*rows):
            s = need
            ways = pivot_ways
            mask = 0
            for c, w, b in combo:
                s += c
                ways *= w
                mask |= b
            key = (s, mask)
            acc[key] = acc.get(key, 0) + ways
        bit0 = 1 << b0
        payoff = ZERO
        for (s, mask), ways in acc.items():
            marginal = worth_of_mask(mask | bit0) - worth_of_mask(mask)
            if marginal:
                payoff += weights[s] * ways * marginal
        payoffs.append(payoff)
    return payoffs


def conference_mask_worth(game: HypergraphGame) -> Callable[[int], Fraction]:
    """Memoized v^N over hyperlink subsets given as bitmasks in canonical order."""
    links = game.hyperlinks
    cache: dict[int, Fraction] = {}

    def worth(mask: int) -> Fraction:
        val = cache.get(mask)
        if val is None:
            active = [links[j] for j in range(len(links)) if mask >> j & 1]
            val = conference_worth(game, active)
            cache[mask] = val
        return val

    return worth


def shapley_blockwise(expansion: UniformExpansion, state_cap: int = DEFAULT_STATE_CAP) -> dict[ExpandedPlayer, Fraction]:
    """Exact Shapley value of every expanded player via count vectors."""
    links = expansion.game.hyperlinks
    m = len(links)
    sizes = [expansion.rho] * m
    per_block = block_symmetric_shapley(
        sizes, list(sizes), conference_mask_worth(expansion.game), state_cap=state_cap
    )
    payoffs: dict[ExpandedPlayer, Fraction] = {}
    for j, e in enumerate(links):
        for ep in expansion.blocks[link_key(e)]:
            payoffs[ep] = per_block[j]
    return payoffs


def group_by_origin(
    players: Iterable[PlayerId], per_copy: Mapping[ExpandedPlayer, Fraction]
) -> Allocation:
    """Payoffs of expanded players (copies or agents) summed per original
    player; players with no copy keep payoff 0."""
    out = zero_allocation(players)
    for ep, value in per_copy.items():
        out[ep.origin] += value
    return out


def grouped_position(expansion: UniformExpansion, state_cap: int = DEFAULT_STATE_CAP) -> Allocation:
    """Expanded Shapley payoffs summed per original player; players on no
    hyperlink keep payoff 0."""
    return group_by_origin(
        expansion.game.players, shapley_blockwise(expansion, state_cap=state_cap)
    )


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
    base, _rho, universe, blocks, groups, sub_blocks = _expanded_index(game, 1)
    images = [frozenset(blocks[link_key(e)]) for e in game.hyperlinks]
    internal = [
        frozenset(pair)
        for i in sorted(groups)
        for pair in itertools.combinations(groups[i], 2)
    ]
    return AgentFormGame(game, base, universe, groups, sub_blocks, tuple(images + internal))


def _subblock_shapley(haf: AgentFormGame, state_cap: int) -> tuple[list, list[Fraction]]:
    """Shapley value of the agent-form point game, one payoff per sub-block.

    Agents inside one sub-block (same player, same hyperlink) are fully
    symmetric, so coalitions are enumerated as per-sub-block count
    vectors.  Each count vector is reduced to (present original players,
    complete image hyperlinks); the point-game worth of that pair is the
    total worth of the components the complete images induce among the
    present players.  Adding an agent matters only if its player becomes
    present or its hyperlink's image completes, which pins the pivot
    count at 0 or size-1.
    """
    game = haf.game
    players = list(game.players)
    player_index = {p: n for n, p in enumerate(players)}
    links = game.hyperlinks
    lcount = len(links)
    classes = sorted(haf.sub_blocks)
    sizes = [len(haf.sub_blocks[c]) for c in classes]
    m = len(classes)
    if math.prod(n + 1 for n in sizes) > state_cap:
        raise CapExceeded(f"count-vector state space exceeds the cap {state_cap}")
    weights = positional_weights(sum(sizes))

    link_index = {link_key(e): n for n, e in enumerate(links)}
    class_player = [player_index[c[0]] for c in classes]
    class_link = [link_index[c[1]] for c in classes]
    link_class_bits = [0] * lcount
    for j, ln in enumerate(class_link):
        link_class_bits[ln] |= 1 << j

    worth_cache: dict[int, Fraction] = {}

    def state_worth(packed: int) -> Fraction:
        val = worth_cache.get(packed)
        if val is None:
            amask = packed & ((1 << lcount) - 1)
            pmask = packed >> lcount
            present = [players[n] for n in range(len(players)) if pmask >> n & 1]
            complete = [links[n] for n in range(lcount) if amask >> n & 1]
            val = sum(
                (game.worth(c) for c in merge_groups(present, complete)), ZERO
            )
            worth_cache[packed] = val
        return val

    def option_row(j: int, fixed: int | None):
        size = sizes[j]
        pbit = 1 << class_player[j]
        fbit = 1 << j
        counts = range(size + 1) if fixed is None else (fixed,)
        return [(c, math.comb(size, c), pbit if c else 0, fbit if c == size else 0) for c in counts]

    results: list[Fraction] = []
    for j0 in range(m):
        n0 = sizes[j0]
        p0bit = 1 << class_player[j0]
        l0 = class_link[j0]
        l0bit = 1 << l0
        peer_classes = [j for j in range(m) if j != j0 and class_player[j] == class_player[j0]]
        link_mates = [j for j in range(m) if j != j0 and class_link[j] == l0]
        mates_bits = 0
        for j in link_mates:
            mates_bits |= 1 << j

        acc: dict[tuple[int, int, int], int] = {}

        def run(c0: int, pinned: dict[int, int], mode: str):
            rows = [option_row(j, pinned.get(j)) for j in range(m) if j != j0]
            base_ways = math.comb(n0 - 1, c0)
            base_p = p0bit if c0 else 0
            for combo in itertools.product(*rows):
                s = c0
                ways = base_ways
                pmask = base_p
                full = 0
                for c, w, pb, fb in combo:
                    s += c
                    ways *= w
                    pmask |= pb
                    full |= fb
                amask = 0
                for ln in range(lcount):
                    req = link_class_bits[ln]
                    if full & req == req:
                        amask |= 1 << ln
                before = (pmask << lcount) | amask
                if mode == "presence":
                    after = ((pmask | p0bit) << lcount) | amask
                elif mode == "completion":
                    after = (pmask << lcount) | amask | l0bit
                else:  # single-copy sub-block: the one agent may do either
                    gains_link = l0bit if full & mates_bits == mates_bits else 0
                    after = ((pmask | p0bit) << lcount) | amask | gains_link
                    if after == before:
                        continue
                key = (s, before, after)
                acc[key] = acc.get(key, 0) + ways

        if n0 == 1:
            run(0, {}, "single")
        else:
            run(0, {j: 0 for j in peer_classes}, "presence")
            run(n0 - 1, {j: sizes[j] for j in link_mates}, "completion")

        payoff = ZERO
        for (s, before, after), ways in acc.items():
            marginal = state_worth(after) - state_worth(before)
            if marginal:
                payoff += weights[s] * ways * marginal
        results.append(payoff)
    return classes, results


def agent_form_payoffs(game: HypergraphGame, state_cap: int = DEFAULT_STATE_CAP) -> dict[ExpandedPlayer, Fraction]:
    """Myerson value of the agent form: Shapley value of the point game
    its links induce on the agents."""
    haf = build_agent_form(game)
    classes, per_class = _subblock_shapley(haf, state_cap)
    payoffs: dict[ExpandedPlayer, Fraction] = {}
    for cls, value in zip(classes, per_class):
        for ep in haf.sub_blocks[cls]:
            payoffs[ep] = value
    return payoffs
