"""Uniform hyperlink expansions, the agent form, and exact Shapley values
on the expanded universes.

Every hyperlink e is replaced by a block of rho = k*eta equal copies,
rho/|e| of them held by each member, where eta is the lcm of the
hyperlink sizes.  The expanded game w gives a coalition of copies the
conference worth of the hyperlinks whose blocks it contains completely.

The expanded game and the agent form are symmetric under permuting the
copies (or agents) inside a block, so a coalition matters only through
its per-block member counts.  One kernel, `_fold_shapley`, serves both:
a block holding c members contributes a signature bitmask, the worth
depends only on the OR of the signatures, and blocks are folded into a
map from (OR-ed bits, coalition size) to the exact number of coalitions
realizing them (products of binomials).  Halving the blocks recursively
hands each pivot block the fold of all others in O(B log B) block folds.
Each pivot reads the worths it needs once, as integers over one scale
(`scaled_worths`), and ends in one Fraction.  It uses nothing beyond
that within-block symmetry — in particular it never assumes the
grouped-payoff identity it is used to verify.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

from .connectivity import mask_components
from .model import (
    Allocation,
    HypergraphGame,
    PlayerId,
    eta,
    incident_hyperlinks,
    link_key,
    scaled_worths,
    zero_allocation,
)
from .shapley import CapExceeded
from .solutions import conference_table

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
    return UniformExpansion(game, k, *_expanded_index(game, k))


def require_state_cap(sizes: list[int], state_cap: int) -> None:
    """Refuse count-vector solvers whose product of (block size + 1)
    exceeds the cap."""
    if math.prod(n + 1 for n in sizes) > state_cap:
        raise CapExceeded(f"count-vector state space exceeds the cap {state_cap}")


def _fold_block(states: dict[int, int], size: int, sig: list[int], shift: int) -> dict[int, int]:
    """Fold one block into the map from (bits << shift | coalition size) to ways."""
    row = [(c, sig[c] << shift, math.comb(size, c)) for c in range(size + 1)]
    folded: dict[int, int] = {}
    for state, ways in states.items():
        for c, high, w in row:
            key = (state + c) | high
            folded[key] = folded.get(key, 0) + ways * w
    return folded


def _fold_shapley(
    sizes: list[int], signatures: list[list[int]], worths: Callable, state_cap: int
) -> list[Fraction]:
    """Per-member Shapley payoffs of a game whose members fall into blocks
    of interchangeable players, one payoff per block.

    A coalition holding c of block j's sizes[j] members gets the bits
    signatures[j][c] from it, and its worth depends only on the OR of its
    blocks' bits.  `solve(lo, hi, states)` holds the fold of every block
    outside [lo, hi) and recurses into each half with the other half
    folded in: about B·log2(B) block folds in all, not B·(B-1).  A pivot
    member arriving to c others of its block changes the worth only where
    signatures[pivot][c] differs from signatures[pivot][c+1], so only
    those counts contribute.  `worths(needed)`, asked once per pivot,
    returns (scale, w) with w[bits] = scale·worth, as `scaled_worths` does.
    """
    require_state_cap(sizes, state_cap)
    total = sum(sizes)
    shift = total.bit_length()
    fact = [math.factorial(s) for s in range(total + 1)]
    payoffs: list[Fraction] = []

    def fold(states: dict[int, int], blocks: range) -> dict[int, int]:
        for j in blocks:
            states = _fold_block(states, sizes[j], signatures[j], shift)
        return states

    def solve(lo: int, hi: int, states: dict[int, int]) -> None:
        if hi - lo > 1:
            mid = (lo + hi) // 2
            solve(lo, mid, fold(states, range(mid, hi)))
            solve(mid, hi, fold(states, range(lo, mid)))
            return
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
            pivot_ways = math.comb(size0 - 1, c)
            for bits, x in per_bits.items():
                coefficient[bits | after] = coefficient.get(bits | after, 0) + x * pivot_ways
                coefficient[bits | before] = coefficient.get(bits | before, 0) - x * pivot_ways
        needed = [bits for bits, x in coefficient.items() if x]
        scale, worth = worths(needed)
        payoffs.append(Fraction(sum(coefficient[b] * worth[b] for b in needed), fact[-1] * scale))

    if sizes:
        solve(0, len(sizes), {0: 1})
    return payoffs


def _blockwise(sizes: list[int], completions: list[int], worths: Callable, state_cap: int) -> list[Fraction]:
    """`_fold_shapley` with bit j set while block j holds completions[j] members."""
    signatures = [
        [1 << j if c == need else 0 for c in range(size + 1)]
        for j, (size, need) in enumerate(zip(sizes, completions))
    ]
    return _fold_shapley(sizes, signatures, worths, state_cap)


def shapley_blockwise(expansion: UniformExpansion, state_cap: int = DEFAULT_STATE_CAP) -> dict[ExpandedPlayer, Fraction]:
    """Exact Shapley value of every expanded player via count vectors.
    A hyperlink counts only with all rho of its copies, so a block with
    a copy taken out (see `axioms.check_copy_deletion`) never completes."""
    keys = [link_key(e) for e in expansion.game.hyperlinks]
    sizes = [len(expansion.blocks[key]) for key in keys]
    table = functools.cache(lambda: conference_table(expansion.game))  # after the cap check

    def worths(needed: list[int]) -> tuple[int, list[int]]:
        values, scale = table()
        return scale, values

    per_block = _blockwise(sizes, [expansion.rho] * len(keys), worths, state_cap)
    return {ep: value for key, value in zip(keys, per_block) for ep in expansion.blocks[key]}


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


def agent_form_payoffs(game: HypergraphGame, state_cap: int = DEFAULT_STATE_CAP) -> dict[ExpandedPlayer, Fraction]:
    """Myerson value of the agent form: Shapley value of the point game
    its links induce on the agents.

    Agents of one sub-block (same player, same hyperlink) are
    interchangeable.  A sub-block holding c of its agents marks its
    player present when c > 0 and its hyperlink's image incomplete when
    c is below its size.  A coalition of agents is worth the total worth
    of the components the complete images induce among the present
    players.
    """
    if not game.hyperlinks:
        raise ValueError("agent form requires at least one hyperlink")
    *_, sub_blocks = _expanded_index(game, 1)
    n = len(game.players)
    player_bit = {p: 1 << k for k, p in enumerate(game.players)}
    image_bit = {link_key(e): 1 << (n + t) for t, e in enumerate(game.hyperlinks)}
    link_masks = [sum(player_bit[p] for p in e) for e in game.hyperlinks]
    classes = sorted(sub_blocks)
    sizes = [len(sub_blocks[cls]) for cls in classes]
    signatures = [
        [(player_bit[i] if c else 0) | (image_bit[key] if c < size else 0) for c in range(size + 1)]
        for (i, key), size in zip(classes, sizes)
    ]

    @functools.cache
    def pieces_of(bits: int) -> list[int]:
        complete = [e for t, e in enumerate(link_masks) if not bits >> (n + t) & 1]
        return mask_components(bits & ((1 << n) - 1), complete)

    def worths(needed: list[int]) -> tuple[int, dict[int, int]]:
        union = {p for bits in needed for p in pieces_of(bits)}
        scale, worth = scaled_worths(game.characteristic, game.players, union)
        return scale, {bits: sum(worth[p] for p in pieces_of(bits)) for bits in needed}

    per_class = _fold_shapley(sizes, signatures, worths, state_cap)
    return {
        ep: value for cls, value in zip(classes, per_class) for ep in sub_blocks[cls]
    }
