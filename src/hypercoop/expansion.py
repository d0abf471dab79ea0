"""Uniform hyperlink expansions, the agent form, and exact Shapley values
on the expanded universes, computed from block sizes alone.

Every hyperlink e is replaced by a block of rho = k*eta equal copies,
rho/|e| of them held by each member, where eta is the lcm of the
hyperlink sizes.  The expanded game w gives a coalition of copies the
conference worth of the hyperlinks whose blocks it contains completely.

The expanded game and the agent form are symmetric under permuting the
copies (or agents) inside a block, so no copy is ever built:
`copy_counts` gives how many copies of each hyperlink each player holds,
both solvers return one payoff per (player, hyperlink) sub-block, and
`group_copies` sums them per original player.  A coalition matters
only through its per-block member counts.  One kernel, `_fold_shapley`,
serves both solvers: a block holding c members contributes a signature
bitmask, the worth depends only on the OR of the signatures, and blocks
are folded into a map from (OR-ed bits, coalition size) to the exact
number of coalitions realizing them (products of binomials).  Halving
the blocks recursively hands each pivot block the fold of all others in
O(B log B) block folds.  The worths all pivots need are read once, as
integers over one scale (`scaled_worths`), and each pivot ends in one
Fraction.
It uses nothing beyond that within-block symmetry — in particular it
never assumes the grouped-payoff identity it is used to verify.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .connectivity import mask_components
from .model import (
    Allocation,
    Hyperlink,
    HypergraphGame,
    PlayerId,
    ZERO,
    eta,
    incident_hyperlinks,
    scaled_worths,
    zero_allocation,
)
from .shapley import DEFAULT_SUBSET_CAP, CapExceeded, factorials, require_subset_cap
from .solutions import conference_table

DEFAULT_STATE_CAP = 10_000_000

SubBlock = tuple[PlayerId, Hyperlink]


def _block_size(game: HypergraphGame, k: int) -> int:
    """rho = k*eta, the copies in each hyperlink's block of the k-fold
    uniform expansion."""
    if not game.hyperlinks:
        raise ValueError("uniform expansion requires at least one hyperlink")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return k * eta(game.hypergraph)


def copy_counts(game: HypergraphGame, k: int = 1) -> dict[SubBlock, int]:
    """The copies player i holds of hyperlink e in the k-fold uniform
    expansion, k*eta/|e| per (i, e) sub-block, players in order and each
    player's hyperlinks in canonical order.  At k = 1 these are also the
    agent form's sub-blocks."""
    rho = _block_size(game, k)
    return {
        (i, e): rho // len(e) for i in game.players for e in incident_hyperlinks(game.hypergraph, i)
    }


def group_copies(
    players: Iterable[PlayerId], counts: Mapping[SubBlock, int], per_copy: Mapping[SubBlock, Fraction]
) -> Allocation:
    """Payoffs of copies (or agents) summed per original player: each
    (i, e) sub-block gives player i counts[i, e] times per_copy[i, e].
    Players with no copy keep payoff 0."""
    out = zero_allocation(players)
    for (i, e), n in counts.items():
        out[i] += n * per_copy[i, e]
    return out


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
    those counts contribute.  Each pivot keeps one integer coefficient
    per OR-ed bits; `worths(needed)`, asked once for the union over all
    pivots, returns (scale, w) with w[bits] = scale·worth, as
    `scaled_worths` does, and each pivot ends in one Fraction.
    """
    require_state_cap(sizes, state_cap)
    total = sum(sizes)
    shift = total.bit_length()
    fact = factorials(total)

    def fold(states: dict[int, int], blocks: range) -> dict[int, int]:
        for j in blocks:
            states = _fold_block(states, sizes[j], signatures[j], shift)
        return states

    # `solve` returns the coefficients of the pivots in [lo, hi) rather than
    # filling a list it closes over: the recursive closure is a reference
    # cycle, and what it holds lives on until the cyclic collector runs.
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
            pivot_ways = math.comb(size0 - 1, c)
            for bits, x in per_bits.items():
                coefficient[bits | after] = coefficient.get(bits | after, 0) + x * pivot_ways
                coefficient[bits | before] = coefficient.get(bits | before, 0) - x * pivot_ways
        return [{bits: x for bits, x in coefficient.items() if x}]

    if not sizes:
        return []
    coefficients = solve(0, len(sizes), {0: 1})
    scale, worth = worths(list({bits for coefficient in coefficients for bits in coefficient}))
    return [
        Fraction(sum(x * worth[bits] for bits, x in coefficient.items()), fact[-1] * scale)
        for coefficient in coefficients
    ]


def uniform_payoffs(
    game: HypergraphGame,
    k: int = 1,
    removed: Iterable[PlayerId] | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
    cap: int = DEFAULT_SUBSET_CAP,
) -> dict[SubBlock, Fraction]:
    """Shapley payoff of one copy in each (player, hyperlink) sub-block
    of the k-fold uniform expansion, keyed like `copy_counts(game, k)`.
    `removed` = e takes one copy out of hyperlink e's block; a hyperlink
    counts only with all k*eta of its copies, so that block never
    completes and its copies earn 0, whichever member held the copy.
    Those null copies change no other payoff, so that block is left out
    of the fold.  The state cap (on the full block sizes), then the
    subset cap over the hyperlinks, are checked before the conference
    table is built or any block folded."""
    if removed is not None:
        removed = frozenset(removed)
        if removed not in game.hyperlinks:
            raise ValueError(f"no hyperlink {sorted(removed)} to delete a copy of")
    rho = _block_size(game, k)
    sizes = [rho - (e == removed) for e in game.hyperlinks]
    require_state_cap(sizes, state_cap)
    require_subset_cap(len(sizes), cap, "hyperlinks")
    folded = [j for j, e in enumerate(game.hyperlinks) if e != removed]
    signatures = [[1 << j if c == rho else 0 for c in range(rho + 1)] for j in folded]
    values, scale = conference_table(game)
    per_block = _fold_shapley([rho] * len(folded), signatures, lambda needed: (scale, values), state_cap)
    payoff = dict(zip(folded, per_block))
    return {(i, e): payoff.get(j, ZERO) for j, e in enumerate(game.hyperlinks) for i in sorted(e)}


def grouped_position(
    game: HypergraphGame,
    k: int = 1,
    removed: Iterable[PlayerId] | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
    cap: int = DEFAULT_SUBSET_CAP,
) -> Allocation:
    """`uniform_payoffs` summed per original player over the copies it
    holds; players on no hyperlink keep payoff 0.  A removed copy's
    block pays 0 per copy, so its holder does not matter here."""
    per_copy = uniform_payoffs(game, k, removed, state_cap, cap)
    return group_copies(game.players, copy_counts(game, k), per_copy)


def agent_form_payoffs(game: HypergraphGame, state_cap: int = DEFAULT_STATE_CAP) -> dict[SubBlock, Fraction]:
    """Myerson value of the agent form: Shapley value of the point game
    its links induce on the agents, one payoff per agent of each
    (player, hyperlink) sub-block of `copy_counts(game)`.

    Agents of one sub-block are interchangeable.  A sub-block holding c
    of its agents marks its player present when c > 0 and its
    hyperlink's image incomplete when c is below its size.  A coalition
    of agents is worth the total worth of the components the complete
    images induce among the present players.
    """
    if not game.hyperlinks:
        raise ValueError("agent form requires at least one hyperlink")
    counts = copy_counts(game)
    n = len(game.players)
    player_bit = {p: 1 << k for k, p in enumerate(game.players)}
    image_bit = {e: 1 << (n + t) for t, e in enumerate(game.hyperlinks)}
    link_masks = [sum(player_bit[p] for p in e) for e in game.hyperlinks]
    sizes = list(counts.values())
    signatures = [
        [(player_bit[i] if c else 0) | (image_bit[e] if c < size else 0) for c in range(size + 1)]
        for (i, e), size in counts.items()
    ]

    @functools.cache
    def pieces_of(bits: int) -> list[int]:
        complete = [e for t, e in enumerate(link_masks) if not bits >> (n + t) & 1]
        return mask_components(bits & ((1 << n) - 1), complete)

    def worths(needed: list[int]) -> tuple[int, dict[int, int]]:
        union = {p for bits in needed for p in pieces_of(bits)}
        scale, worth = scaled_worths(game.characteristic, game.players, union)
        return scale, {bits: sum(worth[p] for p in pieces_of(bits)) for bits in needed}

    return dict(zip(counts, _fold_shapley(sizes, signatures, worths, state_cap)))
