"""Uniform hyperlink expansions and the agent form, solved on the
conference game of the hyperlinks.

Every hyperlink e is replaced by a block of rho = k*eta equal copies,
rho/|e| of them held by each member, where eta is the lcm of the
hyperlink sizes.  A coalition of copies is worth the conference worth of
the hyperlinks whose blocks it holds completely.  No copy is built:
`copy_counts` gives the copies each player holds of each hyperlink, and
the solvers make one payoff per block and one per player from integer
per-block sums; `group_copies` sums per-copy payoffs per player.

A copy changes the worth only when it completes its block j, so it earns
Σ_{T∌j} π(|T|)·(W[T+j] - W[T]) over the worths W of complete-block sets,
where π(t) is the chance that it completes j while exactly the blocks T
are complete.  All blocks hold rho copies, so π depends on t alone;
`completion_numerators` counts it from the block sizes, never from the
grouped-payoff identity it serves to verify, as integers over
rho·lcm(1..B) for B blocks.  `solutions._conference_shapley` sums W with
them, over lcm(1..B) per block, on the route the position value takes
(the complement pieces, the connected hyperlink sets or the 2^m table),
and can carry Shapley's weighting in the same pass: both sides of
Theorems 1 and 2 and of Lemma 1 read one listing or one table.  A
deleted copy leaves rho - 1 copies of a block that never completes;
they earn 0 and leave π as it is over the B = m - 1 other blocks, so the
sum runs without that hyperlink.  The agent form is the same sum at
k = 1: a set of complete images is worth its conference worth.

No cost here grows with rho = k*eta, so nothing bounds k; the subset
cap bounds the m hyperlinks and is checked before any worth is read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, lcm
from typing import Iterable, Mapping

from .model import (
    Allocation,
    Hyperlink,
    HypergraphGame,
    PlayerId,
    eta,
    incident_hyperlinks,
    zero_allocation,
)
from .shapley import DEFAULT_SUBSET_CAP
from .solutions import _allocation, _conference_shapley, _shares

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


@cache
def completion_numerators(blocks: int) -> tuple[int, ...]:
    """c(t) = π(t)·rho·lcm(1..blocks), t = 0..blocks-1, where π(t) is the
    chance that, in a random order of `blocks` blocks of rho copies, a
    given copy arrives last in its block while exactly t given other
    blocks are complete.

    Copies outside every block (those a copy deletion leaves) do not
    change the relative order of the others, so they do not change π.
    By inclusion-exclusion over the i of the r = blocks-1-t other blocks
    that are complete too, the copy arrives last among the rho(1+t+i)
    copies of its own block, the t blocks and those i, which has chance
    1/(rho(1+t+i)): π(t) = Σ_i (-1)^i C(r, i) / (rho(1+t+i)).  As
    1+t+i <= blocks, each term is an integer over rho·lcm(1..blocks),
    whatever rho is.
    """
    unit = lcm(*range(1, blocks + 1))
    return tuple(
        sum((-1) ** i * comb(blocks - 1 - t, i) * (unit // (1 + t + i)) for i in range(blocks - t))
        for t in range(blocks)
    )


def _completion(blocks: int) -> tuple[tuple[int, ...], int]:
    """The completion weighting over `blocks` blocks for
    `solutions._conference_shapley`: `completion_numerators`, whose sums
    are what a block's rho copies earn together over lcm(1..blocks)."""
    return completion_numerators(blocks), lcm(*range(1, blocks + 1))


def expansion_payoffs(
    game: HypergraphGame,
    k: int = 1,
    removed: Iterable[PlayerId] | None = None,
    cap: int = DEFAULT_SUBSET_CAP,
) -> tuple[dict[Hyperlink, Fraction], Allocation]:
    """({e: Shapley payoff of one copy in hyperlink e's block}, the payoffs
    grouped per original player) of the k-fold uniform expansion, from
    one pass.  `removed` = e takes one copy out of hyperlink e's block; a
    hyperlink counts only with all k*eta of its copies, so that block
    never completes and its copies earn 0, whichever member held the
    copy.  Players on no hyperlink keep payoff 0."""
    j = None
    if removed is not None:
        removed = frozenset(removed)
        if removed not in game.hyperlinks:
            raise ValueError(f"no hyperlink {sorted(removed)} to delete a copy of")
        j = game.hyperlinks.index(removed)
    rho = _block_size(game, k)
    [(sums, unit)] = _conference_shapley(game, cap, (_completion,))(j)
    per_copy = {e: Fraction(x, rho * unit) for e, x in zip(game.hyperlinks, sums)}
    split, link_lcm = _shares(game)
    return per_copy, _allocation(game.players, split(sums), unit * link_lcm)


def uniform_payoffs(
    game: HypergraphGame,
    k: int = 1,
    removed: Iterable[PlayerId] | None = None,
    cap: int = DEFAULT_SUBSET_CAP,
) -> dict[SubBlock, Fraction]:
    """Shapley payoff of one copy in each (player, hyperlink) sub-block
    of the k-fold uniform expansion, keyed like `copy_counts(game, k)`;
    `removed` as in `expansion_payoffs`."""
    per_copy = expansion_payoffs(game, k, removed, cap)[0]
    return {(i, e): per_copy[e] for e in game.hyperlinks for i in sorted(e)}


def grouped_position(
    game: HypergraphGame,
    k: int = 1,
    removed: Iterable[PlayerId] | None = None,
    cap: int = DEFAULT_SUBSET_CAP,
) -> Allocation:
    """`uniform_payoffs` summed per original player over the copies it
    holds; players on no hyperlink keep payoff 0.  A removed copy's
    block pays 0 per copy, so its holder does not matter here."""
    return expansion_payoffs(game, k, removed, cap)[1]


def grouped_agent_form(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> Allocation:
    """`agent_form_payoffs` summed per original player, Corollary 1's
    side of its identity with the position value."""
    return group_copies(game.players, copy_counts(game), agent_form_payoffs(game, cap))


def agent_form_payoffs(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> dict[SubBlock, Fraction]:
    """Myerson value of the agent form, one payoff per agent of each
    (player, hyperlink) sub-block of `copy_counts(game)`.

    A coalition of agents is worth the total worth of the components the
    complete images induce among its present players.  A present player
    on no complete image stands alone, and must be worth zero
    (ValueError otherwise), so only the complete images matter: the |e|
    sub-blocks of e act as one block of eta agents, and the worth of a
    set of complete images is its conference worth.  The expansion's
    kernel then runs at k = 1, over the m hyperlinks under the subset cap
    `cap`, whatever the number m*eta of agents.
    """
    if not game.hyperlinks:
        raise ValueError("agent form requires at least one hyperlink")
    return uniform_payoffs(game, 1, None, cap)
