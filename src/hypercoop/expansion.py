"""Uniform hyperlink expansions and the agent form, solved on a 2^m table
over the hyperlinks.

Every hyperlink e is replaced by a block of rho = k*eta equal copies,
rho/|e| of them held by each member, where eta is the lcm of the
hyperlink sizes.  A coalition of copies is worth the conference worth of
the hyperlinks whose blocks it holds completely.  No copy is built:
`copy_counts` gives the copies each player holds of each hyperlink, the
solvers pay one amount per (player, hyperlink) sub-block, and
`group_copies` sums them per player.

A copy changes the worth only when it completes its block j, so it earns
Σ_{T∌j} π(|T|)·(W[T+j] - W[T]) over the table W of complete-block masks,
where π(t) is the chance that it completes j while exactly the blocks T
are complete.  All blocks hold rho copies, so π depends on t alone;
`completion_weights` counts it from the block sizes, never from the
grouped-payoff identity it serves to verify, and `shapley_of_table` sums
W with π in place of Shapley's weights.  A deleted copy leaves rho - 1
copies of a block that never completes; they earn 0 and leave π as it
is, so W becomes the table on the masks without that hyperlink's bit.
The agent form is the same sum at k = 1 on the same table: a set of
complete images is worth its conference worth.

The state cap bounds the universe size m*k*eta (copies or agents), the
subset cap the m hyperlinks of W; both are checked before W is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Mapping

from .model import (
    Allocation,
    Hyperlink,
    HypergraphGame,
    PlayerId,
    ZERO,
    eta,
    incident_hyperlinks,
    zero_allocation,
)
from .shapley import DEFAULT_SUBSET_CAP, CapExceeded, require_subset_cap, shapley_of_table
from .solutions import _without_bit, conference_table

DEFAULT_STATE_CAP = 1_000_000

SubBlock = tuple[PlayerId, Hyperlink]


def _block_size(game: HypergraphGame, k: int) -> int:
    """rho = k*eta, the copies in each hyperlink's block of the k-fold
    uniform expansion."""
    if not game.hyperlinks:
        raise ValueError("uniform expansion requires at least one hyperlink")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return k * eta(game.hypergraph)


def _require_caps(game: HypergraphGame, k: int, state_cap: int, cap: int) -> int:
    """rho, once the m*rho copies are within the state cap and the m
    hyperlinks within the subset cap."""
    rho = _block_size(game, k)
    size = len(game.hyperlinks) * rho
    if size > state_cap:
        raise CapExceeded(f"universe size {size} exceeds the state cap {state_cap}")
    require_subset_cap(len(game.hyperlinks), cap, "hyperlinks")
    return rho


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


def completion_weights(blocks: int, rho: int) -> list[Fraction]:
    """π(t), t = 0..blocks-1: in a random order of `blocks` blocks of rho
    copies, the chance that a given copy arrives last in its block while
    exactly t given other blocks are complete.

    Copies outside every block (those a copy deletion leaves) do not
    change the relative order of the others, so they do not change π.
    By inclusion-exclusion over the i of the r = blocks-1-t other blocks
    that are complete too, the copy arrives last among the rho(1+t+i)
    copies of its own block, the t blocks and those i, which has chance
    1/(rho(1+t+i)): π(t) = Σ_i (-1)^i C(r, i) / (rho(1+t+i)).
    """
    weights = []
    for t in range(blocks):
        r = blocks - 1 - t
        terms = (Fraction((-1) ** i * comb(r, i), rho * (1 + t + i)) for i in range(r + 1))
        weights.append(sum(terms, ZERO))
    return weights


def _block_payoffs(table: list[int], scale: int, rho: int) -> list[Fraction]:
    """Per-copy payoff in each of B blocks of rho copies, from the 2^B
    entries table[mask] = scale·worth(blocks in mask complete)."""
    weights = completion_weights(len(table).bit_length() - 1, rho)
    denominator = lcm(*(w.denominator for w in weights))
    sums = shapley_of_table(table, [w.numerator * (denominator // w.denominator) for w in weights])
    return [Fraction(x, denominator * scale) for x in sums]


def _uniform(
    game: HypergraphGame, rho: int, table: list[int], scale: int, removed: Hyperlink | None
) -> dict[SubBlock, Fraction]:
    """`uniform_payoffs` from the conference table of all the hyperlinks."""
    live = game.hyperlinks
    if removed is not None:
        table = _without_bit(table, game.hyperlinks.index(removed))
        live = [e for e in game.hyperlinks if e != removed]
    payoff = dict(zip(live, _block_payoffs(table, scale, rho)))
    return {(i, e): payoff.get(e, ZERO) for e in game.hyperlinks for i in sorted(e)}


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
    completes and its copies earn 0, whichever member held the copy."""
    if removed is not None:
        removed = frozenset(removed)
        if removed not in game.hyperlinks:
            raise ValueError(f"no hyperlink {sorted(removed)} to delete a copy of")
    rho = _require_caps(game, k, state_cap, cap)
    return _uniform(game, rho, *conference_table(game), removed)


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


def copy_deletions(game: HypergraphGame, table: list[int], scale: int) -> dict[Hyperlink, Allocation]:
    """`grouped_position(game, 1, e)` for every hyperlink e, from the
    game's `conference_table` and its scale, which the caller builds
    once the caps are checked."""
    rho = eta(game.hypergraph)
    counts = copy_counts(game)
    return {
        e: group_copies(game.players, counts, _uniform(game, rho, table, scale, e))
        for e in game.hyperlinks
    }


def grouped_agent_form(
    game: HypergraphGame, state_cap: int = DEFAULT_STATE_CAP, cap: int = DEFAULT_SUBSET_CAP
) -> Allocation:
    """`agent_form_payoffs` summed per original player, Corollary 1's
    side of its identity with the position value."""
    return group_copies(game.players, copy_counts(game), agent_form_payoffs(game, state_cap, cap))


def agent_form_payoffs(
    game: HypergraphGame, state_cap: int = DEFAULT_STATE_CAP, cap: int = DEFAULT_SUBSET_CAP
) -> dict[SubBlock, Fraction]:
    """Myerson value of the agent form, one payoff per agent of each
    (player, hyperlink) sub-block of `copy_counts(game)`.

    A coalition of agents is worth the total worth of the components the
    complete images induce among its present players.  A present player
    on no complete image stands alone, and must be worth zero
    (ValueError otherwise), so only the complete images matter: the |e|
    sub-blocks of e act as one block of eta agents, and the worth of a
    set of complete images is its conference worth.  The expansion's
    kernel then runs at k = 1 on the conference table.
    """
    if not game.hyperlinks:
        raise ValueError("agent form requires at least one hyperlink")
    rho = _require_caps(game, 1, state_cap, cap)
    return _uniform(game, rho, *conference_table(game), None)
