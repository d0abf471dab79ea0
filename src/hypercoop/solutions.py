"""Myerson, position and Shapley values via the communication-restricted
games.

The point game lives on the players: a coalition is worth the sum of its
connected pieces.  The conference game lives on the hyperlinks: a
hyperlink subset is worth the total component worth it induces over the
full player set.  The Myerson value is the Shapley value of the former;
the position value splits each hyperlink's Shapley payoff in the latter
equally among its members.  `shapley_value` ignores the hypergraph and
takes the Shapley value of the characteristic function itself.

All three run on one bitmask kernel: players (or hyperlinks) are bit
positions, a coalition is an int, and each game becomes a list of
integer worths indexed by mask, scaled by `model.scaled_worths`, the
one worth reader shared with the expansion and axiom modules.  The
restricted tables are filled as W[mask] = v(piece holding the lowest
bit) + W[mask without that piece], and `shapley_of_table` sums them in
integers; each payoff is one exact division at the end.  The frozenset
versions of the two restricted games are the test suite's reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterable

from .connectivity import components
from .model import (
    Allocation,
    Hyperlink,
    HypergraphGame,
    PlayerId,
    ZERO,
    scaled_worths,
)
from .shapley import DEFAULT_SUBSET_CAP, require_subset_cap, shapley_of_table


def restricted_worth(game: HypergraphGame, coalition: Iterable) -> Fraction:
    """Point-game worth: total worth of the coalition's connected pieces."""
    s = frozenset(coalition)
    inside = (e for e in game.hyperlinks if e <= s)
    return sum((game.worth(t) for t in components(s, inside)), ZERO)


def conference_worth(game: HypergraphGame, hyperlinks: Iterable[Hyperlink]) -> Fraction:
    """Conference-game worth v^N(H'): component worths over all players."""
    return sum((game.worth(t) for t in components(game.players, hyperlinks)), ZERO)


def _fill(pieces: list[int], worth: dict[int, int]) -> list[int]:
    """W[mask] = worth[piece] + W[mask minus piece], piece = pieces[mask]."""
    table = [0] * len(pieces)
    for mask in range(1, len(pieces)):
        piece = pieces[mask]
        table[mask] = worth[piece] + table[mask ^ piece]
    return table


def _point_table(game: HypergraphGame) -> tuple[list[int], int]:
    """The point game over player masks, scaled to integers."""
    n = len(game.players)
    bit = {p: 1 << k for k, p in enumerate(game.players)}
    links = [sum(bit[p] for p in e) for e in game.hyperlinks]
    incident = {1 << k: [e for e in links if e >> k & 1] for k in range(n)}
    topped = {1 << k: [e for e in links if e.bit_length() == k + 1] for k in range(n)}
    pieces = [0] * (1 << n)
    for mask in range(1, 1 << n):
        # Adding the top bit to the rest of the mask brings in only the
        # hyperlinks whose highest member it is; the lowest bit's piece
        # grows only if one of them touches it, and then by a closure
        # from the top bit.
        top = 1 << (mask.bit_length() - 1)
        piece = pieces[mask ^ top] or top
        frontier = 0
        for e in topped[top]:
            if e & mask == e and e & piece:
                piece |= top
                frontier = top
                break
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            for e in incident[low]:
                if e & mask == e and e & ~piece:
                    frontier |= e & ~piece
                    piece |= e
        pieces[mask] = piece
    scale, worth = scaled_worths(game.characteristic, game.players, set(pieces[1:]))
    return _fill(pieces, worth), scale


def conference_table(game: HypergraphGame) -> tuple[list[int], int]:
    """The conference game over hyperlink masks, scaled to integers.

    A piece is a set of hyperlinks joined through shared players; its
    worth is that of the players it covers.  Players on no active
    hyperlink are singletons, worth zero in a zero-normalized game."""
    m = len(game.hyperlinks)
    bit = {p: 1 << k for k, p in enumerate(game.players)}
    links = [sum(bit[p] for p in e) for e in game.hyperlinks]
    touching = [sum(1 << t for t, f in enumerate(links) if f & e) for e in links]
    # members[S]: players on the hyperlinks of S; reach[S]: hyperlinks
    # sharing a player with S (S included).
    members = [0] * (1 << m)
    reach = [0] * (1 << m)
    pieces = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        j = low.bit_length() - 1
        members[mask] = members[mask ^ low] | links[j]
        reach[mask] = reach[mask ^ low] | touching[j]
        piece = low
        while (grown := reach[piece] & mask) != piece:
            piece = grown
        pieces[mask] = piece
    covered = {piece: members[piece] for piece in set(pieces[1:])}
    singletons = [bit[p] for p in game.players]
    scale, worth = scaled_worths(
        game.characteristic, game.players, {*covered.values(), *singletons}
    )
    if any(worth[s] for s in singletons):
        raise ValueError("worth of the empty coalition must be 0")
    return _fill(pieces, {piece: worth[c] for piece, c in covered.items()}), scale


def _player_payoffs(players: tuple[PlayerId, ...], table: list[int], scale: int) -> Allocation:
    """Shapley payoffs of a player table whose worths are scaled by `scale`."""
    denominator = factorial(len(players)) * scale
    return {p: Fraction(x, denominator) for p, x in zip(players, shapley_of_table(table))}


def shapley_value(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> Allocation:
    """Shapley value of the characteristic function; the hypergraph plays
    no part."""
    n = len(game.players)
    require_subset_cap(n, cap, "players")
    scale, worth = scaled_worths(game.characteristic, game.players, range(1 << n))
    table = [worth[mask] for mask in range(1 << n)]
    if table[0] != 0:
        raise ValueError("worth of the empty coalition must be 0")
    return _player_payoffs(game.players, table, scale)


def myerson_value(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> Allocation:
    """Shapley value of the point game."""
    require_subset_cap(len(game.players), cap, "players")
    table, scale = _point_table(game)
    return _player_payoffs(game.players, table, scale)


def position_value(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> Allocation:
    """Each hyperlink's conference-game Shapley payoff, split equally
    among its members; players on no hyperlink get zero."""
    m = len(game.hyperlinks)
    require_subset_cap(m, cap, "hyperlinks")
    table, scale = conference_table(game)
    per_link = shapley_of_table(table)
    # Sh_e = per_link[e] / (m!·scale); over the common denominator
    # m!·scale·eta each share Sh_e/|e| has numerator per_link[e]·eta/|e|.
    eta = lcm(*(len(e) for e in game.hyperlinks))
    numerators = dict.fromkeys(game.players, 0)
    for e, x in zip(game.hyperlinks, per_link):
        for i in e:
            numerators[i] += x * (eta // len(e))
    denominator = factorial(m) * scale * eta
    return {p: Fraction(x, denominator) for p, x in numerators.items()}
