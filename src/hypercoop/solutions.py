"""Myerson, position and Shapley values via the communication-restricted
games.

The point game lives on the players: a coalition is worth the sum of its
connected pieces.  The conference game lives on the hyperlinks: a
hyperlink subset is worth the total component worth it induces over the
full player set.  The Myerson value is the Shapley value of the former;
the position value splits each hyperlink's Shapley payoff in the latter
equally among its members.  `shapley_value` ignores the hypergraph and
takes the Shapley value of the characteristic function itself.

Players (or hyperlinks) are bit positions, a coalition is an int, and
worths are integers scaled by `model.scaled_worths`, the one worth reader
shared with the expansion and axiom modules; each payoff is one exact
division at the end.  A restricted game is Σ_P v(P)·[P is a piece of S]
over the connected sets P, so two routes give the same payoffs:

- connected sets: `connectivity.connected_sets` lists each connected P
  with its boundary ∂P, and `shapley_of_pieces` pays each member of P
  (p-1)!·b!/(p+b)! and each member of ∂P -p!·(b-1)!/(p+b)! times v(P),
  with p = |P| and b = |∂P|;
- tables: W[mask] = v(piece holding the lowest bit) + W[mask without
  that piece] over all 2^m (or 2^n) masks, summed by `shapley_of_table`.

The position value runs the first route on the line graph of the
hyperlinks (two hyperlinks adjacent when they share a player), and the
Myerson value on the player graph when every hyperlink has two members.
With a larger hyperlink a piece's boundary is not a set of neighbours, so
Myerson keeps the table there.  The rule between the two, stated on the
input alone: the enumeration runs unless it would list more than 2^m/4
sets (2^n/4 for Myerson), judged first by the degree lower bound of
`connected_sets` and then by the count itself; past that the table runs.
The subset cap is checked before either.  The frozenset versions of the
two restricted games are the test suite's reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .connectivity import connected_sets
from .model import (
    Allocation,
    HypergraphGame,
    PlayerId,
    scaled_worths,
)
from .shapley import (
    DEFAULT_SUBSET_CAP,
    require_subset_cap,
    shapley_of_pieces,
    shapley_of_table,
)


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


def _hyperlink_masks(game: HypergraphGame) -> tuple[list[int], list[int]]:
    """Each hyperlink's player mask, and the mask of the hyperlinks
    sharing a player with it (itself included)."""
    bit = {p: 1 << k for k, p in enumerate(game.players)}
    links = [sum(bit[p] for p in e) for e in game.hyperlinks]
    return links, [sum(1 << t for t, f in enumerate(links) if f & e) for e in links]


def _covered(links: list[int], sets: list[tuple[int, int]]) -> dict[int, int]:
    """{hyperlink set: mask of the players on its hyperlinks} for each
    (set, boundary) pair of `connected_sets`."""
    covered = {}
    for s, _ in sets:
        players, rest = 0, s
        while rest:
            low = rest & -rest
            rest ^= low
            players |= links[low.bit_length() - 1]
        covered[s] = players
    return covered


def _piece_worths(game: HypergraphGame, covered: dict[int, int]) -> tuple[int, dict[int, int]]:
    """(scale, {piece: scale·v(players it covers)}) for hyperlink pieces
    given with their covered player masks.  Players on no active
    hyperlink are singletons, which must be worth zero."""
    singletons = [1 << k for k in range(len(game.players))]
    scale, worth = scaled_worths(
        game.characteristic, game.players, {*covered.values(), *singletons}
    )
    if any(worth[s] for s in singletons):
        raise ValueError("worth of the empty coalition must be 0")
    return scale, {piece: worth[c] for piece, c in covered.items()}


def conference_table(game: HypergraphGame) -> tuple[list[int], int]:
    """The conference game over hyperlink masks, scaled to integers.

    A piece is a set of hyperlinks joined through shared players; its
    worth is that of the players it covers."""
    m = len(game.hyperlinks)
    links, touching = _hyperlink_masks(game)
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
    covered = {piece: members[piece] for piece in pieces if piece}
    # The route's memory peaks here: free the 2^m helper lists first.
    del members, reach
    scale, worth = _piece_worths(game, covered)
    return _fill(pieces, worth), scale


def _player_payoffs(players: tuple[PlayerId, ...], sums: list[int], scale: int) -> Allocation:
    """Shapley payoffs from n!·scale·Sh, one integer per player."""
    denominator = factorial(len(players)) * scale
    return {p: Fraction(x, denominator) for p, x in zip(players, sums)}


def shapley_value(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> Allocation:
    """Shapley value of the characteristic function; the hypergraph plays
    no part."""
    n = len(game.players)
    require_subset_cap(n, cap, "players")
    scale, worth = scaled_worths(game.characteristic, game.players, range(1 << n))
    table = [worth[mask] for mask in range(1 << n)]
    if table[0] != 0:
        raise ValueError("worth of the empty coalition must be 0")
    return _player_payoffs(game.players, shapley_of_table(table), scale)


def myerson_value(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> Allocation:
    """Shapley value of the point game."""
    n = len(game.players)
    require_subset_cap(n, cap, "players")
    sets = None
    if all(len(e) == 2 for e in game.hyperlinks):
        index = {p: k for k, p in enumerate(game.players)}
        partners = [0] * n
        for e in game.hyperlinks:
            a, b = (index[p] for p in e)
            partners[a] |= 1 << b
            partners[b] |= 1 << a
        sets = connected_sets(partners, (1 << n) >> 2)
    if sets is None:
        table, scale = _point_table(game)
        return _player_payoffs(game.players, shapley_of_table(table), scale)
    scale, worth = scaled_worths(game.characteristic, game.players, [s for s, _ in sets])
    sums = shapley_of_pieces(n, ((s, b, worth[s]) for s, b in sets))
    return _player_payoffs(game.players, sums, scale)


def position_value(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> Allocation:
    """Each hyperlink's conference-game Shapley payoff, split equally
    among its members; players on no hyperlink get zero."""
    m = len(game.hyperlinks)
    require_subset_cap(m, cap, "hyperlinks")
    links, touching = _hyperlink_masks(game)
    sets = connected_sets([t ^ (1 << j) for j, t in enumerate(touching)], (1 << m) >> 2)
    if sets is None:
        table, scale = conference_table(game)
        per_link = shapley_of_table(table)
    else:
        scale, worth = _piece_worths(game, _covered(links, sets))
        per_link = shapley_of_pieces(m, ((s, b, worth[s]) for s, b in sets))
    # Sh_e = per_link[e] / (m!·scale); over the common denominator
    # m!·scale·eta each share Sh_e/|e| has numerator per_link[e]·eta/|e|.
    eta = lcm(*(len(e) for e in game.hyperlinks))
    numerators = dict.fromkeys(game.players, 0)
    for e, x in zip(game.hyperlinks, per_link):
        for i in e:
            numerators[i] += x * (eta // len(e))
    denominator = factorial(m) * scale * eta
    return {p: Fraction(x, denominator) for p, x in numerators.items()}
