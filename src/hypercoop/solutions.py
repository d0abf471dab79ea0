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
over the connected sets P, so three routes give the same payoffs:

- connected sets: `connectivity.connected_sets` lists each connected P
  with its boundary ∂P, and `shapley_of_pieces` pays each member of P
  (p-1)!·b!/(p+b)! and each member of ∂P -p!·(b-1)!/(p+b)! times v(P),
  with p = |P| and b = |∂P|;
- complement (conference game only): v of the players on A's hyperlinks
  as pieces (∅, hyperlinks leaving Y) over the player sets Y, plus one
  piece [S = A] per disconnected A (`connectivity.disconnected_sets`);
- tables: W[mask] = v(piece holding the lowest bit) + W[mask without
  that piece] over all 2^m (or 2^n) masks, summed by `shapley_of_table`;
  the conference table reads its worths first, once per covered player
  set, and then fills W in one pass.

The position value runs the first route on the line graph of the
hyperlinks (two hyperlinks adjacent when they share a player), and the
Myerson value on the player graph when every hyperlink has two members.
With a larger hyperlink a piece's boundary is not a set of neighbours:
`connectivity.hypergraph_pieces` writes each connected player set's
indicator as signed (members, boundary) pieces, which the same kernel
pays.  The rule between the routes, stated on the input alone: the
position value takes the complement route first when 2^n <= 2^m/4 and
there are at most 2^m/4 disconnected hyperlink sets (judged first by the
sets each hyperlink alone leaves free or that meet two line graph
components, then by the count itself); else
the connected sets are listed unless there would be more than 2^m/4 of
them (2^n/4 sets and pieces for Myerson), judged first by a lower bound
(the degree bound of `connected_sets`, or the pair unions of
`hypergraph_pieces`) and then by the count itself; past that the table
runs.  The subset cap is checked before any of them.
`position_values_without` gives the position value without each
hyperlink from one pass on the route of the whole game.  The same pass
sums the conference game under the completion weighting of
`hypercoop.expansion` too, so the expansions, the agent form and the
copy deletions take the position value's route, and one listing or one
table serves both sides of each identity.  Each sum leaves the pass
with the denominator its weighting names.  The frozenset versions of
the two restricted games are the test suite's reference.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, lcm
from operator import sub

from .connectivity import connected_sets, disconnected_sets, hypergraph_pieces, mask_components
from .model import (
    Allocation,
    Hyperlink,
    HypergraphGame,
    PlayerId,
    scaled_worths,
)
from .shapley import (
    DEFAULT_SUBSET_CAP,
    require_subset_cap,
    shapley_of_pieces,
    shapley_of_table,
    shapley_weights,
)


def _point_table(game: HypergraphGame) -> tuple[list[int], int]:
    """The point game over player masks, scaled to integers."""
    n = len(game.players)
    links = _hyperlink_masks(game)[0]
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
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        table[mask] = worth[pieces[mask]] + table[mask ^ pieces[mask]]
    return table, scale


def _hyperlink_masks(game: HypergraphGame) -> tuple[list[int], list[int]]:
    """Each hyperlink's player mask, and the mask of the hyperlinks
    sharing a player with it (itself included)."""
    bit = {p: 1 << k for k, p in enumerate(game.players)}
    links = [sum(bit[p] for p in e) for e in game.hyperlinks]
    return links, [sum(1 << t for t, f in enumerate(links) if f & e) for e in links]


def _covered(links: list[int], sets) -> dict[int, int]:
    """{hyperlink set: mask of the players on its hyperlinks} for each
    hyperlink set in `sets`."""
    covered = {}
    for s in sets:
        players, rest = 0, s
        while rest:
            low = rest & -rest
            rest ^= low
            players |= links[low.bit_length() - 1]
        covered[s] = players
    return covered


def _read_worths(game: HypergraphGame, coalitions) -> tuple[int, dict[int, int]]:
    """`scaled_worths` of the player masks `coalitions` and of the
    singletons.  Players on no active hyperlink are singletons, which
    must be worth zero."""
    singletons = [1 << k for k in range(len(game.players))]
    scale, worth = scaled_worths(game.characteristic, game.players, {*coalitions, *singletons})
    for p, s in zip(game.players, singletons):
        if worth[s]:
            raise ValueError(f"worth of the singleton [{p}] must be 0, got {Fraction(worth[s], scale)}")
    return scale, worth


def _complement_pieces(game: HypergraphGame, links: list[int], apart: list[int]) -> tuple[int, list]:
    """(scale, pieces) of the conference game v^L(A) = v(M(A)) + δ(A),
    M(A) being the players on the hyperlinks of A and `apart` the sets A
    that are disconnected, the only ones where δ(A) is nonzero.  With
    φ(Y) = Σ_{Z⊇Y} (-1)^|Z∖Y|·v(Z) over the player sets Y,
    v(M(A)) = Σ_Y φ(Y)·[A misses out(Y)], out(Y) being the hyperlinks with
    a member outside Y: one piece (∅, out(Y)) per distinct out(Y).  Each
    A in `apart` is the piece (A, every other hyperlink), [S = A]."""
    n, every = len(game.players), (1 << len(links)) - 1
    scale, worth = _read_worths(game, range(1, 1 << n))
    # one pass per player bit, after which that bit is rotated to the top
    phi = [0, *(worth[z] for z in range(1, 1 << n))]
    out = [0]
    for k in range(n):
        lower, upper = phi[0::2], phi[1::2]
        phi = [*map(sub, lower, upper), *upper]
        leaving = sum(1 << j for j, e in enumerate(links) if e >> k & 1)
        out = [x | leaving for x in out] + out
    by_out: dict[int, int] = {}
    for o, f in zip(out, phi):
        if o and f:
            by_out[o] = by_out.get(o, 0) + f
    pieces = [(0, o, f) for o, f in by_out.items()]
    for a, players in _covered(links, apart).items():
        parts = mask_components(players, [e for j, e in enumerate(links) if a >> j & 1])
        pieces.append((a, every ^ a, sum(worth[c] for c in parts) - worth[players]))
    return scale, pieces


def conference_table(game: HypergraphGame) -> tuple[list[int], int]:
    """The conference game over hyperlink masks, scaled to integers.

    A piece is a set of hyperlinks joined through shared players; its
    worth is that of the players it covers.  The worths are read first,
    once per distinct player set some hyperlink set covers (at most 2^n),
    and the table is then filled in one pass over the masks."""
    links, touching = _hyperlink_masks(game)
    # members[S]: players on the hyperlinks of S; reach[S]: hyperlinks
    # sharing a player with S (S included).
    members, reach = [0], [0]
    for e, t in zip(links, touching):
        members += [x | e for x in members]
        reach += [x | t for x in reach]
    scale, worth = _read_worths(game, members[1:])
    table = [0] * len(members)
    for mask in range(1, len(members)):
        piece = mask & -mask
        while (grown := reach[piece] & mask) != piece:
            piece = grown
        table[mask] = worth[members[piece]] + table[mask ^ piece]
    return table, scale


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
    cf, players = game.characteristic, game.players
    bit = {p: 1 << k for k, p in enumerate(players)}
    links = [sum(bit[p] for p in e) for e in game.hyperlinks]
    if all(len(e) == 2 for e in game.hyperlinks):
        partners = [0] * n
        for e in links:
            a, b = (e & -e).bit_length() - 1, e.bit_length() - 1
            partners[a] |= 1 << b
            partners[b] |= 1 << a
        sets = connected_sets(partners, (1 << n) >> 2)
        if sets is not None:
            scale, worth = scaled_worths(cf, players, [s for s, _ in sets])
            sums = shapley_of_pieces(n, ((s, b, worth[s]) for s, b in sets))
            return _player_payoffs(players, sums, scale)
    else:
        terms = hypergraph_pieces(links, n, (1 << n) >> 2)
        if terms is not None:
            scale, worth = scaled_worths(cf, players, {t[0] for t in terms})
            sums = shapley_of_pieces(n, ((u, b, sign * worth[s]) for s, u, b, sign in terms))
            return _player_payoffs(players, sums, scale)
    table, scale = _point_table(game)
    return _player_payoffs(players, shapley_of_table(table), scale)


def _without_bit(table: list[int], j: int) -> list[int]:
    """A 2^m table's entries at the masks without bit j, in order."""
    half = 1 << j
    keep = (b"\x01" * half + bytes(half)) * (len(table) // (2 * half))
    return list(itertools.compress(table, keep))


def _shapley(blocks: int) -> tuple[None, int]:
    """Shapley's weighting over `blocks` hyperlinks: the kernels' own
    weights (None), whose sums are over blocks!."""
    return None, factorial(blocks)


def _conference_shapley(game: HypergraphGame, cap: int, weightings=(_shapley,)):
    """solve(j) for the conference game on the route the rule in the
    module docstring picks: the complement route, the connected sets or
    the table, in that order, worths read once.  solve(j) lists, per
    weighting in `weightings`, (the hyperlinks' subset sums without
    hyperlink j (None: with all), 0 at j; their denominator).  A
    weighting maps the number of blocks B (m, or m-1 without j) to its
    integer weights per coalition size, None for Shapley's, and the
    denominator of their sums, which solve multiplies by the worth scale.
    Without j the pieces of either listing are those missing j, with j
    cleared from their boundaries, and the table is the one at the masks
    without j's bit; either is built once for every weighting."""
    m = len(game.hyperlinks)
    require_subset_cap(m, cap, "hyperlinks")
    links, touching = _hyperlink_masks(game)
    adjacency, limit = [t ^ (1 << j) for j, t in enumerate(touching)], (1 << m) >> 2
    # the complement route reads all 2^n player worths: none past the limit
    apart = disconnected_sets(adjacency, limit if 1 << len(game.players) <= limit else -1)
    table = None
    if apart is not None:
        scale, pieces = _complement_pieces(game, links, apart)
    elif (sets := connected_sets(adjacency, limit)) is not None:
        covered = _covered(links, (s for s, _ in sets))
        scale, worth = _read_worths(game, covered.values())
        pieces = [(s, b, worth[covered[s]]) for s, b in sets]
    else:
        table, scale = conference_table(game)

    def solve(j: int | None) -> list[tuple[list[int], int]]:
        blocks = m if j is None else m - 1
        if table is None:
            kept = pieces if j is None else [(s, b & ~(1 << j), v) for s, b, v in pieces if not s >> j & 1]
        else:
            rest = table if j is None else _without_bit(table, j)
        out = []
        for weighting in weightings:
            weights, denominator = weighting(blocks)
            if table is None:
                sums = shapley_of_pieces(m, kept, shapley_weights(blocks) if weights is None else weights)
            else:
                sums = shapley_of_table(rest, weights)
                if j is not None:
                    sums.insert(j, 0)
            out.append((sums, denominator * scale))
        return out

    return solve


def _split(game: HypergraphGame, per_link: list[int], denominator: int) -> Allocation:
    """Each hyperlink's payoff per_link[e]/denominator, split equally
    among its members over denominator·eta; players on no hyperlink get 0."""
    eta = lcm(*(len(e) for e in game.hyperlinks))
    numerators = dict.fromkeys(game.players, 0)
    for e, x in zip(game.hyperlinks, per_link):
        for i in e:
            numerators[i] += x * (eta // len(e))
    return {p: Fraction(x, denominator * eta) for p, x in numerators.items()}


def position_value(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> Allocation:
    """Each hyperlink's conference-game Shapley payoff, split equally
    among its members; players on no hyperlink get zero."""
    [shapley] = _conference_shapley(game, cap)(None)
    return _split(game, *shapley)


def position_values_without(
    game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP
) -> dict[Hyperlink, Allocation]:
    """{e: position_value(game.without_hyperlink(e))} for every hyperlink
    e, from one pass; the subset cap counts all m hyperlinks."""
    solve = _conference_shapley(game, cap)
    return {e: _split(game, *solve(j)[0]) for j, e in enumerate(game.hyperlinks)}


def _position_pass(game: HypergraphGame, cap: int) -> tuple[Allocation, dict[Hyperlink, Allocation]]:
    """(position_value(game), position_values_without(game)) from one pass."""
    solve = _conference_shapley(game, cap)
    without = {e: _split(game, *solve(j)[0]) for j, e in enumerate(game.hyperlinks)}
    return _split(game, *solve(None)[0]), without
