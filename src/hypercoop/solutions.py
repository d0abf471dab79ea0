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
over the connected sets P, so every route `_plan` picks pays the same:

- connected sets P with their boundaries ∂P, on the line graph of the
  hyperlinks or on a player graph of pairs: `shapley_of_pieces` pays
  each member of P (p-1)!·b!/(p+b)! and each member of ∂P
  -p!·(b-1)!/(p+b)! times v(P), p = |P| and b = |∂P|; with a larger
  hyperlink, `connectivity.hypergraph_pieces` gives signed pieces;
- complement (conference game only): v of the players on A's hyperlinks
  as pieces (∅, hyperlinks leaving Y) over the player sets Y, plus one
  piece [S = A] per disconnected A;
- tables: W[mask] = v(piece holding the lowest bit) + W[mask without
  that piece] over all 2^m (or 2^n) masks, summed by `shapley_of_table`;
  the conference table reads its worths first, once per covered player
  set, and then fills W in one pass.

`position_values_without` gives the position value without each
hyperlink from one pass on the whole game's route.  The same pass sums
the completion weighting of `hypercoop.expansion` too, so one listing or
one table serves both sides of each identity, each sum over the
denominator its weighting names.  The frozenset versions of the two
restricted games are the test suite's reference.
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
    n, links = len(game.players), _hyperlink_masks(game)
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


def _hyperlink_masks(game: HypergraphGame) -> list[int]:
    """Each hyperlink's player mask."""
    bit = {p: 1 << k for k, p in enumerate(game.players)}
    return [sum(bit[p] for p in e) for e in game.hyperlinks]


def _line_graph(links: list[int]) -> list[int]:
    """Each hyperlink's neighbours: the mask of the others sharing a player with it."""
    return [sum(1 << t for t, f in enumerate(links) if f & e) ^ 1 << j for j, e in enumerate(links)]


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
    links = _hyperlink_masks(game)
    # members[S]: players on the hyperlinks of S; reach[S]: hyperlinks
    # sharing a player with S (S included).
    members, reach = [0], [0]
    for j, (e, near) in enumerate(zip(links, _line_graph(links))):
        touching = near | 1 << j
        members += [x | e for x in members]
        reach += [x | touching for x in reach]
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
    """Shapley value of the point game, on the route `_plan` picks."""
    n = len(game.players)
    require_subset_cap(n, cap, "players")
    route, listing, _ = _plan(game, point=True)
    if listing is None:
        table, scale = _point_table(game)
        return _player_payoffs(game.players, shapley_of_table(table), scale)
    # a connected set has one pair but may have several signed terms
    read = [t[0] for t in listing]
    scale, worth = scaled_worths(game.characteristic, game.players, read if route == "sets" else set(read))
    pieces = (((s, b, worth[s]) for s, b in listing) if route == "sets"
              else ((u, b, sign * worth[s]) for s, u, b, sign in listing))
    return _player_payoffs(game.players, shapley_of_pieces(n, pieces), scale)


def _plan(game: HypergraphGame, point: bool = False) -> tuple[str, list | None, list[int]]:
    """(route, listing, hyperlink masks) of the conference game, or with
    `point` of the point game, picked before any worth is read.  With n
    players and m hyperlinks, the first route whose enumerator, after
    its own lower bounds, lists no more than the limit:

    - "complement" (conference game, if its 2^n player worths are at
      most 2^m/4): the disconnected hyperlink sets, at most 2^m/4;
    - "sets": the (set, boundary) pairs of the connected sets of the line
      graph, or of the player graph when every hyperlink has two members,
      at most 2^m/4 (2^n/4);
    - "pieces" (point game, a larger hyperlink): the signed terms of
      `connectivity.hypergraph_pieces`, at most 2^n/4 with the sets;
    - "table": None, for the 2^m (or 2^n) table."""
    links, n = _hyperlink_masks(game), len(game.players)
    if not point:
        adjacency, limit = _line_graph(links), (1 << len(links)) >> 2
        if 1 << n <= limit and (apart := disconnected_sets(adjacency, limit)) is not None:
            return "complement", apart, links
        route, listing = "sets", connected_sets(adjacency, limit)
    elif all(len(e) == 2 for e in game.hyperlinks):
        partners = [0] * n
        for e in links:
            low = e & -e
            partners[low.bit_length() - 1] |= e ^ low
            partners[e.bit_length() - 1] |= low
        route, listing = "sets", connected_sets(partners, (1 << n) >> 2)
    else:
        route, listing = "pieces", hypergraph_pieces(links, n, (1 << n) >> 2)
    return ("table" if listing is None else route), listing, links


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
    """solve(j) for the conference game on the route `_plan` picks,
    worths read once: per weighting in `weightings`, (the hyperlinks'
    subset sums without hyperlink j (None: with all), 0 at j; their
    denominator).  A weighting maps the number of blocks B (m, or m-1
    without j) to its integer weights per coalition size (None for
    Shapley's) and the denominator of their sums, times the worth scale
    here.  Without j a listing keeps the pieces missing j, j cleared from
    their boundaries, and the table its masks without j's bit."""
    m = len(game.hyperlinks)
    require_subset_cap(m, cap, "hyperlinks")
    route, listing, links = _plan(game)
    table = None
    if route == "complement":
        scale, pieces = _complement_pieces(game, links, listing)
    elif route == "sets":
        covered = _covered(links, (s for s, _ in listing))
        scale, worth = _read_worths(game, covered.values())
        pieces = [(s, b, worth[covered[s]]) for s, b in listing]
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
    return _split(game, *_conference_shapley(game, cap)(None)[0])


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
