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
worths are integers over one scale from `model.integer_form`, the one
reader shared with the expansion and axiom modules: unanimity terms and
table entries straight from it, and the worths of the coalitions a
route names through `model.scaled_worths`; each payoff is one exact
division at the end.  A restricted game is Σ_P v(P)·[P is a piece of S]
over the connected sets P.  A route writes it either as pieces (P, B, w),
w·[S holds P and misses B], which `shapley_of_pieces` pays (each member
of P (p-1)!·b!/(p+b)! and each member of B -p!·(b-1)!/(p+b)! times w,
p = |P| and b = |B|), or as the 2^size table that `shapley_of_table`
sums, size being the m hyperlinks (the n players for the point game).

`_plan` picks the route before any worth is read.  It tries
`_dividends`, `_complement`, `_support` and `_connected` in that order,
each against the listing limit 2^c/4 · c/size, c = min(size, cap), and
otherwise builds `_table` within the subset cap.  Each of those
functions states its own rule and hands out a `Route`: a name, a price
and a build step that reads the worths once.  Every route that reads
worths for its listing lists signed terms (C, P, B, sign), the piece
(P, B) worth sign·v(C), and `_signed` reads them.  `shapley_value`
ignores the hypergraph: it pays the unanimity coefficients c_T as the
pieces (T, ∅, c_T), a table's entries v(C) as the pieces [S = C], and
only other worths from the 2^n table.

`_rows` is the one reader of the conference pass: per weighting, the
player numerators of the game, or of the game without any one
hyperlink, over the denominator the weighting names.  `position_value`
and `position_values_without` read it; the command line's position
rule carries it as `rows`, which the pair checks read without
Fractions; and the identity checks read it with the completion
weighting of `hypercoop.expansion` too, so one listing or one table
serves both sides of each identity.  The frozenset versions of the two
restricted games are the test suite's reference.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import factorial, lcm
from operator import sub
from typing import Callable, NamedTuple

from .connectivity import connected_sets, disconnected_sets, hypergraph_pieces, mask_components, piece_terms
from .model import (
    Allocation,
    Hyperlink,
    HypergraphGame,
    PlayerId,
    integer_form,
    scaled_worths,
)
from .shapley import (
    DEFAULT_SUBSET_CAP,
    CapExceeded,
    shapley_of_pieces,
    shapley_of_table,
    shapley_weights,
)


class Route(NamedTuple):
    """The route `_plan` picked: its name, its price and build(), which
    reads the worths once and gives (scale, pieces, None), or (scale,
    None, table).  The price counts the entries build() makes: the
    route's listing, the complement route's signed entries too, or
    2^size for the table."""

    name: str
    price: int
    build: Callable[[], tuple]


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
        # from the top bit, which stops once the piece fills the mask.
        top = 1 << (mask.bit_length() - 1)
        piece = pieces[mask ^ top] or top
        frontier = 0
        for e in topped[top]:
            if e & mask == e and e & piece:
                piece |= top
                frontier = top
                break
        while frontier and piece != mask:
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
    bit = {p: 1 << k for k, p in enumerate(game.players)}.__getitem__
    return [sum(map(bit, e)) for e in game.hyperlinks]


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


def _complement_pieces(game: HypergraphGame, links: list[int], apart: list[int], terms) -> tuple[int, list]:
    """(scale, pieces) of the conference game v^L(A) = v(M(A)) + δ(A),
    M(A) being the players on the hyperlinks of A and `apart` the sets A
    that are disconnected, the only ones where δ(A) is nonzero.  With
    φ(Y) = Σ_{Z⊇Y} (-1)^|Z∖Y|·v(Z) over the player sets Y,
    v(M(A)) = Σ_Y φ(Y)·[A misses out(Y)], out(Y) being the hyperlinks with
    a member outside Y: one piece (∅, out(Y)) per distinct out(Y).  Each
    A in `apart` is the piece (A, every other hyperlink), [S = A].

    The unanimity `terms` (T, c_T) of `integer_form` (None for other
    worths) give φ(N∖Y) = (-1)^|Y|·Σ_{T⊇Y} c_T, and out(N∖Y) is the
    hyperlinks meeting Y, so each term merges its 2^|T| signed
    (out, c_T) entries into the pieces as it makes them, and only the
    disconnected sets' covers and parts are read.  Other worths read all 2^n player sets
    and take φ by n Möbius passes."""
    n, every = len(game.players), (1 << len(links)) - 1
    leaving = [sum(1 << j for j, e in enumerate(links) if e >> k & 1) for k in range(n)]
    parts = [(a, players, mask_components(players, [e for j, e in enumerate(links) if a >> j & 1]))
             for a, players in _covered(links, apart).items()]
    by_out: dict[int, int] = {}

    def merge(entries) -> None:
        for o, f in entries:
            if o and f:
                by_out[o] = by_out.get(o, 0) + f

    if terms is None:
        scale, worth = _read_worths(game, range(1, 1 << n))
        # one pass per player bit, after which that bit is rotated to the top
        phi = [0, *(worth[z] for z in range(1, 1 << n))]
        out = [0]
        for k in range(n):
            lower, upper = phi[0::2], phi[1::2]
            phi = [*map(sub, lower, upper), *upper]
            out = [x | leaving[k] for x in out] + out
        merge(zip(out, phi))
    else:
        scale, worth = _read_worths(game, {c for _, players, cs in parts for c in (players, *cs)})
        # each term's entries merge as soon as they are made, so at most
        # one term's 2^|T| of them are held at once
        for support, c in terms:
            out, signed = [0], [c]
            for k in range(support.bit_length()):
                if support >> k & 1:
                    out += [x | leaving[k] for x in out]
                    signed += [-f for f in signed]
            merge(zip(out, signed))
    pieces = [(0, o, f) for o, f in by_out.items()]
    for a, players, cs in parts:
        pieces.append((a, every ^ a, sum(worth[c] for c in cs) - worth[players]))
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


def _allocation(players: tuple[PlayerId, ...], row: list[int], denominator: int) -> Allocation:
    """Player numerators in `players` order over one denominator, as payoffs."""
    return {p: Fraction(x, denominator) for p, x in zip(players, row)}


def _dividend_pieces(listing) -> list[tuple[int, int, int]]:
    """The pieces of Σ c·u_B over the (B, c) terms of `listing`, integer
    c's: one piece (B, ∅, c) per distinct mask B."""
    merged: dict[int, int] = {}
    for b, c in listing:
        merged[b] = merged.get(b, 0) + c
    return [(b, 0, w) for b, w in merged.items()]


def shapley_value(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> Allocation:
    """Shapley value of the characteristic function; the hypergraph plays
    no part.  Unanimity coefficients c_T pay c_T/|T| to each member of T,
    and a table's entries v(C) are the pieces [S = C], both without a
    2^n table or a cap."""
    n, cf = len(game.players), game.characteristic
    scale, terms, entries = integer_form(cf, game.players)
    if terms is not None:
        pieces = _dividend_pieces(terms)
    elif entries is not None:
        every = (1 << n) - 1
        pieces = [(c, every ^ c, w) for c, w in entries.items()]
    else:
        if n > cap:
            raise CapExceeded(f"the table of {n} players", f"2^{n}", cap)
        scale, worth = scaled_worths(cf, game.players, range(1 << n))
        table = [worth[mask] for mask in range(1 << n)]
        if table[0] != 0:
            raise ValueError("worth of the empty coalition must be 0")
        return _allocation(game.players, shapley_of_table(table), factorial(n) * scale)
    return _allocation(game.players, shapley_of_pieces(n, pieces), factorial(n) * scale)


def myerson_value(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> Allocation:
    """Shapley value of the point game, on the route `_plan` picks.  The
    point game of u_T is u_T when the hyperlinks inside T join T (Owen
    1986), so when every support is joined by its own hyperlinks each
    term pays c_T/|T| to each member of T, as in `shapley_value`,
    without a table or a listing."""
    n = len(game.players)
    scale, pieces, table = _plan(game, point=True, cap=cap).build()
    sums = shapley_of_pieces(n, pieces) if table is None else shapley_of_table(table)
    return _allocation(game.players, sums, factorial(n) * scale)


def _signed(game: HypergraphGame, point: bool, name: str, price: int, terms: Callable) -> Route:
    """The route `name` at `price` over the signed terms (C, P, B, sign)
    that terms() yields, each the piece (P, B) worth sign·v(C).  build()
    reads each distinct C once: with `scaled_worths` for the point game,
    and for the conference game with `_read_worths`, which also holds
    the singletons to worth zero.  The point game's pieces are made as
    `shapley_of_pieces` reads them, once; the conference game's are
    listed, since each hyperlink deletion reads them again."""
    def build():
        read = {c for c, _, _, _ in terms()}
        scale, worth = scaled_worths(game.characteristic, game.players, read) if point else _read_worths(game, read)
        return scale, (iter if point else list)((p, b, sign * worth[c]) for c, p, b, sign in terms()), None

    return Route(name, price, build)


def _steiner(adjacent: list[list[int]], n: int, t: int) -> int:
    """The hyperlink mask of the Steiner tree of the player mask `t` (at
    least two players, all in one tree) in a forest whose nodes are the
    players 0..n-1 and then the hyperlinks, adjacent[v] listing v's
    neighbours.  Leaves outside t are pruned from a queue, so each node
    and each incidence is visited once; trees without t go whole."""
    degree = [len(a) for a in adjacent]
    queue = [k for k in range(n) if degree[k] == 1 and not t >> k & 1]
    for v in queue:
        degree[v] = 0
        for u in adjacent[v]:
            if degree[u]:
                degree[u] -= 1
                if degree[u] == 1 and not (u < n and t >> u & 1):
                    queue.append(u)
    return sum(1 << j for j, d in enumerate(degree[n:]) if d)


def _dividends(game: HypergraphGame, links: list[int], point: bool, limit: int) -> Route | None:
    """The dividends route, for a characteristic with unanimity
    coefficients c_T, at any size (`limit` plays no part): one term
    (B(T), c_T) per support T, paid by `_dividend_pieces` and priced at
    the number of terms; None where it does not apply.

    On a forest (an acyclic player–hyperlink incidence graph, where
    Σ_e(|e|-1) = covered players - components) each support T in one
    component pays on B(T), the hyperlinks of T's Steiner tree (with
    `point` the players on them); a term whose support spans two
    components, or holds a player on no hyperlink, has restricted game 0
    and is left out.  Otherwise only the point game applies, and only
    when every support T is joined by the hyperlinks inside it: T then
    stays joined in every coalition holding it, so u_T's point game is
    u_T itself and B(T) = T (Owen 1986, "Values of graph-restricted
    games", SIAM J. Algebraic Discrete Methods 7: 210-220).  Table worths
    have no terms and leave at once, and most cyclic structures skip the
    components at the sum Σ_e(|e|-1) >= covered players."""
    scale, terms, _ = integer_form(game.characteristic, game.players)
    if terms is None:
        return None
    covered = excess = 0
    for e in links:
        covered |= e
        excess += e.bit_count() - 1
    # most cyclic structures fail the sum before any component is found
    parts = mask_components(covered, links) if excess < covered.bit_count() else []
    if not parts or excess != covered.bit_count() - len(parts):
        if not point:
            return None
        for t, _ in terms:
            if not _joins(links, t, sum(1 << j for j, e in enumerate(links) if e & t == e)):
                return None
        listing = terms
    else:
        n = len(game.players)
        adjacent: list[list[int]] = [[] for _ in range(n)]
        for j, e in enumerate(links):
            members = [k for k in range(e.bit_length()) if e >> k & 1]
            for k in members:
                adjacent[k].append(n + j)
            adjacent.append(members)
        listing = [(_steiner(adjacent, n, t), c) for t, c in terms if any(t & part == t for part in parts)]
        if point:
            covers = _covered(links, (b for b, _ in listing))
            listing = [(covers[b], c) for b, c in listing]
    return Route("dividends", len(listing), lambda: (scale, _dividend_pieces(listing), None))


def _complement(game: HypergraphGame, links: list[int], point: bool, limit: int) -> Route | None:
    """The complement route, for the conference game only, when its 2^n
    player sets are within `limit`: the disconnected hyperlink sets of
    `connectivity.disconnected_sets`, at most `limit` of them, read from
    the player side by `_complement_pieces`.  It is priced at their
    number plus the signed entries that makes: Σ_T 2^|T| from unanimity
    coefficients c_T, or else one per player set, 2^n."""
    if point or 1 << len(game.players) > limit or (apart := disconnected_sets(_line_graph(links), limit)) is None:
        return None
    _, terms, _ = integer_form(game.characteristic, game.players)
    made = 1 << len(game.players) if terms is None else sum(1 << t.bit_count() for t, _ in terms)
    return Route("complement", len(apart) + made, lambda: (*_complement_pieces(game, links, apart, terms), None))


def _joins(links: list[int], c: int, p: int) -> bool:
    """Whether the hyperlinks in the mask p, all inside the player mask
    c, cover and connect it: the piece of c's lowest player grows by
    every hyperlink of p it meets until it fills c or stops growing."""
    piece, rest = c & -c, p
    while piece != c:
        grown, todo = piece, rest
        while todo:
            low = todo & -todo
            todo ^= low
            e = links[low.bit_length() - 1]
            if e & grown:
                grown |= e
                rest ^= low
        if grown == piece:
            return False
        piece = grown
    return True


def _spanning(links: list[int], c: int, inside: int, slack: int) -> list[int]:
    """Every hyperlink set P within `inside` that `_joins` c, `slack`
    being Σ_{e∈inside}(|e|-1) - (|c|-1).  Sets are reached from `inside`
    by removing hyperlinks in index order, and a removal that uncovers or
    disconnects c ends that branch, since every set below it fails too;
    so does one that costs more than the slack left, since a connected
    cover of c keeps Σ(|e|-1) >= |c|-1."""
    if not _joins(links, c, inside):
        return []
    found = []
    stack = [(inside, inside, slack)]
    while stack:
        p, removable, slack = stack.pop()
        found.append(p)
        while removable:
            low = removable & -removable
            removable ^= low
            cost = links[low.bit_length() - 1].bit_count() - 1
            if cost <= slack and _joins(links, c, p ^ low):
                stack.append((p ^ low, removable, slack - cost))
    return found


def _support(game: HypergraphGame, links: list[int], point: bool, limit: int) -> Route | None:
    """The support route, for table worths with at most `limit` entries:
    only a connected set C with a nonzero entry v(C) pays, so each entry
    lists its own signed terms; None when they would pass `limit`.

    One pass over the hyperlinks splits those meeting an entry C into
    H[C], the ones inside it, and out(C), the ones leaving it.  With
    k = Σ_{e∈H[C]}(|e|-1) - (|C|-1), no set of H[C] connects C when
    k < 0, and one that does misses at most k of H[C].  The point game
    lists C's own `piece_terms` when H[C] connects C, counted against
    the limit as they are made.  The conference game prices every entry
    first, at Σ_{i<=k} C(|H[C]|, i) sets, and only when the sum fits
    lists each P of `_spanning` as the term
    (C, P, (H[C]∖P) ∪ out(C), 1)."""
    _, _, entries = integer_form(game.characteristic, game.players)
    if entries is None or len(entries) > limit:
        return None
    listing, priced, price = [], [], 0
    costs = [(1 << j, e, e.bit_count() - 1) for j, e in enumerate(links)]
    # the largest entries price highest, so a table that does not fit
    # is found out after few of them
    for c in sorted(entries, key=int.bit_count, reverse=True):
        inside = out = excess = 0
        outside = ~c
        for bit, e, cost in costs:
            if e & c:
                if e & outside:
                    out |= bit
                else:
                    inside |= bit
                    excess += cost
        slack = excess - c.bit_count() + 1
        if slack < 0:
            continue
        if point:
            if _joins(links, c, inside):
                parts = [e & ~c for bit, e, _ in costs if out & bit]
                terms = piece_terms(c, parts, limit - len(listing))
                if terms is None:
                    return None
                listing += terms
            continue
        # Σ_{i<=k} C(h, i), each term from the last
        h = inside.bit_count()
        ways = term = 1
        for i in range(1, min(slack, h) + 1):
            term = term * (h - i + 1) // i
            ways += term
        price += ways
        if price > limit:
            return None
        priced.append((c, inside, out, slack))
    for c, inside, out, slack in priced:
        listing += [(c, p, inside ^ p | out, 1) for p in _spanning(links, c, inside, slack)]
    return _signed(game, point, "support", len(listing), lambda: listing)


def _connected(game: HypergraphGame, links: list[int], point: bool, limit: int) -> Route | None:
    """The connected sets P with their boundaries B, at most `limit` of
    them (`connectivity.connected_sets`): "sets" on the line graph of the
    hyperlinks, each the term (players on P, P, B, 1), or for the point
    game on the player graph when every hyperlink is a pair, each the
    term (P, P, B, 1).  A point game with a larger hyperlink takes
    "pieces", the signed terms of `connectivity.hypergraph_pieces`, sets
    and terms together within `limit`.  None past the limit."""
    n = len(game.players)
    if not point:
        listing = connected_sets(_line_graph(links), limit)
    elif all(e.bit_count() == 2 for e in links):
        partners = [0] * n
        for e in links:
            low = e & -e
            partners[low.bit_length() - 1] |= e ^ low
            partners[e.bit_length() - 1] |= low
        listing = connected_sets(partners, limit)
    else:
        terms = hypergraph_pieces(links, n, limit)
        return None if terms is None else _signed(game, point, "pieces", len(terms), lambda: terms)
    if listing is None:
        return None
    # a hyperlink set is worth what its players are; a player set is its own coalition
    covered = {} if point else _covered(links, (s for s, _ in listing))
    return _signed(game, point, "sets", len(listing), lambda: ((covered.get(s, s), s, b, 1) for s, b in listing))


def _table(game: HypergraphGame, point: bool) -> Route:
    """The table route, priced at its 2^size masks: `_point_table` for
    the point game and `conference_table` for the conference game.
    build() raises a MemoryError that names the table when a list cannot
    index its 2^size entries, before building anything, or when memory
    runs out while building it."""
    size, noun = (len(game.players), "players") if point else (len(game.hyperlinks), "hyperlinks")

    def build():
        try:
            if 1 << size > sys.maxsize:
                raise MemoryError
            table, scale = (_point_table if point else conference_table)(game)
        except MemoryError:
            raise MemoryError(f"the table of {size} {noun} needs 2^{size} entries, more than this machine can hold") from None
        return scale, None, table

    return Route("table", 1 << size, build)


def _plan(game: HypergraphGame, point: bool = False, cap: int = DEFAULT_SUBSET_CAP) -> Route:
    """The `Route` of the conference game, or with `point` of the point
    game, picked before any worth is read; the one use of the subset cap.

    With size the m hyperlinks (the n players with `point`), each listing
    gets the limit 2^c/4 · c/size entries, c = min(size, cap): 2^size/4
    within the cap, and past it 2^cap/4 entries' worth of cap-bit masks
    spread over size-bit ones, so the cap bounds the bits a listing
    holds, not only its length.  The first of `_dividends` (no limit),
    `_complement`, `_support` and `_connected` that applies within the
    limit is the route; otherwise `_table`, or CapExceeded when
    size > cap, naming the limit that no listing fit in."""
    links = _hyperlink_masks(game)
    size, noun = (len(game.players), "players") if point else (len(links), "hyperlinks")
    limit = ((1 << min(size, cap)) >> 2) * min(size, cap) // max(size, 1)
    for route in (_dividends, _complement, _support, _connected):
        if (found := route(game, links, point, limit)) is not None:
            return found
    if size > cap:
        raise CapExceeded(f"the table of {size} {noun}, once no listing fits its limit of {limit},", f"2^{size}", cap)
    return _table(game, point)


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
    scale, pieces, table = _plan(game, cap=cap).build()

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


def _shares(game: HypergraphGame):
    """(split, eta): split(per_link) gives each hyperlink's payoff in
    `per_link` split equally among its members, as player numerators in
    `game.players` order over eta (the lcm of the hyperlink sizes) times
    per_link's own denominator; players on no hyperlink get 0."""
    players, links = game.players, game.hyperlinks
    eta = lcm(*(len(e) for e in links))
    weighted = [(eta // len(e), e) for e in links]

    def split(per_link: list[int]) -> list[int]:
        row = dict.fromkeys(players, 0)
        for (weight, e), x in zip(weighted, per_link):
            x *= weight
            for i in e:
                row[i] += x
        return list(row.values())

    return split, eta


def _rows(game: HypergraphGame, cap: int, weightings=(_shapley,)):
    """rows(j): per weighting in `weightings`, (the player numerators in
    `game.players` order, their denominator) for the game without
    hyperlink j (None: with all), from one `_conference_shapley` pass,
    each hyperlink's sum split among its members by `_shares`."""
    solve = _conference_shapley(game, cap, weightings)
    split, eta = _shares(game)

    def rows(j: int | None = None) -> list[tuple[list[int], int]]:
        return [(split(sums), denominator * eta) for sums, denominator in solve(j)]

    return rows


def position_value(game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP) -> Allocation:
    """Each hyperlink's conference-game Shapley payoff, split equally
    among its members; players on no hyperlink get zero."""
    [(row, denominator)] = _rows(game, cap)()
    return _allocation(game.players, row, denominator)


def position_values_without(
    game: HypergraphGame, cap: int = DEFAULT_SUBSET_CAP
) -> dict[Hyperlink, Allocation]:
    """{e: position_value(game.without_hyperlink(e))} for every hyperlink
    e, from one pass under the subset cap."""
    rows = _rows(game, cap)
    return {e: _allocation(game.players, *rows(j)[0]) for j, e in enumerate(game.hyperlinks)}
