"""Connected components of hypergraphs and of the coalitions inside them,
and the connected vertex sets of a graph.

One bitmask closure, `mask_components`, does the component work: players
are bit positions and a hyperlink is the mask of its members.
`components` is a frozenset wrapper over it.  `connected_sets` lists
every connected vertex set of a graph given by neighbour masks, with its
boundary, or refuses once there are more than a limit; the
restricted-game values use it on the line graph of the hyperlinks and on
a player graph of pairs, and `disconnected_sets` the other vertex sets.
`hypergraph_pieces` lists the connected player sets of a hypergraph with
hyperlinks of any size.
"""

from __future__ import annotations

from typing import Iterable

from .model import Coalition, Hyperlink, PlayerId


def mask_components(universe: int, links: Iterable[int]) -> list[int]:
    """Split the player mask `universe` into its connected pieces under
    the hyperlink masks `links`, each of which must lie inside it.

    A piece starts at the lowest player left and absorbs every hyperlink
    touching it until none does; pieces come back in order of their
    lowest bit.
    """
    pieces = []
    pending = list(links)
    while universe:
        piece = universe & -universe
        count = -1
        while count != len(pending):
            count = len(pending)
            rest = []
            for e in pending:
                if e & piece:
                    piece |= e
                else:
                    rest.append(e)
            pending = rest
        pieces.append(piece)
        universe &= ~piece
    return pieces


def components(players: Iterable[PlayerId], hyperlinks: Iterable[Hyperlink]) -> list[Coalition]:
    """Maximal connected player sets under hyperlink adjacency, sorted by
    their smallest player.  Every hyperlink must lie inside `players`."""
    order = sorted(set(players))
    bit = {p: 1 << k for k, p in enumerate(order)}
    links = [sum(bit[p] for p in set(e)) for e in hyperlinks]
    return [
        frozenset(p for k, p in enumerate(order) if piece >> k & 1)
        for piece in mask_components((1 << len(order)) - 1, links)
    ]


def connected_sets(adjacency: list[int], limit: int) -> list[tuple[int, int]] | None:
    """Every nonempty connected vertex set of a graph, as (set, boundary)
    bitmask pairs, where adjacency[v] is the mask of v's neighbours (v
    excluded) and the boundary is the set's neighbours outside it; None
    when there are more than `limit` of them.

    Vertices are ranked by decreasing degree, ties by index, and each set
    is grown from its first-ranked vertex.  Each vertex v with its
    neighbours ranked after it spans 2^(their number) distinct sets, so
    the sum L of those powers is a lower bound on the count: when
    L > limit no set is grown at all; otherwise growth stops, and what it
    built is dropped, as soon as the count passes `limit`.
    """
    order = sorted(range(len(adjacency)), key=lambda v: -adjacency[v].bit_count())
    bound, ranked = 0, 0
    for v in order:
        ranked |= 1 << v
        bound += 1 << (adjacency[v] & ~ranked).bit_count()
    if bound > limit:
        return None
    found: list[tuple[int, int]] = []
    ranked = 0
    for v in order:
        for pair in _grow(adjacency, v, ranked):
            if len(found) == limit:
                return None
            found.append(pair)
        ranked |= 1 << v
    return found


def _grow(adjacency: list[int], root: int, banned: int):
    """Yield each connected set holding `root` and no vertex of `banned`,
    with its boundary, exactly once.

    A set S whose growth has excluded the vertices Y (S among them) has
    the candidates C = N(S) minus Y.  The i-th candidate w_i opens the
    sets holding S + w_i but none of w_1 .. w_(i-1), so every larger set
    is reached through the first candidate it holds."""
    stack = [(1 << root, adjacency[root], banned | 1 << root)]
    while stack:
        piece, reach, banned = stack.pop()
        yield piece, reach & ~piece
        candidates = reach & ~banned
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            banned |= low
            stack.append((piece | low, reach | adjacency[low.bit_length() - 1], banned))


def disconnected_sets(adjacency: list[int], limit: int) -> list[int] | None:
    """Every disconnected vertex set of a graph given as in
    `connected_sets`, as bitmasks; None when there are more than `limit`.

    Each is listed once, as C ∪ R: C is its component holding its lowest
    vertex i, grown like `_grow` over the vertices above i, and R any
    nonempty set of the vertices above i that C does not reach.  Growth
    stops at a C that reaches them all.  The sets with C = {i}, and the
    2^n - 1 - Σ_k (2^(n_k) - 1) sets that meet two or more components of
    n_k vertices, are lower bounds on the count, checked before listing."""
    every = (1 << len(adjacency)) - 1
    if sum((1 << (every & -(2 << i) & ~a).bit_count()) - 1 for i, a in enumerate(adjacency)) > limit:
        return None
    parts = mask_components(every, [a | 1 << v for v, a in enumerate(adjacency)])
    if every - sum((1 << part.bit_count()) - 1 for part in parts) > limit:
        return None
    found: list[int] = []
    for i in range(len(adjacency)):
        above = every & -(2 << i)
        stack = [(1 << i, adjacency[i] | 1 << i, (2 << i) - 1)]
        while stack:
            piece, reach, banned = stack.pop()
            rest = free = above & ~reach
            while rest:
                if len(found) == limit:
                    return None
                found.append(piece | rest)
                rest = (rest - 1) & free
            candidates = reach & ~banned if free else 0
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                banned |= low
                stack.append((piece | low, reach | adjacency[low.bit_length() - 1], banned))
    return found


def hypergraph_pieces(links: list[int], n: int, limit: int) -> list[tuple[int, int, int, int]] | None:
    """[P is a component of S] as a signed sum of piece indicators, over
    every connected player set P of the hypergraph on n players with
    hyperlink masks `links`: (P, members, boundary, sign) terms, where
    the sum of sign·[members ⊆ S and S misses boundary] over P's terms
    is 1 exactly when P is a component of S; None when there would be
    more than `limit` sets and terms together.

    P is a component of S when P ⊆ S, P is connected by its own
    hyperlinks, and no hyperlink e leaving P has e∖P ⊆ S.  The one-player
    parts e∖P make the boundary; a larger part meeting it is redundant
    and dropped, and the product of (1 - [U ⊆ S]) over the other larger
    parts U expands into signed unions, with at least the term U = ∅.
    Every player, every hyperlink and every union of two hyperlinks that
    meet is a connected set, so when twice their number passes `limit`
    no set is grown at all.  Otherwise growth stops, and what it built is
    dropped, as soon as the sets found, the terms made, one term for
    each set found but not yet expanded, and the signed unions of the
    set being expanded add up to more than `limit`.
    """
    met = {e | f for k, e in enumerate(links) for f in links[k:] if e & f}
    if 2 * (n + len(met)) > limit:
        return None
    start = [*links, *(1 << k for k in range(n)), *met.difference(links)]
    terms: list[tuple[int, int, int, int]] = []
    for popped, (piece, boundary, larger, found) in enumerate(_closure(links, start)):
        # each of the found - popped - 1 sets still to come has a term
        floor = 2 * found - popped - 1 + len(terms)
        signed = {0: 1}
        for u in larger:
            if not u & boundary:
                for union, sign in list(signed.items()):
                    signed[union | u] = signed.get(union | u, 0) - sign
                if floor + len(signed) > limit:
                    return None
        if floor + len(signed) > limit:
            return None
        terms += [(piece, piece | union, boundary, sign) for union, sign in signed.items() if sign]
    return terms


def _closure(links: list[int], start: list[int]):
    """Yield each connected player set P grown from the distinct
    connected sets `start` exactly once, as (P, boundary, larger parts,
    sets found so far): of the parts e∖P of the hyperlinks e leaving P,
    the one-player parts are joined in the boundary mask and the others
    kept in a set.  A set grows by each hyperlink leaving it, so starting
    from every player and every hyperlink reaches every connected set."""
    queue = list(start)
    seen = set(queue)
    for piece in queue:
        boundary, larger = 0, set()
        for e in links:
            rest = e & ~piece
            if rest and rest != e:
                if rest & (rest - 1):
                    larger.add(rest)
                else:
                    boundary |= rest
                if piece | e not in seen:
                    seen.add(piece | e)
                    queue.append(piece | e)
        yield piece, boundary, larger, len(seen)
