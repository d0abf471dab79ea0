"""Connected components of hypergraphs and of the coalitions inside them,
and the connected vertex sets of a graph.

One bitmask closure, `mask_components`, does the component work: players
are bit positions and a hyperlink is the mask of its members.
`components` and `components_of_coalition` are frozenset wrappers over
it.  `connected_sets` lists every connected vertex set of a graph given
by neighbour masks, with its boundary, or refuses once there are more
than a limit; the restricted-game values use it on the line graph of the
hyperlinks and on the player graph.
"""

from __future__ import annotations

from typing import Iterable

from .model import Coalition, Hyperlink, Hypergraph, PlayerId


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


def components_of_coalition(coalition: Iterable[PlayerId], hypergraph: Hypergraph) -> list[Coalition]:
    """Components of the subhypergraph induced by a coalition."""
    s = frozenset(coalition)
    return components(s, (e for e in hypergraph.hyperlinks if e <= s))


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
