"""Connected components of hypergraphs and of the coalitions inside them.

One bitmask closure, `mask_components`, does the work: players are bit
positions and a hyperlink is the mask of its members.  `components` and
`components_of_coalition` are frozenset wrappers over it.
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
