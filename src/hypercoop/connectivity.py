"""Connected components of hypergraphs and of the coalitions inside them."""

from __future__ import annotations

from typing import Hashable, Iterable

from .model import Coalition, Hyperlink, Hypergraph, PlayerId


class UnionFind:
    """Disjoint sets over arbitrary hashable elements."""

    def __init__(self, elements: Iterable[Hashable] = ()):
        self.parent: dict = {}
        self.size: dict = {}
        for x in elements:
            self.add(x)

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def groups(self) -> list[set]:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return list(out.values())


def merge_groups(elements: Iterable[Hashable], groups: Iterable[Iterable[Hashable]]) -> list[frozenset]:
    """Partition `elements` into the classes generated by merging each group.

    Blocks come back sorted by their smallest element, so the result is
    deterministic for orderable elements (ints, tuples).
    """
    uf = UnionFind(elements)
    for group in groups:
        members = iter(group)
        first = next(members, None)
        if first is None:
            continue
        uf.add(first)
        for other in members:
            uf.add(other)
            uf.union(first, other)
    return sorted((frozenset(g) for g in uf.groups()), key=min)


def components(players: Iterable[PlayerId], hyperlinks: Iterable[Hyperlink]) -> list[Coalition]:
    """Maximal connected player sets under hyperlink adjacency."""
    return merge_groups(players, hyperlinks)


def components_of_coalition(coalition: Iterable[PlayerId], hypergraph: Hypergraph) -> list[Coalition]:
    """Components of the subhypergraph induced by a coalition."""
    s = frozenset(coalition)
    return components(s, (e for e in hypergraph.hyperlinks if e <= s))
