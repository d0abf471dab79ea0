"""Seeded generators for small exact-rational hypergraph games.

The test suites and the verification scripts draw their game corpora
from here, so a failure reported for "game 137 of seed 20240803" is
reproducible everywhere.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .connectivity import mask_components
from .model import (
    Hypergraph,
    HypergraphGame,
    make_hypergraph,
    table_function,
    unanimity,
)

DEFAULT_SEED = 20240803


def hub_and_spokes() -> HypergraphGame:
    """Six players: three rim pairs feeding a three-member hub conference,
    with all the worth sitting on players 1, 2 and 3 acting together."""
    structure = make_hypergraph(range(1, 7), [[1, 4], [2, 5], [3, 6], [4, 5, 6]])
    return HypergraphGame(structure, unanimity(range(1, 7), [1, 2, 3]))


def path_three() -> HypergraphGame:
    """Three players in a line; the endpoints need each other."""
    structure = make_hypergraph([1, 2, 3], [[1, 2], [2, 3]])
    return HypergraphGame(structure, unanimity([1, 2, 3], [1, 3]))


def connected_coalitions(hypergraph: Hypergraph) -> list[frozenset[int]]:
    """Coalitions of two or more players that are connected in the
    induced subhypergraph, by size and then in `itertools.combinations`
    order."""
    players = hypergraph.players
    bit = {p: 1 << k for k, p in enumerate(players)}
    links = [sum(bit[p] for p in e) for e in hypergraph.hyperlinks]
    out = []
    for size in range(2, len(players) + 1):
        for combo in itertools.combinations(players, size):
            mask = sum(bit[p] for p in combo)
            if len(mask_components(mask, [e for e in links if e & mask == e])) == 1:
                out.append(frozenset(combo))
    return out


def random_hypergraph(
    rng: random.Random,
    max_players: int = 6,
    max_links: int = 4,
    max_link_size: int = 4,
    min_links: int = 1,
) -> Hypergraph:
    n = rng.randint(2, max_players)
    players = list(range(1, n + 1))
    pool = [
        combo
        for size in range(2, min(max_link_size, n) + 1)
        for combo in itertools.combinations(players, size)
    ]
    count = rng.randint(min_links, min(max_links, len(pool)))
    links = rng.sample(pool, count)
    return make_hypergraph(players, links)


def random_worth(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 6))


def random_game(
    rng: random.Random,
    max_players: int = 6,
    max_links: int = 4,
    max_link_size: int = 4,
    min_links: int = 1,
) -> HypergraphGame:
    structure = random_hypergraph(
        rng,
        max_players=max_players,
        max_links=max_links,
        max_link_size=max_link_size,
        min_links=min_links,
    )
    entries = {}
    for coalition in connected_coalitions(structure):
        if rng.random() < 0.6:
            entries[coalition] = random_worth(rng)
    return HypergraphGame(structure, table_function(structure.players, entries))


def game_corpus(seed: int = DEFAULT_SEED, count: int = 200, **kwargs) -> list[HypergraphGame]:
    rng = random.Random(seed)
    return [random_game(rng, **kwargs) for _ in range(count)]
