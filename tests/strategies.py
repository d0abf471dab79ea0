"""Hypothesis strategies for small exact-rational games."""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from hypercoop.corpus import connected_coalitions
from hypercoop.model import HypergraphGame, make_hypergraph, table_function, weighted_unanimity

from oracles import TUGame

rationals = st.builds(
    Fraction,
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=1, max_value=6),
)


@st.composite
def hypergraphs(draw, max_players: int = 5, max_links: int = 4, max_link_size: int = 3):
    n = draw(st.integers(min_value=2, max_value=max_players))
    players = list(range(1, n + 1))
    pool = [
        combo
        for size in range(2, min(max_link_size, n) + 1)
        for combo in itertools.combinations(players, size)
    ]
    count = draw(st.integers(min_value=1, max_value=min(max_links, len(pool))))
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    return make_hypergraph(players, [pool[i] for i in indices])


@st.composite
def hypergraph_games(draw, max_players: int = 5, max_links: int = 4, max_link_size: int = 3):
    structure = draw(hypergraphs(max_players, max_links, max_link_size))
    entries = {}
    for coalition in connected_coalitions(structure):
        if draw(st.booleans()):
            entries[coalition] = draw(rationals)
    return HypergraphGame(structure, table_function(structure.players, entries))


@st.composite
def unanimity_combination_games(draw, max_players: int = 5, max_links: int = 4, max_link_size: int = 3):
    """Weighted unanimity worths on arbitrary supports, connected or not."""
    structure = draw(hypergraphs(max_players, max_links, max_link_size))
    pool = [
        combo
        for size in range(2, len(structure.players) + 1)
        for combo in itertools.combinations(structure.players, size)
    ]
    supports = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
    terms = [(s, draw(rationals)) for s in supports]
    return HypergraphGame(structure, weighted_unanimity(structure.players, terms))


@st.composite
def tu_games(draw, max_players: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_players))
    players = list(range(1, n + 1))
    entries = {}
    for size in range(2, n + 1):
        for combo in itertools.combinations(players, size):
            if draw(st.booleans()):
                entries[frozenset(combo)] = draw(rationals)
    cf = table_function(players, entries)
    return TUGame.from_characteristic(cf)
