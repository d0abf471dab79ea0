from fractions import Fraction

import pytest
from hypothesis import given

from hypercoop.model import (
    HypergraphGame,
    as_fraction,
    eta,
    incident_hyperlinks,
    is_r_uniform,
    link_key,
    make_hypergraph,
    table_function,
    unanimity,
    weighted_unanimity,
    zero_allocation,
)

from strategies import hypergraph_games


def test_as_fraction_accepts_exact_values():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("5/24") == Fraction(5, 24)
    assert as_fraction(Fraction(-1, 3)) == Fraction(-1, 3)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError, match="not exact"):
        as_fraction(0.5)


def test_link_key_is_sorted():
    assert link_key(frozenset({6, 4, 5})) == (4, 5, 6)


class TestMakeHypergraph:
    def test_canonical_order(self):
        h = make_hypergraph(range(1, 7), [[4, 5, 6], [2, 5], [3, 6], [4, 1]])
        assert [sorted(e) for e in h.hyperlinks] == [[1, 4], [2, 5], [3, 6], [4, 5, 6]]
        assert h.players == (1, 2, 3, 4, 5, 6)

    def test_rejects_empty_player_set(self):
        with pytest.raises(ValueError, match="nonempty"):
            make_hypergraph([])

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError, match="non-negative integers"):
            make_hypergraph([1, -2])
        with pytest.raises(ValueError, match="non-negative integers"):
            make_hypergraph([1, True])
        with pytest.raises(ValueError, match="distinct"):
            make_hypergraph([1, 1])

    def test_rejects_bad_hyperlinks(self):
        with pytest.raises(ValueError, match="at least two members"):
            make_hypergraph([1, 2], [[1]])
        with pytest.raises(ValueError, match="unknown players"):
            make_hypergraph([1, 2], [[1, 7]])
        with pytest.raises(ValueError, match="duplicate hyperlink"):
            make_hypergraph([1, 2], [[1, 2], [2, 1]])

    def test_single_player_no_links_is_valid(self):
        h = make_hypergraph([1])
        assert h.players == (1,) and h.hyperlinks == ()


def test_incident_hyperlinks():
    h = make_hypergraph(range(1, 7), [[1, 4], [2, 5], [3, 6], [4, 5, 6]])
    assert [sorted(e) for e in incident_hyperlinks(h, 4)] == [[1, 4], [4, 5, 6]]
    assert incident_hyperlinks(h, 1) == (frozenset({1, 4}),)
    with pytest.raises(ValueError, match="unknown player"):
        incident_hyperlinks(h, 9)


def test_eta_and_uniformity():
    h = make_hypergraph(range(1, 7), [[1, 4], [2, 5], [3, 6], [4, 5, 6]])
    assert eta(h) == 6
    assert not is_r_uniform(h, 2)
    pairs = make_hypergraph([1, 2, 3], [[1, 2], [2, 3]])
    assert eta(pairs) == 2
    assert is_r_uniform(pairs, 2)
    with pytest.raises(ValueError, match="undefined"):
        eta(make_hypergraph([1, 2]))


class TestTableFunction:
    def test_lookup_and_default_zero(self):
        cf = table_function([1, 2, 3], {frozenset({1, 2}): Fraction(1, 2)})
        assert cf.worth({1, 2}) == Fraction(1, 2)
        assert cf.worth({1, 3}) == 0
        assert cf.worth(set()) == 0

    def test_zero_entries_dropped(self):
        cf = table_function([1, 2], {frozenset({1, 2}): 0})
        assert cf.entries == {}

    def test_rejects_nonzero_singletons(self):
        with pytest.raises(ValueError, match="zero-normalization"):
            table_function([1, 2], {frozenset({1}): 1})

    def test_rejects_foreign_coalitions(self):
        with pytest.raises(ValueError, match="not within"):
            table_function([1, 2], {frozenset({1, 3}): 1})
        cf = table_function([1, 2], {})
        with pytest.raises(ValueError, match="outside"):
            cf.worth({3})

    def test_no_unanimity_coefficients(self):
        cf = table_function([1, 2], {frozenset({1, 2}): 2})
        assert cf.unanimity_coefficients() is None


class TestUnanimity:
    def test_worth(self):
        cf = unanimity(range(1, 7), [1, 2, 3])
        assert cf.worth({1, 2, 3}) == 1
        assert cf.worth({1, 2, 3, 6}) == 1
        assert cf.worth({1, 2}) == 0

    def test_rejects_small_support(self):
        with pytest.raises(ValueError, match="at least two"):
            unanimity([1, 2], [1])

    def test_coefficients(self):
        cf = unanimity([1, 2, 3], [1, 3])
        assert cf.unanimity_coefficients() == {frozenset({1, 3}): Fraction(1)}


class TestWeightedUnanimity:
    def test_worth_sums_applicable_terms(self):
        cf = weighted_unanimity(
            [1, 2, 3], [([1, 2], Fraction(1, 2)), ([2, 3], 2), ([1, 2], Fraction(1, 2))]
        )
        assert cf.worth({1, 2}) == 1  # the duplicate supports merge
        assert cf.worth({1, 2, 3}) == 3
        assert cf.worth({3}) == 0

    def test_zero_merged_terms_dropped(self):
        cf = weighted_unanimity([1, 2], [([1, 2], 1), ([1, 2], -1)])
        assert cf.terms == ()

    def test_coefficients(self):
        cf = weighted_unanimity([1, 2, 3], [([2, 3], Fraction(-1, 3))])
        assert cf.unanimity_coefficients() == {frozenset({2, 3}): Fraction(-1, 3)}


class TestHypergraphGame:
    def test_player_set_must_agree(self):
        h = make_hypergraph([1, 2])
        with pytest.raises(ValueError, match="disagree"):
            HypergraphGame(h, unanimity([1, 2, 3], [1, 2]))

    def test_without_hyperlink(self):
        h = make_hypergraph([1, 2, 3], [[1, 2], [2, 3]])
        game = HypergraphGame(h, unanimity([1, 2, 3], [1, 3]))
        smaller = game.without_hyperlink([2, 1])
        assert smaller.hyperlinks == (frozenset({2, 3}),)
        assert smaller.characteristic is game.characteristic
        with pytest.raises(ValueError, match="no hyperlink"):
            game.without_hyperlink([1, 3])

    def test_with_hyperlinks_replaces_structure(self):
        h = make_hypergraph([1, 2, 3], [[1, 2]])
        game = HypergraphGame(h, unanimity([1, 2, 3], [1, 3]))
        replaced = game.with_hyperlinks([[1, 2, 3]])
        assert replaced.hyperlinks == (frozenset({1, 2, 3}),)


def test_every_public_name_resolves():
    import hypercoop

    assert len(set(hypercoop.__all__)) == len(hypercoop.__all__)
    for name in hypercoop.__all__:
        getattr(hypercoop, name)


def test_zero_allocation():
    assert zero_allocation([2, 1]) == {1: 0, 2: 0}


@given(hypergraph_games())
def test_generated_games_are_zero_normalized(game):
    for p in game.players:
        assert game.worth({p}) == 0
    assert game.worth(set()) == 0
