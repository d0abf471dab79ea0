from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercoop.cli import parse_game
from hypercoop.corpus import game_corpus
from hypercoop.model import (
    CharacteristicFunction,
    HypergraphGame,
    as_fraction,
    eta,
    incident_hyperlinks,
    integer_form,
    is_r_uniform,
    link_key,
    make_hypergraph,
    scaled_worths,
    table_function,
    unanimity,
    weighted_unanimity,
    zero_allocation,
)

from strategies import hypergraph_games, unanimity_combination_games

GAMES_DIR = Path(__file__).resolve().parent.parent / "games"


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
        # True == 1 and a repeated member collapse in a frozenset; both are
        # refused as the document parser refuses them
        with pytest.raises(ValueError, match=r"^hyperlinks\[0\]\[0\]: expected an integer player id, got True$"):
            make_hypergraph([0, 1, 2], [[True, 2], [0, 1, 1]])
        with pytest.raises(ValueError, match=r"^hyperlinks\[1\]\[1\]: expected an integer player id, got '2'$"):
            make_hypergraph([0, 1, 2], [[0, 1], [1, "2"]])
        with pytest.raises(ValueError, match=r"^hyperlinks\[0\]: duplicate members$"):
            make_hypergraph([0, 1, 2], [[0, 1, 1]])

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

    def test_is_the_one_term_combination(self):
        assert unanimity([1, 2, 3], [1, 3]) == weighted_unanimity([1, 2, 3], [([3, 1], 1)])


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


class TestIntegerForm:
    """The one integer reader against the Fraction path: on every
    coalition, the integers of `integer_form` over its scale equal
    `cf.worth`."""

    @staticmethod
    def assert_matches_worth(game):
        players = game.players
        scale, terms, entries = integer_form(game.characteristic, players)
        assert (terms is None) != (entries is None)
        for mask in range(1 << len(players)):
            if terms is not None:
                held = sum(w for s, w in terms if mask & s == s)
            else:
                held = entries.get(mask, 0)
            assert Fraction(held, scale) == game.worth(p for k, p in enumerate(players) if mask >> k & 1)

    def test_the_seeded_corpus(self):
        for game in game_corpus():
            self.assert_matches_worth(game)

    def test_the_sample_games(self):
        for path in sorted(GAMES_DIR.glob("*.json")):
            self.assert_matches_worth(parse_game(path.read_text(encoding="utf-8")))

    @given(st.one_of(hypergraph_games(), unanimity_combination_games()))
    def test_the_generated_games(self, game):
        self.assert_matches_worth(game)

    def test_the_bits_follow_the_player_order(self):
        cf = weighted_unanimity([1, 2, 3], [([1, 2], Fraction(3, 2)), ([2, 3], Fraction(-1, 3))])
        assert integer_form(cf, (1, 2, 3)) == (6, [(0b011, 9), (0b110, -2)], None)
        assert integer_form(cf, (3, 2, 1)) == (6, [(0b110, 9), (0b011, -2)], None)
        table = table_function([1, 2, 3], {frozenset({1, 3}): Fraction(1, 2), frozenset({2, 3}): 0})
        assert integer_form(table, (1, 2, 3)) == (2, None, {0b101: 1})

    def test_other_characteristics_are_asked_through_worth(self):
        @dataclass(frozen=True)
        class Majority(CharacteristicFunction):
            def _worth(self, coalition):
                return Fraction(len(coalition) // 2, 3)

        cf = Majority(frozenset({1, 2, 3}))
        assert integer_form(cf, (1, 2, 3)) == (1, None, None)
        assert scaled_worths(cf, (1, 2, 3), [0b011, 0b111]) == (3, {0b011: 1, 0b111: 1})


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
