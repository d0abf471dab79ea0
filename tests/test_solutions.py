from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given

from hypercoop import solutions
from hypercoop.connectivity import components
from hypercoop.corpus import game_corpus
from hypercoop.model import (
    CharacteristicFunction,
    HypergraphGame,
    make_hypergraph,
    table_function,
    unanimity,
    weighted_unanimity,
)
from hypercoop.shapley import CapExceeded
from hypercoop.solutions import (
    conference_worth,
    myerson_value,
    position_value,
    restricted_worth,
    shapley_value,
)

from oracles import TUGame, hyperlink_game, point_game, shapley_by_subsets
from strategies import hypergraph_games, unanimity_combination_games

F = Fraction


def single_link_game():
    return HypergraphGame(make_hypergraph([1, 2], [[1, 2]]), unanimity([1, 2], [1, 2]))


class TestRestrictedWorth:
    def test_disconnected_coalitions_split_into_pieces(self, hub):
        assert restricted_worth(hub, {1, 2, 3}) == 0
        assert restricted_worth(hub, set(hub.players)) == 1

    def test_sums_piece_worths(self):
        h = make_hypergraph([1, 2, 3, 4], [[1, 2], [3, 4]])
        cf = table_function(
            [1, 2, 3, 4],
            {
                frozenset({1, 2}): F(1, 2),
                frozenset({3, 4}): F(1, 3),
                frozenset({1, 2, 3, 4}): F(7),
            },
        )
        game = HypergraphGame(h, cf)
        # {1,2} and {3,4} are separate components, so the grand coalition's
        # table worth of 7 is unreachable under the structure.
        assert restricted_worth(game, {1, 2, 3, 4}) == F(1, 2) + F(1, 3)


class TestConferenceWorth:
    def test_hub_needs_every_hyperlink(self, hub):
        links = hub.hyperlinks
        assert conference_worth(hub, links) == 1
        for dropped in links:
            assert conference_worth(hub, [e for e in links if e != dropped]) == 0
        assert conference_worth(hub, []) == 0

    def test_path_partial_structures(self, path3):
        e12, e23 = path3.hyperlinks
        assert conference_worth(path3, [e12]) == 0
        assert conference_worth(path3, [e12, e23]) == 1


def test_point_game_lives_on_players(path3):
    pg = point_game(path3)
    assert pg.players == (1, 2, 3)
    assert pg.worth({1, 2}) == 0
    assert pg.worth({1, 2, 3}) == 1


class TestMyerson:
    def test_hub_is_symmetric(self, hub):
        assert myerson_value(hub) == {p: F(1, 6) for p in range(1, 7)}

    def test_path(self, path3):
        assert myerson_value(path3) == {1: F(1, 3), 2: F(1, 3), 3: F(1, 3)}

    def test_single_link(self):
        assert myerson_value(single_link_game()) == {1: F(1, 2), 2: F(1, 2)}

    def test_no_links_gives_zero(self):
        game = HypergraphGame(
            make_hypergraph([1, 2]), table_function([1, 2], {frozenset({1, 2}): 5})
        )
        assert myerson_value(game) == {1: 0, 2: 0}


class TestPosition:
    def test_hub(self, hub):
        assert position_value(hub) == {
            1: F(1, 8),
            2: F(1, 8),
            3: F(1, 8),
            4: F(5, 24),
            5: F(5, 24),
            6: F(5, 24),
        }

    def test_path(self, path3):
        assert position_value(path3) == {1: F(1, 4), 2: F(1, 2), 3: F(1, 4)}

    def test_single_link(self):
        assert position_value(single_link_game()) == {1: F(1, 2), 2: F(1, 2)}

    def test_isolated_player_gets_zero(self):
        h = make_hypergraph([1, 2, 3], [[1, 2]])
        game = HypergraphGame(h, table_function([1, 2, 3], {frozenset({1, 2}): 1}))
        assert position_value(game) == {1: F(1, 2), 2: F(1, 2), 3: 0}
        assert myerson_value(game)[3] == 0

    def test_no_links_gives_zero(self):
        game = HypergraphGame(
            make_hypergraph([1, 2]), table_function([1, 2], {frozenset({1, 2}): 5})
        )
        assert position_value(game) == {1: 0, 2: 0}

    def test_single_player_game(self):
        game = HypergraphGame(make_hypergraph([1]), table_function([1], {}))
        assert position_value(game) == {1: 0}
        assert myerson_value(game) == {1: 0}

    def test_respects_the_cap(self, hub):
        with pytest.raises(CapExceeded):
            position_value(hub, cap=3)
        with pytest.raises(CapExceeded):
            myerson_value(hub, cap=5)


def test_hyperlink_game_lives_on_hyperlinks(path3):
    hg = hyperlink_game(path3)
    assert set(hg.players) == set(path3.hyperlinks)
    assert hg.worth({frozenset({1, 2})}) == 0
    assert hg.worth(set(path3.hyperlinks)) == 1


@given(hypergraph_games())
def test_both_values_are_component_efficient(game):
    for value in (myerson_value, position_value):
        payoffs = value(game)
        for comp in components(game.players, game.hyperlinks):
            assert sum(payoffs[i] for i in comp) == game.worth(comp)


@given(hypergraph_games())
def test_point_and_hyperlink_games_agree_on_totals(game):
    pg = point_game(game)
    assert pg.worth(game.players) == restricted_worth(game, game.players)
    hg = hyperlink_game(game)
    assert hg.worth(game.hyperlinks) == conference_worth(game, game.hyperlinks)
    assert hg.worth(frozenset()) == 0


def position_oracle(game):
    """Position value from the frozenset conference game and the subset sum."""
    payoffs = {p: F(0) for p in game.players}
    if game.hyperlinks:
        link_payoffs = shapley_by_subsets(hyperlink_game(game))
        for e in game.hyperlinks:
            for i in e:
                payoffs[i] += link_payoffs[e] / len(e)
    return payoffs


def assert_matches_the_oracle(game):
    assert myerson_value(game) == shapley_by_subsets(point_game(game))
    assert position_value(game) == position_oracle(game)
    plain = TUGame.from_characteristic(game.characteristic)
    assert shapley_value(game) == shapley_by_subsets(plain)


@dataclass(frozen=True)
class CountingWorth(CharacteristicFunction):
    """A characteristic the kernel cannot read off: worth (|S|² - |S|)/3
    plus 5/2 on coalitions holding player 1, recording each call."""

    calls: list = field(default_factory=list, compare=False, hash=False)

    def _worth(self, coalition):
        self.calls.append(coalition)
        size = len(coalition)
        bonus = F(5, 2) if 1 in coalition and size > 1 else 0
        return F(size * size - size, 3) + bonus


class TestBitmaskKernel:
    def test_the_corpus_matches_the_oracle(self):
        for game in game_corpus(count=200):
            assert_matches_the_oracle(game)

    @given(hypergraph_games())
    def test_table_games_match_the_oracle(self, game):
        assert_matches_the_oracle(game)

    @given(unanimity_combination_games())
    def test_unanimity_combinations_match_the_oracle(self, game):
        assert_matches_the_oracle(game)

    def test_custom_characteristic_goes_through_worth(self):
        players = [1, 2, 3, 4, 5]
        cf = CountingWorth(frozenset(players))
        game = HypergraphGame(make_hypergraph(players, [[1, 2], [2, 3, 4], [4, 5]]), cf)
        myerson, position = myerson_value(game), position_value(game)
        assert {2, 3, 4} in cf.calls and {1, 2, 3, 4, 5} in cf.calls
        assert myerson == shapley_by_subsets(point_game(game))
        assert position == position_oracle(game)

    def test_custom_characteristic_must_be_zero_on_singletons(self):
        @dataclass(frozen=True)
        class Flat(CharacteristicFunction):
            def _worth(self, coalition):
                return F(len(coalition))

        game = HypergraphGame(make_hypergraph([1, 2, 3], [[1, 2]]), Flat(frozenset({1, 2, 3})))
        with pytest.raises(ValueError, match="empty coalition"):
            position_value(game)
        assert myerson_value(game) == shapley_by_subsets(point_game(game))

    def test_custom_characteristic_must_be_zero_on_the_empty_coalition(self):
        @dataclass(frozen=True)
        class Constant(CharacteristicFunction):
            def _worth(self, coalition):
                return F(1)

        cf = Constant(frozenset({1, 2, 3}))
        game = HypergraphGame(make_hypergraph([1, 2, 3], [[1, 2]]), cf)
        with pytest.raises(ValueError, match="^worth of the empty coalition must be 0$"):
            TUGame.from_characteristic(cf)
        with pytest.raises(ValueError, match="^worth of the empty coalition must be 0$"):
            shapley_value(game)

    def test_custom_characteristic_must_be_exact(self):
        @dataclass(frozen=True)
        class Halves(CharacteristicFunction):
            def _worth(self, coalition):
                return 0.5 if len(coalition) > 1 else 0

        game = HypergraphGame(make_hypergraph([1, 2, 3], [[1, 2]]), Halves(frozenset({1, 2, 3})))
        for value in (shapley_value, myerson_value, position_value):
            with pytest.raises(TypeError, match="floats are not exact"):
                value(game)

    @pytest.mark.parametrize(
        "cf",
        [
            unanimity([1, 2, 3, 4], [1, 2]),
            weighted_unanimity([1, 2, 3, 4], [([1, 2, 3], F(3, 4)), ([2, 4], F(-1, 6))]),
            table_function([1, 2, 3, 4], {frozenset({1, 4}): F(7, 5), frozenset({1, 2, 3, 4}): 2}),
        ],
    )
    @pytest.mark.parametrize("links", [[], [[1, 2]], [[2, 3, 4]], [[1, 2], [3, 4]]])
    def test_no_hyperlinks_and_isolated_players(self, cf, links):
        game = HypergraphGame(make_hypergraph([1, 2, 3, 4], links), cf)
        assert_matches_the_oracle(game)
        linked = {p for e in links for p in e}
        value = position_value(game)
        assert all(value[p] == 0 for p in game.players if p not in linked)

    def test_cap_is_checked_before_any_table(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a table was built over the cap")

        monkeypatch.setattr(solutions, "conference_table", refuse)
        monkeypatch.setattr(solutions, "_point_table", refuse)
        monkeypatch.setattr(solutions, "_scaled_worths", refuse)
        players = range(30)
        links = [[i, (i + 1) % 30] for i in players]
        game = HypergraphGame(make_hypergraph(players, links), unanimity(players, [0, 1]))
        with pytest.raises(CapExceeded, match="^30 players exceeds the subset cap 24$"):
            position_value(game)
        with pytest.raises(CapExceeded, match="^30 players exceeds the subset cap 29$"):
            myerson_value(game, cap=29)
        with pytest.raises(CapExceeded, match="^30 players exceeds the subset cap 24$"):
            shapley_value(game)
