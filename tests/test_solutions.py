import contextlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given

from hypercoop import connectivity, solutions
from hypercoop.cli import parse_game
from hypercoop.connectivity import components, connected_sets
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
from hypercoop.solutions import myerson_value, position_value, shapley_value

from oracles import (
    TUGame,
    conference_worth,
    hyperlink_game,
    point_game,
    restricted_worth,
    shapley_by_subsets,
)
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
        monkeypatch.setattr(solutions, "scaled_worths", refuse)
        monkeypatch.setattr(solutions, "connected_sets", refuse)
        players = range(30)
        links = [[i, (i + 1) % 30] for i in players]
        game = HypergraphGame(make_hypergraph(players, links), unanimity(players, [0, 1]))
        with pytest.raises(CapExceeded, match="^30 hyperlinks exceeds the subset cap 24$"):
            position_value(game)
        with pytest.raises(CapExceeded, match="^30 players exceeds the subset cap 29$"):
            myerson_value(game, cap=29)
        with pytest.raises(CapExceeded, match="^30 players exceeds the subset cap 24$"):
            shapley_value(game)
        # position_value enumerates hyperlink sets, so its cap counts hyperlinks
        few = range(10)
        pairs = list(itertools.combinations(few, 2))[:30]
        dense = HypergraphGame(make_hypergraph(few, pairs), unanimity(few, [0, 1]))
        with pytest.raises(CapExceeded, match="^30 hyperlinks exceeds the subset cap 24$"):
            position_value(dense)


GAMES = sorted((Path(__file__).resolve().parent.parent / "games").glob("*.json"))


@contextlib.contextmanager
def route(name):
    """Force `position_value` and `myerson_value` onto one route: "table"
    refuses every enumeration, "pieces" admits any number of connected
    sets.  Myerson on a hyperlink of 3 or more members keeps the table."""
    if name == "table":
        def sets(adjacency, limit):
            return None
    else:
        def sets(adjacency, limit):
            return connected_sets(adjacency, 1 << len(adjacency))
    with mock.patch.object(solutions, "connected_sets", sets):
        yield


def assert_the_routes_agree(game):
    with route("table"):
        table = position_value(game), myerson_value(game)
    with route("pieces"):
        pieces = position_value(game), myerson_value(game)
    assert pieces == table


def ring(n):
    """Players 1..n, pair hyperlinks {i, i+1 mod n}, worth
    3/2·u{1, n/2+1} - 1/3·u{2,3,4} + u{N}."""
    players = list(range(1, n + 1))
    cf = weighted_unanimity(
        players, [([1, n // 2 + 1], F(3, 2)), ([2, 3, 4], F(-1, 3)), (players, 1)]
    )
    return HypergraphGame(make_hypergraph(players, [[i, i % n + 1] for i in players]), cf)


def path_game(links):
    """Players 1..links+1 on a path of pair hyperlinks, unanimity on the ends."""
    players = range(1, links + 2)
    h = make_hypergraph(players, [[i, i + 1] for i in range(1, links + 1)])
    return HypergraphGame(h, unanimity(players, [1, links + 1]))


class TestConnectedSetRoute:
    def test_the_corpus_agrees_with_the_table_route(self):
        for game in game_corpus(count=200):
            assert_the_routes_agree(game)

    @pytest.mark.parametrize("path", GAMES, ids=lambda p: p.name)
    def test_sample_games_agree_with_the_table_route(self, path):
        assert_the_routes_agree(parse_game(path.read_text()))

    @given(hypergraph_games(max_players=6, max_links=6))
    def test_table_games_agree_with_the_table_route(self, game):
        assert_the_routes_agree(game)

    @given(unanimity_combination_games(max_players=6, max_links=6))
    def test_unanimity_combinations_agree_with_the_table_route(self, game):
        assert_the_routes_agree(game)

    @given(hypergraph_games(max_players=6, max_links=8, max_link_size=2))
    def test_myerson_on_pairs_matches_the_subset_sum(self, game):
        with route("pieces"):
            assert myerson_value(game) == shapley_by_subsets(point_game(game))
            assert position_value(game) == position_oracle(game)

    def test_rings_agree_with_the_table_route(self):
        for n in (5, 8, 12):
            assert_the_routes_agree(ring(n))


class TestRouting:
    @pytest.mark.parametrize(
        "links",
        [
            list(itertools.combinations(range(4), 2)),
            [s for r in (2, 3, 4) for s in itertools.combinations(range(4), r)],
            [[0, i] for i in range(1, 7)],
        ],
        ids=["complete graph", "complete hypergraph", "star"],
    )
    def test_complete_and_star_are_refused_by_the_bound(self, monkeypatch, links):
        grown = []
        original = connectivity._grow

        def spy(*args):
            grown.append(args)
            return original(*args)

        monkeypatch.setattr(connectivity, "_grow", spy)
        players = sorted({p for e in links for p in e})
        game = HypergraphGame(make_hypergraph(players, links), unanimity(players, [0, 1]))
        assert position_value(game) == position_oracle(game)
        assert myerson_value(game) == shapley_by_subsets(point_game(game))
        assert grown == []

    def test_a_pair_ring_builds_no_table(self, monkeypatch):
        with route("table"):
            expected = position_value(ring(12)), myerson_value(ring(12))

        def refuse(*_args):
            raise AssertionError("a 2^m or 2^n table was built")

        monkeypatch.setattr(solutions, "conference_table", refuse)
        monkeypatch.setattr(solutions, "_point_table", refuse)
        assert (position_value(ring(12)), myerson_value(ring(12))) == expected
        # the table route needs 2^20 hyperlink masks and 2^18 player masks
        for value, n in ((position_value, 20), (myerson_value, 18)):
            game = ring(n)
            assert sum(value(game).values()) == game.worth(game.players)

    def test_past_the_bound_but_over_the_limit_falls_back(self, monkeypatch):
        """A path of 6 pair hyperlinks has a line graph P6, and a path of 6
        players is P6 itself: degree bound 12 against the limit 2^6/4 = 16,
        yet 21 connected sets, so growth starts and then gives way."""
        yielded, tables = [], []
        grow = connectivity._grow
        conference, point = solutions.conference_table, solutions._point_table

        def spy_grow(*args):
            for pair in grow(*args):
                yielded.append(pair)
                yield pair

        def spy(build):
            def spied(game):
                tables.append(build.__name__)
                return build(game)
            return spied

        monkeypatch.setattr(connectivity, "_grow", spy_grow)
        monkeypatch.setattr(solutions, "conference_table", spy(conference))
        monkeypatch.setattr(solutions, "_point_table", spy(point))
        assert position_value(path_game(6)) == position_oracle(path_game(6))
        assert len(yielded) == 17 and tables == ["conference_table"]
        yielded.clear()
        assert myerson_value(path_game(5)) == shapley_by_subsets(point_game(path_game(5)))
        assert len(yielded) == 17 and tables == ["conference_table", "_point_table"]

    def test_a_three_member_hyperlink_sends_myerson_to_the_point_table(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("Myerson enumerated connected sets on a hypergraph")

        monkeypatch.setattr(solutions, "connected_sets", refuse)
        h = make_hypergraph(range(1, 9), [[i, i + 1] for i in range(1, 8)] + [[2, 3, 4]])
        game = HypergraphGame(h, unanimity(range(1, 9), [1, 8]))
        assert myerson_value(game) == shapley_by_subsets(point_game(game))

    def test_a_nonzero_singleton_raises_on_both_routes(self):
        @dataclass(frozen=True)
        class Flat(CharacteristicFunction):
            def _worth(self, coalition):
                return F(len(coalition))

        players = range(6)
        h = make_hypergraph(players, [[i, (i + 1) % 6] for i in players])
        game = HypergraphGame(h, Flat(frozenset(players)))
        for name in ("table", "pieces"):
            with route(name):
                with pytest.raises(ValueError, match="^worth of the empty coalition must be 0$"):
                    position_value(game)
                assert myerson_value(game) == shapley_by_subsets(point_game(game))
