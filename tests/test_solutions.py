import contextlib
import itertools
import random
import runpy
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given

from hypercoop import connectivity, solutions
from hypercoop.axioms import check_copy_deletions, check_uniform_expansion, value_from_axioms
from hypercoop.cli import parse_game
from hypercoop.connectivity import (
    components,
    disconnected_sets,
    hypergraph_pieces,
)
from hypercoop.corpus import game_corpus
from hypercoop.model import (
    CharacteristicFunction,
    HypergraphGame,
    TableFunction,
    make_hypergraph,
    scaled_worths,
    table_function,
    unanimity,
    weighted_unanimity,
)
from hypercoop.shapley import DEFAULT_SUBSET_CAP, CapExceeded
from hypercoop.solutions import (
    myerson_value,
    position_value,
    position_values_without,
    shapley_value,
)

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
# the planner's refusal of the hub with table worth (`as_table`) at cap 3,
# where no listing fits its limit of 2^3/4 · 3/4 = 1 entry
HUB_TABLE_REFUSAL = (
    r"^the table of 4 hyperlinks, once no listing fits its limit of 1, needs 2\^4 entries, "
    r"over the 2\^3 that the subset cap 3 admits$"
)


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
        """Past the cap only a table is refused: the hub, a forest, answers,
        and its table-worth copy overflows every listing's budget."""
        assert position_value(hub, cap=3) == position_value(hub)
        assert myerson_value(hub, cap=5) == myerson_value(hub)
        with pytest.raises(CapExceeded, match=HUB_TABLE_REFUSAL):
            position_value(as_table(hub), cap=3)
        message = (
            r"^the table of 6 players, once no listing fits its limit of 6, needs 2\^6 entries, "
            r"over the 2\^5 that the subset cap 5 admits$"
        )
        with pytest.raises(CapExceeded, match=message):
            myerson_value(as_table(hub), cap=5)


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
        with pytest.raises(ValueError, match=r"^worth of the singleton \[1\] must be 0, got 1$"):
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

    def test_a_custom_characteristic_past_the_cap_is_refused(self):
        """`shapley_value` prices the 2^n table a characteristic without
        dividends or entries needs, and refuses it past the cap with
        that price, before any worth is read."""
        players = list(range(9))
        cf = CountingWorth(frozenset(players))
        game = HypergraphGame(make_hypergraph(players, [[0, 1]]), cf)
        with pytest.raises(CapExceeded) as refused:
            shapley_value(game, cap=8)
        assert refused.value.args == ("the table of 9 players", "2^9", 8)
        assert str(refused.value) == "the table of 9 players needs 2^9 entries, over the 2^8 that the subset cap 8 admits"
        assert cf.calls == []
        assert shapley_value(game, cap=9) == shapley_by_subsets(TUGame.from_characteristic(cf))

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
        """30 pairs inside K10 past a cap of 8: with table worth on N the
        planner prices the conference game's spanning sets of N out, and
        with unanimity worth on {4, 5}, inside which no pair lies, it
        refuses the point game from the enumerators' lower bounds, before
        any worth is read or any set grown; position_value lists
        hyperlink sets, so its cap counts hyperlinks.  The table's one
        entry, and unanimity worth on N, which the pairs join, still give
        the Myerson and Shapley values, and a characteristic read
        coalition by coalition is refused the 2^10 Shapley table.  A ring
        of 30 pairs lists its 871 connected hyperlink sets (and 871 player
        sets) and builds no table at the default cap."""
        def refuse(*_args):
            raise AssertionError("a table was built over the cap")

        monkeypatch.setattr(solutions, "conference_table", refuse)
        monkeypatch.setattr(solutions, "_point_table", refuse)
        players = range(30)
        links = [[i, (i + 1) % 30] for i in players]
        game = HypergraphGame(make_hypergraph(players, links), unanimity(players, [0, 1]))
        # both ends of {0, 1} always meet, so the Myerson value is Shapley's
        assert sum(position_value(game).values()) == 1
        assert myerson_value(game) == shapley_value(game) == {p: F(p < 2, 2) for p in players}
        few = range(10)
        pairs = list(itertools.combinations(few, 2))[:30]
        dense = HypergraphGame(make_hypergraph(few, pairs), table_function(few, {frozenset(few): 1}))
        # the pairs connect N, so [S = N] is both the game and its point game
        assert myerson_value(dense, cap=8) == shapley_value(dense, cap=8) == {p: F(1, 10) for p in few}
        joined = HypergraphGame(dense.hypergraph, unanimity(few, few))
        assert myerson_value(joined, cap=8) == shapley_value(joined, cap=8) == {p: F(1, 10) for p in few}
        for name in ("scaled_worths", "_read_worths", "disconnected_sets", "hypergraph_pieces", "_spanning"):
            monkeypatch.setattr(solutions, name, refuse)
        monkeypatch.setattr(connectivity, "_grow", refuse)
        message = (
            r"^the table of 30 hyperlinks, once no listing fits its limit of 17, needs 2\^30 entries, "
            r"over the 2\^8 that the subset cap 8 admits$"
        )
        with pytest.raises(CapExceeded, match=message):
            position_value(dense, cap=8)
        message = (
            r"^the table of 10 players, once no listing fits its limit of 51, needs 2\^10 entries, "
            r"over the 2\^8 that the subset cap 8 admits$"
        )
        with pytest.raises(CapExceeded, match=message):
            myerson_value(HypergraphGame(dense.hypergraph, unanimity(few, [4, 5])), cap=8)
        message = r"^the table of 10 players needs 2\^10 entries, over the 2\^8 that the subset cap 8 admits$"
        with pytest.raises(CapExceeded, match=message):
            shapley_value(HypergraphGame(dense.hypergraph, CountingWorth(frozenset(few))), cap=8)


def two_paths_game():
    """Paths 1-2-3-4 and 5-6-7 and the lone player 8: most hyperlink
    sets fall apart into pieces."""
    players = range(1, 9)
    h = make_hypergraph(players, [[1, 2], [2, 3], [3, 4], [5, 6], [6, 7]])
    cf = table_function(
        players,
        {
            frozenset({1, 2}): F(3, 4),
            frozenset({2, 3, 4}): F(-2, 3),
            frozenset({1, 2, 3, 4}): F(5),
            frozenset({5, 6, 7}): F(7, 6),
            frozenset({1, 2, 3, 4, 5, 6, 7}): F(100),
        },
    )
    return HypergraphGame(h, cf)


def dense_game():
    """Overlapping 3- and 4-member hyperlinks on 7 players."""
    players = range(1, 8)
    links = [[1, 2, 3], [3, 4, 5], [5, 6, 7], [1, 4, 7], [2, 5, 6, 7], [1, 3, 5, 6], [2, 4, 6]]
    cf = weighted_unanimity(
        players, [(list(players), F(1)), ([1, 4], F(2, 3)), ([2, 3, 5], F(-5, 4)), ([6, 7], F(1, 2))]
    )
    return HypergraphGame(make_hypergraph(players, links), cf)


def covered_player_sets(game):
    """The player sets that nonempty hyperlink sets cover, and the
    singletons."""
    links = game.hyperlinks
    return {
        frozenset().union(*subset)
        for r in range(1, len(links) + 1)
        for subset in itertools.combinations(links, r)
    } | {frozenset({p}) for p in game.players}


def assert_table_matches_the_oracle(game):
    """`conference_table` entry by entry against the frozenset conference game."""
    table, scale = solutions.conference_table(game)
    oracle = hyperlink_game(game)
    links = game.hyperlinks
    assert len(table) == 1 << len(links)
    for mask, entry in enumerate(table):
        assert F(entry, scale) == oracle.worth(e for j, e in enumerate(links) if mask >> j & 1)


class TestConferenceTable:
    def test_disconnected_masks(self):
        assert_table_matches_the_oracle(two_paths_game())

    def test_dense_three_and_four_member_hyperlinks(self):
        assert_table_matches_the_oracle(dense_game())

    def test_the_corpus(self):
        for game in game_corpus(count=200):
            assert_table_matches_the_oracle(game)

    def test_each_player_set_is_read_at_most_once(self, monkeypatch):
        requested = []
        read = solutions.scaled_worths

        def recording(cf, players, coalitions):
            coalitions = list(coalitions)
            requested.extend(coalitions)
            return read(cf, players, coalitions)

        monkeypatch.setattr(solutions, "scaled_worths", recording)
        for game in (two_paths_game(), dense_game(), *game_corpus(count=50)):
            requested.clear()
            solutions.conference_table(game)
            assert len(requested) == len(set(requested)) <= 1 << len(game.players)

    def test_an_opaque_characteristic_is_asked_once_per_covered_set(self):
        for game in (two_paths_game(), dense_game()):
            cf = CountingWorth(frozenset(game.players))
            solutions.conference_table(HypergraphGame(game.hypergraph, cf))
            assert sorted(cf.calls, key=sorted) == sorted(covered_player_sets(game), key=sorted)


GAMES = sorted((Path(__file__).resolve().parent.parent / "games").glob("*.json"))


ROUTES = ("table", "pieces", "complement", "support")


@dataclass(frozen=True)
class Entries(TableFunction):
    """A table that keeps every entry it is given, a nonzero singleton
    too, so that any characteristic can be read from its entries."""

    def __post_init__(self):
        pass


def as_entries(game):
    """The same game with its worths given as a table of its nonzero
    worths, whatever its characteristic."""
    n = len(game.players)
    scale, worth = scaled_worths(game.characteristic, game.players, range(1, 1 << n))
    entries = {
        frozenset(p for k, p in enumerate(game.players) if c >> k & 1): F(w, scale) for c, w in worth.items() if w
    }
    return HypergraphGame(game.hypergraph, Entries(game.characteristic.players, entries))


@contextlib.contextmanager
def route(name):
    """Force `position_value` and `myerson_value` onto one route by
    replacing the planner with that route's own function at an unbounded
    limit: "table" plans both tables; "pieces" lists every connected
    set, or every signed piece of a hypergraph's point game, whatever
    their number; "complement" lists every disconnected hyperlink set,
    whatever the number of players, and sends the Myerson value to its
    table; "support" reads the game `as_entries`, whatever its
    characteristic, and lists the pieces of each nonzero entry, whatever
    their number.  Only a table is refused past the subset cap, as the
    planner refuses it."""
    forced = {"pieces": solutions._connected, "complement": solutions._complement, "support": solutions._support}

    def plan(game, point=False, cap=DEFAULT_SUBSET_CAP):
        links = solutions._hyperlink_masks(game)
        n, m = len(game.players), len(links)
        if name in forced:
            listed = forced[name](as_entries(game) if name == "support" else game, links, point, 1 << (n + m + 1))
            if listed is not None:
                return listed
        size, noun = (n, "players") if point else (m, "hyperlinks")
        if size > cap:
            raise CapExceeded(f"the table of {size} {noun}", f"2^{size}", cap)
        return solutions._table(game, point)

    with mock.patch.object(solutions, "_plan", plan):
        yield


def myerson_on_route(game, name):
    """`myerson_value(game)` under `route(name)`, asserting that the point
    game took that route: its table on "table" and "complement", and a
    listing, never the table, on "pieces" and "support"."""
    tables = []
    build = solutions._point_table

    def spied(game):
        tables.append(game)
        return build(game)

    with route(name), mock.patch.object(solutions, "_point_table", spied):
        value = myerson_value(game)
    assert len(tables) == (name not in ("pieces", "support"))
    return value


def assert_the_routes_agree(game):
    values = []
    for name in ROUTES:
        with route(name):
            values.append((position_value(game), position_values_without(game)))
        values[-1] += (myerson_on_route(game, name),)
    assert all(value == values[0] for value in values[1:])


def ring(n):
    """Players 1..n, pair hyperlinks {i, i+1 mod n}, worth
    3/2·u{1, n/2+1} - 1/3·u{2,3,4} + u{N}."""
    players = list(range(1, n + 1))
    cf = weighted_unanimity(
        players, [([1, n // 2 + 1], F(3, 2)), ([2, 3, 4], F(-1, 3)), (players, 1)]
    )
    return HypergraphGame(make_hypergraph(players, [[i, i % n + 1] for i in players]), cf)


def ring3(c):
    """Players 1..2c, hyperlinks {2i+1, 2i+2, 2i+3 mod 2c}, worth
    u{N} + 2·u{1,4}."""
    players = list(range(1, 2 * c + 1))
    links = [[2 * i + 1, 2 * i + 2, (2 * i + 2) % (2 * c) + 1] for i in range(c)]
    cf = weighted_unanimity(players, [(players, 1), ([1, 4], 2)])
    return HypergraphGame(make_hypergraph(players, links), cf)


def dense_shape(n, m, seed):
    """m distinct 3- and 4-member hyperlinks on players 0..n-1 covering
    them all, like those of the dense benchmark workload; worth
    u{N} + 2/3·u{0,3} - 5/4·u{1,2,5}, or a table on three coalitions for
    odd seeds."""
    rng = random.Random(seed)
    links: set = set()
    while len(links) < m or len(set().union(*links)) < n:
        if len(links) == m:
            links.clear()
        links.add(tuple(sorted(rng.sample(range(n), rng.choice((3, 4))))))
    players = list(range(n))
    if seed % 2:
        cf = table_function(
            players, {frozenset(players): 1, frozenset({0, 3, 4}): F(2, 3), frozenset(min(links)): F(-5, 4)}
        )
    else:
        cf = weighted_unanimity(players, [(players, 1), ([0, 3], F(2, 3)), ([1, 2, 5], F(-5, 4))])
    return HypergraphGame(make_hypergraph(players, sorted(links)), cf)


# the players and hyperlinks of the dense benchmark workload's games
DENSE_SHAPES = [dense_shape(n, m, seed) for seed, (n, m) in enumerate([(8, 11), (8, 12), (9, 13), (9, 14)])]


def path_game(links):
    """Players 1..links+1 on a path of pair hyperlinks, unanimity on the ends."""
    players = range(1, links + 2)
    h = make_hypergraph(players, [[i, i + 1] for i in range(1, links + 1)])
    return HypergraphGame(h, unanimity(players, [1, links + 1]))


def as_table(game):
    """The same game with its worths given as a table on every coalition,
    which keeps it off the dividends route."""
    players = game.players
    entries = {
        frozenset(s): game.worth(s) for r in range(2, len(players) + 1) for s in itertools.combinations(players, r)
    }
    return HypergraphGame(game.hypergraph, table_function(players, entries))


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

    @given(hypergraph_games(max_players=6, max_links=6, max_link_size=4))
    def test_myerson_on_hypergraphs_matches_the_subset_sum(self, game):
        with route("pieces"):
            assert myerson_value(game) == shapley_by_subsets(point_game(game))

    @pytest.mark.parametrize(
        "links",
        [
            [[1, 2], [1, 2, 3], [3, 4]],
            [[1, 2, 3], [1, 2, 3, 4], [4, 5]],
            [[1, 2, 3], [1, 4, 5], [2, 4], [3, 5]],
        ],
        ids=["part over a one-player part", "nested larger parts", "two larger parts"],
    )
    def test_leaving_parts_on_a_hand_built_hypergraph(self, links):
        players = sorted({p for e in links for p in e})
        cf = weighted_unanimity(players, [([1, 3], F(2, 3)), ([2, 3, 4], -1), (players, 1)])
        game = HypergraphGame(make_hypergraph(players, links), cf)
        with route("pieces"):
            assert myerson_value(game) == shapley_by_subsets(point_game(game))
        assert_the_routes_agree(game)

    def test_a_part_over_a_one_player_part_is_dropped(self):
        """{1} leaves {1, 2} with the part {2} and {1, 2, 3} with {2, 3};
        a component {1} of S already has 2 outside S, so {2, 3} adds
        nothing: {1}'s one term is {1} with boundary {2}."""
        terms = hypergraph_pieces([0b11, 0b111], 3, 1 << 10)
        assert [t for t in terms if t[0] == 0b1] == [(0b1, 0b1, 0b10, 1)]

    def test_rings_agree_with_the_table_route(self):
        for n in (5, 8, 12):
            assert_the_routes_agree(ring(n))
        for c in (3, 5):
            assert_the_routes_agree(ring3(c))

    @pytest.mark.parametrize("game", DENSE_SHAPES, ids=lambda g: f"{len(g.players)}x{len(g.hyperlinks)}")
    def test_dense_shapes_agree_with_the_table_route(self, game):
        assert_the_routes_agree(game)


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

        def spy(original):
            def spied(*args):
                grown.append(args)
                return original(*args)
            return spied

        monkeypatch.setattr(connectivity, "_grow", spy(connectivity._grow))
        monkeypatch.setattr(connectivity, "_closure", spy(connectivity._closure))
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

    def test_no_disconnected_sets_are_listed_past_the_player_gate(self, monkeypatch):
        """The complement route is gated on the 2^n player sets (table
        worths are read on all of them), so with 2^n > 2^m/4 the plan
        lists no disconnected hyperlink set: a ring of 12 pairs (2^12
        player sets against 2^12/4) lists its connected sets."""
        with route("table"):
            expected = position_value(ring(12))

        def refuse(*_args):
            raise AssertionError("disconnected hyperlink sets were listed")

        monkeypatch.setattr(solutions, "disconnected_sets", refuse)
        assert position_value(ring(12)) == expected
        assert solutions._plan(ring(12)).name == "sets"

    @pytest.mark.parametrize("m, expected", [(7, "complement"), (6, "table")])
    def test_the_player_gate_at_its_boundary(self, m, expected):
        """Any two 3-member hyperlinks on 5 players meet, so no hyperlink
        set is disconnected.  With m = n + 2 = 7, 2^5 <= 2^7/4 admits the
        complement route; with m = n + 1 = 6, 2^5 > 2^6/4 refuses it, and
        the 63 connected sets pass 16, so the table runs."""
        players = range(5)
        links = list(itertools.combinations(players, 3))[:m]
        cf = weighted_unanimity(players, [(players, 1), ([0, 4], F(2, 3))])
        game = HypergraphGame(make_hypergraph(players, links), cf)
        assert solutions._plan(game).name == expected
        assert position_value(game) == position_oracle(game)

    def test_the_route_census_matches_its_transcript(self, monkeypatch, capsys):
        """Every benchmark game at seed 5 and every corpus game keeps the
        route recorded in the transcript."""
        root = Path(__file__).resolve().parent.parent
        monkeypatch.setattr(sys, "path", list(sys.path))
        runpy.run_path(str(root / "scripts" / "route_census.py"))["main"]()
        assert capsys.readouterr().out == (root / "tests" / "transcripts" / "route_census.txt").read_text()

    def test_past_the_bound_but_over_the_limit_falls_back(self, monkeypatch):
        """A path of 6 pair hyperlinks has a line graph P6, and a path of 6
        players is P6 itself: degree bound 12 against the limit 2^6/4 = 16,
        yet 21 connected sets, so growth starts and then gives way.  The
        worths are a table, since a path with unanimity worth is a forest,
        and one with more entries than the limit, which is not read from
        its entries: 32 on 7 players, and on 6 players the 24 coalitions
        holding {1, 6} or {1, 2}."""
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
        game = as_table(path_game(6))
        assert position_value(game) == position_oracle(game)
        assert len(yielded) == 17 and tables == ["conference_table"]
        yielded.clear()
        players = range(1, 7)
        cf = weighted_unanimity(players, [([1, 6], 1), ([1, 2], 1)])
        game = as_table(HypergraphGame(path_game(5).hypergraph, cf))
        assert len(game.characteristic.entries) == 24
        assert myerson_value(game) == shapley_by_subsets(point_game(game))
        assert len(yielded) == 17 and tables == ["conference_table", "_point_table"]

    def test_the_complete_graph_on_seven_grows_no_connected_set(self, monkeypatch):
        """K7's 21 pair hyperlinks pass the degree bound of
        `connected_sets`, whose growth would then pass 2^21/4 sets and be
        dropped; its 27,188 disconnected sets are listed instead."""
        def refuse(*_args):
            raise AssertionError("connected sets were grown or the conference table was built")

        listed = []

        def spied(adjacency, limit):
            listed.append(disconnected_sets(adjacency, limit))
            return listed[-1]

        players = list(range(7))
        links = list(itertools.combinations(players, 2))
        cf = weighted_unanimity(players, [(players, 1), ([0, 1], F(3, 2))])
        game = HypergraphGame(make_hypergraph(players, links), cf)
        monkeypatch.setattr(solutions, "connected_sets", refuse)
        monkeypatch.setattr(solutions, "conference_table", refuse)
        monkeypatch.setattr(solutions, "disconnected_sets", spied)
        value = position_value(game)
        assert [len(apart) for apart in listed] == [27188]
        # 0 and 1 are alike, and so are 2..6; the payoffs sum to v(N)
        assert value[0] == value[1] and len({value[p] for p in players[2:]}) == 1
        assert sum(value.values()) == F(5, 2)

    def test_a_three_member_hyperlink_sends_myerson_to_the_hypergraph_pieces(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("Myerson listed a player graph or built the point table")

        h = make_hypergraph(range(1, 11), [[i, i + 1] for i in range(1, 10)] + [[2, 3, 4]])
        game = HypergraphGame(h, unanimity(range(1, 11), [1, 10]))
        expected = shapley_by_subsets(point_game(game))
        monkeypatch.setattr(solutions, "connected_sets", refuse)
        monkeypatch.setattr(solutions, "_point_table", refuse)
        assert myerson_value(game) == expected

    def test_a_ring_of_three_member_hyperlinks_builds_no_point_table(self, monkeypatch):
        with route("table"):
            expected = myerson_value(ring3(6))

        def refuse(*_args):
            raise AssertionError("the 2^n point table was built")

        monkeypatch.setattr(solutions, "_point_table", refuse)
        assert myerson_value(ring3(6)) == expected
        # 24 players: the point table needs 2^24 masks
        game = ring3(12)
        assert sum(myerson_value(game).values()) == game.worth(game.players)

    def test_a_nonzero_singleton_raises_on_both_routes(self):
        @dataclass(frozen=True)
        class Flat(CharacteristicFunction):
            def _worth(self, coalition):
                return F(len(coalition))

        players = range(6)
        h = make_hypergraph(players, [[i, (i + 1) % 6] for i in players])
        game = HypergraphGame(h, Flat(frozenset(players)))
        for name in ROUTES:
            with route(name):
                for value in (position_value, position_values_without):
                    with pytest.raises(ValueError, match=r"^worth of the singleton \[0\] must be 0, got 1$"):
                        value(game)
            assert myerson_on_route(game, name) == shapley_by_subsets(point_game(game))


def assert_deletions_match(game) -> str:
    """`position_values_without` equals the position value of each game
    without one hyperlink, keys in order; returns the route it took, a
    connected-set listing counting as "pieces"."""
    built, planned = [], []
    plan = solutions._plan

    def spy(name):
        build = getattr(solutions, name)

        def spied(*args):
            built.append(name)
            return build(*args)

        return mock.patch.object(solutions, name, spied)

    def spied_plan(*args, **kwargs):
        planned.append(plan(*args, **kwargs))
        return planned[-1]

    with spy("conference_table"), spy("_complement_pieces"), mock.patch.object(solutions, "_plan", spied_plan):
        deleted = position_values_without(game)
    assert list(deleted) == list(game.hyperlinks)
    for e, payoffs in deleted.items():
        expected = position_value(game.without_hyperlink(e))
        assert payoffs == expected
        assert list(payoffs) == list(expected)
    [name] = [taken.name for taken in planned]
    assert built == {"table": ["conference_table"], "complement": ["_complement_pieces"]}.get(name, [])
    return {"sets": "pieces"}.get(name, name)


class TestDeletionsInOnePass:
    def test_the_corpus_the_hub_and_rings_take_both_routes(self, hub):
        """The corpus's table worths are read from their entries where
        the spanning sets fit the budget, and take the table elsewhere.
        The hub's worths are a table here, since with its unanimity worth
        it takes the dividends route: 57 entries pass 2^4/4, so it takes the
        table."""
        corpus = {assert_deletions_match(game) for game in game_corpus(count=200)}
        assert corpus == {"support", "table"}
        assert assert_deletions_match(as_table(hub)) == "table"
        assert {assert_deletions_match(ring(n)) for n in (12, 20)} == {"pieces"}

    @pytest.mark.parametrize("path", GAMES, ids=lambda p: p.name)
    def test_sample_games(self, path):
        assert_deletions_match(parse_game(path.read_text()))

    @given(hypergraph_games(max_players=6, max_links=6))
    def test_table_games_on_both_routes(self, game):
        for name in ROUTES:
            with route(name):
                assert assert_deletions_match(game) == name

    @given(unanimity_combination_games(max_players=6, max_links=6))
    def test_unanimity_combinations_on_both_routes(self, game):
        for name in ROUTES:
            with route(name):
                assert assert_deletions_match(game) == name

    def test_dense_shapes_take_the_complement_route(self):
        """2^n <= 2^m/4 and a few dozen disconnected hyperlink sets."""
        assert {assert_deletions_match(game) for game in DENSE_SHAPES} == {"complement"}

    def test_one_hyperlink_and_none(self):
        assert position_values_without(single_link_game()) == {
            frozenset({1, 2}): {1: 0, 2: 0}
        }
        game = HypergraphGame(make_hypergraph([1, 2]), table_function([1, 2], {}))
        assert position_values_without(game) == {}

    def test_respects_the_cap(self, hub):
        assert position_values_without(hub, cap=3) == position_values_without(hub)
        with pytest.raises(CapExceeded, match=HUB_TABLE_REFUSAL):
            position_values_without(as_table(hub), cap=3)


def dividend_game(seed):
    """A seeded unanimity game on the complement route: 6-8 players, the
    last on no hyperlink, and n + 2 to n + 4 distinct 3-member hyperlinks
    on the others.  Its terms hold N, a support with the last player,
    the covered players, two random supports, and two more supports
    whose coefficients c and -c cancel in v(N)."""
    rng = random.Random(seed)
    n = rng.randint(6, 8)
    players = list(range(n))
    links = rng.sample(list(itertools.combinations(players[:-1], 3)), n + rng.randint(2, 4))

    def coefficient():
        return F(rng.choice([-7, -3, -1, 1, 2, 5]), rng.randint(1, 6))

    c = coefficient()
    supports = [players, [0, n - 1], players[:-1], *(rng.sample(players, rng.randint(2, n)) for _ in range(4))]
    terms = [(t, coefficient()) for t in supports[:-2]] + [(supports[-2], c), (supports[-1], -c)]
    return HypergraphGame(make_hypergraph(players, links), weighted_unanimity(players, terms))


class TestComplementFromDividends:
    """Unanimity coefficients give the complement route its φ directly,
    and its table twin takes φ from the 2^n worths: both give the same
    position value, deletions and identities."""

    @pytest.mark.parametrize(
        "game",
        [*DENSE_SHAPES, *map(dividend_game, range(12))],
        ids=[f"dense{k}" for k in range(len(DENSE_SHAPES))] + [f"seed{k}" for k in range(12)],
    )
    def test_the_dividends_equal_the_table_twin(self, game):
        twin = as_table(game)
        assert solutions._plan(game).name == solutions._plan(twin).name == "complement"
        assert values_and_identities(game) == values_and_identities(twin)

    def test_the_price_counts_the_entries_it_makes(self):
        """The route is priced at its disconnected hyperlink sets plus the
        signed entries `_complement_pieces` makes: 2^|T| per unanimity
        term T, or one per player set for the table twin."""
        for game in (*DENSE_SHAPES, dividend_game(0)):
            links = solutions._hyperlink_masks(game)
            apart = len(disconnected_sets(solutions._line_graph(links), 1 << 20))
            coefficients = game.characteristic.unanimity_coefficients()
            if coefficients is not None:
                assert solutions._plan(game).price == apart + sum(1 << len(t) for t in coefficients)
            assert solutions._plan(as_table(game)).price == apart + (1 << len(game.players))

    def test_a_dividend_game_never_reads_every_player_set(self):
        read = []
        worths = solutions.scaled_worths

        def counted_read(cf, players, coalitions):
            read.append(len(coalitions))
            return worths(cf, players, coalitions)

        for game in (DENSE_SHAPES[0], DENSE_SHAPES[2], dividend_game(0)):
            every = (1 << len(game.players)) - 1
            with mock.patch.object(solutions, "scaled_worths", counted_read):
                position_value(game)
                assert read and max(read) < every
                read.clear()
                position_value(as_table(game))
                assert read == [every]
                read.clear()


def random_forest(seed):
    """A seeded unanimity game on a cycle-free hypergraph: 3-9 players,
    1-3 trees grown one hyperlink of 2-4 members at a time (each meets
    its tree in one player), maybe an isolated player, and 1-4 terms on
    any 2-4 players, so some supports span two trees or hold the
    isolated player."""
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    players = list(range(n))
    pool = rng.sample(players, n)
    if n > 3 and rng.random() < 0.5:
        pool.pop()
    trees = [[pool.pop()] for _ in range(rng.randint(1, 3)) if len(pool) > 1]
    links = []
    while pool:
        tree = rng.choice(trees)
        fresh = [pool.pop() for _ in range(min(rng.randint(1, 3), len(pool)))]
        links.append([rng.choice(tree), *fresh])
        tree += fresh
    terms = [
        (rng.sample(players, rng.randint(2, min(4, n))), F(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 4))
    ]
    return HypergraphGame(make_hypergraph(players, links), weighted_unanimity(players, terms))


def star(m):
    """Players 0..m, pair hyperlinks {0, i}, worth 2·u{1,2} - 1/3·u{3,4,5} + u{N}."""
    players = list(range(m + 1))
    cf = weighted_unanimity(players, [([1, 2], 2), ([3, 4, 5], F(-1, 3)), (players, 1)])
    return HypergraphGame(make_hypergraph(players, [[0, i] for i in range(1, m + 1)]), cf)


def values_and_identities(game):
    """Position value, its deletions, Theorems 1 (k = 1, 2) and Lemma 1."""
    return (
        position_value(game),
        position_values_without(game),
        check_uniform_expansion(game, 1),
        check_uniform_expansion(game, 2),
        check_copy_deletions(game),
    )


class TestTheCapBoundsTheChosenRoute:
    """The subset cap bounds what the planned route builds: listings get
    2^c/4 · c/size entries, c = min(size, cap), and only a table is
    refused past the cap."""

    def test_a_thirty_pair_ring_at_the_default_caps(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a 2^m table was built")

        monkeypatch.setattr(solutions, "conference_table", refuse)
        game = ring(30)
        planned = solutions._plan(game)
        assert (planned.name, planned.price) == ("sets", 871)
        assert position_value(game) == value_from_axioms(game)

    @pytest.mark.parametrize("cap, refused", [(12, True), (13, False)])
    def test_the_listing_budget_at_its_boundary(self, cap, refused):
        """871 connected hyperlink sets pass 2^12/4 · 12/30 = 409 but not
        2^13/4 · 13/30 = 887."""
        if refused:
            message = (
                r"^the table of 30 hyperlinks, once no listing fits its limit of 409, needs 2\^30 entries, "
                r"over the 2\^12 that the subset cap 12 admits$"
            )
            with pytest.raises(CapExceeded, match=message):
                position_value(ring(30), cap=cap)
        else:
            assert position_value(ring(30), cap=cap) == position_value(ring(30))

    def test_a_long_ring_is_refused_within_the_bits_budget(self, monkeypatch):
        """ring(2000) has 3,998,001 connected hyperlink sets, under 2^22,
        but each is a 2000-bit mask: the budget 2^22 · 24/2000 = 50,331
        stops the growth long before."""
        grown = []

        def counted(*args):
            for pair in original(*args):
                grown.append(pair)
                yield pair

        original = connectivity._grow
        monkeypatch.setattr(connectivity, "_grow", counted)
        message = (
            r"^the table of 2000 hyperlinks, once no listing fits its limit of 50331, needs 2\^2000 entries, "
            r"over the 2\^24 that the subset cap 24 admits$"
        )
        with pytest.raises(CapExceeded, match=message):
            position_value(ring(2000))
        assert len(grown) == (1 << 22) * 24 // 2000 + 1

    def test_ring3_myerson_at_the_default_cap(self, monkeypatch):
        """u{N} pays 1/30 each.  1 and 4 are joined by the players 1..5 of
        the first two hyperlinks, or by every player but 2 the other way
        round, so 2·u{1,4} restricts to 2·(u{1..5} + u{N-2} - u{N})."""
        def refuse(*_args):
            raise AssertionError("a 2^n table was built")

        monkeypatch.setattr(solutions, "_point_table", refuse)
        game = ring3(15)
        assert solutions._plan(game, point=True).name == "pieces"
        expected = {p: F(2, 5) * (p <= 5) + F(2, 29) * (p != 2) - F(1, 30) for p in game.players}
        assert myerson_value(game) == expected

    def test_star_200_at_the_default_caps(self, monkeypatch):
        """Each term pays c/|T| per member of T (Shapley), c/|B| per
        player on T's Steiner tree B (Myerson), or c/|B| per hyperlink
        of B split between its two members (position)."""
        def refuse(*_args):
            raise AssertionError("a 2^m or 2^n table was built, or a listing made")

        for name in ("conference_table", "_point_table", "shapley_of_table", "connected_sets", "hypergraph_pieces"):
            monkeypatch.setattr(solutions, name, refuse)
        game = star(200)
        leaf = {p: F(1, 201) for p in game.players}
        shapley = {**leaf, **{p: 1 + F(1, 201) for p in (1, 2)}, **{p: F(-1, 9) + F(1, 201) for p in (3, 4, 5)}}
        myerson = {
            **leaf,
            0: F(2, 3) - F(1, 12) + F(1, 201),
            **{p: F(2, 3) + F(1, 201) for p in (1, 2)},
            **{p: F(-1, 12) + F(1, 201) for p in (3, 4, 5)},
        }
        position = {
            **{p: F(1, 400) for p in game.players},
            0: 1 - F(1, 6) + F(1, 2),
            **{p: F(1, 2) + F(1, 400) for p in (1, 2)},
            **{p: F(-1, 18) + F(1, 400) for p in (3, 4, 5)},
        }
        assert shapley_value(game) == shapley
        assert myerson_value(game) == myerson
        assert position_value(game) == position


def joins_itself(game, support):
    """Whether the hyperlinks inside the player set `support` join it."""
    return len(components(support, [e for e in game.hyperlinks if set(e) <= support])) == 1


def grown(rng, links, size):
    """A player set grown from a random hyperlink by hyperlinks meeting
    it, until it has at least `size` players or cannot grow."""
    members = set(rng.choice(links))
    while len(members) < size:
        touching = [e for e in links if members & set(e) and not set(e) <= members]
        if not touching:
            break
        members |= set(rng.choice(touching))
    return sorted(members)


def joined_game(seed):
    """A seeded unanimity game on a cyclic hypergraph whose supports are
    grown along its hyperlinks, so each is joined by its own: a ring of
    4-6 pairs or triples, 0-4 more hyperlinks of 2-4 members, and 1-4
    terms on 2-6 players."""
    rng = random.Random(seed)
    c, r = rng.randint(4, 6), rng.choice((2, 3))
    n = c * (r - 1)
    links = {tuple(sorted((i * (r - 1) + d) % n for d in range(r))) for i in range(c)}
    for _ in range(rng.randint(0, 4)):
        links.add(tuple(sorted(rng.sample(range(n), rng.randint(2, 4)))))
    links = sorted(links)
    terms = [
        (grown(rng, links, rng.randint(2, 6)), F(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 4))
    ]
    return HypergraphGame(make_hypergraph(range(n), links), weighted_unanimity(range(n), terms))


def grown_dense(game, seed):
    """A dense shape's hyperlinks with worth u{N} plus three terms on
    supports grown along them, as the dense benchmark workload draws its
    dividend games."""
    rng = random.Random(seed)
    links = [list(e) for e in game.hyperlinks]
    terms = [(game.players, 1)]
    terms += [(grown(rng, links, rng.randint(2, 5)), F(rng.randint(-9, 9) or 1, 6)) for _ in range(3)]
    return HypergraphGame(game.hypergraph, weighted_unanimity(game.players, terms))


class TestForestRoute:
    def test_seeded_forests_agree_with_every_route(self):
        for seed in range(150):
            game = random_forest(seed)
            assert solutions._plan(game).name == solutions._plan(game, point=True).name == "dividends"
            forest = values_and_identities(game)
            myerson = myerson_value(game)
            assert value_from_axioms(game) == forest[0]
            for name in ROUTES:
                with route(name):
                    assert values_and_identities(game) == forest
                assert myerson_on_route(game, name) == myerson

    def test_the_listing_holds_each_steiner_tree(self):
        """Hyperlinks in order {1,2}, {2,3,5}, {3,4}, {6,7}; player 8 is
        on none.  u{1,3} needs the first two hyperlinks, and so the
        players 1, 2, 3 and 5; u{1,4} needs the first three; u{1,6}
        spans two trees and u{4,8} holds player 8, so both are left out."""
        players = range(1, 9)
        h = make_hypergraph(players, [[1, 2], [2, 3, 5], [3, 4], [6, 7]])
        terms = [([1, 3], F(2, 3)), ([1, 4], -1), ([1, 6], 5), ([4, 8], 7)]
        game = HypergraphGame(h, weighted_unanimity(players, terms))
        for point, trees in ((False, (0b11, 0b111)), (True, (0b10111, 0b11111))):
            planned = solutions._plan(game, point=point)
            assert (planned.name, planned.price) == ("dividends", 2)
            # 2/3 and -1 over the scale 3
            assert planned.build() == (3, [(trees[0], 0, 2), (trees[1], 0, -3)], None)
        assert position_value(game) == position_oracle(game)
        assert myerson_value(game) == shapley_by_subsets(point_game(game))

    def test_cyclic_and_table_games_take_the_route_only_for_the_point_game(self, monkeypatch, hub):
        """Off a forest the conference game never takes the route, and the
        point game takes it exactly when every support is joined by the
        hyperlinks inside it: not u{1, n/2+1} of a ring, u{1,4} of ring3
        or u{0,3} of the dense shapes, which no hyperlink lies inside,
        but u{N} alone on each of them.  Table worths never take it."""
        # a triangle beside a pair passes the sum (4 against 5 covered
        # players) but not the component count
        players = range(5)
        triangle = HypergraphGame(
            make_hypergraph(players, [[0, 1], [1, 2], [0, 2], [3, 4]]), unanimity(players, [0, 1])
        )
        assert solutions._plan(triangle).name != "dividends"
        planned = solutions._plan(triangle, point=True)
        assert (planned.name, planned.price, planned.build()) == ("dividends", 1, (1, [(0b11, 0, 1)], None))

        def refuse(*_args):
            raise AssertionError("the components were computed")

        monkeypatch.setattr(solutions, "mask_components", refuse)
        cyclic = [ring(12), ring3(5), *DENSE_SHAPES[::2]]
        cyclic += [HypergraphGame(game.hypergraph, unanimity(game.players, game.players)) for game in cyclic]
        cyclic += [joined_game(seed) for seed in range(20)]
        tabled = [as_table(hub), as_table(random_forest(0)), *game_corpus(count=50)]
        taken = []
        for game in cyclic + tabled:
            assert solutions._plan(game).name != "dividends"
            coefficients = game.characteristic.unanimity_coefficients()
            joined = coefficients is not None and all(joins_itself(game, t) for t in coefficients)
            taken.append(joined)
            assert (solutions._plan(game, point=True).name == "dividends") == joined
        assert taken == [False] * 4 + [True] * 24 + [False] * len(tabled)

    def test_shapley_from_dividends_matches_the_table(self, monkeypatch):
        games = [random_forest(seed) for seed in range(40)] + [ring(8), DENSE_SHAPES[0]]
        expected = [shapley_value(as_table(game)) for game in games]

        def refuse(*_args):
            raise AssertionError("the 2^n table was summed")

        monkeypatch.setattr(solutions, "shapley_of_table", refuse)
        assert [shapley_value(game) for game in games] == expected

    def test_a_star_past_the_2m_wall_builds_no_table(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a 2^m or 2^n table was built, or a listing made")

        for name in ("conference_table", "_point_table", "shapley_of_table", "connected_sets", "hypergraph_pieces"):
            monkeypatch.setattr(solutions, name, refuse)
        game = star(60)
        everyone = game.worth(game.players)
        for value in (position_value, myerson_value, shapley_value):
            payoffs = value(game, cap=61)
            assert sum(payoffs.values()) == everyone
        # the spokes outside every support are alike, and 1 and 2 are too
        payoffs = position_value(game, cap=61)
        assert len({payoffs[p] for p in range(6, 61)}) == 1 and payoffs[1] == payoffs[2]


class TestDividendsRoute:
    """Off a forest, the point game of a unanimity game whose every
    support T is joined by the hyperlinks inside T pays c_T/|T| to each
    member of T, as the Shapley value does (Owen 1986)."""

    def test_seeded_cyclic_games_agree_with_every_route(self):
        for seed in range(60):
            game = joined_game(seed)
            coefficients = game.characteristic.unanimity_coefficients()
            planned = solutions._plan(game, point=True)
            assert (planned.name, planned.price) == ("dividends", len(coefficients))
            bit = {p: 1 << k for k, p in enumerate(game.players)}
            scale = lcm(*(c.denominator for c in coefficients.values()))
            terms = [(sum(bit[p] for p in t), int(c * scale)) for t, c in coefficients.items()]
            assert planned.build() == (scale, solutions._dividend_pieces(terms), None)
            myerson = myerson_value(game)
            assert myerson == shapley_value(game)
            for name in ROUTES:
                assert myerson_on_route(game, name) == myerson
            if seed < 15:
                assert myerson == shapley_by_subsets(point_game(game))

    def test_a_support_its_own_hyperlinks_do_not_join_falls_through(self):
        """On the 4-cycle 0-1-2-3-0 no hyperlink lies inside {0, 2}: its
        point game pays S ⊇ {0, 2} holding 1 or 3, so one such term sends
        the whole game on to the other routes (here the table, 2^4/4 being
        too few sets to list), beside a term on {0, 1} too."""
        players = range(4)
        h = make_hypergraph(players, [[0, 1], [1, 2], [2, 3], [3, 0]])
        for terms in ([([0, 2], 1)], [([0, 2], F(3, 2)), ([0, 1], -2)]):
            game = HypergraphGame(h, weighted_unanimity(players, terms))
            assert solutions._plan(game, point=True).name == "table"
            assert myerson_value(game) == myerson_on_route(game, "pieces") == shapley_by_subsets(point_game(game))
        expected = {0: F(5, 12), 1: F(1, 12), 2: F(5, 12), 3: F(1, 12)}
        assert myerson_value(HypergraphGame(h, unanimity(players, [0, 2]))) == expected

    def test_a_dense_dividend_game_builds_no_table_and_lists_no_set(self, monkeypatch):
        """The dense shapes' own u{0,3} has no hyperlink inside it, so
        each takes worth grown along its hyperlinks, as the dense
        benchmark workload does, and then pays from the dividends."""
        expected = [myerson_on_route(grown_dense(game, seed), "table") for seed, game in enumerate(DENSE_SHAPES)]

        def refuse(*_args):
            raise AssertionError("a 2^n table was built, or a listing made")

        for name in ("_point_table", "connected_sets", "hypergraph_pieces"):
            monkeypatch.setattr(solutions, name, refuse)
        for seed, game in enumerate(DENSE_SHAPES):
            game = grown_dense(game, seed)
            assert solutions._plan(game, point=True).name == "dividends"
            assert myerson_value(game) == expected[seed] == shapley_value(game)


def table_star(m):
    """Players 0..m, pair hyperlinks {0, i}, table worth (i mod 3 + 1)/2
    on each spoke {0, i} and -1/3 on {0, i, i + 1} for odd i."""
    players = list(range(m + 1))
    entries = {frozenset({0, i}): F(i % 3 + 1, 2) for i in players[1:]}
    entries.update({frozenset({0, i, i + 1}): F(-1, 3) for i in players[1:m:2]})
    return HypergraphGame(make_hypergraph(players, [[0, i] for i in players[1:]]), table_function(players, entries))


class TestSupportRoute:
    """Table worths read from their entries: each nonzero entry C lists
    the pieces of C alone."""

    @given(hypergraph_games(max_players=6, max_links=6))
    def test_table_games_agree_with_the_table_route(self, game):
        assume(game.hyperlinks)
        with route("table"):
            expected = values_and_identities(game), myerson_value(game)
        with route("support"):
            assert (values_and_identities(game), myerson_value(game)) == expected

    def test_a_disconnected_or_uncovered_entry_lists_nothing(self):
        """A triangle on 0, 1, 2 and the pair {3, 4}: both player sets
        below have k = 0, the first in two parts and the second with
        player 5 on no hyperlink.  The triangle alone has k = 1: every
        two of its hyperlinks connect it, so it lists 1 + 3 sets at the
        price C(3, 0) + C(3, 1) = 4, and one piece in the point game."""
        players = range(6)
        h = make_hypergraph(players, [[0, 1], [1, 2], [0, 2], [3, 4]])

        def support(entry, point, limit):
            coalition = frozenset(k for k in players if entry >> k & 1)
            game = HypergraphGame(h, table_function(players, {coalition: 1}))
            return solutions._support(game, solutions._hyperlink_masks(game), point, limit)

        for point in (False, True):
            for entry in (0b11111, 0b100111):
                listed = support(entry, point, 1 << 10)
                scale, pieces, table = listed.build()
                assert (listed.name, listed.price, scale, list(pieces), table) == ("support", 0, 1, [], None)
        assert support(0b111, False, 3) is None
        listed = support(0b111, False, 4)
        assert listed.price == 4
        assert sorted(listed.build()[1]) == [(0b011, 0b100, 1), (0b101, 0b010, 1), (0b110, 0b001, 1), (0b111, 0, 1)]
        listed = support(0b111, True, 4)
        scale, pieces, table = listed.build()
        assert (listed.price, scale, list(pieces), table) == (1, 1, [(0b111, 0, 1)], None)

    def test_k10_pairs_are_priced_out_before_any_spanning_set(self, monkeypatch):
        """30 pairs inside K10 with table worth on N: removing any k = 21
        of N's 30 pairs may leave it connected, and Σ_{i<=21} C(30, i) is
        past both limits, so no hyperlink set is tried."""
        def refuse(*_args):
            raise AssertionError("a spanning set was built")

        priced = []
        support = solutions._support

        def spied(*args):
            priced.append(support(*args))
            return priced[-1]

        monkeypatch.setattr(solutions, "_spanning", refuse)
        monkeypatch.setattr(solutions, "_joins", refuse)
        monkeypatch.setattr(solutions, "_support", spied)
        few = range(10)
        pairs = list(itertools.combinations(few, 2))[:30]
        dense = HypergraphGame(make_hypergraph(few, pairs), table_function(few, {frozenset(few): 1}))
        for cap, limit in ((24, 3355443), (16, 8738)):
            message = (
                rf"^the table of 30 hyperlinks, once no listing fits its limit of {limit}, needs 2\^30 entries, "
                rf"over the 2\^{cap} that the subset cap {cap} admits$"
            )
            with pytest.raises(CapExceeded, match=message):
                position_value(dense, cap=cap)
        assert priced == [None, None]

    def test_a_small_star_matches_the_oracle(self):
        game = table_star(8)
        assert solutions._plan(game).name == solutions._plan(game, point=True).name == "support"
        assert_matches_the_oracle(game)

    def test_a_star_past_the_2m_wall_builds_no_table(self, monkeypatch):
        """30 spokes: every hyperlink set is connected, so only the
        entries' 45 pieces are listed, for every value and identity."""
        def refuse(*_args):
            raise AssertionError("a 2^m or 2^n table was built, or a listing made")

        for name in ("conference_table", "_point_table", "shapley_of_table", "connected_sets", "hypergraph_pieces"):
            monkeypatch.setattr(solutions, name, refuse)
        game = table_star(30)
        assert [solutions._plan(game, point=point).price for point in (False, True)] == [45, 45]
        # no entry holds every player, so the payoffs sum to v(N) = 0
        for value in (position_value, myerson_value, shapley_value):
            assert sum(value(game).values()) == 0
        assert all(report.passed for report in check_copy_deletions(game).values())
        assert check_uniform_expansion(game, 1).passed
