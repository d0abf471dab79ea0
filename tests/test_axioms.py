from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import hypercoop.axioms
from hypercoop.axioms import (
    check_balanced_conference_contributions,
    check_balanced_link_contributions,
    check_component_efficiency,
    check_copy_deletion,
    check_partial_balanced_conference_contributions,
    value_from_axioms,
)
from hypercoop.cli import parse_game
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
from hypercoop.solutions import myerson_value, position_value

from oracles import build_uniform, position_by_dividends, value_from_axioms_by_masks
from strategies import hypergraph_games, unanimity_combination_games
from test_solutions import ring

F = Fraction


def equal_split(game):
    """Deliberately broken rule: splits the grand worth over everybody."""
    share = game.worth(frozenset(game.players)) / len(game.players)
    return {p: share for p in game.players}


class TestContributionChecks:
    def test_balanced_link_needs_two_member_links(self, hub):
        with pytest.raises(ValueError, match="2-member"):
            check_balanced_link_contributions(position_value, hub)

    def test_position_fails_unweighted_on_the_hub(self, hub):
        report = check_balanced_conference_contributions(position_value, hub)
        side = report.sides[(1, 6)]
        assert (side.left, side.right) == (F(1, 4), F(5, 24))
        assert not report.passed
        assert side.residual == F(1, 24)

    def test_position_passes_partial_on_the_hub(self, hub):
        report = check_partial_balanced_conference_contributions(position_value, hub)
        side = report.sides[(6, 1)]
        assert side.left == side.right == F(5, 48)
        assert report.passed
        assert not report.failures()

    def test_myerson_residuals_on_the_hub(self, hub):
        partial = check_partial_balanced_conference_contributions(myerson_value, hub)
        assert partial.residual(1, 6) == F(1, 18)
        assert not partial.passed
        unweighted = check_balanced_conference_contributions(myerson_value, hub)
        assert unweighted.residual(1, 6) == F(1, 6)

    def test_myerson_fails_balanced_links_on_the_path(self, path3):
        report = check_balanced_link_contributions(myerson_value, path3)
        assert report.residual(1, 2) == F(1, 3)
        assert not report.passed

    def test_position_passes_balanced_links_on_the_path(self, path3):
        assert check_balanced_link_contributions(position_value, path3).passed


@given(hypergraph_games(max_players=4, max_links=3, max_link_size=3))
def test_reports_are_antisymmetric_with_zero_diagonal(game):
    for checker in (
        check_balanced_conference_contributions,
        check_partial_balanced_conference_contributions,
    ):
        report = checker(position_value, game)
        for i in game.players:
            assert report.residual(i, i) == 0
            for j in game.players:
                assert report.residual(i, j) == -report.residual(j, i)


class TestComponentEfficiency:
    def test_both_values_pass_on_the_hub(self, hub):
        assert check_component_efficiency(position_value, hub).passed
        assert check_component_efficiency(myerson_value, hub).passed

    def test_equal_split_fails_across_components(self):
        h = make_hypergraph([1, 2, 3, 4], [[1, 2], [3, 4]])
        game = HypergraphGame(h, table_function([1, 2, 3, 4], {frozenset({1, 2}): 1}))
        report = check_component_efficiency(equal_split, game)
        assert not report.passed
        side = report.sides[frozenset({1, 2})]
        # the grand worth is 0 under the table, so equal split hands out 0
        assert (side.left, side.right) == (F(0), F(1))


class TestPositionByDividends:
    def test_agrees_on_the_path(self, path3):
        assert position_by_dividends(path3) == position_value(path3)

    def test_respects_the_universe_cap(self, hub):
        with pytest.raises(CapExceeded):
            position_by_dividends(hub)  # 24 copies > the 16-copy default

    def test_no_links_gives_zero(self):
        game = HypergraphGame(make_hypergraph([1, 2]), table_function([1, 2], {}))
        assert position_by_dividends(game) == {1: 0, 2: 0}

    def test_hub_via_its_unanimity_structure(self, hub):
        # The hub's expanded game is exactly the unanimity game on all 24
        # copies: the conference game is worth 1 on the full hyperlink set
        # and 0 on every proper subset (checked exhaustively), and an
        # expanded coalition's worth only reads its complete blocks.
        from oracles import TUGame, conference_worth, shapley_by_dividends
        from hypercoop.model import unanimity as make_unanimity

        links = hub.hyperlinks
        for mask in range(1 << len(links)):
            active = [e for j, e in enumerate(links) if mask >> j & 1]
            expected = 1 if mask == (1 << len(links)) - 1 else 0
            assert conference_worth(hub, active) == expected
        exp = build_uniform(hub, 1)
        stand_in = TUGame.from_characteristic(
            make_unanimity(exp.universe, exp.universe)
        )
        per_copy = shapley_by_dividends(stand_in)
        assert set(per_copy.values()) == {F(1, 24)}
        grouped = {p: F(0) for p in hub.players}
        for ep, value in per_copy.items():
            grouped[ep.origin] += value
        assert grouped == position_value(hub)


@given(hypergraph_games(max_players=4, max_links=3, max_link_size=3))
def test_dividend_route_matches_the_position_value(game):
    exp = build_uniform(game, 1)
    assume(len(exp.universe) <= 16)
    assert position_by_dividends(game) == position_value(game)


class TestCopyDeletion:
    def test_validates_the_link(self, hub):
        with pytest.raises(ValueError, match="no hyperlink"):
            check_copy_deletion(hub, [1, 2])

    def test_every_copy_of_every_hub_link(self, hub):
        # the short block's copies earn 0 whichever member held the
        # removed copy, so one check per hyperlink covers every copy
        for e in hub.hyperlinks:
            report = check_copy_deletion(hub, e)
            assert report.passed
            grouped = {i: side.left for i, side in report.sides.items()}
            assert grouped == position_value(hub.without_hyperlink(e))

    def test_report_residual(self, path3):
        report = check_copy_deletion(path3, [1, 2])
        assert report.passed
        assert all(report.residual(i) == 0 for i in path3.players)


class TestValueFromAxioms:
    def test_hub(self, hub):
        assert value_from_axioms(hub) == position_value(hub)

    def test_recursion_cap(self):
        players = list(range(1, 7))
        links = [[1, p] for p in range(2, 7)] + [[2, p] for p in range(3, 7)] + [
            [3, p] for p in range(4, 7)
        ]
        assert len(links) == 12
        game = HypergraphGame(
            make_hypergraph(players, links), table_function(players, {})
        )
        with pytest.raises(CapExceeded, match="recursion cap"):
            value_from_axioms(game, cap=11)

    def test_the_cap_error_names_the_limit(self):
        """The 12 pair hyperlinks above form 3,798 connected sets: refused
        at cap 11 (at most 2,047), admitted at cap 12 (at most 4,095)."""
        players = list(range(1, 7))
        links = [[i, p] for i in (1, 2, 3) for p in range(i + 1, 7)]
        game = HypergraphGame(make_hypergraph(players, links), unanimity(players, [1, 4, 6]))
        message = (
            "^12 hyperlinks form more than 2047 connected hyperlink sets: "
            r"the recursion cap 11 admits at most 2\^11 - 1$"
        )
        with pytest.raises(CapExceeded, match=message):
            value_from_axioms(game, cap=11)
        assert value_from_axioms(game) == position_value(game)

    def test_the_cap_counts_connected_sets_not_hyperlinks(self):
        # a 4-ring has 4·3 + 1 = 13 connected hyperlink sets; a 13-ring
        # has 157, far below the 4,095 that cap 12 admits
        with pytest.raises(CapExceeded, match="^4 hyperlinks form more than 7 "):
            value_from_axioms(ring(4), cap=3)
        assert value_from_axioms(ring(4), cap=4) == position_value(ring(4))
        assert value_from_axioms(ring(13)) == position_value(ring(13))

    @pytest.mark.parametrize("n", [20, 24])
    def test_rings_past_the_mask_rows(self, n):
        assert value_from_axioms(ring(n)) == position_value(ring(n))

    def test_single_player(self):
        game = HypergraphGame(make_hypergraph([1]), table_function([1], {}))
        assert value_from_axioms(game) == {1: 0}

    def test_no_links(self):
        game = HypergraphGame(
            make_hypergraph([1, 2]), table_function([1, 2], {frozenset({1, 2}): 5})
        )
        assert value_from_axioms(game) == {1: 0, 2: 0}

    def test_custom_characteristic(self):
        """A characteristic without a table or unanimity form is read
        through its worth function."""

        @dataclass(frozen=True)
        class Pairs(CharacteristicFunction):
            def _worth(self, coalition):
                bonus = F(3, 2) if {1, 4} <= coalition else 0
                return F(len(coalition) * (len(coalition) - 1), 2) + bonus

        players = [1, 2, 3, 4]
        game = HypergraphGame(
            make_hypergraph(players, [[1, 2, 3], [3, 4]]), Pairs(frozenset(players))
        )
        assert value_from_axioms(game) == position_value(game)

    def test_a_too_small_denominator_is_an_error_not_a_rounding(self, hub, monkeypatch):
        monkeypatch.setattr(hypercoop.axioms, "factorial", lambda n: 1)
        with pytest.raises(ArithmeticError, match="^axioms unsolvable over 1/6 at mask 0b"):
            value_from_axioms(hub)


def ring3(c):
    """2c players, hyperlinks {2i+1, 2i+2, 2i+3 mod 2c}, worth u{N} + 2·u{1,4}."""
    players = list(range(1, 2 * c + 1))
    links = [[2 * i + 1, 2 * i + 2, (2 * i + 2) % (2 * c) + 1] for i in range(c)]
    cf = weighted_unanimity(players, [(players, 1), ([1, 4], 2)])
    return HypergraphGame(make_hypergraph(players, links), cf)


GAMES = sorted((Path(__file__).resolve().parent.parent / "games").glob("*.json"))


class TestConnectedSetRowsMatchTheMaskRows:
    def test_the_corpus(self):
        for game in game_corpus():
            assert value_from_axioms(game) == value_from_axioms_by_masks(game)

    @pytest.mark.parametrize("path", GAMES, ids=lambda p: p.name)
    def test_sample_games(self, path):
        game = parse_game(path.read_text(encoding="utf-8"))
        assert value_from_axioms(game) == value_from_axioms_by_masks(game)

    def test_ring3_and_the_hub(self, hub):
        for game in (ring3(5), hub):
            assert value_from_axioms(game) == value_from_axioms_by_masks(game)


@given(
    st.one_of(
        hypergraph_games(max_players=5, max_links=4, max_link_size=3),
        unanimity_combination_games(max_players=5, max_links=4, max_link_size=3),
    )
)
def test_axiomatic_reconstruction_matches_the_position_value(game):
    assert value_from_axioms(game) == value_from_axioms_by_masks(game)
    assert value_from_axioms(game) == position_value(game)
    assert check_component_efficiency(value_from_axioms, game).passed
    assert check_partial_balanced_conference_contributions(value_from_axioms, game).passed
