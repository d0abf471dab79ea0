import itertools
import json
from argparse import Namespace
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import hypercoop.axioms
import hypercoop.connectivity
from hypercoop import solutions
from hypercoop.axioms import (
    Report,
    Side,
    check_agent_form,
    check_balanced_conference_contributions,
    check_balanced_link_contributions,
    check_component_efficiency,
    check_copy_deletions,
    check_partial_balanced_conference_contributions,
    check_uniform_expansion,
    value_from_axioms,
)
from hypercoop.cli import _rule_for, game_to_document, main, parse_game
from hypercoop.connectivity import components
from hypercoop.corpus import game_corpus
from hypercoop.expansion import agent_form_payoffs, expansion_payoffs, grouped_agent_form, grouped_position
from hypercoop.model import (
    CharacteristicFunction,
    HypergraphGame,
    make_hypergraph,
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
    OracleCapExceeded,
    build_uniform,
    check_copy_deletion,
    compare,
    pair_report_by_rule_calls,
    position_by_dividends,
    value_from_axioms_by_masks,
)
from strategies import hypergraph_games, unanimity_combination_games
from test_solutions import GAMES, ROUTES, ring, ring3, route

F = Fraction
# what one conference pass runs, per route: one plan, whose listing
# serves every sum, or one plan and one table
STRUCTURES = {
    "table": ["_plan", "conference_table"],
    "pieces": ["_plan"],
    "complement": ["_plan"],
    "support": ["_plan"],
}


def ladder(k):
    """The 2×k grid: players 0..2k-1 in rows 0..k-1 and k..2k-1, pair
    hyperlinks along each row and across, worth 3/2·u{0, 2k-1} + u{N}."""
    players = list(range(2 * k))
    links = [[i, i + 1] for row in (0, k) for i in range(row, row + k - 1)]
    links += [[i, k + i] for i in range(k)]
    cf = weighted_unanimity(players, [([0, 2 * k - 1], F(3, 2)), (players, 1)])
    return HypergraphGame(make_hypergraph(players, links), cf)


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
        with pytest.raises(OracleCapExceeded, match="dividend cap"):
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
            expansion_payoffs(hub, 1, removed=[1, 2])

    def test_every_copy_of_every_hub_link(self, hub):
        # the short block's copies earn 0 whichever member held the
        # removed copy, so one check per hyperlink covers every copy
        reports = check_copy_deletions(hub)
        for e in hub.hyperlinks:
            report = reports[e]
            assert report.passed
            grouped = {i: side.left for i, side in report.sides.items()}
            assert grouped == position_value(hub.without_hyperlink(e))

    def test_report_residual(self, path3):
        report = check_copy_deletions(path3)[frozenset({1, 2})]
        assert report.passed
        assert all(report.residual(i) == 0 for i in path3.players)

    @pytest.mark.parametrize("name", ROUTES)
    def test_every_hyperlink_at_once_matches_one_at_a_time(self, hub, name):
        with route(name):
            for game in (hub, ring(6), *game_corpus(count=40)):
                reports = check_copy_deletions(game)
                assert list(reports) == list(game.hyperlinks)
                for e, report in reports.items():
                    assert report.passed
                    assert report == check_copy_deletion(game, e)

    @staticmethod
    def eighteen_triples():
        """18 three-member hyperlinks on 7 players."""
        players = range(1, 8)
        links = list(itertools.combinations(players, 3))[:18]
        cf = weighted_unanimity(players, [(players, 1), ([1, 4], F(2, 3))])
        return HypergraphGame(make_hypergraph(players, links), cf)

    def test_every_hyperlink_at_once_builds_one_conference_table(self):
        """On the table route the table is built once, and each
        hyperlink's masks without it are taken once for both sides of
        Lemma 1."""
        game = self.eighteen_triples()
        built, dropped = [], []
        build, drop = solutions.conference_table, solutions._without_bit

        def counted(game):
            built.append(game)
            return build(game)

        def counted_drop(table, j):
            dropped.append(j)
            return drop(table, j)

        with route("table"), mock.patch.object(
            solutions, "conference_table", counted
        ), mock.patch.object(solutions, "_without_bit", counted_drop):
            reports = check_copy_deletions(game)
        assert len(built) == 1
        assert dropped == list(range(18))
        assert all(report.passed for report in reports.values())

    def test_every_hyperlink_at_once_lists_the_disconnected_sets_once(self):
        """2^7 player sets against 2^18/4: the route rule picks the
        complement route, whose disconnected hyperlink sets are listed
        once and whose worths are read once for all 19 solves (the whole
        game and each deletion) of both sides.  The worths are unanimity
        coefficients, so the one read asks for the singletons and the
        covers of the disconnected sets and of their parts: 27 player
        sets, not the 2^7 - 1 a table would need."""
        game = self.eighteen_triples()
        listed, read = [], []
        apart, worths = solutions.disconnected_sets, solutions.scaled_worths

        def counted(adjacency, limit):
            listed.append(limit)
            return apart(adjacency, limit)

        def counted_read(cf, players, coalitions):
            read.append(len(coalitions))
            return worths(cf, players, coalitions)

        def refuse(*_args):
            raise AssertionError("connected sets were grown or the conference table was built")

        with mock.patch.object(solutions, "disconnected_sets", counted), mock.patch.object(
            solutions, "scaled_worths", counted_read
        ), mock.patch.object(solutions, "connected_sets", refuse), mock.patch.object(
            solutions, "conference_table", refuse
        ):
            reports = check_copy_deletions(game)
        assert listed == [1 << 16]
        assert read == [27]
        assert all(report.passed for report in reports.values())


class TestGroupedIdentities:
    """Theorems 1 and 2, both sides from one pass."""

    @pytest.mark.parametrize("name", ROUTES)
    def test_each_side_as_computed_alone(self, hub, name):
        with route(name):
            for game in (hub, ring(6), ring3(3), *game_corpus(count=40)):
                if not game.hyperlinks:
                    continue
                position = position_value(game)
                for k in (1, 2):
                    label = f"grouped Shapley payoffs of the {k}-fold uniform expansion"
                    expected = compare(label, grouped_position(game, k), position)
                    assert check_uniform_expansion(game, k) == expected
                    assert expected.passed

    @pytest.mark.parametrize("name", ROUTES)
    def test_one_listing_or_one_table(self, name):
        built = []

        def spy(attribute):
            function = getattr(solutions, attribute)

            def wrapped(*args, **kwargs):
                built.append(attribute)
                return function(*args, **kwargs)

            return mock.patch.object(solutions, attribute, wrapped)

        with route(name), spy("_plan"), spy("conference_table"):
            for check in (check_uniform_expansion, check_copy_deletions):
                built.clear()
                check(ring3(3))
                assert built == STRUCTURES[name]

    def test_corollary_1_reports_as_the_two_allocations_compare(self, hub):
        """`check_agent_form` reads the position value as an integer row
        and reports, player by player and in player order, what comparing
        the two allocations reports; Corollary 1 holds on every game."""
        label = "grouped Myerson payoffs of the agent form"
        for game in (hub, ring(6), ring3(3), *game_corpus(count=40)):
            if not game.hyperlinks:
                continue
            report = check_agent_form(game)
            assert report == compare(label, grouped_agent_form(game), position_value(game))
            assert list(report.pairs) == list(game.players)
            assert report.passed

    def test_the_agent_form_needs_a_hyperlink(self):
        game = HypergraphGame(make_hypergraph([1, 2]), table_function([1, 2], {}))
        with pytest.raises(ValueError, match="^agent form requires at least one hyperlink$"):
            agent_form_payoffs(game)
        with pytest.raises(ValueError, match="^uniform expansion requires at least one hyperlink$"):
            check_uniform_expansion(game)
        with pytest.raises(ValueError, match="^uniform expansion requires at least one hyperlink$"):
            check_agent_form(game)


class TestValueFromAxioms:
    def test_hub(self, hub):
        assert value_from_axioms(hub) == position_value(hub)

    def test_the_subset_cap_bounds_the_reconstruction(self):
        players = list(range(1, 7))
        links = [[1, p] for p in range(2, 7)] + [[2, p] for p in range(3, 7)] + [
            [3, p] for p in range(4, 7)
        ]
        assert len(links) == 12
        game = HypergraphGame(
            make_hypergraph(players, links), table_function(players, {})
        )
        message = (
            r"^the axiomatic reconstruction of 12 hyperlinks on 6 players needs at least 262152 entries, "
            r"over the 2\^18 that the subset cap 18 admits$"
        )
        with pytest.raises(CapExceeded, match=message):
            value_from_axioms(game, cap=18)

    def test_the_cap_error_names_the_limit(self):
        """The 12 pair hyperlinks above form 3,798 connected sets, so
        3,798·12·6 = 273,456 row entries: refused at cap 18, where 2^18
        admits at most 3,640 sets and the refusal names the bound the
        listing passed, 3,641·12·6 = 262,152 entries; admitted at cap 19."""
        players = list(range(1, 7))
        links = [[i, p] for i in (1, 2, 3) for p in range(i + 1, 7)]
        game = HypergraphGame(make_hypergraph(players, links), unanimity(players, [1, 4, 6]))
        message = (
            r"^the axiomatic reconstruction of 12 hyperlinks on 6 players needs at least 262152 entries, "
            r"over the 2\^18 that the subset cap 18 admits$"
        )
        with pytest.raises(CapExceeded, match=message):
            value_from_axioms(game, cap=18)
        assert value_from_axioms(game, cap=19) == value_from_axioms(game) == position_value(game)

    def test_the_cap_counts_row_entries(self):
        # a 4-ring has 4·3 + 1 = 13 connected hyperlink sets of 4 hyperlinks
        # on 4 players, 208 row entries; a 13-ring has 157·13·13 = 26,533,
        # far below the 2^24 of the default cap
        message = (
            r"^the axiomatic reconstruction of 4 hyperlinks on 4 players needs at least 144 entries, "
            r"over the 2\^7 that the subset cap 7 admits$"
        )
        with pytest.raises(CapExceeded, match=message):
            value_from_axioms(ring(4), cap=7)
        assert value_from_axioms(ring(4), cap=8) == position_value(ring(4))
        assert value_from_axioms(ring(13)) == position_value(ring(13))

    @pytest.mark.parametrize(
        "links",
        [
            [[1, 2, 3, 4]],  # 1 set · 1 · 4 = 2^2 entries
            [[1, 2], [3, 4]],  # 2 sets · 2 · 4 = 2^4
            [[1, 2], [2, 3]],  # 3 sets · 2 · 3 = 18
            [[1, 4], [2, 5], [3, 6], [4, 5, 6]],  # the hub: 11 sets · 4 · 6 = 264
            [[1, 2], [2, 3], [3, 4], [4, 1]],  # the 4-ring: 208
        ],
    )
    def test_refused_exactly_past_2_to_the_cap_entries(self, links):
        """value_from_axioms refuses exactly when L·m·n > 2^cap, L the
        connected hyperlink sets, counted here by brute force."""
        players = sorted({p for e in links for p in e})
        game = HypergraphGame(make_hypergraph(players, links), unanimity(players, players))
        connected = sum(
            len(components(set().union(*chosen), chosen)) == 1
            for r in range(1, len(links) + 1)
            for chosen in itertools.combinations(map(frozenset, links), r)
        )
        entries = connected * len(links) * len(players)
        for cap in range(1, entries.bit_length() + 2):
            if entries > 1 << cap:
                with pytest.raises(CapExceeded):
                    value_from_axioms(game, cap=cap)
            else:
                assert value_from_axioms(game, cap=cap) == position_value(game)

    def test_the_2x6_ladder_answers_at_the_default_cap(self):
        """16 pair hyperlinks on 12 players form 11,293 connected sets,
        more than 2^12 - 1, in 2,168,256 row entries, fewer than 2^24."""
        game = ladder(6)
        assert value_from_axioms(game) == position_value(game)

    def test_wide_hyperlinks_are_refused_before_any_row_is_solved(self, monkeypatch):
        """12 hyperlinks of player 0 and 100 private players each: 4,095
        connected sets on 1,201 players pass 2^24 entries by the listing's
        own lower bound, before any set is grown or worth read."""
        def refuse(*_args):
            raise AssertionError("a connected set was grown or a worth read")

        monkeypatch.setattr(hypercoop.connectivity, "_grow", refuse)
        monkeypatch.setattr(hypercoop.axioms, "_read_worths", refuse)
        players = list(range(1201))
        links = [[0, *range(1 + 100 * j, 101 + 100 * j)] for j in range(12)]
        game = HypergraphGame(make_hypergraph(players, links), unanimity(players, [0, 1]))
        message = (
            r"^the axiomatic reconstruction of 12 hyperlinks on 1201 players needs at least 16789980 entries, "
            r"over the 2\^24 that the subset cap 24 admits$"
        )
        with pytest.raises(CapExceeded, match=message):
            value_from_axioms(game)

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


def cli_rule(name):
    return _rule_for(Namespace(rule=name, cap_subsets=DEFAULT_SUBSET_CAP))


def doubled_position(game):
    return {p: 2 * x for p, x in position_value(game).items()}


PAIR_CHECKS = [
    (check_balanced_link_contributions, "balanced link contributions", lambda e: F(1)),
    (check_balanced_conference_contributions, "balanced conference contributions", lambda e: F(1)),
    (
        check_partial_balanced_conference_contributions,
        "partial balanced conference contributions",
        lambda e: F(1, len(e)),
    ),
]
RULES = [cli_rule("position"), position_value, myerson_value, shapley_value, doubled_position]


def assert_pair_reports_match_the_oracle(game):
    """Every rule under every pair axiom that applies: the same sides in
    the same key order as one rule call per deletion and Fraction gains."""
    two_member = all(len(e) == 2 for e in game.hyperlinks)
    for check, axiom, weight_of in PAIR_CHECKS[0 if two_member else 1:]:
        for rule in RULES:
            report = check(rule, game)
            expected = pair_report_by_rule_calls(rule, game, axiom, weight_of)
            assert report.axiom == expected.axiom
            assert list(report.sides) == list(expected.sides)
            assert report.sides == expected.sides


class TestPairReportsMatchTheRuleCalls:
    def test_the_cli_rule_carries_the_pass_for_position_only(self):
        assert cli_rule("position").rows.func is solutions._rows
        assert not hasattr(cli_rule("myerson"), "rows")
        assert not hasattr(cli_rule("shapley"), "rows")

    def test_the_pass_replaces_every_rule_call(self, hub):
        calls, passes = [], []

        def counted(game):
            calls.append(game)
            return position_value(game)

        def one_pass(game):
            passes.append(game)
            return solutions._rows(game, DEFAULT_SUBSET_CAP)

        counted.rows = one_pass
        assert check_partial_balanced_conference_contributions(counted, hub).passed
        assert calls == [] and passes == [hub]

    def test_the_pass_gives_the_rule_and_its_deletions(self, hub):
        for game in (hub, ring(6), ring3(3)):
            for name in ROUTES:
                with route(name):
                    rows = solutions._rows(game, DEFAULT_SUBSET_CAP)
                    expected = position_values_without(game)
                    [(row, unit)] = rows()
                    assert {p: F(x, unit) for p, x in zip(game.players, row)} == position_value(game)
                    for j, e in enumerate(game.hyperlinks):
                        [(numerators, unit)] = rows(j)
                        assert {p: F(x, unit) for p, x in zip(game.players, numerators)} == expected[e]

    def test_a_passing_check_builds_no_side_and_no_pair_fraction(self, tmp_path, capsys):
        """ring(10) has 100 ordered pairs; only the hyperlinks' weights 1/|e|
        are Fractions in the axiom layer."""
        path = tmp_path / "ring10.json"
        path.write_text(json.dumps(game_to_document(ring(10))), encoding="utf-8")
        with mock.patch.object(hypercoop.axioms, "Side", wraps=Side) as sides, mock.patch.object(
            hypercoop.axioms, "Fraction", wraps=Fraction
        ) as fractions:
            assert main(["check", str(path), "--axiom", "partial-balanced"]) == 0
        assert "all 100 ordered pairs balance" in capsys.readouterr().out
        assert sides.call_count == 0
        assert fractions.call_count <= 10

    @pytest.mark.parametrize("name", ROUTES)
    def test_each_check_builds_the_structure_once(self, name):
        """One plan, and one conference table on the table route, per pair
        check of the command line's position rule."""
        built = []

        def spy(attribute):
            function = getattr(solutions, attribute)

            def wrapped(*args, **kwargs):
                built.append(attribute)
                return function(*args, **kwargs)

            return mock.patch.object(solutions, attribute, wrapped)

        with route(name), spy("_plan"), spy("conference_table"):
            for check in (
                check_partial_balanced_conference_contributions,
                check_balanced_conference_contributions,
            ):
                built.clear()
                check(cli_rule("position"), ring3(3))
                assert built == STRUCTURES[name]

    def test_the_corpus(self):
        for game in game_corpus(count=200):
            assert_pair_reports_match_the_oracle(game)

    @pytest.mark.parametrize("path", GAMES, ids=lambda p: p.name)
    def test_sample_games(self, path):
        assert_pair_reports_match_the_oracle(parse_game(path.read_text(encoding="utf-8")))

    def test_the_hub_path_and_rings(self, hub, path3):
        for game in (hub, path3, ring(6), ring(12), ring3(3)):
            assert_pair_reports_match_the_oracle(game)

    @given(hypergraph_games(max_players=4, max_links=4, max_link_size=3))
    def test_table_games_on_both_routes(self, game):
        for name in ROUTES:
            with route(name):
                assert_pair_reports_match_the_oracle(game)


class TestReport:
    def test_failures_and_passed(self):
        report = Report("x", {1: (1, 1), 2: (3, 2), 3: (0, 0)}, 6)
        assert report.failures() == {2: Side(F(1, 2), F(1, 3))}
        assert not report.passed
        assert report.residual(2) == F(1, 6)
        assert Report("x", {1: (2, 2)}).passed

    def test_sides_are_built_over_the_denominator(self):
        report = Report("x", {(1, 2): (3, 3), (2, 1): (4, 2)}, 6)
        assert len(report) == 2
        assert report.sides == {(1, 2): Side(F(1, 2), F(1, 2)), (2, 1): Side(F(2, 3), F(1, 3))}
        assert list(report.sides) == [(1, 2), (2, 1)]
        assert report.residual(2, 1) == F(1, 3)
        assert report.residual(1, 2) == 0

    def test_failures_are_in_lowest_terms(self):
        side = Report("x", {1: (4, 2)}, 12).failures()[1]
        assert (side.left.numerator, side.left.denominator) == (1, 3)
        assert (side.right.numerator, side.right.denominator) == (1, 6)
        assert side.residual == F(1, 6)

    def test_equal_sides_over_different_denominators_are_equal(self):
        assert Report("x", {1: (1, 2), 2: (0, 0)}, 4) == Report("x", {1: (2, 4), 2: (0, 0)}, 8)
        assert Report("x", {1: (1, 2)}, 4) != Report("y", {1: (1, 2)}, 4)
        assert Report("x", {1: (1, 2)}, 4) != Report("x", {1: (1, 3)}, 4)

    def test_compare_puts_both_allocations_over_one_denominator(self):
        report = compare("x", {1: F(1, 2), 2: F(2, 3)}, {1: F(1, 4), 2: F(2, 3)})
        assert report.denominator == 12
        assert report.pairs == {1: (6, 3), 2: (8, 8)}
        assert report.failures() == {1: Side(F(1, 2), F(1, 4))}
