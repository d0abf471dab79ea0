from dataclasses import dataclass, replace
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hypercoop.expansion import (
    ExpandedPlayer,
    agent_form_payoffs,
    block_symmetric_shapley,
    build_uniform,
    grouped_position,
    shapley_blockwise,
)
from hypercoop.model import (
    CharacteristicFunction,
    HypergraphGame,
    make_hypergraph,
    table_function,
    unanimity,
    zero_allocation,
)
from hypercoop.shapley import CapExceeded
from hypercoop.solutions import conference_table, position_value

from oracles import TUGame, as_tu_game, build_agent_form, expanded_worth, shapley_by_subsets
from strategies import hypergraph_games, unanimity_combination_games

F = Fraction


def single_link_game():
    return HypergraphGame(make_hypergraph([1, 2], [[1, 2]]), unanimity([1, 2], [1, 2]))


class TestBuildUniform:
    def test_requires_hyperlinks(self):
        game = HypergraphGame(make_hypergraph([1, 2]), table_function([1, 2], {}))
        with pytest.raises(ValueError, match="at least one hyperlink"):
            build_uniform(game)

    def test_requires_positive_integer_k(self, hub):
        for bad in (0, -1, True, 2.0):
            with pytest.raises(ValueError, match="positive integer"):
                build_uniform(hub, bad)

    def test_hub_structure(self, hub):
        exp = build_uniform(hub, 1)
        assert (exp.eta, exp.rho) == (6, 6)
        assert len(exp.universe) == 24
        assert all(len(block) == 6 for block in exp.blocks.values())
        # pair members hold three copies each, hub members hold 3 + 2
        assert len(exp.groups[1]) == 3
        assert len(exp.groups[4]) == 5
        assert len(exp.sub_blocks[(4, (4, 5, 6))]) == 2
        assert len(exp.sub_blocks[(4, (1, 4))]) == 3

    def test_universe_is_lexicographic_and_consistent(self, hub):
        exp = build_uniform(hub, 1)
        assert list(exp.universe) == sorted(exp.universe)
        assert exp.universe[0] == ExpandedPlayer(1, (1, 4), 1)
        from_blocks = {ep for block in exp.blocks.values() for ep in block}
        from_groups = {ep for group in exp.groups.values() for ep in group}
        assert from_blocks == from_groups == set(exp.universe)

    def test_k_scales_the_copy_count(self, hub):
        exp = build_uniform(hub, 2)
        assert exp.rho == 12
        assert len(exp.universe) == 48
        assert len(exp.sub_blocks[(6, (4, 5, 6))]) == 4


class TestExpandedWorth:
    def test_rejects_foreign_members(self, hub):
        exp = build_uniform(hub, 1)
        with pytest.raises(ValueError, match="foreign"):
            expanded_worth(exp, [ExpandedPlayer(1, (1, 4), 99)])

    def test_only_complete_blocks_count(self, path3):
        exp = build_uniform(path3, 1)
        first = exp.blocks[(1, 2)]
        second = exp.blocks[(2, 3)]
        assert expanded_worth(exp, first) == 0  # only 1-2 active: 1 and 3 apart
        assert expanded_worth(exp, first + second) == 1
        assert expanded_worth(exp, first + second[:-1]) == 0  # one copy short

    def test_as_tu_game(self, path3):
        exp = build_uniform(path3, 1)
        game = as_tu_game(exp)
        assert game.worth(frozenset()) == 0
        assert game.worth(exp.universe) == 1


class TestBlockSymmetricShapley:
    def test_single_block_splits_equally(self):
        worth = lambda mask: F(1) if mask & 1 else F(0)
        assert block_symmetric_shapley([2], [2], worth) == [F(1, 2)]
        assert block_symmetric_shapley([6], [6], worth) == [F(1, 6)]

    def test_two_singleton_blocks_are_unanimity(self):
        worth = lambda mask: F(1) if mask == 3 else F(0)
        assert block_symmetric_shapley([1, 1], [1, 1], worth) == [F(1, 2), F(1, 2)]

    def test_uncompletable_block_members_are_null(self):
        worth = lambda mask: F(1) if mask & 1 else F(0)
        payoffs = block_symmetric_shapley([1, 2], [1, 3], worth)
        assert payoffs == [F(1), F(0)]

    def test_state_cap(self):
        with pytest.raises(CapExceeded, match="state space"):
            block_symmetric_shapley([9] * 8, [9] * 8, lambda m: F(0), state_cap=10**6)

    def test_matches_direct_shapley_on_the_hub(self, hub):
        exp = build_uniform(hub, 1)
        per_copy = shapley_blockwise(exp)
        assert set(per_copy.values()) == {F(1, 24)}
        assert len(per_copy) == 24

    @pytest.mark.parametrize(
        "sizes, completions, worth",
        [
            ([3], [2], lambda mask: F(mask)),
            ([2, 3], [2, 2], lambda mask: F(mask == 3) + F(mask & 1, 2)),
            ([2, 3], [1, 3], lambda mask: F(mask == 3) - F(mask & 2, 5)),
            ([4, 1, 2], [2, 1, 3], lambda mask: F(mask, 7) + F(mask == 3)),
        ],
    )
    def test_matches_the_literal_game(self, sizes, completions, worth):
        """Block j is complete exactly when a coalition holds
        completions[j] of its members, also below the block size."""
        members = [(j, t) for j, size in enumerate(sizes) for t in range(size)]

        def literal_worth(coalition):
            counts = [sum(1 for j, _ in coalition if j == b) for b in range(len(sizes))]
            return worth(sum(1 << j for j, need in enumerate(completions) if counts[j] == need))

        direct = shapley_by_subsets(TUGame(members, literal_worth))
        expected = [direct[(j, 0)] for j in range(len(sizes))]
        assert block_symmetric_shapley(sizes, completions, worth) == expected

    def test_blockwise_reads_the_conference_game(self, hub):
        table, scale = conference_table(hub)
        assert table[0b1111] == scale
        assert not any(table[:0b1111])
        worth = lambda mask: F(mask == 0b1111)
        keys = [tuple(sorted(e)) for e in hub.hyperlinks]
        exp = build_uniform(hub, 1)
        # a block with a copy taken out never completes
        for sizes in ([6, 6, 6, 6], [6, 5, 6, 6]):
            blocks = {key: exp.blocks[key][:size] for key, size in zip(keys, sizes)}
            per_copy = shapley_blockwise(replace(exp, blocks=blocks))
            expected = block_symmetric_shapley(sizes, [6] * 4, worth)
            assert [per_copy[blocks[key][0]] for key in keys] == expected
            assert len(per_copy) == sum(sizes)


@given(hypergraph_games(max_players=4, max_links=3, max_link_size=3))
def test_blockwise_equals_direct_subset_shapley(game):
    exp = build_uniform(game, 1)
    assume(len(exp.universe) <= 12)
    direct = shapley_by_subsets(as_tu_game(exp), cap=12)
    assert shapley_blockwise(exp) == direct


@given(hypergraph_games(max_players=5, max_links=3, max_link_size=3))
def test_grouped_position_matches_position_value(game):
    pi = position_value(game)
    assert grouped_position(build_uniform(game, 1)) == pi
    assert grouped_position(build_uniform(game, 2)) == pi


class TestAgentForm:
    def test_requires_hyperlinks(self):
        game = HypergraphGame(make_hypergraph([1, 2]), table_function([1, 2], {}))
        with pytest.raises(ValueError, match="at least one hyperlink"):
            build_agent_form(game)

    def test_hub_structure(self, hub):
        haf = build_agent_form(hub)
        assert len(haf.players) == 24
        # one image per hyperlink plus all pairs inside each player's agents:
        # three players with 3 agents (3 pairs each) and three with 5 (10 each)
        assert len(haf.hyperlinks) == 4 + 3 * 3 + 3 * 10
        images = [h for h in haf.hyperlinks if len(h) == 6]
        assert len(images) == 4

    def test_worth_touches_original_players(self, path3):
        haf = build_agent_form(path3)
        a1 = haf.groups[1][0]
        a3 = haf.groups[3][0]
        assert haf.original_players([a1, a3]) == frozenset({1, 3})
        assert haf.worth([a1, a3]) == 1  # endpoints together, links ignored
        assert haf.restricted_worth([a1, a3]) == 0  # no connecting structure

    def test_restricted_worth_needs_the_image_links(self, path3):
        haf = build_agent_form(path3)
        agents = set(haf.players)
        assert haf.restricted_worth(agents) == 1
        # dropping one agent of player 2 breaks one image link, so the
        # endpoints fall apart again
        assert haf.restricted_worth(agents - {haf.sub_blocks[(2, (1, 2))][0]}) == 0

    def test_single_link_payoffs(self):
        payoffs = agent_form_payoffs(single_link_game())
        assert set(payoffs.values()) == {F(1, 2)}
        assert len(payoffs) == 2

    def test_hub_pointwise_equals_blockwise(self, hub):
        per_agent = agent_form_payoffs(hub)
        per_copy = shapley_blockwise(build_uniform(hub, 1))
        assert per_agent == per_copy

    def test_state_cap(self, hub):
        with pytest.raises(CapExceeded, match="state space"):
            agent_form_payoffs(hub, state_cap=100)

    def test_needs_a_hyperlink(self):
        game = HypergraphGame(make_hypergraph([1, 2]), table_function([1, 2], {}))
        for build in (build_agent_form, agent_form_payoffs):
            with pytest.raises(ValueError, match="^agent form requires at least one hyperlink$"):
                build(game)

    def test_custom_characteristic_nonzero_on_singletons(self):
        """Present players count even without a complete image."""

        @dataclass(frozen=True)
        class Squares(CharacteristicFunction):
            def _worth(self, coalition):
                return F(len(coalition) ** 2) + (F(3, 2) if 1 in coalition else 0)

        players = [1, 2, 3, 4]
        game = HypergraphGame(
            make_hypergraph(players, [[1, 2, 3], [3, 4]]), Squares(frozenset(players))
        )
        haf = build_agent_form(game)
        assert len(haf.players) == 12
        direct = shapley_by_subsets(TUGame(haf.players, haf.restricted_worth))
        assert agent_form_payoffs(game) == direct


@given(hypergraph_games(max_players=4, max_links=3, max_link_size=3))
def test_agent_payoffs_equal_direct_myerson_of_the_agent_form(game):
    haf = build_agent_form(game)
    assume(len(haf.players) <= 12)
    direct = shapley_by_subsets(
        TUGame(haf.players, haf.restricted_worth), cap=12
    )
    assert agent_form_payoffs(game) == direct


@given(
    st.one_of(
        hypergraph_games(max_players=5, max_links=3, max_link_size=3),
        unanimity_combination_games(max_players=5, max_links=3, max_link_size=3),
    )
)
def test_agent_payoffs_group_to_the_position_value(game):
    per_agent = agent_form_payoffs(game)
    grouped = zero_allocation(game.players)
    for ep, value in per_agent.items():
        grouped[ep.origin] += value
    assert grouped == position_value(game)
