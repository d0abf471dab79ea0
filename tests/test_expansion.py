import gc
import itertools
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from hypercoop import solutions
from hypercoop.axioms import check_copy_deletions, check_uniform_expansion, value_from_axioms
from hypercoop.corpus import game_corpus
from hypercoop.expansion import (
    agent_form_payoffs,
    completion_numerators,
    copy_counts,
    expansion_payoffs,
    group_copies,
    grouped_agent_form,
    grouped_position,
    uniform_payoffs,
)
from hypercoop.model import (
    CharacteristicFunction,
    HypergraphGame,
    link_key,
    make_hypergraph,
    table_function,
    unanimity,
    weighted_unanimity,
)
from hypercoop.shapley import CapExceeded
from hypercoop.solutions import conference_table, position_value

from oracles import (
    ExpandedPlayer,
    TUGame,
    agent_form_by_fold,
    as_tu_game,
    block_symmetric_shapley,
    build_agent_form,
    build_uniform,
    completion_weights_by_fractions,
    expanded_worth,
    fold_shapley,
    fold_shapley_by_pivot,
    group_by_origin,
    shapley_by_subsets,
    uniform_by_fold,
)
from strategies import hypergraph_games, unanimity_combination_games
from test_solutions import DENSE_SHAPES, ROUTES, ring, route

F = Fraction


def single_link_game():
    return HypergraphGame(make_hypergraph([1, 2], [[1, 2]]), unanimity([1, 2], [1, 2]))


def sub_block_sizes(exp) -> dict:
    """The oracle universe's sub-block sizes, keyed like `copy_counts`."""
    return {(i, frozenset(key)): len(copies) for (i, key), copies in exp.sub_blocks.items()}


def per_agent_of(payoffs: dict, agents) -> dict:
    """Per-(player, hyperlink) payoffs spread over the oracle's agents."""
    return {ep: payoffs[ep.origin, frozenset(ep.hyperlink)] for ep in agents}


class TestBuildUniform:
    def test_requires_hyperlinks(self):
        game = HypergraphGame(make_hypergraph([1, 2]), table_function([1, 2], {}))
        for build in (build_uniform, copy_counts, uniform_payoffs, grouped_position):
            with pytest.raises(ValueError, match="^uniform expansion requires at least one hyperlink$"):
                build(game)

    def test_requires_positive_integer_k(self, hub):
        for bad in (0, -1, True, 2.0):
            for build in (build_uniform, copy_counts, uniform_payoffs, grouped_position):
                with pytest.raises(ValueError, match="positive integer"):
                    build(hub, bad)

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
        counts = copy_counts(hub)
        assert list(counts.items()) == list(sub_block_sizes(exp).items())
        assert counts[4, frozenset({4, 5, 6})] == 2

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
        assert copy_counts(hub, 2) == sub_block_sizes(exp)
        assert sum(copy_counts(hub, 2).values()) == 48

    def test_a_removed_copy_must_come_from_a_hyperlink(self, hub):
        for build in (uniform_payoffs, grouped_position):
            with pytest.raises(ValueError, match=r"^no hyperlink \[1, 2\] to delete a copy of$"):
                build(hub, 1, [2, 1])


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
        per_copy = uniform_payoffs(hub)
        assert per_copy == dict.fromkeys(copy_counts(hub), F(1, 24))
        assert sum(copy_counts(hub).values()) == 24

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
        assert [link_key(e) for e in hub.hyperlinks][1] == (2, 5)
        # a block with a copy taken out never completes, so its copies earn 0
        for sizes, removed in (([6, 6, 6, 6], None), ([6, 5, 6, 6], [5, 2])):
            per_copy = uniform_payoffs(hub, removed=removed)
            expected = block_symmetric_shapley(sizes, [6] * 4, worth)
            assert per_copy == {
                (i, e): x for e, x in zip(hub.hyperlinks, expected) for i in e
            }
        assert expected[1] == 0


def random_fold_case(blocks: int, style: str, seed: int):
    """Block sizes 0..5 with expansion-style signatures (bit j while block
    j holds its completion count; one block never completes on odd seeds,
    as after a copy deletion) or agent-form-style ones (a player bit
    shared by several blocks when c > 0, an image bit when c < size)."""
    rng = random.Random(f"{blocks}-{style}-{seed}")
    sizes = [rng.randint(0, 5) for _ in range(blocks)]
    if style == "expansion":
        needs = [rng.randint(0, size + 1) for size in sizes]
        if seed % 2:
            j = rng.randrange(blocks)
            needs[j] = sizes[j] + 1
        signatures = [
            [1 << j if c == need else 0 for c in range(size + 1)]
            for j, (size, need) in enumerate(zip(sizes, needs))
        ]
    else:
        players = rng.randint(1, 3)
        signatures = []
        for size in sizes:
            player = 1 << rng.randrange(players)
            image = 1 << (players + rng.randrange(3))
            signatures.append(
                [(player if c else 0) | (image if c < size else 0) for c in range(size + 1)]
            )
    return sizes, signatures


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("style", ["expansion", "agent"])
@pytest.mark.parametrize("blocks", range(1, 10))
def test_fold_equals_the_per_pivot_refold(blocks, style, seed):
    sizes, signatures = random_fold_case(blocks, style, seed)
    requests = []

    def worths(needed):
        requests.append(needed)
        return 3, {bits: (bits * 7919 + 13) % 23 - 11 for bits in needed}

    fast = fold_shapley(sizes, signatures, worths)
    assert len(requests) == 1
    assert fast == fold_shapley_by_pivot(sizes, signatures, worths)


def block_folds(blocks: int) -> int:
    """f(1) = 0, f(B) = B + f(floor(B/2)) + f(ceil(B/2))."""
    if blocks == 1:
        return 0
    return blocks + block_folds(blocks // 2) + block_folds(blocks - blocks // 2)


def test_fold_does_b_log_b_block_folds(monkeypatch):
    calls = []
    fold_block = oracles._fold_block
    monkeypatch.setattr(oracles, "_fold_block", lambda *a: calls.append(a) or fold_block(*a))
    assert block_folds(12) == 44
    for blocks in range(1, 16):
        calls.clear()
        full = (1 << blocks) - 1
        payoffs = fold_shapley(
            [1] * blocks,
            [[0, 1 << j] for j in range(blocks)],
            lambda needed: (1, {bits: int(bits == full) for bits in needed}),
        )
        assert payoffs == [F(1, blocks)] * blocks
        assert len(calls) == block_folds(blocks)


@given(hypergraph_games(max_players=4, max_links=3, max_link_size=3))
def test_blockwise_equals_direct_subset_shapley(game):
    exp = build_uniform(game, 1)
    assume(len(exp.universe) <= 12)
    direct = shapley_by_subsets(as_tu_game(exp), cap=12)
    assert per_agent_of(uniform_payoffs(game), exp.universe) == direct


@given(hypergraph_games(max_players=4, max_links=3, max_link_size=3), st.integers(1, 2))
def test_grouped_position_less_a_copy_equals_the_grouped_subset_oracle(game, k):
    """Each hyperlink's copy deletion, grouped by count, against the
    explicit expanded game with one copy taken out of its universe, the
    copy held by each member in turn: the holder must not matter."""
    exp = build_uniform(game, k)
    assume(len(exp.universe) <= 12)
    for e in game.hyperlinks:
        grouped = grouped_position(game, k, removed=e)
        for i in sorted(e):
            copy = exp.sub_blocks[(i, link_key(e))][-1]
            direct = shapley_by_subsets(as_tu_game(exp, removed=copy), cap=12)
            assert grouped == group_by_origin(game.players, direct)


@given(hypergraph_games(max_players=5, max_links=3, max_link_size=3))
def test_grouped_position_matches_position_value(game):
    pi = position_value(game)
    assert grouped_position(game, 1) == pi
    assert grouped_position(game, 2) == pi


def test_one_hyperlink_at_k_2500_pays_each_copy_its_share():
    """The hyperlink {1, 2} expands to one block of 5,000 copies that
    completes only as a whole, so each copy earns 1/5000."""
    e = frozenset({1, 2})
    assert uniform_payoffs(single_link_game(), 2500) == {(1, e): F(1, 5000), (2, e): F(1, 5000)}
    assert grouped_position(single_link_game(), 2500) == {1: F(1, 2), 2: F(1, 2)}


def test_theorem_two_needs_no_bound_on_k(hub):
    """The pass depends on the number of blocks only, so a trillion copies
    of each hyperlink cost what one does: Theorem 2 holds on the hub."""
    report = check_uniform_expansion(hub, 10**12)
    assert report.sides and not report.failures()
    assert grouped_position(hub, 10**6) == position_value(hub)


def test_a_large_block_leaves_nothing_behind():
    """With the cyclic collector off, nothing `uniform_payoffs` allocated
    for a 2,000-copy block is held once the call returns."""
    e = frozenset({1, 2})
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        payoffs = uniform_payoffs(single_link_game(), 1000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert payoffs == {(1, e): F(1, 2000), (2, e): F(1, 2000)}
    assert held < 100_000


@pytest.mark.parametrize("rho", range(1, 9))
@pytest.mark.parametrize("blocks", range(1, 10))
def test_completion_weights_are_the_shapley_weights_over_rho(blocks, rho):
    """Counted from the block sizes alone, pi(t) comes out as the Shapley
    weight of t other hyperlinks among m = blocks, t!(m-1-t)!/m!, shared
    by the rho copies of a block."""
    shapley = [
        F(factorial(t) * factorial(blocks - 1 - t), factorial(blocks) * rho) for t in range(blocks)
    ]
    unit = rho * lcm(*range(1, blocks + 1))
    assert [F(c, unit) for c in completion_numerators(blocks)] == shapley


def test_completion_numerators_are_the_fraction_weights():
    """c(t) over rho·lcm(1..B) against π(t) summed term by term as
    Fractions, for every B <= 14 blocks and rho <= 24 copies: 336 cases."""
    for blocks in range(1, 15):
        unit = lcm(*range(1, blocks + 1))
        for rho in range(1, 25):
            expected = completion_weights_by_fractions(blocks, rho)
            assert [F(c, rho * unit) for c in completion_numerators(blocks)] == expected


def expansion_sides(game: HypergraphGame, ks=(1, 2, 3)) -> tuple:
    """Every payoff the expansion module computes on one game: the k-fold
    expansion for each k in `ks`, whole and less one copy of each
    hyperlink, the agent form, and both sides of every copy deletion
    from their shared pass."""
    uniform = [
        expansion_payoffs(game, k, removed) for k in ks for removed in (None, *game.hyperlinks)
    ]
    return uniform, agent_form_payoffs(game), grouped_agent_form(game), check_copy_deletions(game)


def assert_the_routes_agree(game: HypergraphGame, ks=(1, 2, 3)) -> None:
    sides = []
    for name in ROUTES:
        with route(name):
            sides.append(expansion_sides(game, ks))
    assert sides[1] == sides[0]
    assert sides[2] == sides[0]


class TestTheThreeRoutes:
    """The connected-set and complement routes of the completion-weighted
    sum equal the table route exactly, the keys in the same order."""

    def test_the_corpus(self):
        for game in game_corpus(count=200):
            if game.hyperlinks:
                assert_the_routes_agree(game)

    @given(hypergraph_games(max_players=6, max_links=5))
    def test_table_games(self, game):
        assume(game.hyperlinks)
        assert_the_routes_agree(game)

    @given(unanimity_combination_games(max_players=6, max_links=5))
    def test_unanimity_combinations(self, game):
        assume(game.hyperlinks)
        assert_the_routes_agree(game)

    @pytest.mark.parametrize("game", DENSE_SHAPES, ids=lambda g: f"{len(g.players)}x{len(g.hyperlinks)}")
    def test_dense_shapes(self, game):
        """The integer sums do not depend on k, which only sets the divisor
        rho = k·eta, so k = 1 with every deletion covers each weighting."""
        assert_the_routes_agree(game, ks=(1,))

    def test_a_ring_past_the_table(self, monkeypatch):
        """30 pair hyperlinks: the 2^30 table is never built, and the
        grouped payoffs of every expansion are the position value."""
        def refuse(*_args):
            raise AssertionError("the 2^30 conference table was built")

        monkeypatch.setattr(solutions, "conference_table", refuse)
        game = ring(30)
        links = len(game.hyperlinks)
        position = position_value(game, cap=links)
        for k in (1, 2):
            assert grouped_position(game, k, cap=links) == position
        first = game.hyperlinks[0]
        assert grouped_position(game, 1, first, cap=links) == position_value(
            game.without_hyperlink(first), cap=links
        )
        assert all(report.passed for report in check_copy_deletions(game, cap=links).values())


def ring3(c: int) -> HypergraphGame:
    """2c players, hyperlinks {2i+1, 2i+2, 2i+3 mod 2c}, worth u{N} + 2·u{1, 4}."""
    players = range(1, 2 * c + 1)
    links = [[2 * i + 1, 2 * i + 2, (2 * i + 2) % (2 * c) + 1] for i in range(c)]
    return HypergraphGame(
        make_hypergraph(players, links), weighted_unanimity(players, [(players, 1), ([1, 4], 2)])
    )


def test_the_kernel_equals_the_fold_on_the_corpus():
    """Every corpus game at k = 1..3, whole and less one copy of each
    hyperlink in turn, against the count-vector fold, which builds no
    completion weights."""
    for game in game_corpus():
        for k in (1, 2, 3):
            for removed in (None, *game.hyperlinks):
                fold = uniform_by_fold(game, k, removed, state_cap=10**30)
                assert uniform_payoffs(game, k, removed) == fold


def test_the_agent_form_equals_the_full_signature_fold():
    """The merged image blocks against the fold over every (player,
    hyperlink) sub-block with its player-present and image-incomplete
    bits, on every corpus game and on ring3(5)."""
    for game in [*game_corpus(), ring3(5)]:
        assert agent_form_payoffs(game) == agent_form_by_fold(game, state_cap=10**30)


def test_four_player_structures_run_at_the_default_caps():
    """A seeded sample of the 2,047 hypergraphs on four labelled players
    with at least one hyperlink, plus the complete one (K4*): Theorem 1
    and Corollary 1 both run at the default caps and give the position
    value."""
    players = [1, 2, 3, 4]
    pool = [s for r in (2, 3, 4) for s in itertools.combinations(players, r)]
    structures = [links for r in range(1, 12) for links in itertools.combinations(pool, r)]
    assert len(structures) == 2047
    worth = weighted_unanimity(players, [(players, 1), ([1, 4], 2), ([2, 3], F(-1, 3))])
    for links in [*random.Random(2047).sample(structures, 60), pool]:
        game = HypergraphGame(make_hypergraph(players, links), worth)
        position = position_value(game)
        assert grouped_position(game) == position
        assert grouped_agent_form(game) == position


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
        game = single_link_game()
        e = frozenset({1, 2})
        assert agent_form_payoffs(game) == {(1, e): F(1, 2), (2, e): F(1, 2)}
        assert copy_counts(game) == {(1, e): 1, (2, e): 1}

    def test_hub_pointwise_equals_blockwise(self, hub):
        """24 agents in 4 image blocks, against the fold that tracks which
        players are present."""
        assert agent_form_payoffs(hub) == agent_form_by_fold(hub, state_cap=10**30)

    def test_grouped_caps_come_before_the_table(self, hub, monkeypatch):
        """The subset cap over the hyperlinks is checked before any worth
        is read."""
        def refuse(*_args):
            raise AssertionError("the agent form read worths over a cap")

        monkeypatch.setattr(solutions, "conference_table", refuse)
        monkeypatch.setattr(solutions, "_read_worths", refuse)
        with pytest.raises(CapExceeded, match="^4 hyperlinks exceeds the subset cap 3$"):
            grouped_agent_form(hub, cap=3)

    def test_needs_a_hyperlink(self):
        game = HypergraphGame(make_hypergraph([1, 2]), table_function([1, 2], {}))
        for build in (build_agent_form, agent_form_payoffs):
            with pytest.raises(ValueError, match="^agent form requires at least one hyperlink$"):
                build(game)

    def test_custom_characteristic_nonzero_on_singletons(self):
        """A present player on no complete image is a singleton, which
        must be worth zero: the agent form and the axiomatic
        reconstruction refuse, as the position value does."""

        @dataclass(frozen=True)
        class Squares(CharacteristicFunction):
            def _worth(self, coalition):
                return F(len(coalition) ** 2) + (F(3, 2) if 1 in coalition else 0)

        players = [1, 2, 3, 4]
        game = HypergraphGame(
            make_hypergraph(players, [[1, 2, 3], [3, 4]]), Squares(frozenset(players))
        )
        message = r"^worth of the singleton \[1\] must be 0, got 5/2$"
        for solve in (agent_form_payoffs, grouped_agent_form, value_from_axioms, position_value):
            with pytest.raises(ValueError, match=message):
                solve(game)

    def test_custom_characteristic_zero_on_singletons(self):
        """A custom characteristic zero on singletons but read coalition by
        coalition, against the direct agent-form game."""

        @dataclass(frozen=True)
        class Squares(CharacteristicFunction):
            def _worth(self, coalition):
                n = len(coalition)
                return F(n * n - n) + (F(3, 2) if {1, 2} <= coalition else 0)

        players = [1, 2, 3, 4]
        game = HypergraphGame(
            make_hypergraph(players, [[1, 2, 3], [3, 4]]), Squares(frozenset(players))
        )
        haf = build_agent_form(game)
        assert len(haf.players) == 12
        direct = shapley_by_subsets(TUGame(haf.players, haf.restricted_worth))
        assert per_agent_of(agent_form_payoffs(game), haf.players) == direct


@given(hypergraph_games(max_players=4, max_links=3, max_link_size=3))
def test_agent_payoffs_equal_direct_myerson_of_the_agent_form(game):
    haf = build_agent_form(game)
    assume(len(haf.players) <= 12)
    direct = shapley_by_subsets(
        TUGame(haf.players, haf.restricted_worth), cap=12
    )
    assert per_agent_of(agent_form_payoffs(game), haf.players) == direct


@given(
    st.one_of(
        hypergraph_games(max_players=5, max_links=3, max_link_size=3),
        unanimity_combination_games(max_players=5, max_links=3, max_link_size=3),
    )
)
def test_agent_payoffs_group_to_the_position_value(game):
    per_agent = agent_form_payoffs(game)
    grouped = group_copies(game.players, copy_counts(game), per_agent)
    assert grouped_agent_form(game) == grouped == position_value(game)
