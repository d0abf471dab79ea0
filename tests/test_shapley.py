from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercoop.model import table_function, unanimity, weighted_unanimity
from hypercoop.shapley import CapExceeded, shapley_of_pieces, shapley_of_table

from oracles import (
    OracleCapExceeded,
    TUGame,
    harsanyi_dividends,
    positional_weights,
    shapley_by_dividends,
    shapley_by_permutations,
    shapley_by_subsets,
)
from strategies import rationals, tu_games


def u_game(players, support):
    return TUGame.from_characteristic(unanimity(players, support))


class TestTUGame:
    def test_rejects_duplicate_elements(self):
        with pytest.raises(ValueError, match="distinct"):
            TUGame([1, 1], lambda s: 0)

    def test_rejects_nonzero_empty_worth(self):
        with pytest.raises(ValueError, match="empty coalition"):
            TUGame([1, 2], lambda s: 1)

    def test_rejects_foreign_coalitions(self):
        game = TUGame([1, 2], lambda s: 0)
        with pytest.raises(ValueError, match="outside"):
            game.worth({3})

    def test_worth_is_memoized_by_set(self):
        calls = []

        def worth(s):
            calls.append(s)
            return len(s) * (len(s) - 1)

        game = TUGame([1, 2, 3], worth)
        assert game.worth([2, 1]) == game.worth({1, 2}) == 2
        assert calls.count(frozenset({1, 2})) == 1

    def test_nonint_elements_are_fine(self):
        game = TUGame(["a", "b"], lambda s: 2 if len(s) == 2 else 0)
        assert shapley_by_subsets(game) == {"a": 1, "b": 1}


@given(st.integers(min_value=1, max_value=10))
def test_positional_weights_sum_to_one(n):
    from math import comb

    weights = positional_weights(n)
    assert sum(comb(n - 1, s) * weights[s] for s in range(n)) == 1


class TestUnanimityShapley:
    def test_all_routes_split_equally(self):
        game = u_game([1, 2, 3, 4], [1, 3])
        expected = {1: Fraction(1, 2), 2: 0, 3: Fraction(1, 2), 4: 0}
        assert shapley_by_permutations(game) == expected
        assert shapley_by_subsets(game) == expected
        assert shapley_by_dividends(game) == expected

    def test_dividends_are_the_support_coefficient(self):
        game = u_game([1, 2, 3], [1, 2])
        assert harsanyi_dividends(game) == {frozenset({1, 2}): Fraction(1)}


class TestCaps:
    def test_permutation_cap(self):
        game = u_game(range(1, 10), [1, 2])
        with pytest.raises(OracleCapExceeded, match="^9 players exceeds the permutation cap 8$"):
            shapley_by_permutations(game, cap=8)

    def test_subset_cap(self):
        game = u_game(range(25), [0, 1])
        message = r"^the table of 25 players needs 2\^25 entries, over the 2\^24 that the subset cap 24 admits$"
        with pytest.raises(CapExceeded, match=message):
            shapley_by_subsets(game, cap=24)

    def test_dividend_cap_applies_to_opaque_games(self):
        game = TUGame(range(21), lambda s: 0)
        with pytest.raises(OracleCapExceeded, match="^21 players exceeds the dividend cap 20$"):
            harsanyi_dividends(game, cap=20)

    def test_structured_games_bypass_the_dividend_cap(self):
        players = range(40)
        cf = weighted_unanimity(
            players, [(range(40), Fraction(2)), ([0, 1], Fraction(-1, 2))]
        )
        game = TUGame.from_characteristic(cf)
        payoffs = shapley_by_dividends(game, cap=20)
        assert payoffs[0] == Fraction(2, 40) + Fraction(-1, 4)
        assert payoffs[5] == Fraction(2, 40)


class TestDividends:
    def test_moebius_on_a_table(self):
        cf = table_function(
            [1, 2, 3],
            {
                frozenset({1, 2}): Fraction(1),
                frozenset({1, 2, 3}): Fraction(2),
            },
        )
        game = TUGame(sorted(cf.players), cf.worth)  # hide the structure
        assert harsanyi_dividends(game) == {
            frozenset({1, 2}): Fraction(1),
            frozenset({1, 2, 3}): Fraction(1),
        }

    @given(tu_games())
    def test_dividends_reconstruct_every_worth(self, game):
        dividends = harsanyi_dividends(game)
        for mask in range(1 << len(game.players)):
            coalition = frozenset(
                p for idx, p in enumerate(game.players) if mask >> idx & 1
            )
            total = sum(
                (c for t, c in dividends.items() if t <= coalition), Fraction(0)
            )
            assert total == game.worth(coalition)


@given(tu_games())
def test_the_three_routes_agree(game):
    by_perm = shapley_by_permutations(game)
    by_subset = shapley_by_subsets(game)
    by_dividend = shapley_by_dividends(game)
    assert by_perm == by_subset == by_dividend


@given(tu_games())
def test_shapley_is_efficient(game):
    payoffs = shapley_by_subsets(game)
    assert sum(payoffs.values()) == game.worth(game.players)


@given(tu_games(), rationals)
def test_additivity(game, scale):
    shifted = TUGame(game.players, lambda s: scale * game.worth(s))
    combined = TUGame(game.players, lambda s: game.worth(s) + shifted.worth(s))
    base = shapley_by_subsets(game)
    extra = shapley_by_subsets(shifted)
    total = shapley_by_subsets(combined)
    assert total == {p: base[p] + extra[p] for p in game.players}


@given(tu_games())
def test_integer_table_kernel_matches_the_subset_sum(game):
    n = len(game.players)
    worths = [
        game.worth(p for k, p in enumerate(game.players) if mask >> k & 1)
        for mask in range(1 << n)
    ]
    scale = lcm(*(w.denominator for w in worths))
    table = [int(w * scale) for w in worths]
    scaled = shapley_of_table(table)
    assert all(isinstance(x, int) for x in scaled)
    expected = shapley_by_subsets(game)
    assert {p: Fraction(x, factorial(n) * scale) for p, x in zip(game.players, scaled)} == expected


def test_integer_table_kernel_on_no_players():
    assert shapley_of_table([0]) == []


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-9, 9), min_size=1 << n, max_size=1 << n),
        st.lists(st.integers(0, 50), min_size=n, max_size=n),
    )
))
def test_integer_table_kernel_with_other_coefficients(case):
    """Weights c(s) that need not add up to efficiency, on any table:
    the kernel gives the subset sum Σ_{S∌i} c(|S|)·(v(S+i) - v(S))."""
    table, c = case
    assert shapley_of_table(table, c) == subset_sum(table, c)


def subset_sum(table, c):
    """Σ_{S∌i} c(|S|)·(v(S+i) - v(S)) for each player i, term by term."""
    n = len(c)
    return [
        sum(c[mask.bit_count()] * (table[mask | 1 << k] - table[mask])
            for mask in range(1 << n) if not mask >> k & 1)
        for k in range(n)
    ]


@given(st.integers(0, 9), st.integers(0, 160), st.randoms(use_true_random=False))
def test_the_halving_fold_is_the_subset_sum(n, bits, rng):
    """The kernel against the explicit subset sum on up to 9 players and
    signed entries and weights of up to 160 bits, with Shapley's weights
    (table[0] = 0) and with other coefficients."""
    bound = 1 << bits
    table = [rng.randint(-bound, bound) for _ in range(1 << n)]
    c = [rng.randint(-bound, bound) for _ in range(n)]
    assert shapley_of_table(table, c) == subset_sum(table, c)
    table[0] = 0
    weights = [factorial(s) * factorial(n - 1 - s) for s in range(n)]
    assert shapley_of_table(table) == subset_sum(table, weights)


@st.composite
def weighted_pieces(draw):
    """(n, live, pieces): n players, of which the `live` mask counts, and
    up to five (P, ∂P, w) triples of disjoint masks inside it, P nonempty."""
    n = draw(st.integers(1, 7))
    live = draw(st.integers(1, (1 << n) - 1))
    inside = st.integers(0, (1 << n) - 1).map(lambda x: x & live)
    pieces = []
    for _ in range(draw(st.integers(0, 5))):
        members = draw(inside.filter(bool))
        boundary = draw(inside) & ~members
        pieces.append((members, boundary, draw(st.integers(-9, 9))))
    return n, live, pieces


def pieces_by_subsets(n, live, pieces, c):
    """Σ_{S∌i} c(|S|)·(v(S+i) - v(S)) over the sets S of live players, for
    v(S) = Σ w·[P ⊆ S and S misses ∂P], term by term."""

    def v(s):
        return sum(w for p, b, w in pieces if p & s == p and not b & s)

    sets = [s for s in range(1 << n) if s & live == s]
    return [
        sum(c[s.bit_count()] * (v(s | 1 << k) - v(s)) for s in sets if not s >> k & 1)
        if live >> k & 1 else 0
        for k in range(n)
    ]


@given(weighted_pieces(), st.randoms(use_true_random=False))
def test_the_pieces_kernel_with_coefficients_is_the_subset_sum(case, rng):
    """Any integer weights over the live players, the others in no piece
    and no boundary, as after a hyperlink deletion."""
    n, live, pieces = case
    c = [rng.randint(-50, 50) for _ in range(live.bit_count())]
    assert shapley_of_pieces(n, pieces, c) == pieces_by_subsets(n, live, pieces, c)


@given(weighted_pieces())
def test_the_pieces_kernel_without_coefficients_keeps_the_shapley_factors(case):
    """No coefficients: each member of P gets (p-1)!·b!/(p+b)! and each
    member of ∂P -p!·(b-1)!/(p+b)!, times n!·w, dead players included;
    which are Shapley's weights t!(n-1-t)! over all n players."""
    n, _live, pieces = case
    expected = [0] * n
    for p_mask, b_mask, w in pieces:
        p, b = p_mask.bit_count(), b_mask.bit_count()
        for k in range(n):
            if p_mask >> k & 1:
                expected[k] += w * factorial(n) * factorial(p - 1) * factorial(b) // factorial(p + b)
            elif b_mask >> k & 1:
                expected[k] -= w * factorial(n) * factorial(p) * factorial(b - 1) // factorial(p + b)
    shapley = [factorial(t) * factorial(n - 1 - t) for t in range(n)]
    assert shapley_of_pieces(n, pieces) == expected == shapley_of_pieces(n, pieces, shapley)
