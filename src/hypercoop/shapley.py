"""Exact Shapley value engines for finite TU-games.

Three independent routes compute the same allocation and are run against
each other in the test suites:

* permutation average of marginal contributions,
* subset enumeration with the |S|!(n-|S|-1)!/n! weights,
* Harsanyi dividends split equally inside their coalition.

Their arithmetic is `fractions.Fraction`.  `shapley_of_table` is the
integer kernel behind the Myerson and position values: it takes a worth
table indexed by bitmask, already scaled to integers, and returns the
payoffs scaled by n!.  Each route refuses games larger than its cap; caps
are keyword arguments, not constants baked into call sites.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Callable, Hashable, Iterable, Sequence

from .model import CharacteristicFunction, ZERO, as_fraction

DEFAULT_PERMUTATION_CAP = 8
DEFAULT_SUBSET_CAP = 24
DEFAULT_DIVIDEND_CAP = 20


class CapExceeded(RuntimeError):
    """An enumeration would exceed its configured size cap."""


class TUGame:
    """A finite TU-game: ordered ground set plus a memoized worth function.

    Ground elements may be anything hashable (player ids, hyperlinks,
    expanded players).  `worth` must map frozensets of them to exact
    rationals with worth(∅) = 0; this is checked at construction.
    """

    def __init__(self, players: Sequence[Hashable], worth: Callable,
                 characteristic: CharacteristicFunction | None = None):
        self.players = tuple(players)
        self._player_set = frozenset(self.players)
        if len(self._player_set) != len(self.players):
            raise ValueError("ground set elements must be distinct")
        self._worth = worth
        self.characteristic = characteristic
        self._cache: dict[frozenset, Fraction] = {}
        if self.worth(frozenset()) != 0:
            raise ValueError("worth of the empty coalition must be 0")

    @classmethod
    def from_characteristic(cls, cf: CharacteristicFunction) -> "TUGame":
        return cls(sorted(cf.players), cf.worth, characteristic=cf)

    def worth(self, coalition: Iterable) -> Fraction:
        s = frozenset(coalition)
        cached = self._cache.get(s)
        if cached is None:
            if not s <= self._player_set:
                raise ValueError("coalition contains elements outside the ground set")
            cached = as_fraction(self._worth(s))
            self._cache[s] = cached
        return cached


def require_subset_cap(n: int, cap: int) -> None:
    """Refuse a subset enumeration over n elements when n exceeds the cap."""
    if n > cap:
        raise CapExceeded(f"{n} players exceeds the subset cap {cap}")


def positional_weights(n: int) -> list[Fraction]:
    """weights[s] = s!(n-s-1)!/n! — the chance a player arrives after
    exactly s others in a uniformly random order."""
    fact = [1] * (n + 1)
    for i in range(1, n + 1):
        fact[i] = fact[i - 1] * i
    return [Fraction(fact[s] * fact[n - 1 - s], fact[n]) for s in range(n)]


def _coalitions_by_mask(players: Sequence[Hashable]) -> list[frozenset]:
    """All subsets as frozensets, indexed by bitmask over `players`."""
    n = len(players)
    sets: list[frozenset] = [frozenset()] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        sets[mask] = sets[mask & (mask - 1)] | {players[low]}
    return sets


def shapley_by_permutations(game: TUGame, cap: int = DEFAULT_PERMUTATION_CAP) -> dict:
    """Average marginal contribution over every arrival order."""
    n = len(game.players)
    if n > cap:
        raise CapExceeded(f"{n} players exceeds the permutation cap {cap}")
    totals = {p: ZERO for p in game.players}
    for order in itertools.permutations(game.players):
        before: frozenset = frozenset()
        prev = ZERO
        for p in order:
            after = before | {p}
            cur = game.worth(after)
            totals[p] += cur - prev
            before, prev = after, cur
    scale = Fraction(1, factorial(n)) if n else ZERO
    return {p: v * scale for p, v in totals.items()}


def shapley_by_subsets(game: TUGame, cap: int = DEFAULT_SUBSET_CAP) -> dict:
    """Subset enumeration with exact positional weights."""
    n = len(game.players)
    require_subset_cap(n, cap)
    if n == 0:
        return {}
    sets = _coalitions_by_mask(game.players)
    worths = [game.worth(s) for s in sets]
    weights = positional_weights(n)
    payoffs = {}
    for idx, p in enumerate(game.players):
        bit = 1 << idx
        total = ZERO
        for mask in range(1 << n):
            if mask & bit:
                continue
            diff = worths[mask | bit] - worths[mask]
            if diff:
                total += weights[mask.bit_count()] * diff
        payoffs[p] = total
    return payoffs


def shapley_of_table(table: Sequence[int]) -> list[int]:
    """n!·Shapley value of the game with worth table[mask] on the coalition
    whose members are the set bits of mask; len(table) must be 2^n and
    table[0] must be 0.  Entry k belongs to the player on bit k.

    With c(s) = s!(n-s-1)! (and c(-1) = c(n) = 0) the subset sum
    n!·Sh_i = Σ_{S∌i} c(|S|)·(v(S+i) - v(S)) regroups as A_i - T with
    A_i = Σ_{S∋i} (c(|S|-1) + c(|S|))·v(S), one weighted table shared by
    every player, and T = Σ_S c(|S|)·v(S).  Efficiency, Σ_i n!·Sh_i =
    n!·v(N), gives T = (Σ_i A_i - n!·v(N)) / n without a second pass.
    """
    n = len(table).bit_length() - 1
    if n == 0:
        return []
    c = [factorial(s) * factorial(n - 1 - s) for s in range(n)] + [0]
    d = [c[0]] + [c[s - 1] + c[s] for s in range(1, n + 1)]
    weighted = [d[mask.bit_count()] * w for mask, w in enumerate(table)]
    sums = []
    for k in range(n):
        half = 1 << k
        holds_k = (bytes(half) + b"\x01" * half) * (len(table) // (2 * half))
        sums.append(sum(itertools.compress(weighted, holds_k)))
    offset = (sum(sums) - factorial(n) * table[-1]) // n
    return [a - offset for a in sums]


def harsanyi_dividends(game: TUGame, cap: int = DEFAULT_DIVIDEND_CAP) -> dict[frozenset, Fraction]:
    """Sparse map of the nonzero Harsanyi dividends of the game.

    Games whose characteristic function is a (weighted) unanimity
    combination expose their coefficients directly; those bypass the 2^n
    Möbius transform entirely, so the cap does not apply to them.
    """
    if game.characteristic is not None:
        coeffs = game.characteristic.unanimity_coefficients()
        if coeffs is not None:
            return {frozenset(t): as_fraction(c) for t, c in coeffs.items() if c != 0}
    n = len(game.players)
    if n > cap:
        raise CapExceeded(f"{n} players exceeds the dividend cap {cap}")
    sets = _coalitions_by_mask(game.players)
    arr = [game.worth(s) for s in sets]
    for idx in range(n):
        bit = 1 << idx
        for mask in range(1 << n):
            if mask & bit:
                arr[mask] -= arr[mask ^ bit]
    return {sets[mask]: arr[mask] for mask in range(1, 1 << n) if arr[mask] != 0}


def shapley_by_dividends(game: TUGame, cap: int = DEFAULT_DIVIDEND_CAP) -> dict:
    """Each dividend split equally among the members of its coalition."""
    payoffs = {p: ZERO for p in game.players}
    for t, coeff in harsanyi_dividends(game, cap=cap).items():
        share = coeff / len(t)
        for p in t:
            payoffs[p] += share
    return payoffs
