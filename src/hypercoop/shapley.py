"""The integer Shapley kernel behind every value the package computes.

`shapley_of_table` takes a worth table indexed by bitmask, already
scaled to integers, and returns the payoffs scaled by n!.  The Myerson,
position and plain Shapley values in `hypercoop.solutions` all end in
it.  Callers check `require_subset_cap` before they build a table, so an
over-cap request fails before anything is allocated; the cap is a
keyword argument, not a constant baked into call sites.  The slower frozenset routes
(permutations, subset sums, Harsanyi dividends) live in the test suite
as oracles for this kernel.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Sequence

DEFAULT_SUBSET_CAP = 24


class CapExceeded(RuntimeError):
    """An enumeration would exceed its configured size cap."""


def require_subset_cap(n: int, cap: int, elements: str) -> None:
    """Refuse a subset enumeration over n elements (named by `elements`,
    "players" or "hyperlinks") when n exceeds the cap."""
    if n > cap:
        raise CapExceeded(f"{n} {elements} exceeds the subset cap {cap}")


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
