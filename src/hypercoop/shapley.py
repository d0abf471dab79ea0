"""The integer Shapley kernels behind every value the package computes.

`shapley_of_table` takes a worth table indexed by bitmask, already
scaled to integers, and returns the payoffs scaled by n!, or the same
subset sum under other integer weights per coalition size.
`shapley_of_pieces` does the same, under either weighting, for a
graph-restricted game given by its connected sets, their boundaries and
their worths, without any 2^n table.  The Myerson, position and plain
Shapley values in `hypercoop.solutions` all end in one of them, and so
do the expansions of `hypercoop.expansion`.  Callers check
`require_subset_cap` before they build a table or list connected sets,
so an over-cap request fails before anything is allocated; the cap is a
keyword argument, not a constant baked into call sites.  The slower
frozenset routes (permutations, subset sums, Harsanyi dividends) live in
the test suite as oracles for these kernels.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial
from operator import add, mul
from typing import Iterable, Sequence

DEFAULT_SUBSET_CAP = 24


class CapExceeded(RuntimeError):
    """An enumeration would exceed its configured size cap."""


def require_subset_cap(n: int, cap: int, elements: str) -> None:
    """Refuse a subset enumeration over n elements (named by `elements`,
    "players" or "hyperlinks") when n exceeds the cap."""
    if n > cap:
        raise CapExceeded(f"{n} {elements} exceeds the subset cap {cap}")


def factorials(n: int) -> list[int]:
    """[0!, 1!, ..., n!] by a running product."""
    fact = [1]
    for s in range(1, n + 1):
        fact.append(fact[-1] * s)
    return fact


@cache
def shapley_weights(n: int) -> tuple[int, ...]:
    """Shapley's weights on n players scaled by n!: s!(n-1-s)! for a
    coalition of s = 0..n-1 others."""
    fact = factorials(n)
    return tuple(fact[s] * fact[n - 1 - s] for s in range(n))


def shapley_of_table(table: Sequence[int], coefficients: Sequence[int] | None = None) -> list[int]:
    """n!·Shapley value of the game with worth table[mask] on the coalition
    whose members are the set bits of mask; len(table) must be 2^n and
    table[0] must be 0.  Entry k belongs to the player on bit k.

    With c(s) = s!(n-s-1)! (and c(-1) = c(n) = 0) the subset sum
    n!·Sh_i = Σ_{S∌i} c(|S|)·(v(S+i) - v(S)) regroups as A_i - T with
    A_i = Σ_{S∋i} (c(|S|-1) + c(|S|))·v(S) and T = Σ_S c(|S|)·v(S).  A
    halving fold of the weighted table gives every A_i in about 2^(n+1)
    additions: from the top bit k down, A_k sums the upper half of the
    entries left, which is then added onto the lower half.  Efficiency,
    Σ_i n!·Sh_i = n!·v(N), gives T = (Σ_i A_i - n!·v(N)) / n.

    `coefficients`, one integer c(s) per s = 0..n-1, replaces Shapley's
    weights in the same subset sum; T is then summed directly, since
    efficiency need not hold for them.
    """
    n = len(table).bit_length() - 1
    if n == 0:
        return []
    c = [*(shapley_weights(n) if coefficients is None else coefficients), 0]
    d = [c[0]] + [c[s - 1] + c[s] for s in range(1, n + 1)]
    weighted = [d[mask.bit_count()] * w for mask, w in enumerate(table)]
    sums = [0] * n
    for k in reversed(range(n)):
        upper = weighted[1 << k:]
        sums[k] = sum(upper)
        weighted = list(map(add, weighted, upper))
    if coefficients is None:
        offset = (sum(sums) - factorial(n) * table[-1]) // n
    else:
        offset = sum(c[mask.bit_count()] * w for mask, w in enumerate(table))
    return [a - offset for a in sums]


@cache
def _piece_factors(weights: tuple[int, ...], p: int, b: int) -> tuple[int, int]:
    """(gain of a member, loss of a boundary player) of a piece of p
    members and b boundary players under per-size `weights`."""
    r = len(weights) - p - b
    binomials = [comb(r, s) for s in range(r + 1)]
    gain = sum(map(mul, weights[p - 1:], binomials))
    return gain, sum(map(mul, weights[p:], binomials)) if b else 0


def shapley_of_pieces(
    n: int, pieces: Iterable[tuple[int, int, int]], coefficients: Sequence[int] | None = None
) -> list[int]:
    """n!·Shapley value of the graph-restricted game Σ_P w_P·[P is a piece
    of S] on n players, given one (P, ∂P, w_P) triple of bitmasks and an
    integer worth per connected set P with boundary ∂P; entry k belongs
    to the player on bit k.

    P is a piece of S when P ⊆ S and S misses ∂P.  In a random order a
    member of P completes that piece when it comes after the rest of P
    and before all of ∂P, and a member of ∂P breaks it when it comes
    after all of P and before the rest of ∂P.  With p = |P| and
    b = |∂P| the indicator game therefore pays (p-1)!·b!/(p+b)! to each
    member of P and -p!·(b-1)!/(p+b)! to each member of ∂P.

    `coefficients`, one integer c(t) per t = 0..B-1, replaces Shapley's
    weights in the subset sum Σ_{S∌i} c(|S|)·(v(S+i) - v(S)) over B of
    the players; the other n - B must lie in no piece and no boundary
    (as a deleted hyperlink does), and are never counted in S.  With
    r = B - p - b players outside P and ∂P, a member of P gains on the
    C(r, t-p+1) sets of size t that hold the rest of P and miss ∂P, and
    a member of ∂P loses on the C(r, t-p) that hold P and miss ∂P, so
    the factors are Σ_t c(t)·C(r, t-p+1) and Σ_t c(t)·C(r, t-p).  With
    Shapley's weights over all n players (`shapley_weights`) these sums
    are the closed forms above times n!.  Both factors are worked out
    once per (weights, p, b) and kept across calls.
    """
    weights = shapley_weights(n) if coefficients is None else tuple(coefficients)
    known: dict[tuple[int, int], tuple[int, int]] = {}
    out = [0] * n
    for members, boundary, w in pieces:
        if not w:
            continue
        size = members.bit_count(), boundary.bit_count()
        known_factors = known.get(size)
        if known_factors is None:
            known_factors = known[size] = _piece_factors(weights, *size)
        gain, loss = w * known_factors[0], w * known_factors[1]
        while members:
            low = members & -members
            members ^= low
            out[low.bit_length() - 1] += gain
        while boundary:
            low = boundary & -boundary
            boundary ^= low
            out[low.bit_length() - 1] -= loss
    return out
