"""Exact-rational TU-games over hypergraph communication structures.

Players are small non-negative integers, coalitions are frozensets, and
every worth or payoff is a `fractions.Fraction`.  Nothing in the
computation path ever touches a float, so comparisons between
allocations are exact equality, not tolerance checks.  A unanimity
game is a weighted combination of one term.  `integer_form` is the one
reader that turns the worths a characteristic holds into integers over
one scale, on bitmask coalitions; the hot paths read it, directly or
through `scaled_worths`, and never scale a Fraction themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

PlayerId = int
Coalition = frozenset[PlayerId]
Hyperlink = frozenset[PlayerId]
Allocation = dict[PlayerId, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce a worth to an exact Fraction, refusing floats outright."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"floats are not exact, got {value!r}; use Fraction or an int")
    return Fraction(value)


def link_key(link: Iterable[PlayerId]) -> tuple[PlayerId, ...]:
    """Canonical sorted-tuple form of a hyperlink; used for ordering."""
    return tuple(sorted(link))


@dataclass(frozen=True)
class Hypergraph:
    """An ordered player set plus canonically ordered hyperlinks.

    Build via :func:`make_hypergraph`, which validates and canonicalizes.
    """

    players: tuple[PlayerId, ...]
    hyperlinks: tuple[Hyperlink, ...]

    @property
    def player_set(self) -> Coalition:
        return frozenset(self.players)


def make_hypergraph(players: Iterable[PlayerId], hyperlinks: Iterable[Iterable[PlayerId]] = ()) -> Hypergraph:
    ids = list(players)
    if not ids:
        raise ValueError("player set must be nonempty")
    for p in ids:
        if isinstance(p, bool) or not isinstance(p, int) or p < 0:
            raise ValueError(f"player ids must be non-negative integers, got {p!r}")
    if len(set(ids)) != len(ids):
        raise ValueError("player ids must be distinct")
    ordered = tuple(sorted(ids))
    id_set = frozenset(ordered)

    # each hyperlink is checked in full, in order, and named by its position
    first: dict[Hyperlink, int] = {}
    for n, raw in enumerate(hyperlinks):
        members = list(raw)
        for k, p in enumerate(members):
            if isinstance(p, bool) or not isinstance(p, int):
                raise ValueError(f"hyperlinks[{n}][{k}]: expected an integer player id, got {p!r}")
        e = frozenset(members)
        if len(members) < 2:
            raise ValueError(f"hyperlinks[{n}]: a hyperlink needs at least two members")
        if not e <= id_set:
            raise ValueError(f"hyperlinks[{n}]: unknown players {sorted(p for p in members if p not in id_set)}")
        if len(e) < len(members):
            raise ValueError(f"hyperlinks[{n}]: duplicate members")
        if e in first:
            raise ValueError(f"hyperlinks[{n}]: duplicate hyperlink {sorted(e)}, already hyperlinks[{first[e]}]")
        first[e] = n
    return Hypergraph(ordered, tuple(sorted(first, key=link_key)))


def incident_hyperlinks(hypergraph: Hypergraph, player: PlayerId) -> tuple[Hyperlink, ...]:
    """The hyperlinks containing `player`, in canonical order."""
    if player not in hypergraph.player_set:
        raise ValueError(f"unknown player {player!r}")
    return tuple(e for e in hypergraph.hyperlinks if player in e)


def eta(hypergraph: Hypergraph) -> int:
    """Least common multiple of the hyperlink sizes (needs ≥ 1 hyperlink)."""
    if not hypergraph.hyperlinks:
        raise ValueError("eta is undefined for a hypergraph without hyperlinks")
    return lcm(*(len(e) for e in hypergraph.hyperlinks))


def is_r_uniform(hypergraph: Hypergraph, r: int) -> bool:
    return all(len(e) == r for e in hypergraph.hyperlinks)


@dataclass(frozen=True)
class CharacteristicFunction:
    """Base for zero-normalized coalition worth functions on a fixed player set."""

    players: Coalition

    def worth(self, coalition: Iterable[PlayerId]) -> Fraction:
        s = frozenset(coalition)
        if not s <= self.players:
            raise ValueError(
                f"coalition {sorted(s)} contains players outside {sorted(self.players)}"
            )
        return self._worth(s)

    def _worth(self, coalition: Coalition) -> Fraction:
        raise NotImplementedError

    def unanimity_coefficients(self) -> dict[Coalition, Fraction] | None:
        """Nonzero Harsanyi dividends read straight off the representation,
        or None when the variant does not expose them."""
        return None


@dataclass(frozen=True)
class TableFunction(CharacteristicFunction):
    """Exact coalition→worth map; every unlisted coalition is worth zero."""

    entries: Mapping[Coalition, Fraction]

    def __post_init__(self):
        players = self.players
        clean: dict[Coalition, Fraction] = {}
        for raw, value in self.entries.items():
            s = frozenset(raw)
            w = as_fraction(value)
            if not s <= players:
                raise ValueError(f"table coalition {sorted(s)} is not within the player set")
            if w:
                if len(s) <= 1:
                    raise ValueError(
                        f"zero-normalization requires worth 0 for {sorted(s)}, got {w}"
                    )
                clean[s] = w
        object.__setattr__(self, "entries", clean)

    def _worth(self, coalition: Coalition) -> Fraction:
        return self.entries.get(coalition, ZERO)


@dataclass(frozen=True)
class WeightedUnanimityFunction(CharacteristicFunction):
    """Finite linear combination of unanimity games, merged per support."""

    terms: tuple[tuple[Coalition, Fraction], ...]

    def __post_init__(self):
        players = self.players
        merged: dict[Coalition, Fraction] = {}
        for raw, coeff in self.terms:
            s = frozenset(raw)
            c = as_fraction(coeff)
            if not s <= players:
                raise ValueError(f"support {sorted(s)} is not within the player set")
            if len(s) < 2:
                raise ValueError(
                    "unanimity supports need at least two players (zero-normalization)"
                )
            merged[s] = merged[s] + c if s in merged else c
        canonical = tuple(
            (s, c) for s, c in sorted(merged.items(), key=lambda kv: link_key(kv[0])) if c
        )
        object.__setattr__(self, "terms", canonical)

    def _worth(self, coalition: Coalition) -> Fraction:
        return sum((c for s, c in self.terms if s <= coalition), ZERO)

    def unanimity_coefficients(self) -> dict[Coalition, Fraction]:
        return dict(self.terms)


def table_function(players: Iterable[PlayerId], entries: Mapping) -> TableFunction:
    return TableFunction(frozenset(players), dict(entries))


def unanimity(players: Iterable[PlayerId], support: Iterable[PlayerId]) -> WeightedUnanimityFunction:
    """u_T: worth 1 on the supersets of the support T, 0 elsewhere."""
    return WeightedUnanimityFunction(frozenset(players), ((frozenset(support), ONE),))


def weighted_unanimity(players: Iterable[PlayerId], terms) -> WeightedUnanimityFunction:
    return WeightedUnanimityFunction(
        frozenset(players), tuple((frozenset(t), as_fraction(c)) for t, c in terms)
    )


@dataclass(frozen=True)
class HypergraphGame:
    """A zero-normalized TU-game together with its communication hypergraph."""

    hypergraph: Hypergraph
    characteristic: CharacteristicFunction

    def __post_init__(self):
        if self.characteristic.players != self.hypergraph.player_set:
            raise ValueError("characteristic function and hypergraph disagree on the player set")

    @property
    def players(self) -> tuple[PlayerId, ...]:
        return self.hypergraph.players

    @property
    def hyperlinks(self) -> tuple[Hyperlink, ...]:
        return self.hypergraph.hyperlinks

    def worth(self, coalition: Iterable[PlayerId]) -> Fraction:
        return self.characteristic.worth(coalition)

    def with_hyperlinks(self, hyperlinks: Iterable[Iterable[PlayerId]]) -> "HypergraphGame":
        """Same players and worths, different communication structure."""
        return HypergraphGame(make_hypergraph(self.players, hyperlinks), self.characteristic)

    def without_hyperlink(self, link: Iterable[PlayerId]) -> "HypergraphGame":
        e = frozenset(link)
        if e not in self.hypergraph.hyperlinks:
            raise ValueError(f"no hyperlink {sorted(e)} to remove")
        return self.with_hyperlinks(x for x in self.hyperlinks if x != e)


def zero_allocation(players: Iterable[PlayerId]) -> Allocation:
    return {p: ZERO for p in players}


def integer_form(
    cf: CharacteristicFunction, players: tuple[PlayerId, ...]
) -> tuple[int, list[tuple[int, int]] | None, dict[int, int] | None]:
    """(scale, terms, entries): the worths a characteristic holds, as
    integers over one scale with coalitions as bitmasks over `players`.
    Unanimity coefficients c_T give terms, one (mask of T, scale·c_T)
    pair per support; a table gives entries, {mask: scale·v} over its
    nonzero worths.  Any other characteristic gives (1, None, None) and
    is asked through `cf.worth` by `scaled_worths`.  The form is kept on
    the characteristic for the last `players` it was read over, so the
    planner's routes and the worth reads share one conversion; callers
    only read it."""
    kept = vars(cf).get("_integer_form")
    if kept is not None and kept[0] == players:
        return kept[1]
    coefficients = cf.unanimity_coefficients()
    if coefficients is None and not isinstance(cf, TableFunction):
        return 1, None, None
    bit = {p: 1 << k for k, p in enumerate(players)}
    given = (cf.entries if coefficients is None else coefficients).items()
    scale = lcm(*(w.denominator for _, w in given))
    scaled = {sum(bit[p] for p in s): w.numerator * (scale // w.denominator) for s, w in given}
    form = (scale, None, scaled) if coefficients is None else (scale, list(scaled.items()), None)
    vars(cf)["_integer_form"] = (players, form)
    return form


def scaled_worths(
    cf: CharacteristicFunction, players: tuple[PlayerId, ...], coalitions: Iterable[int]
) -> tuple[int, dict[int, int]]:
    """(scale, {mask: scale·v(mask)}) for coalitions given as bitmasks over
    `players`, summed from `integer_form`, or for any other
    characteristic asked through `cf.worth` once per coalition."""
    scale, terms, entries = integer_form(cf, players)
    if terms is not None:
        return scale, {c: sum(w for s, w in terms if c & s == s) for c in coalitions}
    if entries is not None:
        return scale, {c: entries.get(c, 0) for c in coalitions}
    worths = {c: as_fraction(cf.worth(p for k, p in enumerate(players) if c >> k & 1)) for c in coalitions}
    scale = lcm(*(w.denominator for w in worths.values()))
    return scale, {c: w.numerator * (scale // w.denominator) for c, w in worths.items()}
