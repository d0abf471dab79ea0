"""A reference written from the paper's definitions, and the answer checks.

Nothing here imports the program.  Players and hyperlinks become bit
positions; worths are exact `Fraction`s scaled to integers by the lcm of
their denominators, so the subset-formula Shapley value runs on plain
integers and divides once per element at the end.

* components: maximal player sets joined by overlapping hyperlinks;
* conference game: v^N(H') = sum over the components C of (N, H') of v(C);
* point game: v^H(S) = sum over the components of S under the hyperlinks
  inside S;
* Shapley value by the subset formula; position value
  pi_i = sum over e containing i of Sh_e(v^N) / |e|.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial, lcm


def parse_rational(value) -> Fraction:
    return Fraction(value) if isinstance(value, int) else Fraction(str(value))


class Game:
    """One game document, indexed by bits."""

    def __init__(self, doc: dict):
        self.players = sorted(doc["players"])
        self.bit = {p: 1 << n for n, p in enumerate(self.players)}
        self.links = [sorted(e) for e in doc["hyperlinks"]]
        self.link_masks = [self.mask(e) for e in self.links]
        (kind, body), = doc["characteristic"].items()
        if kind == "unanimity":
            terms = [(self.mask(body), Fraction(1))]
        elif kind == "weighted_unanimity":
            terms = [(self.mask(t["coalition"]), parse_rational(t["coeff"])) for t in body]
        else:
            terms = None
            self.table = {self.mask(t["coalition"]): parse_rational(t["worth"]) for t in body}
        self.terms = terms
        values = [c for _, c in terms] if terms is not None else list(self.table.values())
        self.scale = lcm(1, *(v.denominator for v in values))
        self._worth: dict[int, int] = {}

    def mask(self, players) -> int:
        out = 0
        for p in players:
            out |= self.bit[p]
        return out

    def worth(self, coalition: int) -> int:
        """v(coalition) times `scale`, an integer."""
        cached = self._worth.get(coalition)
        if cached is None:
            if self.terms is not None:
                value = sum(c for s, c in self.terms if s & coalition == s)
            else:
                value = self.table.get(coalition, 0)
            cached = int(value * self.scale)
            self._worth[coalition] = cached
        return cached

    def components(self, link_masks) -> list[int]:
        """Components with two or more players; singletons are worth 0."""
        comps: list[int] = []
        for link in link_masks:
            merged, keep = link, []
            for c in comps:
                if c & merged:
                    merged |= c
                else:
                    keep.append(c)
            keep.append(merged)
            comps = keep
        return comps

    def all_components(self) -> list[int]:
        """Every component of (N, H), singletons included."""
        comps = self.components(self.link_masks)
        covered = 0
        for c in comps:
            covered |= c
        comps += [b for b in self.bit.values() if not b & covered]
        return comps

    def conference_table(self) -> list[int]:
        m = len(self.link_masks)
        table = [0] * (1 << m)
        for active in range(1, 1 << m):
            chosen = [self.link_masks[j] for j in range(m) if active >> j & 1]
            table[active] = sum(self.worth(c) for c in self.components(chosen))
        return table

    def point_table(self) -> list[int]:
        n = len(self.players)
        table = [0] * (1 << n)
        for coalition in range(1, 1 << n):
            inside = [e for e in self.link_masks if e & coalition == e]
            table[coalition] = sum(self.worth(c) for c in self.components(inside))
        return table

    def position_value(self) -> dict[int, Fraction]:
        payoffs = {p: Fraction(0) for p in self.players}
        if not self.links:
            return payoffs
        for e, sh in zip(self.links, self.link_shapley()):
            for p in e:
                payoffs[p] += sh / len(e)
        return payoffs

    def link_shapley(self) -> list[Fraction]:
        return shapley(self.conference_table(), self.scale)

    def myerson_value(self) -> dict[int, Fraction]:
        return dict(zip(self.players, shapley(self.point_table(), self.scale)))

    def without_link(self, j: int) -> "Game":
        other = object.__new__(Game)
        other.__dict__.update(self.__dict__)
        other.links = self.links[:j] + self.links[j + 1:]
        other.link_masks = self.link_masks[:j] + self.link_masks[j + 1:]
        return other


def shapley(table: list[int], scale: int) -> list[Fraction]:
    """Subset-formula Shapley value of an integer worth table over u
    elements, divided by `scale` at the end."""
    u = (len(table) - 1).bit_length()
    weight = [factorial(s) * factorial(u - s - 1) for s in range(u)]
    sizes = [0] * len(table)
    for mask in range(1, len(table)):
        sizes[mask] = sizes[mask >> 1] + (mask & 1)
    denominator = factorial(u) * scale
    out = []
    for j in range(u):
        bit = 1 << j
        total = 0
        for mask in range(len(table)):
            if not mask & bit:
                diff = table[mask | bit] - table[mask]
                if diff:
                    total += weight[sizes[mask]] * diff
        out.append(Fraction(total, denominator))
    return out


# ------------------------------------------------------------ properties


def property_failures(game: Game, payoffs: dict[int, Fraction], ring) -> list[str]:
    """Component efficiency, zero payoff off every hyperlink, and equal
    payoffs around a rotation-invariant ring."""
    problems = []
    for comp in game.all_components():
        members = [p for p in game.players if game.bit[p] & comp]
        total = sum(payoffs[p] for p in members)
        if total * game.scale != game.worth(comp):
            problems.append(f"component {members} gets {total}")
    on_links = {p for e in game.links for p in e}
    for p in game.players:
        if p not in on_links and payoffs[p] != 0:
            problems.append(f"player {p} is on no hyperlink but gets {payoffs[p]}")
    if ring is not None:
        if len({payoffs[p] for p in ring}) != 1:
            problems.append("a rotation of the ring changes payoffs")
    return problems


def balanced_holds(game: Game, weights) -> bool:
    """Does the position value satisfy sum_{e ∋ j} w_e (pi_i(H) - pi_i(H∖e))
    = sum_{e ∋ i} w_e (pi_j(H) - pi_j(H∖e)) for every pair?"""
    base = game.position_value()
    removed = [game.without_link(j).position_value() for j in range(len(game.links))]
    gain = {
        (i, j): sum(
            (weights(e) * (base[i] - removed[n][i]) for n, e in enumerate(game.links) if j in e),
            Fraction(0),
        )
        for i in game.players
        for j in game.players
    }
    return all(gain[(i, j)] == gain[(j, i)] for i, j in gain)


# ------------------------------------------------------------ answer checks


class Checker:
    """Checks CLI outputs against the reference, computing each reference
    value once per game."""

    def __init__(self, doc: dict, ring=None):
        self.game = Game(doc)
        self.ring = ring
        self._cache: dict[str, object] = {}

    def _get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def position(self):
        return self._get("position", self.game.position_value)

    def myerson(self):
        return self._get("myerson", self.game.myerson_value)

    def link_shapley(self):
        return self._get("links", self.game.link_shapley)

    def check(self, argv: list[str], code: int, out: str) -> list[str]:
        """Problems with one task's answer; an empty list means correct."""
        if code != 0:
            return [f"exit code {code}"]
        command = argv[0]
        if command == "value":
            body = json.loads(out)
            rule = argv[argv.index("--rule") + 1]
            expected = self.position() if rule == "position" else self.myerson()
            return self._allocation(_payoffs(body["payoffs"]), expected)
        if command == "expand":
            return self._expand(int(argv[argv.index("--k") + 1]), json.loads(out))
        if command == "verify":
            return self._verify(argv[argv.index("--theorem") + 1], out)
        if command == "solve-axioms":
            body = json.loads(out)
            problems = self._allocation(_payoffs(body["payoffs"]), self.position())
            if body["matches_position_value"] is not True:
                problems.append("solve-axioms does not match the position value")
            return problems
        if command == "check":
            return self._check(argv[argv.index("--axiom") + 1], json.loads(out))
        return [f"no check for {command}"]

    def _allocation(self, got: dict, expected: dict) -> list[str]:
        if got != expected:
            wrong = [p for p in expected if got.get(p) != expected[p]]
            return [f"payoffs differ from the reference for players {wrong}"]
        return property_failures(self.game, got, self.ring)

    def _expand(self, k: int, body: dict) -> list[str]:
        game = self.game
        eta = lcm(*(len(e) for e in game.links))
        rho = k * eta
        problems = []
        if (body["k"], body["eta"], body["rho"]) != (k, eta, rho):
            problems.append("k, eta or rho is wrong")
        if body["universe_size"] != rho * len(game.links):
            problems.append("universe size is wrong")
        # Blocks of equal size rho: each copy of e earns Sh_e(v^N) / rho.
        per_link = dict(zip(map(tuple, game.links), self.link_shapley()))
        for block in body["blocks"]:
            sh = per_link.get(tuple(block["hyperlink"]))
            if sh is None or parse_rational(block["per_copy"]) != sh / rho:
                problems.append(f"per-copy payoff of {block['hyperlink']} is wrong")
            if len(block["copies"]) != rho:
                problems.append(f"block {block['hyperlink']} does not hold rho copies")
        if len(body["blocks"]) != len(game.links):
            problems.append("one block per hyperlink is expected")
        return problems + self._allocation(_payoffs(body["grouped"]), self.position())

    def _verify(self, theorem: str, out: str) -> list[str]:
        lines = out.rstrip("\n").splitlines()
        if not lines or lines[-1] != "result: PASS":
            return ["verification does not report PASS"]
        if theorem == "lemma1":
            passes = [ln for ln in lines if re.fullmatch(r"  delete one copy of \{.*\}: PASS", ln)]
            if len(passes) != len(self.game.links):
                return ["copy deletion is not reported for every hyperlink"]
            return []
        got = {}
        for ln in lines:
            match = re.fullmatch(r"\s*player\s+(\d+): expected (\S+), got (\S+)", ln)
            if match:
                got[int(match.group(1))] = Fraction(match.group(3))
        return self._allocation(got, self.position())

    def _check(self, axiom: str, body: dict) -> list[str]:
        game = self.game
        if axiom == "component-efficiency":
            holds = not property_failures(game, self.position(), None)
            size_ok = body["components"] == len(game.all_components())
        else:
            if axiom == "partial-balanced":
                holds = balanced_holds(game, lambda e: Fraction(1, len(e)))
            else:
                holds = balanced_holds(game, lambda e: Fraction(1))
            size_ok = body["ordered_pairs"] == len(game.players) ** 2
        problems = []
        if body["passed"] is not holds or (body["failures"] == []) is not holds:
            problems.append(f"{axiom}: the program says passed={body['passed']}, "
                            f"the reference says {holds}")
        if not size_ok:
            problems.append(f"{axiom}: wrong number of components or pairs")
        return problems


def _payoffs(raw: dict) -> dict[int, Fraction]:
    return {int(p): Fraction(v) for p, v in raw.items()}
