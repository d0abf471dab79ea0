"""Command-line interface over JSON game documents.

A game document is a JSON object::

    {
      "players": [1, 2, 3],
      "hyperlinks": [[1, 2], [2, 3]],
      "characteristic": {"unanimity": [1, 3]}
    }

The characteristic is exactly one of ``unanimity`` (a support coalition),
``weighted_unanimity`` (a list of ``{"coalition": [...], "coeff": "p/q"}``
terms), or ``table`` (a list of ``{"coalition": [...], "worth": "p/q"}``
entries, unlisted coalitions worth zero).  Rationals are integers or
"p/q" strings in ASCII digits; floats and unknown keys are rejected.
`parse_game` reports the first problem in document order, named by its
field path (``characteristic.table[3].worth``); the characteristic's own
checks run after every field has passed and are prefixed
``characteristic:``.

Exit codes: 0 success / property holds, 1 property fails, 2 bad input or
an output write error, 3 the subset cap refused the run, or admitted
what this machine cannot hold: `main` prints the `CapExceeded` line, or
the `MemoryError` line with the size of the table that a list cannot
index or that memory ran out building, and names the flag that sets the
cap, ``--cap-subsets``.

Handlers write nothing.  Each returns a `Result` ``(payload, text, code)``:
the ``--format json`` object (it may hold ``Fraction``s and allocations
keyed by player), a function from ``--decimals`` to the ``--format table``
lines, called only on that path, and the exit code.  `main` alone prints,
and maps the errors a handler raises to exit codes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable

from . import jsonout
from .axioms import (
    Report,
    check_agent_form,
    check_balanced_conference_contributions,
    check_balanced_link_contributions,
    check_component_efficiency,
    check_copy_deletions,
    check_partial_balanced_conference_contributions,
    check_uniform_expansion,
    value_from_axioms,
)
from .expansion import copy_counts, expansion_payoffs
from .model import (
    Allocation,
    HypergraphGame,
    TableFunction,
    WeightedUnanimityFunction,
    eta,
    link_key,
    make_hypergraph,
    unanimity,
)
from .shapley import CapExceeded, DEFAULT_SUBSET_CAP
from .solutions import _rows, myerson_value, position_value, shapley_value


class DocumentError(ValueError):
    """A game document failed validation."""


_RATIONAL = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DocumentError(
            f'{where}: floats are not exact; write "p/q" instead of {value!r}'
        )
    if isinstance(value, str):
        match = _RATIONAL.match(value.strip())
        try:
            p, q = (int(match.group(1)), int(match.group(2) or 1)) if match else (0, 0)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            message = f"rational with more than {limit} digits in its numerator or denominator"
            raise DocumentError(f"{where}: {message}") from None
        if not q:
            raise DocumentError(f"{where}: malformed rational {value!r}")
        return Fraction(p, q)
    raise DocumentError(
        f'{where}: expected an integer or "p/q" string, got {type(value).__name__}'
    )


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise DocumentError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _known_keys(mapping: dict, keys: tuple[str, ...], where: str) -> None:
    for key in mapping:
        if key not in keys:
            expected = ", ".join(map(repr, keys))
            raise DocumentError(f"{where}: unknown key {key!r}; expected one of {expected}")


def _int_list(raw, where: str) -> list[int]:
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: expected a list of player ids")
    for n, item in enumerate(raw):
        if isinstance(item, bool) or not isinstance(item, int):
            raise DocumentError(f"{where}[{n}]: expected an integer player id, got {item!r}")
    return raw


_INT = frozenset({int})


def _is_int_list(raw) -> bool:
    """Whether `raw` is a list of ints (no bools): the test `_int_list`
    runs only when it fails, to name the offending member."""
    return type(raw) is list and _INT.issuperset(map(type, raw))


def _rational(value) -> Fraction | None:
    """An int, or a "p/q" string with no surrounding space, a nonzero
    denominator and digits within the interpreter's limit, as a Fraction;
    None for anything else, which `parse_rational` accepts or names."""
    if type(value) is int:
        return Fraction(value)
    if type(value) is str and (match := _RATIONAL.match(value)):
        try:
            p, q = int(match[1]), int(match[2] or 1)
        except ValueError:
            return None
        if q:
            return Fraction(p, q)
    return None


def _entries(items: list, kind: str, value_key: str, distinct: bool) -> list[tuple[frozenset[int], Fraction]]:
    """The (coalition, rational) pairs of the characteristic's list, checked
    entry by entry in document order; `distinct` refuses a repeated
    coalition."""
    keys = ("coalition", value_key)
    exact = frozenset(keys)
    pairs = []
    seen = set()
    for n, item in enumerate(items):
        if type(item) is dict and item.keys() == exact:
            coalition, value = item["coalition"], item[value_key]
        else:
            where = f"characteristic.{kind}[{n}]"
            if type(item) is not dict:
                raise DocumentError(f"{where}: expected an object")
            _known_keys(item, keys, where)
            # a missing value is named below, after the coalition's own problems
            coalition, value = _require(item, "coalition", where), item.get(value_key)
        if not _is_int_list(coalition):
            _int_list(coalition, f"characteristic.{kind}[{n}].coalition")
        s = frozenset(coalition)
        if distinct:
            if s in seen:
                raise DocumentError(f"characteristic.{kind}[{n}]: duplicate coalition {sorted(s)}")
            seen.add(s)
        w = _rational(value)
        if w is None:
            where = f"characteristic.{kind}[{n}]"
            w = parse_rational(_require(item, value_key, where), f"{where}.{value_key}")
        pairs.append((s, w))
    return pairs


def parse_game(text: str) -> HypergraphGame:
    """Parse and validate a JSON game document.

    Every field is checked once, in document order, so the first problem
    is the one reported, named by its field path: the root's unknown keys,
    then players (a list of integers, nonempty, then each id in turn:
    non-negative, then new), then each hyperlink (a list, then in
    `make_hypergraph` its integers, size, membership, repeated members,
    then a repeat of an earlier hyperlink), then the characteristic (its
    keys, then each entry: its keys, its coalition, a repeated table
    coalition, its rational).  An object's
    unknown keys are reported before its fields.  Only then do the
    characteristic's own checks run, in entry order, reported with the
    prefix ``characteristic:`` (a coalition outside the players, a
    nonzero singleton worth, a support of fewer than two players).
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a decode error, or an integer past int's digit limit
        raise DocumentError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    if type(doc) is not dict:
        raise DocumentError("document root must be a JSON object")
    _known_keys(doc, ("players", "hyperlinks", "characteristic"), "document")

    players = _require(doc, "players", "document")
    if not _is_int_list(players):
        _int_list(players, "players")
    if not players:
        raise DocumentError("players: player set must be nonempty")
    player_set = frozenset(players)
    if len(player_set) < len(players) or min(players) < 0:
        first_at: dict[int, int] = {}
        for n, p in enumerate(players):
            if p < 0:
                raise DocumentError(f"players[{n}]: player ids must be non-negative integers, got {p}")
            if (first := first_at.setdefault(p, n)) != n:
                raise DocumentError(f"players[{n}]: duplicate player id {p}, already players[{first}]")

    raw_links = doc.get("hyperlinks", [])
    if type(raw_links) is not list:
        raise DocumentError("hyperlinks: expected a list of player lists")
    # `make_hypergraph` checks each hyperlink in turn up to the first that
    # is not a list, so an earlier hyperlink's problem is reported first
    listed = next((n for n, raw in enumerate(raw_links) if type(raw) is not list), len(raw_links))
    try:
        structure = make_hypergraph(players, raw_links[:listed])
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    if listed < len(raw_links):
        raise DocumentError(f"hyperlinks[{listed}]: expected a list of player ids")

    raw_cf = _require(doc, "characteristic", "document")
    if type(raw_cf) is not dict:
        raise DocumentError("characteristic: expected an object")
    _known_keys(raw_cf, ("table", "unanimity", "weighted_unanimity"), "characteristic")
    if len(raw_cf) != 1:
        raise DocumentError(
            "characteristic: provide exactly one of 'table', "
            "'unanimity' or 'weighted_unanimity'"
        )

    [(kind, raw_kind)] = raw_cf.items()
    if kind == "unanimity":
        if not _is_int_list(raw_kind):
            _int_list(raw_kind, "characteristic.unanimity")
        make, body = unanimity, raw_kind
    elif kind == "weighted_unanimity":
        if type(raw_kind) is not list:
            raise DocumentError("characteristic.weighted_unanimity: expected a list")
        make, body = WeightedUnanimityFunction, tuple(_entries(raw_kind, kind, "coeff", False))
    else:
        if type(raw_kind) is not list:
            raise DocumentError("characteristic.table: expected a list of entries")
        make, body = TableFunction, dict(_entries(raw_kind, kind, "worth", True))
    try:
        cf = make(player_set, body)
    except ValueError as exc:
        raise DocumentError(f"characteristic: {exc}") from None

    return HypergraphGame(structure, cf)


def game_to_document(game: HypergraphGame) -> dict:
    """Serialize a game back to its document form (round-trips exactly)."""
    cf = game.characteristic
    if isinstance(cf, WeightedUnanimityFunction) and [c for _, c in cf.terms] == [1]:
        body = {"unanimity": sorted(cf.terms[0][0])}
    elif isinstance(cf, WeightedUnanimityFunction):
        body = {
            "weighted_unanimity": [
                {"coalition": sorted(s), "coeff": format_rational(c)} for s, c in cf.terms
            ]
        }
    elif isinstance(cf, TableFunction):
        body = {
            "table": [
                {"coalition": sorted(s), "worth": format_rational(w)}
                for s, w in sorted(
                    cf.entries.items(), key=lambda kv: (len(kv[0]), link_key(kv[0]))
                )
            ]
        }
    else:
        raise TypeError(f"cannot serialize a {type(cf).__name__}")
    return {
        "players": list(game.players),
        "hyperlinks": [sorted(e) for e in game.hyperlinks],
        "characteristic": body,
    }


# ---------------------------------------------------------------- output


def _approx(value: Fraction, decimals: int) -> str:
    """`value` rounded exactly to `decimals` places, ties to even; a value
    that rounds to 0 carries no sign."""
    whole, fraction = divmod(round(abs(value) * 10**decimals), 10**decimals)
    sign = "-" if value < 0 and (whole or fraction) else ""
    return f"{sign}{whole}.{fraction:0{decimals}d}" if decimals else f"{sign}{whole}"


def _cell(value: Fraction, decimals: int | None) -> str:
    """An exact rational, followed by its decimal approximation if asked for."""
    exact = format_rational(value)
    return exact if decimals is None else f"{exact} ≈ {_approx(value, decimals)}"


def _allocation_lines(alloc: Allocation, decimals: int | None) -> list[str]:
    width = max((len(str(p)) for p in alloc), default=1)
    return [f"  player {str(p).rjust(width)}: {_cell(alloc[p], decimals)}" for p in sorted(alloc)]


def _report_lines(report: Report, decimals: int | None) -> list[str]:
    """One line per player: the expected right side, the computed left."""
    width = max((len(str(p)) for p in report.sides), default=1)
    lines = []
    for p, side in report.sides.items():
        mark = "   <-- mismatch" if side.residual else ""
        expected, got = format_rational(side.right), _cell(side.left, decimals)
        lines.append(f"  player {str(p).rjust(width)}: expected {expected}, got {got}{mark}")
    return lines


# ---------------------------------------------------------------- handlers

Result = tuple[dict | None, Callable[[int | None], list[str]], int]


def _load(args) -> HypergraphGame:
    try:
        with open(args.game, encoding="utf-8") as file:
            text = file.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {args.game}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"cannot read {args.game}: {exc}") from None
    return parse_game(text)


_RULES = {"position": position_value, "myerson": myerson_value, "shapley": shapley_value}


def _rule_for(args):
    """The chosen rule under the subset cap; the position rule also
    carries the one integer pass (value and deletions) that the pair checks read."""
    rule = functools.partial(_RULES[args.rule], cap=args.cap_subsets)
    if args.rule == "position":
        rule.rows = functools.partial(_rows, cap=args.cap_subsets)
    return rule


def handle_value(args) -> Result:
    alloc = _rule_for(args)(_load(args))

    def text(decimals):
        return [f"rule: {args.rule}", *_allocation_lines(alloc, decimals)]

    return {"rule": args.rule, "payoffs": alloc}, text, 0


def handle_expand(args) -> Result:
    game = _load(args)
    counts = copy_counts(game, args.k)
    size = sum(counts.values())
    # The subset cap N prices each listed copy label as 4 table entries
    # (about 220 B against 85 B) and refuses 4·size > 2^N; comparing bit
    # lengths builds no 2^N for a huge N.
    cap = args.cap_subsets
    if (4 * size - 1).bit_length() > cap:
        raise CapExceeded(f"the listing of {size} copies", 4 * size, cap)
    per_copy, grouped = expansion_payoffs(game, args.k, cap=cap)
    members = {e: ",".join(map(str, sorted(e))) for e in game.hyperlinks}
    labels = {
        (i, e): [f"{i}[{members[e]}]#{t}" for t in range(1, copies + 1)]
        for (i, e), copies in counts.items()
    }
    blocks = [
        {
            "hyperlink": sorted(e),
            "copies": [label for i in sorted(e) for label in labels[i, e]],
            "per_copy": per_copy[e],
        }
        for e in game.hyperlinks
    ]
    held: dict[int, list[str]] = {}
    for (i, _), mine in labels.items():
        held.setdefault(i, []).extend(mine)
    groups = [{"player": i, "copies": mine} for i, mine in held.items()]
    base = eta(game.hypergraph)
    payload = {
        "k": args.k,
        "eta": base,
        "rho": args.k * base,
        "universe_size": size,
        "blocks": blocks,
        "groups": groups,
        "grouped": grouped,
    }

    def text(decimals):
        lines = [
            f"uniform expansion: k={args.k}, eta={base}, "
            f"rho={args.k * base} copies per hyperlink, universe size {payload['universe_size']}",
            "blocks (one per hyperlink):",
        ]
        for entry in blocks:
            members = ", ".join(str(p) for p in entry["hyperlink"])
            lines.append(f"  {{{members}}} ({entry['per_copy']} per copy): " + " ".join(entry["copies"]))
        lines.append("groups (one per connected player):")
        lines += [f"  player {entry['player']}: " + " ".join(entry["copies"]) for entry in groups]
        lines.append("grouped per original player:")
        return lines + _allocation_lines(payload["grouped"], decimals)

    return payload, text, 0


_CHECKS = {
    "component-efficiency": check_component_efficiency,
    "balanced-link": check_balanced_link_contributions,
    "balanced-conference": check_balanced_conference_contributions,
    "partial-balanced": check_partial_balanced_conference_contributions,
}

_MAX_FAILURE_LINES = 10


def handle_check(args) -> Result:
    report = _CHECKS[args.axiom](_rule_for(args), _load(args))
    failures, total = report.failures(), len(report)
    efficiency = args.axiom == "component-efficiency"
    if efficiency:
        count_key = "components"
        passed = f"{total} components allocate exactly their worth"
        failed = f"{len(failures)} of {total} components off"
        rows = [
            {"component": sorted(key), "allocated": side.left, "worth": side.right}
            for key, side in failures.items()
        ]
    else:
        count_key = "ordered_pairs"
        passed = f"all {total} ordered pairs balance"
        failed = f"{len(failures)} of {total} ordered pairs unbalanced"
        rows = [
            {"pair": list(key), "left": side.left, "right": side.right}
            for key, side in failures.items()
        ]
    payload = {
        "axiom": args.axiom,
        "rule": args.rule,
        "passed": not failures,
        count_key: total,
        "failures": rows,
    }

    def text(decimals):
        lines = [f"axiom: {report.axiom}", f"rule: {args.rule}"]
        if not failures:
            return [*lines, f"result: PASS — {passed}"]
        lines.append(f"result: FAIL — {failed}")
        for key, side in list(failures.items())[:_MAX_FAILURE_LINES]:
            if efficiency:
                lines.append(f"  component {sorted(key)}: allocated {side.left}, worth {side.right}")
            else:
                lines.append(
                    f"  pair {key}: left {side.left}, right {side.right}, residual {side.residual}"
                )
        if len(failures) > _MAX_FAILURE_LINES:
            lines.append(f"  ... and {len(failures) - _MAX_FAILURE_LINES} more")
        return lines

    return payload, text, 1 if failures else 0


def handle_verify(args) -> Result:
    game = _load(args)
    if not game.hyperlinks:
        lines = [
            "no hyperlinks: the position value is identically zero and "
            "there is nothing to expand or delete; trivially PASS",
            "result: PASS",
        ]
        return None, lambda decimals: lines, 0

    if args.theorem == "lemma1":
        deletions = check_copy_deletions(game, cap=args.cap_subsets)
        ok = all(report.passed for report in deletions.values())

        def body(decimals):
            lines = []
            for e, report in deletions.items():
                members = ", ".join(str(p) for p in sorted(e))
                lines.append(f"  delete one copy of {{{members}}}: {'PASS' if report.passed else 'FAIL'}")
                if not report.passed:
                    lines += _report_lines(report, decimals)
            return lines
    else:
        if args.theorem in ("1", "2"):
            k = args.k if args.theorem == "2" else 1
            report = check_uniform_expansion(game, k, cap=args.cap_subsets)
        else:
            report = check_agent_form(game, cap=args.cap_subsets)
        ok = report.passed

        def body(decimals):
            return [
                f"verification: {report.axiom} == position value",
                *_report_lines(report, decimals),
            ]

    def text(decimals):
        return [*body(decimals), f"result: {'PASS' if ok else 'FAIL'}"]

    return None, text, 0 if ok else 1


def handle_solve_axioms(args) -> Result:
    game = _load(args)
    solved = value_from_axioms(game, cap=args.cap_subsets)
    direct = position_value(game, cap=args.cap_subsets)
    match = solved == direct

    def text(decimals):
        return [
            "allocation solved from component efficiency + partial balanced contributions:",
            *_allocation_lines(solved, decimals),
            f"matches the directly computed position value: {'yes' if match else 'no'}",
        ]

    return {"payoffs": solved, "matches_position_value": match}, text, 0 if match else 1


# ---------------------------------------------------------------- parser

# The shared parser yields a command name, not a handler: `main` looks the
# handler up here on every call, so a handler swapped into this table after
# the parser was built (perfbench's tracer does so) is the one called.
_HANDLERS = {
    "value": handle_value,
    "expand": handle_expand,
    "check": handle_check,
    "verify": handle_verify,
    "solve-axioms": handle_solve_axioms,
}


# `--decimals` prints up to this many fraction digits: the most that
# str() gives an int under the interpreter's default limit on digits.
MAX_DECIMALS = 4300


def _decimals(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer between 0 and {MAX_DECIMALS}") from None
    if not 0 <= value <= MAX_DECIMALS:
        raise argparse.ArgumentTypeError(f"must be between 0 and {MAX_DECIMALS}")
    return value


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be a positive integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercoop",
        description="Exact Myerson and position values for TU-games "
        "with hypergraph communication structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("game", help="path to a JSON game document")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument(
            "--decimals",
            type=_decimals,
            default=None,
            metavar="N",
            help=f"also show decimal approximations to N <= {MAX_DECIMALS} places (table format only)",
        )

    def cap_subsets(p, also=""):
        p.add_argument(
            "--cap-subsets",
            type=_positive,
            default=DEFAULT_SUBSET_CAP,
            metavar="N",
            help="list at most 2^c/4 · c/size sets, c = min(N, size); refuse tables over N elements" + also,
        )

    p = sub.add_parser("value", help="compute an allocation rule")
    common(p)
    p.add_argument("--rule", choices=tuple(_RULES), default="position")
    cap_subsets(p)

    p = sub.add_parser("expand", help="build a uniform expansion and its Shapley payoffs")
    common(p)
    p.add_argument(
        "--k",
        type=_positive,
        default=1,
        help="expansion multiplier: every hyperlink becomes k*eta equal copies",
    )
    cap_subsets(p, " and listings over 2^N/4 copies, the universe size m*k*eta")

    p = sub.add_parser("check", help="test an allocation rule against an axiom")
    common(p)
    p.add_argument("--axiom", choices=tuple(_CHECKS), required=True)
    p.add_argument("--rule", choices=tuple(_RULES), default="position")
    cap_subsets(p)

    p = sub.add_parser("verify", help="verify a structural identity of the position value")
    common(p)
    p.add_argument(
        "--theorem",
        choices=("1", "2", "corollary1", "lemma1"),
        required=True,
        help="1: grouped payoffs of the 1-fold uniform expansion match the "
        "position value; 2: same for the k-fold expansion; corollary1: "
        "grouped agent-form Myerson payoffs match the position value; "
        "lemma1: deleting one copy equals deleting the hyperlink outright",
    )
    p.add_argument(
        "--k",
        type=_positive,
        default=2,
        help="expansion multiplier used by --theorem 2",
    )
    cap_subsets(p)

    p = sub.add_parser(
        "solve-axioms",
        help="reconstruct the allocation from its axioms and cross-check it",
    )
    common(p)
    cap_subsets(p, " and axiom reconstructions over 2^N row entries (connected sets·hyperlinks·players)")

    parser.commands = sub.choices
    return parser


def _discard_stdout() -> None:
    """Point the standard output descriptor at devnull, so that bytes a
    failed flush left buffered cannot fail again at interpreter shutdown."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # replaced by an in-memory stream; nothing flushes to a descriptor
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every `main` call of this process shares, built on the
    first call rather than at import.  Parsing keeps no state in it: each
    call gets a fresh namespace."""
    return build_parser()


def _parse(argv) -> argparse.Namespace:
    """The command line parsed once, by the named command's parser; the
    full parser (and its messages) when no command is named or arguments
    are left over."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command; may be called any number of times in a process."""
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, text, code = _HANDLERS[args.command](args)
        # `verify` returns no payload and prints its text report under both
        # formats: the benchmark's reference check (perfbench/reference.py,
        # `_verify`) reads its `player N: expected a, got b` and `result:`
        # lines, so it keeps them until that check reads JSON.
        if args.format == "json" and payload is not None:
            print(jsonout.dumps(payload))
        else:
            print("\n".join(text(args.decimals)))
        sys.stdout.flush()
        return code
    except OSError as exc:
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        _discard_stdout()
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}; raise it with --cap-subsets", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}; --cap-subsets {args.cap_subsets} admitted it", file=sys.stderr)
        return 3
    except ValueError as exc:  # a DocumentError or another bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
