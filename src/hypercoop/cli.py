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

Exit codes: 0 success / property holds, 1 property fails, 2 bad input or
an output write error, 3 an enumeration cap was exceeded.

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
from pathlib import Path
from typing import Callable

from . import jsonout
from .axioms import (
    DEFAULT_RECURSION_CAP,
    Report,
    check_balanced_conference_contributions,
    check_balanced_link_contributions,
    check_component_efficiency,
    check_copy_deletions,
    check_partial_balanced_conference_contributions,
    check_uniform_expansion,
    compare,
    value_from_axioms,
)
from .expansion import copy_counts, expansion_payoffs, grouped_agent_form
from .model import (
    Allocation,
    HypergraphGame,
    TableFunction,
    UnanimityFunction,
    WeightedUnanimityFunction,
    eta,
    link_key,
    make_hypergraph,
    table_function,
    unanimity,
    weighted_unanimity,
)
from .shapley import CapExceeded, DEFAULT_SUBSET_CAP
from .solutions import _rows, myerson_value, position_value, shapley_value

# `expand` lists every copy it solves, so it alone bounds their number.
DEFAULT_STATE_CAP = 1_000_000


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
    if set(map(type, raw)) <= {int}:
        return raw
    for n, item in enumerate(raw):
        if isinstance(item, bool) or not isinstance(item, int):
            raise DocumentError(f"{where}[{n}]: expected an integer player id, got {item!r}")
    return raw


def parse_game(text: str) -> HypergraphGame:
    """Parse and validate a JSON game document.

    Validation is field-by-field in document order, so the first error
    reported is deterministic: players (nonempty, then each id in turn:
    non-negative, then new), then each hyperlink (size, then membership,
    then duplicates), then the characteristic entries.  An object's
    unknown keys are reported before its fields.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a decode error, or an integer past int's digit limit
        raise DocumentError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError("document root must be a JSON object")
    _known_keys(doc, ("players", "hyperlinks", "characteristic"), "document")

    players = _int_list(_require(doc, "players", "document"), "players")
    if not players:
        raise DocumentError("players: player set must be nonempty")
    player_set = set(players)
    if len(player_set) < len(players) or min(players) < 0:
        first_at: dict[int, int] = {}
        for n, p in enumerate(players):
            if p < 0:
                raise DocumentError(f"players[{n}]: player ids must be non-negative integers, got {p}")
            if (first := first_at.setdefault(p, n)) != n:
                raise DocumentError(f"players[{n}]: duplicate player id {p}, already players[{first}]")

    raw_links = doc.get("hyperlinks", [])
    if not isinstance(raw_links, list):
        raise DocumentError("hyperlinks: expected a list of player lists")
    links: dict[frozenset[int], int] = {}
    for n, raw in enumerate(raw_links):
        members = _int_list(raw, f"hyperlinks[{n}]")
        if len(members) < 2:
            raise DocumentError(f"hyperlinks[{n}]: a hyperlink needs at least two members")
        if not player_set.issuperset(members):
            unknown = sorted(p for p in members if p not in player_set)
            raise DocumentError(f"hyperlinks[{n}]: unknown players {unknown}")
        if len(set(members)) != len(members):
            raise DocumentError(f"hyperlinks[{n}]: duplicate members")
        if (first := links.setdefault(frozenset(members), n)) != n:
            raise DocumentError(
                f"hyperlinks[{n}]: duplicate hyperlink {sorted(members)}, already hyperlinks[{first}]"
            )

    raw_cf = _require(doc, "characteristic", "document")
    if not isinstance(raw_cf, dict):
        raise DocumentError("characteristic: expected an object")
    _known_keys(raw_cf, ("table", "unanimity", "weighted_unanimity"), "characteristic")
    if len(raw_cf) != 1:
        raise DocumentError(
            "characteristic: provide exactly one of 'table', "
            "'unanimity' or 'weighted_unanimity'"
        )

    try:
        structure = make_hypergraph(players, links)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None

    [(kind, raw_kind)] = raw_cf.items()
    try:
        if kind == "unanimity":
            support = _int_list(raw_kind, "characteristic.unanimity")
            cf = unanimity(players, support)
        elif kind == "weighted_unanimity":
            if not isinstance(raw_kind, list):
                raise DocumentError("characteristic.weighted_unanimity: expected a list")
            terms = []
            for n, item in enumerate(raw_kind):
                where = f"characteristic.weighted_unanimity[{n}]"
                if not isinstance(item, dict):
                    raise DocumentError(f"{where}: expected an object")
                _known_keys(item, ("coalition", "coeff"), where)
                coalition = _int_list(_require(item, "coalition", where), f"{where}.coalition")
                coeff = parse_rational(_require(item, "coeff", where), f"{where}.coeff")
                terms.append((coalition, coeff))
            cf = weighted_unanimity(players, terms)
        else:
            if not isinstance(raw_kind, list):
                raise DocumentError("characteristic.table: expected a list of entries")
            entries: dict[frozenset[int], Fraction] = {}
            for n, item in enumerate(raw_kind):
                where = f"characteristic.table[{n}]"
                if not isinstance(item, dict):
                    raise DocumentError(f"{where}: expected an object")
                _known_keys(item, ("coalition", "worth"), where)
                coalition = frozenset(
                    _int_list(_require(item, "coalition", where), f"{where}.coalition")
                )
                if coalition in entries:
                    raise DocumentError(f"{where}: duplicate coalition {sorted(coalition)}")
                entries[coalition] = parse_rational(
                    _require(item, "worth", where), f"{where}.worth"
                )
            cf = table_function(players, entries)
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(f"characteristic: {exc}") from None

    return HypergraphGame(structure, cf)


def game_to_document(game: HypergraphGame) -> dict:
    """Serialize a game back to its document form (round-trips exactly)."""
    cf = game.characteristic
    if isinstance(cf, UnanimityFunction):
        body = {"unanimity": sorted(cf.support)}
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
        text = Path(args.game).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {args.game}: {exc.strerror or exc}") from None
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
    if size > args.cap_states:
        raise CapExceeded(f"universe size {size} exceeds the state cap {args.cap_states}")
    per_copy, grouped = expansion_payoffs(game, args.k, cap=args.cap_subsets)
    labels = {
        (i, e): [f"{i}[{','.join(map(str, sorted(e)))}]#{t}" for t in range(1, copies + 1)]
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
            # Corollary 1 solves the agent form itself, on a pass of its own.
            grouped = grouped_agent_form(game, cap=args.cap_subsets)
            label = "grouped Myerson payoffs of the agent form"
            report = compare(label, grouped, position_value(game, cap=args.cap_subsets))
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
    direct = position_value(game, cap=args.cap_subsets)
    solved = value_from_axioms(game, cap=args.cap_recursion)
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


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
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
            type=_nonnegative,
            default=None,
            metavar="N",
            help="also show decimal approximations to N places (table format only)",
        )

    def cap_subsets(p):
        p.add_argument(
            "--cap-subsets",
            type=_positive,
            default=DEFAULT_SUBSET_CAP,
            metavar="N",
            help="refuse subset enumerations over more than N elements",
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
    cap_subsets(p)
    p.add_argument(
        "--cap-states",
        type=_positive,
        default=DEFAULT_STATE_CAP,
        metavar="N",
        help="refuse to list more than N copies, the universe size m*k*eta",
    )

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
    p.add_argument(
        "--cap-recursion",
        type=_positive,
        default=DEFAULT_RECURSION_CAP,
        metavar="N",
        help="refuse axiom reconstructions over more than 2^N - 1 connected "
        "hyperlink sets, the most that N hyperlinks can form",
    )
    cap_subsets(p)

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
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a DocumentError or another bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
