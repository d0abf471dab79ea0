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
"p/q" strings; floats are rejected.

Exit codes: 0 success / property holds, 1 property fails, 2 bad input or
an output write error, 3 an enumeration cap was exceeded.
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

from .axioms import (
    DEFAULT_RECURSION_CAP,
    Report,
    check_balanced_conference_contributions,
    check_balanced_link_contributions,
    check_component_efficiency,
    check_copy_deletion,
    check_partial_balanced_conference_contributions,
    compare,
    value_from_axioms,
)
from .expansion import (
    DEFAULT_STATE_CAP,
    agent_form_payoffs,
    build_uniform,
    group_by_origin,
    grouped_position,
    require_state_cap,
    shapley_blockwise,
)
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
from .shapley import CapExceeded, DEFAULT_SUBSET_CAP, require_subset_cap
from .solutions import myerson_value, position_value, shapley_value


class DocumentError(ValueError):
    """A game document failed validation."""


_RATIONAL = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


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
        if not match or int(match.group(2) or 1) == 0:
            raise DocumentError(f"{where}: malformed rational {value!r}")
        return Fraction(int(match.group(1)), int(match.group(2) or 1))
    raise DocumentError(
        f'{where}: expected an integer or "p/q" string, got {type(value).__name__}'
    )


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise DocumentError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _int_list(raw, where: str) -> list[int]:
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: expected a list of player ids")
    out = []
    for n, item in enumerate(raw):
        if isinstance(item, bool) or not isinstance(item, int):
            raise DocumentError(f"{where}[{n}]: expected an integer player id, got {item!r}")
        out.append(item)
    return out


def parse_game(text: str) -> HypergraphGame:
    """Parse and validate a JSON game document.

    Validation is field-by-field in document order, so the first error
    reported is deterministic: players, then each hyperlink (size, then
    membership, then duplicates), then the characteristic entries.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError("document root must be a JSON object")

    players = _int_list(_require(doc, "players", "document"), "players")
    player_set = set(players)

    raw_links = doc.get("hyperlinks", [])
    if not isinstance(raw_links, list):
        raise DocumentError("hyperlinks: expected a list of player lists")
    links: list[list[int]] = []
    for n, raw in enumerate(raw_links):
        members = _int_list(raw, f"hyperlinks[{n}]")
        if len(members) < 2:
            raise DocumentError(f"hyperlinks[{n}]: a hyperlink needs at least two members")
        unknown = sorted(p for p in members if p not in player_set)
        if unknown:
            raise DocumentError(f"hyperlinks[{n}]: unknown players {unknown}")
        if len(set(members)) != len(members):
            raise DocumentError(f"hyperlinks[{n}]: duplicate members")
        links.append(members)

    raw_cf = _require(doc, "characteristic", "document")
    if not isinstance(raw_cf, dict):
        raise DocumentError("characteristic: expected an object")
    kinds = [k for k in ("table", "unanimity", "weighted_unanimity") if k in raw_cf]
    if len(kinds) != 1:
        raise DocumentError(
            "characteristic: provide exactly one of 'table', "
            "'unanimity' or 'weighted_unanimity'"
        )

    try:
        structure = make_hypergraph(players, links)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None

    kind = kinds[0]
    try:
        if kind == "unanimity":
            support = _int_list(raw_cf["unanimity"], "characteristic.unanimity")
            cf = unanimity(players, support)
        elif kind == "weighted_unanimity":
            raw_terms = raw_cf["weighted_unanimity"]
            if not isinstance(raw_terms, list):
                raise DocumentError("characteristic.weighted_unanimity: expected a list")
            terms = []
            for n, item in enumerate(raw_terms):
                where = f"characteristic.weighted_unanimity[{n}]"
                if not isinstance(item, dict):
                    raise DocumentError(f"{where}: expected an object")
                coalition = _int_list(_require(item, "coalition", where), f"{where}.coalition")
                coeff = parse_rational(_require(item, "coeff", where), f"{where}.coeff")
                terms.append((coalition, coeff))
            cf = weighted_unanimity(players, terms)
        else:
            raw_entries = raw_cf["table"]
            if not isinstance(raw_entries, list):
                raise DocumentError("characteristic.table: expected a list of entries")
            entries: dict[frozenset[int], Fraction] = {}
            for n, item in enumerate(raw_entries):
                where = f"characteristic.table[{n}]"
                if not isinstance(item, dict):
                    raise DocumentError(f"{where}: expected an object")
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
    try:
        return f"{float(value):.{decimals}f}"
    except OverflowError:  # beyond float range: round exactly, ties to even
        digits = str(round(value * 10**decimals))
        return f"{digits[:-decimals]}.{digits[-decimals:]}" if decimals else digits


def _cell(value: Fraction, decimals: int | None) -> str:
    """An exact rational, followed by its decimal approximation if asked for."""
    exact = format_rational(value)
    return exact if decimals is None else f"{exact} ≈ {_approx(value, decimals)}"


def _allocation_lines(alloc: Allocation, decimals: int | None) -> list[str]:
    width = max((len(str(p)) for p in alloc), default=1)
    return [f"  player {str(p).rjust(width)}: {_cell(alloc[p], decimals)}" for p in sorted(alloc)]


def _allocation_json(alloc: Allocation) -> dict:
    return {str(p): format_rational(alloc[p]) for p in sorted(alloc)}


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _print_report(report: Report, decimals: int | None) -> None:
    """One line per player: the expected right side, the computed left."""
    width = max((len(str(p)) for p in report.sides), default=1)
    for p, side in report.sides.items():
        mark = "   <-- mismatch" if side.residual else ""
        expected, got = format_rational(side.right), _cell(side.left, decimals)
        print(f"  player {str(p).rjust(width)}: expected {expected}, got {got}{mark}")


# ---------------------------------------------------------------- handlers


def _load(args) -> HypergraphGame:
    try:
        text = Path(args.game).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {args.game}: {exc.strerror or exc}") from None
    return parse_game(text)


_RULES = {"position": position_value, "myerson": myerson_value, "shapley": shapley_value}


def _rule_for(args):
    rule = _RULES[args.rule]
    return lambda g: rule(g, cap=args.cap_subsets)


def handle_value(args) -> int:
    game = _load(args)
    alloc = _rule_for(args)(game)
    if args.format == "json":
        _emit_json({"rule": args.rule, "payoffs": _allocation_json(alloc)})
    else:
        print(f"rule: {args.rule}")
        print("\n".join(_allocation_lines(alloc, args.decimals)))
    return 0


def _uniform(game: HypergraphGame, k: int, state_cap: int):
    """The k-fold expansion, refused over the state cap before it is built."""
    require_state_cap([k * eta(game.hypergraph)] * len(game.hyperlinks), state_cap)
    return build_uniform(game, k)


def _copy_label(ep) -> str:
    members = ",".join(str(p) for p in ep.hyperlink)
    return f"{ep.origin}[{members}]#{ep.copy}"


def handle_expand(args) -> int:
    game = _load(args)
    expansion = _uniform(game, args.k, args.cap_states)
    require_subset_cap(len(game.hyperlinks), args.cap_subsets, "hyperlinks")
    per_copy = shapley_blockwise(expansion, state_cap=args.cap_states)
    grouped = group_by_origin(game.players, per_copy)
    blocks = [
        {
            "hyperlink": sorted(e),
            "copies": [_copy_label(ep) for ep in expansion.blocks[link_key(e)]],
            "per_copy": format_rational(per_copy[expansion.blocks[link_key(e)][0]]),
        }
        for e in game.hyperlinks
    ]
    groups = [
        {
            "player": i,
            "copies": [_copy_label(ep) for ep in expansion.groups[i]],
        }
        for i in sorted(expansion.groups)
    ]
    if args.format == "json":
        _emit_json(
            {
                "k": expansion.k,
                "eta": expansion.eta,
                "rho": expansion.rho,
                "universe_size": len(expansion.universe),
                "blocks": blocks,
                "groups": groups,
                "grouped": _allocation_json(grouped),
            }
        )
        return 0
    print(
        f"uniform expansion: k={expansion.k}, eta={expansion.eta}, "
        f"rho={expansion.rho} copies per hyperlink, universe size {len(expansion.universe)}"
    )
    print("blocks (one per hyperlink):")
    for entry in blocks:
        members = ", ".join(str(p) for p in entry["hyperlink"])
        print(
            f"  {{{members}}} ({entry['per_copy']} per copy): "
            + " ".join(entry["copies"])
        )
    print("groups (one per connected player):")
    for entry in groups:
        print(f"  player {entry['player']}: " + " ".join(entry["copies"]))
    print("grouped per original player:")
    print("\n".join(_allocation_lines(grouped, args.decimals)))
    return 0


_CHECKS = {
    "component-efficiency": check_component_efficiency,
    "balanced-link": check_balanced_link_contributions,
    "balanced-conference": check_balanced_conference_contributions,
    "partial-balanced": check_partial_balanced_conference_contributions,
}

_MAX_FAILURE_LINES = 10


def _failure_row(axiom: str, key, side) -> tuple[dict, str]:
    left, right = format_rational(side.left), format_rational(side.right)
    if axiom == "component-efficiency":
        fields = {"component": sorted(key), "allocated": left, "worth": right}
        return fields, f"component {fields['component']}: allocated {left}, worth {right}"
    residual = format_rational(side.residual)
    fields = {"pair": list(key), "left": left, "right": right}
    return fields, f"pair {key}: left {left}, right {right}, residual {residual}"


def handle_check(args) -> int:
    game = _load(args)
    report = _CHECKS[args.axiom](_rule_for(args), game)
    failures, total = report.failures(), len(report.sides)
    if args.axiom == "component-efficiency":
        count_key = "components"
        passed = f"{total} components allocate exactly their worth"
        failed = f"{len(failures)} of {total} components off"
    else:
        count_key = "ordered_pairs"
        passed = f"all {total} ordered pairs balance"
        failed = f"{len(failures)} of {total} ordered pairs unbalanced"
    rows = [_failure_row(args.axiom, key, side) for key, side in failures.items()]
    if args.format == "json":
        _emit_json(
            {
                "axiom": args.axiom,
                "rule": args.rule,
                "passed": not failures,
                count_key: total,
                "failures": [fields for fields, _ in rows],
            }
        )
        return 1 if failures else 0
    print(f"axiom: {report.axiom}\nrule: {args.rule}")
    if not failures:
        print(f"result: PASS — {passed}")
        return 0
    print(f"result: FAIL — {failed}")
    for _, line in rows[:_MAX_FAILURE_LINES]:
        print(f"  {line}")
    if len(failures) > _MAX_FAILURE_LINES:
        print(f"  ... and {len(failures) - _MAX_FAILURE_LINES} more")
    return 1


def handle_verify(args) -> int:
    game = _load(args)
    if not game.hyperlinks:
        print(
            "no hyperlinks: the position value is identically zero and "
            "there is nothing to expand or delete; trivially PASS"
        )
        print("result: PASS")
        return 0

    if args.theorem == "lemma1":
        # Both caps are checked before the first fold, in the order the
        # other theorems use: the state cap of the 1-fold expansion less
        # one copy (the same for every hyperlink), then the subset cap.
        m, base = len(game.hyperlinks), eta(game.hypergraph)
        require_state_cap([base] * (m - 1) + [base - 1], args.cap_states)
        require_subset_cap(m, args.cap_subsets, "hyperlinks")
        ok = True
        for e in game.hyperlinks:
            report = check_copy_deletion(
                game, e, state_cap=args.cap_states, cap=args.cap_subsets
            )
            ok &= report.passed
            members = ", ".join(str(p) for p in sorted(e))
            print(f"  delete one copy of {{{members}}}: {'PASS' if report.passed else 'FAIL'}")
            if not report.passed:
                _print_report(report, args.decimals)
    else:
        # Both caps are checked before either side builds anything: the
        # identity side's state cap first, then position_value's subset cap.
        if args.theorem in ("1", "2"):
            k = args.k if args.theorem == "2" else 1
            expansion = _uniform(game, k, args.cap_states)
            identity = lambda: grouped_position(expansion, state_cap=args.cap_states)
            label = f"grouped Shapley payoffs of the {k}-fold uniform expansion"
        else:  # corollary1: a sub-block of eta/|e| agents per member of each e
            base = eta(game.hypergraph)
            require_state_cap([base // len(e) for e in game.hyperlinks for _ in e], args.cap_states)
            identity = lambda: group_by_origin(
                game.players, agent_form_payoffs(game, state_cap=args.cap_states)
            )
            label = "grouped Myerson payoffs of the agent form"
        expected = position_value(game, cap=args.cap_subsets)
        report = compare(label, identity(), expected)
        print(f"verification: {label} == position value")
        _print_report(report, args.decimals)
        ok = report.passed
    print(f"result: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def handle_solve_axioms(args) -> int:
    game = _load(args)
    solved = value_from_axioms(game, cap=args.cap_recursion)
    direct = position_value(game, cap=args.cap_subsets)
    match = solved == direct
    if args.format == "json":
        _emit_json(
            {
                "payoffs": _allocation_json(solved),
                "matches_position_value": match,
            }
        )
    else:
        print("allocation solved from component efficiency + partial balanced contributions:")
        print("\n".join(_allocation_lines(solved, args.decimals)))
        print(f"matches the directly computed position value: {'yes' if match else 'no'}")
    return 0 if match else 1


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

    def cap_states(p):
        p.add_argument(
            "--cap-states",
            type=_positive,
            default=DEFAULT_STATE_CAP,
            metavar="N",
            help="refuse count-vector enumerations over more than N states",
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
    cap_states(p)

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
    cap_states(p)

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
        help="refuse axiom recursions over more than N hyperlinks",
    )
    cap_subsets(p)

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


def main(argv=None) -> int:
    """Run one command; may be called any number of times in a process."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        _discard_stdout()
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
