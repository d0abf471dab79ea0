import copy
import errno
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypercoop.axioms
import hypercoop.cli
import hypercoop.connectivity
import hypercoop.expansion
import hypercoop.jsonout
import hypercoop.solutions
from hypercoop.cli import (
    DocumentError,
    build_parser,
    format_rational,
    game_to_document,
    main,
    parse_game,
    parse_rational,
)
from hypercoop.corpus import game_corpus, path_three

from oracles import parse_game_by_fields
from strategies import hypergraph_games

F = Fraction
# the interpreter's limit on the digits of an integer read from a string, 0 for none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_a_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="needs an interpreter with a limit on integer digits"
)

GAMES_DIR = Path(__file__).resolve().parent.parent / "games"
HUB_DOC = {
    "players": [1, 2, 3, 4, 5, 6],
    "hyperlinks": [[1, 4], [2, 5], [3, 6], [4, 5, 6]],
    "characteristic": {"unanimity": [1, 2, 3]},
}


def write_doc(tmp_path: Path, doc) -> str:
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# 30 pair hyperlinks inside K10 with table worth on N: no forest, and
# under --cap-subsets 8 the planner prices the conference game's spanning
# sets of N out and refuses it from the enumerators' own lower bounds,
# before any set is grown; the point game lists N's one piece
DENSE_DOC = {
    "players": list(range(10)),
    "hyperlinks": [[i, j] for i in range(10) for j in range(i + 1, 10)][:30],
    "characteristic": {"table": [{"coalition": list(range(10)), "worth": 1}]},
}
# the same pairs with unanimity worth on N: they join N, so the point game
# is u{N} itself and the Myerson value is the Shapley value
DENSE_UNANIMITY_DOC = dict(DENSE_DOC, characteristic={"unanimity": list(range(10))})
# unanimity worth on {4, 5}, inside which no pair lies: the planner refuses
# the point game, from the lower bounds of its connected player sets
UNJOINED_UNANIMITY_DOC = dict(DENSE_DOC, characteristic={"unanimity": [4, 5]})
# what the planner refuses at --cap-subsets 8: the conference table of
# DENSE_DOC and the point table of UNJOINED_UNANIMITY_DOC
DENSE_REFUSAL = (
    "error: the table of 30 hyperlinks, once no listing fits its limit of 17, needs 2^30 entries, "
    "over the 2^8 that the subset cap 8 admits; raise it with --cap-subsets\n"
)
UNJOINED_REFUSAL = (
    "error: the table of 10 players, once no listing fits its limit of 51, needs 2^10 entries, "
    "over the 2^8 that the subset cap 8 admits; raise it with --cap-subsets\n"
)


def refuse_every_route(monkeypatch, refuse) -> None:
    """Make `refuse` both games' tables, the growth of connected sets,
    the disconnected-set and spanning-set listings and both weighted
    folds, on which every value and identity runs; the enumerators' lower
    bounds and the pricing of table entries still run."""
    for name in (
        "conference_table",
        "_point_table",
        "disconnected_sets",
        "_spanning",
        "shapley_of_table",
        "shapley_of_pieces",
    ):
        monkeypatch.setattr(hypercoop.solutions, name, refuse)
    monkeypatch.setattr(hypercoop.connectivity, "_grow", refuse)


class TestParseRational:
    def test_accepted_forms(self):
        assert parse_rational(3, "x") == F(3)
        assert parse_rational("5/24", "x") == F(5, 24)
        assert parse_rational("-3/2", "x") == F(-3, 2)
        assert parse_rational("0", "x") == F(0)
        assert parse_rational(" 7 ", "x") == F(7)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (0.5, "not exact"),
            (True, "boolean"),
            ("1/0", "malformed"),
            ("1.5", "malformed"),
            ("one half", "malformed"),
            ("\u0663/\u0664", "malformed"),  # Arabic-Indic digits three and four
            ("\uff11", "malformed"),  # fullwidth digit one
            (None, "expected an integer"),
        ],
    )
    def test_rejected_forms(self, bad, message):
        with pytest.raises(DocumentError, match=message) as err:
            parse_rational(bad, "characteristic.table[0].worth")
        assert "characteristic.table[0].worth" in str(err.value)


class TestParseGame:
    def test_round_trips_the_hub(self, hub):
        parsed = parse_game(json.dumps(HUB_DOC))
        assert parsed == hub

    def test_all_characteristic_kinds(self):
        table = {
            "players": [1, 2],
            "hyperlinks": [[1, 2]],
            "characteristic": {"table": [{"coalition": [1, 2], "worth": "1/2"}]},
        }
        weighted = {
            "players": [1, 2, 3],
            "hyperlinks": [[1, 2]],
            "characteristic": {
                "weighted_unanimity": [{"coalition": [1, 2], "coeff": 2}]
            },
        }
        assert parse_game(json.dumps(table)).worth({1, 2}) == F(1, 2)
        assert parse_game(json.dumps(weighted)).worth({1, 2, 3}) == 2
        table["characteristic"]["table"][0]["worth"] = 2
        worth = parse_game(json.dumps(table)).worth({1, 2})
        assert (type(worth), worth) == (Fraction, 2)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("players"), "missing required key 'players'"),
            (lambda d: d.pop("characteristic"), "missing required key 'characteristic'"),
            (lambda d: d.update(players="x"), "players: expected a list"),
            (lambda d: d.update(players=[1, True]), r"players\[1\]"),
            # Players are checked in full before any hyperlink names them.
            (
                lambda d: d.update(players=[1, 1, 2], hyperlinks=[[1, 5]]),
                r"^players\[1\]: duplicate player id 1, already players\[0\]$",
            ),
            (
                lambda d: d.update(players=[-1, 2]),
                r"^players\[0\]: player ids must be non-negative integers, got -1$",
            ),
            (
                lambda d: d.update(players=[], hyperlinks=[[1, 2]]),
                r"^players: player set must be nonempty$",
            ),
            (lambda d: d.update(hyperlinks=[[7]]), r"hyperlinks\[0\]: a hyperlink needs at least two"),
            (lambda d: d.update(hyperlinks=[[1, 7]]), r"hyperlinks\[0\]: unknown players \[7\]"),
            (lambda d: d.update(hyperlinks=[[1, 4, 1]]), r"hyperlinks\[0\]: duplicate members"),
            (
                lambda d: d.update(hyperlinks=[[1, 4], [4, 1]]),
                r"^hyperlinks\[1\]: duplicate hyperlink \[1, 4\], already hyperlinks\[0\]$",
            ),
            (lambda d: d.update(characteristic={}), "exactly one of"),
            (
                lambda d: d.update(
                    characteristic={"unanimity": [1], "table": []}
                ),
                "exactly one of",
            ),
            (lambda d: d.update(characteristic={"unanimity": [1]}), "at least two"),
            (
                lambda d: d.update(
                    characteristic={"table": [{"coalition": [1], "worth": 5}]}
                ),
                "zero-normalization",
            ),
            (
                lambda d: d.update(
                    characteristic={
                        "table": [
                            {"coalition": [1, 2], "worth": 1},
                            {"coalition": [2, 1], "worth": 2},
                        ]
                    }
                ),
                "duplicate coalition",
            ),
            (
                lambda d: d.update(
                    characteristic={"table": [{"coalition": [1, 2], "worth": "1/0"}]}
                ),
                "malformed rational",
            ),
            (
                lambda d: d.update(
                    characteristic={"table": [{"coalition": [1], "worth": 2}]}
                ),
                r"^characteristic: zero-normalization requires worth 0 for \[1\], got 2$",
            ),
            (
                lambda d: d.update(
                    characteristic={"weighted_unanimity": [{"coalition": [1, 2], "coeff": "\u0663/\u0664"}]}
                ),
                r"^characteristic\.weighted_unanimity\[0\]\.coeff: malformed rational",
            ),
            # A list with a non-integer member reports the first such member,
            # before any unknown or duplicate player in the same list.
            (
                lambda d: d.update(hyperlinks=[[1, 4], [True, 5]]),
                r"^hyperlinks\[1\]\[0\]: expected an integer player id, got True$",
            ),
            (
                lambda d: d.update(hyperlinks=[[1, 4], [2, 5.0]]),
                r"^hyperlinks\[1\]\[1\]: expected an integer player id, got 5\.0$",
            ),
            (
                lambda d: d.update(hyperlinks=[[7, 7, "4"]]),
                r"^hyperlinks\[0\]\[2\]: expected an integer player id, got '4'$",
            ),
            (
                lambda d: d.update(hyperlinks=[[1, [4]]]),
                r"^hyperlinks\[0\]\[1\]: expected an integer player id, got \[4\]$",
            ),
            (
                lambda d: d.update(hyperlinks=[[1, 4], [2, 7, 9]]),
                r"^hyperlinks\[1\]: unknown players \[7, 9\]$",
            ),
            (
                lambda d: d.update(characteristic={"unanimity": [1, "2"]}),
                r"^characteristic\.unanimity\[1\]: expected an integer player id, got '2'$",
            ),
            (
                lambda d: d.update(
                    characteristic={
                        "table": [
                            {"coalition": [1, 2], "worth": 1},
                            {"coalition": [1, False], "worth": "x"},
                        ]
                    }
                ),
                r"^characteristic\.table\[1\]\.coalition\[1\]: expected an integer player id, got False$",
            ),
            (
                lambda d: d.update(
                    characteristic={"table": [{"coalition": [[1], 2], "worth": 1}]}
                ),
                r"^characteristic\.table\[0\]\.coalition\[0\]: expected an integer player id, got \[1\]$",
            ),
            (
                lambda d: d.update(
                    characteristic={"weighted_unanimity": [{"coalition": [1.5, 2], "coeff": 1}]}
                ),
                r"^characteristic\.weighted_unanimity\[0\]\.coalition\[0\]: expected an integer player id, got 1\.5$",
            ),
            (
                lambda d: d.update(
                    characteristic={"weighted_unanimity": [{"coalition": [1, "x"], "coeff": "1/0"}]}
                ),
                r"^characteristic\.weighted_unanimity\[0\]\.coalition\[1\]: expected an integer player id, got 'x'$",
            ),
            # Unknown keys, at the root, in the characteristic and in its entries.
            (
                lambda d: d.update(hyperlink=d.pop("hyperlinks")),
                r"^document: unknown key 'hyperlink'; expected one of 'players', 'hyperlinks', 'characteristic'$",
            ),
            (
                lambda d: d["characteristic"].update(tabel=[]),
                r"^characteristic: unknown key 'tabel'; expected one of 'table', 'unanimity', 'weighted_unanimity'$",
            ),
            (
                lambda d: d.update(characteristic={"tabel": []}),
                r"^characteristic: unknown key 'tabel'",
            ),
            (
                lambda d: d.update(
                    characteristic={"table": [{"coalition": [1, 2], "worth": 1, "note": "x"}]}
                ),
                r"^characteristic\.table\[0\]: unknown key 'note'; expected one of 'coalition', 'worth'$",
            ),
            (
                lambda d: d.update(
                    characteristic={"weighted_unanimity": [{"coalition": [1, 2], "coef": 1}]}
                ),
                r"^characteristic\.weighted_unanimity\[0\]: unknown key 'coef'; expected one of 'coalition', 'coeff'$",
            ),
            pytest.param(
                lambda d: d.update(
                    characteristic={
                        "weighted_unanimity": [{"coalition": [1, 2], "coeff": "1/" + "3" * (DIGIT_LIMIT + 1)}]
                    }
                ),
                rf"^characteristic\.weighted_unanimity\[0\]\.coeff: rational with more than {DIGIT_LIMIT} digits"
                r" in its numerator or denominator$",
                marks=needs_a_digit_limit,
                id="rational-past-the-digit-limit",
            ),
            pytest.param(
                lambda d: d.update(hyperlinks=[[1, 2], [2, 1], [1, 9]]),
                r"^hyperlinks\[1\]: duplicate hyperlink \[1, 2\], already hyperlinks\[0\]$",
                id="a-repeat-before-a-later-unknown-player",
            ),
        ],
    )
    def test_validation_errors(self, mutate, message):
        doc = json.loads(json.dumps(HUB_DOC))
        mutate(doc)
        with pytest.raises(DocumentError, match=message):
            parse_game(json.dumps(doc))

    def test_singleton_link_reported_before_unknown_player(self):
        doc = dict(HUB_DOC, hyperlinks=[[7]])
        with pytest.raises(DocumentError, match="at least two members"):
            parse_game(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            parse_game("{not json")
        with pytest.raises(DocumentError, match="root must be"):
            parse_game("[1, 2]")

    @needs_a_digit_limit
    def test_integer_past_the_digit_limit(self):
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(DocumentError, match=r"^invalid JSON: Exceeds the limit"):
            parse_game('{"players": [' + "1" * digits + "]}")

    def test_readme_documents_parse(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = re.findall(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        assert blocks
        for block in blocks:
            parse_game(block)


def test_readme_library_block_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    [block] = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    namespace = {}
    exec(block, namespace)
    game = namespace["game"]
    position = hypercoop.position_value(game)
    assert position == {**dict.fromkeys([1, 2, 3], F(1, 8)), **dict.fromkeys([4, 5, 6], F(5, 24))}
    assert hypercoop.myerson_value(game) == dict.fromkeys(range(1, 7), F(1, 6))
    assert hypercoop.grouped_position(game, k=2) == hypercoop.value_from_axioms(game) == position


def parse_outcome(parse, text):
    """The parsed game, or the type and text of the error `parse` raised."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


def json_nodes(value, path=()):
    """Every (path, node) of a decoded JSON value, the root first."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from json_nodes(child, (*path, key))


def set_at(doc, path, value):
    """`doc` with the node at `path` replaced by `value`."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def mutant(doc, rng: random.Random):
    """`doc` with one field changed: replaced by a value the parser must
    refuse or normalise, repeated, dropped or joined by an unknown key or
    id; or with a characteristic entry added for a nonzero singleton or
    for a coalition outside the players."""
    doc = copy.deepcopy(doc)
    players = doc["players"]
    unknown = max(players) + 1
    nodes = list(json_nodes(doc))
    rationals = [(path, node) for path, node in nodes if path and path[-1] in ("worth", "coeff")]
    path, node = rng.choice(rationals if rationals and rng.random() < 0.3 else nodes)
    change = rng.randrange(8)
    if change == 1 and isinstance(node, list) and node:
        node.insert(rng.randrange(len(node) + 1), copy.deepcopy(rng.choice(node)))
    elif change == 2 and isinstance(node, (list, dict)) and node:
        del node[rng.choice(list(node) if isinstance(node, dict) else range(len(node)))]
    elif change == 3 and isinstance(node, dict):
        node[rng.choice(["extra", "weight", "tabel", "coalitions"])] = 1
    elif change == 3 and isinstance(node, list):
        node.append(rng.choice([unknown, -1, 0]))
    elif change in (4, 5):
        [(kind, entries)] = doc["characteristic"].items()
        coalition = [rng.choice(players)] if change == 4 else [rng.choice(players), unknown]
        if kind == "unanimity":
            doc["characteristic"][kind] = coalition
        else:
            value = {"coalition": coalition, "coeff" if kind == "weighted_unanimity" else "worth": 2}
            entries.insert(rng.randrange(len(entries) + 1), value)
    else:
        value = rng.choice(
            [True, False, 1.5, 2.0, -1, unknown, None, "x", "1/0", " 3 ", "3/6", "-4/2", "7\n",
             "\u0663", "\u0663/4", "1" * (DIGIT_LIMIT + 1), "2/" + "3" * (DIGIT_LIMIT + 1), [], {}]
        )
        doc = set_at(doc, path, value)
    return doc


class TestParseGameMatchesTheOracle:
    """`parse_game` checks each field once; `oracles.parse_game_by_fields`
    checks each through the error helpers and then again in the model's
    constructors.  Both give an equal game, or the same first error."""

    @staticmethod
    def valid_documents() -> list[str]:
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        return [
            *(path.read_text(encoding="utf-8") for path in sorted(GAMES_DIR.glob("*.json"))),
            *re.findall(r"```json\n(.*?)```", readme, re.S),
            *(json.dumps(game_to_document(game)) for game in game_corpus()),
        ]

    def test_sample_games_readme_blocks_and_corpus(self):
        texts = self.valid_documents()
        assert len(texts) >= 200
        for text in texts:
            game, expected = parse_game(text), parse_game_by_fields(text)
            assert game == expected
            assert game_to_document(game) == game_to_document(expected)

    def test_mutated_documents(self):
        rng = random.Random(36)
        texts = self.valid_documents()
        # every sample game and README block, and every tenth corpus game
        bases = [json.loads(text) for text in texts[:-200] + texts[-200::10]]
        invalid = 0
        for _ in range(4000):
            text = json.dumps(mutant(rng.choice(bases), rng))
            got, expected = parse_outcome(parse_game, text), parse_outcome(parse_game_by_fields, text)
            assert got == expected, text
            if isinstance(expected, tuple):
                invalid += 1
                assert expected[0] is DocumentError, text
        assert 2000 < invalid < 4000


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.text(st.characters() | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u20ac\U0001f600')),
    st.fractions(),
    st.integers().map(Fraction),
)
json_payloads = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4) | st.integers(), inner, max_size=4),
    ),
    max_leaves=24,
)


class TestJsonWriter:
    @given(json_payloads)
    def test_bytes_match_json_dumps(self, value):
        assert hypercoop.jsonout.dumps(value) == json.dumps(value, indent=2, default=format_rational)

    @pytest.mark.parametrize("value", [{1, 2}, {"a": [0.5]}, [object()], {(1, 2): 1}, {None: 1}])
    def test_unsupported_types_raise(self, value):
        with pytest.raises(TypeError):
            hypercoop.jsonout.dumps(value)


class TestSerialization:
    def test_hub_document(self, hub):
        doc = game_to_document(hub)
        assert doc == HUB_DOC

    @given(hypergraph_games())
    def test_parse_serialize_parse_is_identity(self, game):
        text = json.dumps(game_to_document(game))
        once = parse_game(text)
        assert once == game
        assert game_to_document(once) == game_to_document(game)

    def test_rationals_are_reduced_strings(self):
        assert format_rational(F(2, 4)) == "1/2"
        assert format_rational(F(-6, 3)) == "-2"
        assert format_rational(F(0)) == "0"


@pytest.fixture()
def hub_path(tmp_path):
    return write_doc(tmp_path, HUB_DOC)


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["value", "dense", "--cap-subsets", "8"], DENSE_REFUSAL),
        (
            ["solve-axioms", "hub", "--cap-subsets", "2"],
            "error: the axiomatic reconstruction of 4 hyperlinks on 6 players needs at least 24 entries, "
            "over the 2^2 that the subset cap 2 admits; raise it with --cap-subsets\n",
        ),
        (
            ["expand", "hub", "--cap-subsets", "2"],
            "error: the listing of 24 copies needs 96 entries, "
            "over the 2^2 that the subset cap 2 admits; raise it with --cap-subsets\n",
        ),
    ],
    ids=["value", "solve-axioms", "expand"],
)
def test_a_refusal_is_one_line_naming_the_price_the_cap_and_the_flag(tmp_path, capsys, argv, refusal):
    """Every command refuses with the one `CapExceeded` line: what was
    priced (the planner's table, the axiomatic rows, the copy listing),
    the entries it needs or the bound its listing passed, the subset cap,
    and the flag that raises it."""
    documents = {"dense": write_doc(tmp_path, DENSE_DOC), "hub": str(GAMES_DIR / "hub_and_spokes.json")}
    command, document, *options = argv
    assert main([command, documents[document], *options]) == 3
    assert capsys.readouterr() == ("", refusal)


def windmill_doc(k: int) -> dict:
    """windmill(k): players 0..2k, the triangle of pairs {0, 2i-1},
    {0, 2i}, {2i-1, 2i} for each i in 1..k, and worth
    2·u{1,2} - 1/3·u{3,4,5} + u{N}.  No pair lies inside {3, 4, 5}, so
    the point game leaves the dividends route, and no listing fits."""
    n = 2 * k + 1
    return {
        "players": list(range(n)),
        "hyperlinks": [e for i in range(1, k + 1) for e in ([0, 2 * i - 1], [0, 2 * i], [2 * i - 1, 2 * i])],
        "characteristic": {
            "weighted_unanimity": [
                {"coalition": [1, 2], "coeff": 2},
                {"coalition": [3, 4, 5], "coeff": "-1/3"},
                {"coalition": list(range(n)), "coeff": 1},
            ]
        },
    }


class TestTablesThisMachineCannotHold:
    """A raised subset cap can admit a table that cannot be built.  The
    run exits 3 with one line naming the table's size and the flag; no
    test here builds a large table."""

    def test_a_table_no_list_can_index_is_refused_before_it_is_built(self, tmp_path, monkeypatch, capsys):
        def refuse(*_args):
            raise AssertionError("the point table was built")

        monkeypatch.setattr(hypercoop.solutions, "_point_table", refuse)
        path = write_doc(tmp_path, windmill_doc(40))
        assert main(["value", path, "--rule", "myerson", "--cap-subsets", "82"]) == 3
        assert capsys.readouterr() == (
            "",
            "error: the table of 81 players needs 2^81 entries, more than this machine can hold; "
            "--cap-subsets 82 admitted it\n",
        )

    def test_memory_running_out_while_building_exits_3(self, tmp_path, monkeypatch, capsys):
        def exhausted(*_args):
            raise MemoryError

        monkeypatch.setattr(hypercoop.solutions, "_point_table", exhausted)
        path = write_doc(tmp_path, windmill_doc(20))
        assert main(["value", path, "--rule", "myerson", "--cap-subsets", "41"]) == 3
        assert capsys.readouterr() == (
            "",
            "error: the table of 41 players needs 2^41 entries, more than this machine can hold; "
            "--cap-subsets 41 admitted it\n",
        )

    def test_memory_running_out_elsewhere_exits_3(self, hub_path, monkeypatch, capsys):
        def exhausted(*_args):
            raise MemoryError

        monkeypatch.setattr(hypercoop.solutions, "shapley_of_pieces", exhausted)
        assert main(["value", hub_path]) == 3
        assert capsys.readouterr() == ("", "error: out of memory; --cap-subsets 24 admitted it\n")


class TestValueCommand:
    def test_position_table(self, hub_path, capsys):
        assert main(["value", hub_path]) == 0
        out = capsys.readouterr().out
        assert "player 1: 1/8" in out
        assert "player 6: 5/24" in out

    def test_decimals_are_marked_approximate(self, hub_path, capsys):
        assert main(["value", hub_path, "--decimals", "3"]) == 0
        assert "1/8 ≈ 0.125" in capsys.readouterr().out

    def test_decimals_beyond_float_range_are_rounded_exactly(self, tmp_path, capsys):
        big = 10**400
        doc = {
            "players": [1, 2],
            "hyperlinks": [[1, 2]],
            "characteristic": {
                "weighted_unanimity": [{"coalition": [1, 2], "coeff": f"-{big}/3"}]
            },
        }
        path = write_doc(tmp_path, doc)
        # each player gets -10^400/6 = -1666...6.666...
        approx = f"≈ -{big // 6}.67"
        assert main(["value", path, "--decimals", "2"]) == 0
        assert capsys.readouterr().out.count(approx) == 2
        assert main(["verify", path, "--theorem", "1", "--decimals", "2"]) == 0
        assert capsys.readouterr().out.count(approx) == 2
        assert main(["value", path, "--decimals", "0"]) == 0
        assert capsys.readouterr().out.count(f"≈ -{big // 6 + 1}\n") == 2

    @pytest.mark.parametrize(
        "coeff, decimals, cell",
        [
            ("1", 20, "1/3 ≈ 0.33333333333333333333"),
            ("2", 17, "2/3 ≈ 0.66666666666666667"),
            ("-1", 4, "-1/3 ≈ -0.3333"),
            ("-3/10000", 3, "-1/10000 ≈ 0.000"),
            ("3/8", 2, "1/8 ≈ 0.12"),
            ("9/8", 2, "3/8 ≈ 0.38"),
            ("3/2", 0, "1/2 ≈ 0"),
        ],
    )
    def test_decimals_round_the_exact_value(self, tmp_path, capsys, coeff, decimals, cell):
        """Rounded from the exact rational, ties to even, never through a
        float: the sign is kept unless the value rounds to 0."""
        doc = {
            "players": [1, 2, 3],
            "hyperlinks": [[1, 2, 3]],
            "characteristic": {
                "weighted_unanimity": [{"coalition": [1, 2, 3], "coeff": coeff}]
            },
        }
        path = write_doc(tmp_path, doc)
        assert main(["value", path, "--decimals", str(decimals)]) == 0
        assert capsys.readouterr().out.count(f": {cell}\n") == 3

    def test_json_payload(self, hub_path, capsys):
        assert main(["value", hub_path, "--rule", "myerson", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "rule": "myerson",
            "payoffs": {str(p): "1/6" for p in range(1, 7)},
        }

    def test_plain_shapley_ignores_the_structure(self, hub_path, capsys):
        assert main(["value", hub_path, "--rule", "shapley", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["payoffs"] == {
            "1": "1/3", "2": "1/3", "3": "1/3", "4": "0", "5": "0", "6": "0",
        }

    def test_subset_cap_refuses_before_any_work(self, tmp_path, monkeypatch, capsys):
        """A dense structure past --cap-subsets exits 3 with no table
        built and no set listed or grown: the position value on table
        worth, whose spanning sets are priced past the 2^cap/4 budget,
        and the Myerson value on unanimity worth on {4, 5}, which no pair
        joins, whose connected sets pass it by the enumerators' lower
        bounds.  The table's one entry, and unanimity worth on N, which
        the pairs join, give the Myerson and Shapley values without a
        table."""
        def refuse(*_args):
            raise AssertionError("a table or connected-set enumeration ran over the cap")

        for doc in (DENSE_DOC, DENSE_UNANIMITY_DOC):
            path = write_doc(tmp_path, doc)
            for rule in ("myerson", "shapley"):
                assert main(["value", path, "--rule", rule, "--cap-subsets", "8", "--format", "json"]) == 0
                assert json.loads(capsys.readouterr().out)["payoffs"] == {str(p): "1/10" for p in range(10)}
        refuse_every_route(monkeypatch, refuse)
        for doc, rule, refusal in (
            (DENSE_DOC, "position", DENSE_REFUSAL),
            (UNJOINED_UNANIMITY_DOC, "myerson", UNJOINED_REFUSAL),
        ):
            assert main(["value", write_doc(tmp_path, doc), "--rule", rule, "--cap-subsets", "8"]) == 3
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", refusal)

    def test_check_and_solve_axioms_refuse_a_dense_table_game_past_a_small_cap(
        self, tmp_path, monkeypatch, capsys
    ):
        """`check` exits 3 with the subset cap's message from the planner,
        and `solve-axioms` with its message from the reconstruction,
        which runs first; neither builds a table.  The Myerson check
        reads the table's one entry, or pays u{N} from its dividend, and
        passes; on unanimity worth on {4, 5}, which no pair joins, it is
        refused."""
        def refuse(*_args):
            raise AssertionError("a 2^m or 2^n table was built")

        monkeypatch.setattr(hypercoop.solutions, "conference_table", refuse)
        monkeypatch.setattr(hypercoop.solutions, "_point_table", refuse)
        myerson = ["check", "--axiom", "component-efficiency", "--rule", "myerson", "--cap-subsets", "8"]
        for doc in (DENSE_DOC, DENSE_UNANIMITY_DOC):
            assert main([myerson[0], write_doc(tmp_path, doc), *myerson[1:]]) == 0
            assert capsys.readouterr().out.splitlines()[-1].startswith("result: PASS")
        reconstruction = (
            "error: the axiomatic reconstruction of 30 hyperlinks on 10 players needs at least 300 entries, "
            "over the 2^8 that the subset cap 8 admits; raise it with --cap-subsets\n"
        )
        for doc, argv, refusal in (
            (DENSE_DOC, ["check", "--axiom", "partial-balanced"], DENSE_REFUSAL),
            (UNJOINED_UNANIMITY_DOC, myerson[:-2], UNJOINED_REFUSAL),
            (DENSE_DOC, ["solve-axioms"], reconstruction),
        ):
            assert main([argv[0], write_doc(tmp_path, doc), *argv[1:], "--cap-subsets", "8"]) == 3
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", refusal)

    def test_missing_file(self, capsys):
        assert main(["value", "no-such-file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_a_document_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        text = json.dumps(HUB_DOC).encode("utf-8")
        path = tmp_path / "game.json"
        path.write_bytes(text[:80] + b"\xff" + text[80:])
        assert main(["value", str(path)]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 80: "
            "invalid start byte\n",
        )

    def test_bad_document(self, tmp_path, capsys):
        path = write_doc(tmp_path, dict(HUB_DOC, hyperlinks=[[1]]))
        assert main(["value", path]) == 2
        assert "hyperlinks[0]" in capsys.readouterr().err

    @needs_a_digit_limit
    def test_rational_past_the_digit_limit(self, tmp_path, capsys):
        """The entry is named, and the interpreter's own remedy is not."""
        numerator = "7" * (DIGIT_LIMIT + 1)
        doc = dict(HUB_DOC, characteristic={"table": [{"coalition": [1, 2], "worth": numerator + "/2"}]})
        assert main(["value", write_doc(tmp_path, doc)]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: characteristic.table[0].worth: rational with more than {DIGIT_LIMIT}"
            " digits in its numerator or denominator\n",
        )

    @pytest.mark.parametrize(
        "argv", [["value"], ["check", "--axiom", "partial-balanced"], ["solve-axioms"]]
    )
    def test_misspelt_key_is_refused(self, tmp_path, capsys, argv):
        """A misspelt `hyperlinks` once read as no hyperlinks at all: every
        payoff 0 and every axiom PASS."""
        doc = {"players": [1, 2, 3], "hyperlink": [[1, 2], [2, 3]], "characteristic": {"unanimity": [1, 3]}}
        assert main([argv[0], write_doc(tmp_path, doc), *argv[1:]]) == 2
        assert capsys.readouterr() == (
            "",
            "error: document: unknown key 'hyperlink'; "
            "expected one of 'players', 'hyperlinks', 'characteristic'\n",
        )

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_output_write_error_exits_two(self, unbuffered):
        """With buffered stdout the unwritten bytes outlive the failed
        flush, and the flush at interpreter shutdown must not fail again."""
        src = Path(__file__).resolve().parent.parent / "src"
        game = src.parent / "games" / "hub_and_spokes.json"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(src)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "hypercoop", "value", str(game)],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"

    def test_deeply_nested_document(self, tmp_path, capsys):
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text(
            '{"players": [1, 2], "characteristic": ' + "[" * depth + "]" * depth + "}",
            encoding="utf-8",
        )
        assert main(["value", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err


class TestExpandCommand:
    def test_layout_lists_blocks_and_groups(self, hub_path, capsys):
        assert main(["expand", hub_path]) == 0
        out = capsys.readouterr().out
        assert "k=1, eta=6, rho=6" in out
        assert "blocks (one per hyperlink):" in out
        assert "{4, 5, 6} (1/24 per copy)" in out
        assert "groups (one per connected player):" in out
        assert "4[1,4]#1" in out and "4[4,5,6]#2" in out
        assert "player 1: 1/8" in out

    def test_k_two(self, hub_path, capsys):
        assert main(["expand", hub_path, "--k", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["rho"], payload["universe_size"]) == (12, 48)
        assert payload["grouped"]["4"] == "5/24"

    def test_cap_exit_code(self, hub_path, capsys):
        assert main(["expand", hub_path, "--cap-subsets", "2"]) == 3
        assert capsys.readouterr().err == (
            "error: the listing of 24 copies needs 96 entries, "
            "over the 2^2 that the subset cap 2 admits; raise it with --cap-subsets\n"
        )

    def test_copies_are_priced_at_four_entries_in_the_subset_cap(self, hub_path, capsys):
        """The hub's 24 copies cost 96 entries: over 2^6, within 2^7."""
        assert main(["expand", hub_path, "--cap-subsets", "6"]) == 3
        assert capsys.readouterr().err == (
            "error: the listing of 24 copies needs 96 entries, "
            "over the 2^6 that the subset cap 6 admits; raise it with --cap-subsets\n"
        )
        assert main(["expand", hub_path, "--cap-subsets", "7"]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith("universe size 24")

    def test_a_huge_subset_cap_answers(self, hub_path, capsys):
        assert main(["expand", hub_path, "--cap-subsets", "100000000000"]) == 0
        assert "player 1: 1/8" in capsys.readouterr().out

    def test_state_cap_is_not_an_option(self, hub_path, capsys):
        assert main(["expand", hub_path, "--cap-states", "10"]) == 2
        assert "unrecognized arguments: --cap-states 10" in capsys.readouterr().err

    def test_cap_is_checked_before_the_conference_table(self, tmp_path, monkeypatch, capsys):
        """The copies are priced first: the 20-pair path lists 40 copies,
        160 entries, so the subset cap 7 refuses it before `expand` lists
        its connected hyperlink sets or builds a 2^20 table, and at cap 8
        the path, a forest, answers without either."""
        def refuse(*_args):
            raise AssertionError("a conference table or connected-set enumeration ran over the cap")

        monkeypatch.setattr(hypercoop.solutions, "conference_table", refuse)
        monkeypatch.setattr(hypercoop.solutions, "connected_sets", refuse)
        monkeypatch.setattr(hypercoop.solutions, "disconnected_sets", refuse)
        path = write_doc(tmp_path, {
            "players": list(range(21)),
            "hyperlinks": [[i, i + 1] for i in range(20)],
            "characteristic": {"unanimity": [0, 20]},
        })
        assert main(["expand", path, "--cap-subsets", "7"]) == 3
        assert capsys.readouterr().err == (
            "error: the listing of 40 copies needs 160 entries, "
            "over the 2^7 that the subset cap 7 admits; raise it with --cap-subsets\n"
        )
        assert main(["expand", path, "--cap-subsets", "8"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("universe size 40") and out[-1] == "  player 20: 1/40"

    def test_subset_cap_is_checked_before_the_conference_table(
        self, tmp_path, monkeypatch, capsys
    ):
        """30 pairs inside K10 list 60 copies, which the subset cap admits,
        but not their hyperlink sets: it must refuse them before the 2^30
        conference table is built.  A path of 30 pairs is a forest and
        answers."""
        def refuse(*_args):
            raise AssertionError("a table or fold ran over the subset cap")

        path = write_doc(tmp_path, {
            "players": list(range(31)),
            "hyperlinks": [[i, i + 1] for i in range(30)],
            "characteristic": {"unanimity": [0, 30]},
        })
        assert main(["expand", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("universe size 60") and out[-1] == "  player 30: 1/60"
        refuse_every_route(monkeypatch, refuse)
        assert main(["expand", write_doc(tmp_path, DENSE_DOC), "--cap-subsets", "8"]) == 3
        assert capsys.readouterr().err == DENSE_REFUSAL

    def test_huge_k_is_refused_before_the_expansion_is_built(self, hub_path, monkeypatch, capsys):
        """`expand` refuses to list 24 million copies before any work, while
        Theorem 2 at the same k lists none and passes."""
        def refuse(*_args):
            raise AssertionError("a table or fold ran over the subset cap")

        refuse_every_route(monkeypatch, refuse)
        message = (
            "error: the listing of 24000000 copies needs 96000000 entries, "
            "over the 2^24 that the subset cap 24 admits; raise it with --cap-subsets\n"
        )
        assert main(["expand", hub_path, "--k", "1000000"]) == 3
        assert capsys.readouterr().err == message
        monkeypatch.undo()
        assert main(["verify", hub_path, "--theorem", "2", "--k", "1000000"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "result: PASS"


    def test_no_hyperlinks_reports_the_library_error(self, tmp_path, capsys):
        doc = {"players": [1, 2], "characteristic": {"unanimity": [1, 2]}}
        assert main(["expand", write_doc(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: uniform expansion requires at least one hyperlink\n"
        )


class TestCheckCommand:
    def test_partial_balanced_passes(self, hub_path, capsys):
        assert main(["check", hub_path, "--axiom", "partial-balanced", "--rule", "position"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_balanced_conference_fails_with_residual(self, hub_path, capsys):
        rc = main(["check", hub_path, "--axiom", "balanced-conference", "--rule", "position"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "left 1/4, right 5/24, residual 1/24" in out

    def test_component_efficiency(self, hub_path, capsys):
        assert main(["check", hub_path, "--axiom", "component-efficiency"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_balanced_link_rejects_hypergraphs(self, hub_path, capsys):
        assert main(["check", hub_path, "--axiom", "balanced-link"]) == 2
        assert "2-member" in capsys.readouterr().err

    def test_json_failure_payload(self, hub_path, capsys):
        rc = main([
            "check", hub_path, "--axiom", "balanced-conference",
            "--rule", "position", "--format", "json",
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert {"pair": [1, 6], "left": "1/4", "right": "5/24"} in payload["failures"]


class TestVerifyCommand:
    @pytest.mark.parametrize("theorem", ["1", "2", "corollary1", "lemma1"])
    def test_hub_passes_everything(self, hub_path, capsys, theorem):
        assert main(["verify", hub_path, "--theorem", theorem]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "result: PASS"
        # The same text report under --format json: the benchmark parses it.
        assert main(["verify", hub_path, "--theorem", theorem, "--format", "json"]) == 0
        assert capsys.readouterr().out == out

    def test_theorem_two_with_explicit_k(self, tmp_path, capsys):
        path = write_doc(tmp_path, game_to_document(path_three()))
        assert main(["verify", path, "--theorem", "2", "--k", "3"]) == 0
        assert "3-fold" in capsys.readouterr().out

    def test_no_hyperlinks_is_a_trivial_pass(self, tmp_path, capsys):
        doc = {"players": [1, 2], "characteristic": {"unanimity": [1, 2]}}
        path = write_doc(tmp_path, doc)
        assert main(["verify", path, "--theorem", "1"]) == 0
        out = capsys.readouterr().out
        assert "trivially PASS" in out
        assert out.splitlines()[-1] == "result: PASS"

    def test_cap_exit_code(self, tmp_path, hub_path, capsys):
        """The subset cap is `verify`'s only cap; a state cap is not an option."""
        dense = write_doc(tmp_path, DENSE_DOC)
        assert main(["verify", dense, "--theorem", "2", "--cap-subsets", "8"]) == 3
        assert capsys.readouterr().err == DENSE_REFUSAL
        assert main(["verify", hub_path, "--theorem", "2", "--cap-states", "47"]) == 2
        assert "unrecognized arguments: --cap-states 47" in capsys.readouterr().err

    def test_subset_cap_refuses_before_the_identity_side_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        """No identity side builds anything over the subset cap."""
        def refuse(*_args):
            raise AssertionError("a table or fold ran over the subset cap")

        refuse_every_route(monkeypatch, refuse)
        path = write_doc(tmp_path, DENSE_DOC)
        for theorem in ("1", "2", "corollary1", "lemma1"):
            assert main(["verify", path, "--theorem", theorem, "--cap-subsets", "8"]) == 3
            assert capsys.readouterr().err == DENSE_REFUSAL

    def test_lemma1_refuses_over_the_subset_cap_like_theorem_one(
        self, hub_path, monkeypatch, capsys
    ):
        """The table game refuses at cap 1; the hub, a forest, answers."""
        def refuse(*_args):
            raise AssertionError("a table or fold ran over the subset cap")

        for theorem in ("1", "lemma1"):
            assert main(["verify", hub_path, "--theorem", theorem, "--cap-subsets", "1"]) == 0
            assert capsys.readouterr().out.splitlines()[-1] == "result: PASS"
        refuse_every_route(monkeypatch, refuse)
        table_game = str(GAMES_DIR / "table_mixed.json")
        for theorem in ("1", "lemma1"):
            assert main(["verify", table_game, "--theorem", theorem, "--cap-subsets", "1"]) == 3
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "",
                "error: the table of 2 hyperlinks, once no listing fits its limit of 0, needs 2^2 entries, "
                "over the 2^1 that the subset cap 1 admits; raise it with --cap-subsets\n",
            )

    @pytest.mark.parametrize("decimals", [[], ["--decimals", "2"]])
    @pytest.mark.parametrize("theorem", ["1", "corollary1", "lemma1"])
    def test_a_mismatch_is_marked_on_its_player(
        self, hub_path, monkeypatch, capsys, theorem, decimals
    ):
        identity_sides = hypercoop.axioms._identity_sides

        def perturbed(game, *args):
            sides = identity_sides(game, *args)

            def moved(j=None):
                (grouped, unit), position = sides(j)
                grouped = [100 * x for x in grouped]
                grouped[game.players.index(4)] += unit  # 1/100 more for player 4
                return (grouped, 100 * unit), position

            return moved

        def perturbed_agents(game, *args):
            per_agent = hypercoop.expansion.uniform_payoffs(game, 1, None, *args)
            per_agent[4, frozenset({1, 4})] += F(1, 300)  # player 4 holds 3 of these agents
            return per_agent

        # The grouped side of each identity, on every hyperlink for Lemma 1;
        # Corollary 1 reads it from the agent form.
        monkeypatch.setattr(hypercoop.axioms, "_identity_sides", perturbed)
        monkeypatch.setattr(hypercoop.expansion, "agent_form_payoffs", perturbed_agents)
        assert main(["verify", hub_path, "--theorem", theorem, *decimals]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "result: FAIL"
        marked = [line for line in lines if "<-- mismatch" in line]
        failed = [line for line in lines if line.startswith("  delete one copy") and "FAIL" in line]
        assert len(marked) == (4 if theorem == "lemma1" else 1)
        assert len(failed) == (4 if theorem == "lemma1" else 0)
        assert all(line.startswith("  player 4: ") for line in marked)
        if theorem != "lemma1":
            got = "131/600 ≈ 0.22" if decimals else "131/600"
            assert marked == [f"  player 4: expected 5/24, got {got}   <-- mismatch"]


class TestSolveAxiomsCommand:
    def test_matches_position(self, hub_path, capsys):
        assert main(["solve-axioms", hub_path]) == 0
        out = capsys.readouterr().out
        assert "player 4: 5/24" in out
        assert "matches the directly computed position value: yes" in out

    def test_json(self, hub_path, capsys):
        assert main(["solve-axioms", hub_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matches_position_value"] is True
        assert payload["payoffs"]["1"] == "1/8"

    def test_a_24_pair_ring_passes_at_the_default_caps(self, tmp_path, capsys):
        """553 connected hyperlink sets, 553·24·24 = 318,528 row entries,
        within the 2^24 of the default cap."""
        doc = {
            "players": list(range(24)),
            "hyperlinks": [[i, (i + 1) % 24] for i in range(24)],
            "characteristic": {"unanimity": [0, 12]},
        }
        assert main(["solve-axioms", write_doc(tmp_path, doc)]) == 0
        assert "matches the directly computed position value: yes" in capsys.readouterr().out

    def test_the_subset_cap_refuses_the_reconstruction_before_the_position_value(
        self, tmp_path, monkeypatch, capsys
    ):
        """A 30-pair ring's 871 connected hyperlink sets hold 871·30·30 =
        783,900 row entries: past 2^19, within 2^20.  The reconstruction
        runs first, so under --cap-subsets 19 it exits 3 with nothing
        printed and the position value unsolved."""
        solved = []

        def position(*args, **kwargs):
            solved.append(args[0])
            return hypercoop.solutions.position_value(*args, **kwargs)

        monkeypatch.setattr(hypercoop.cli, "position_value", position)
        doc = {
            "players": list(range(30)),
            "hyperlinks": [[i, (i + 1) % 30] for i in range(30)],
            "characteristic": {"unanimity": [0, 15]},
        }
        path = write_doc(tmp_path, doc)
        assert main(["solve-axioms", path, "--cap-subsets", "20"]) == 0
        assert "matches the directly computed position value: yes" in capsys.readouterr().out
        assert len(solved) == 1
        assert main(["solve-axioms", path, "--cap-subsets", "19"]) == 3
        assert len(solved) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "error: the axiomatic reconstruction of 30 hyperlinks on 30 players needs at least 524700 entries, "
            "over the 2^19 that the subset cap 19 admits; raise it with --cap-subsets\n",
        )

    def test_a_pair_star_past_the_default_cap_is_refused_before_the_position_value(
        self, tmp_path, monkeypatch, capsys
    ):
        """Every hyperlink set of a 20-spoke pair star is connected:
        2^20 - 1 sets, past the 39,945 that 2^24 row entries admit on 20
        hyperlinks and 21 players; with table worth the position value
        would fill a 2^20 table."""
        def refuse(*_args, **_kwargs):
            raise AssertionError("the position value was solved")

        monkeypatch.setattr(hypercoop.cli, "position_value", refuse)
        doc = {
            "players": list(range(21)),
            "hyperlinks": [[0, i] for i in range(1, 21)],
            "characteristic": {"table": [{"coalition": list(range(21)), "worth": 1}]},
        }
        assert main(["solve-axioms", write_doc(tmp_path, doc)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "error: the axiomatic reconstruction of 20 hyperlinks on 21 players needs at least 16777320 entries, "
            "over the 2^24 that the subset cap 24 admits; raise it with --cap-subsets\n",
        )

    def test_the_cap_error_names_the_limit(self, hub_path, capsys):
        """The hub's 11 connected sets of 4 hyperlinks on 6 players hold
        264 row entries: past 2^8, within 2^9.  At cap 8 the listing
        passes its limit of 10 sets, so the refusal names the bound
        (10 + 1)·4·6 = 264 entries."""
        assert main(["solve-axioms", hub_path, "--cap-subsets", "8"]) == 3
        assert capsys.readouterr().err == (
            "error: the axiomatic reconstruction of 4 hyperlinks on 6 players needs at least 264 entries, "
            "over the 2^8 that the subset cap 8 admits; raise it with --cap-subsets\n"
        )
        assert main(["solve-axioms", hub_path, "--cap-subsets", "9"]) == 0

    def test_a_huge_cap_answers(self, hub_path, capsys):
        assert main(["solve-axioms", hub_path, "--cap-subsets", "100000000000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "matches the directly computed position value: yes" in captured.out


class TestArgumentHandling:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_axiom_token(self, hub_path, capsys):
        assert main(["check", hub_path, "--axiom", "fairness"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "value" in capsys.readouterr().out

    def test_negative_decimals_rejected(self, hub_path):
        assert main(["value", hub_path, "--decimals", "-1"]) == 2

    @pytest.mark.parametrize("decimals", ["4301", "100000000000"])
    def test_too_many_decimals_rejected(self, hub_path, capsys, decimals):
        assert main(["value", hub_path, "--decimals", decimals]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --decimals: must be between 0 and 4300\n")

    @pytest.mark.parametrize(
        "option, text, message",
        [
            ("--decimals", "1e5", "must be an integer between 0 and 4300"),
            ("--cap-subsets", "x", "must be a positive integer"),
            ("--cap-subsets", "1.5", "must be a positive integer"),
        ],
    )
    def test_a_malformed_integer_says_what_the_option_takes(self, hub_path, capsys, option, text, message):
        assert main(["value", hub_path, option, text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {option}: {message}\n")

    def test_the_most_decimals_are_printed(self, hub_path, capsys):
        assert main(["value", hub_path, "--decimals", "4300"]) == 0
        assert "player 1: 1/8 ≈ 0.125" + "0" * 4297 + "\n" in capsys.readouterr().out

    def test_nonpositive_k_rejected(self, hub_path):
        assert main(["expand", hub_path, "--k", "0"]) == 2


class TestParserReuse:
    """`main` shares one parser across the calls of a process."""

    @staticmethod
    def run(capsys, argv) -> tuple[int, str, str]:
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_the_parser_is_built_once(self, hub_path, monkeypatch, capsys):
        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(hypercoop.cli, "build_parser", counted)
        hypercoop.cli._parser.cache_clear()
        for argv in (["value", hub_path], ["frobnicate"], ["expand", hub_path]):
            main(argv)
        capsys.readouterr()
        assert built == [1]

    def test_an_option_does_not_leak_into_the_next_call(self, hub_path, capsys):
        assert main(["verify", hub_path, "--theorem", "2", "--k", "3"]) == 0
        assert "3-fold" in capsys.readouterr().out
        assert main(["verify", hub_path, "--theorem", "2"]) == 0
        out = capsys.readouterr().out
        assert "2-fold" in out and "3-fold" not in out

    @pytest.mark.parametrize(
        "first, code", [(["expand", "hub", "--k", "0"], 2), (["--help"], 0)]
    )
    def test_an_error_or_help_does_not_leak_into_the_next_call(
        self, hub_path, capsys, first, code
    ):
        good = ["verify", hub_path, "--theorem", "2"]
        alone = self.run(capsys, good)
        assert self.run(capsys, [hub_path if a == "hub" else a for a in first])[0] == code
        assert self.run(capsys, good) == alone

    def test_output_matches_a_freshly_built_parser(self, hub_path, monkeypatch, capsys):
        calls = [
            ["value", hub_path, "--rule", "myerson", "--decimals", "2"],
            ["value", hub_path],
            ["expand", hub_path, "--k", "0"],
            ["expand", hub_path, "--format", "json"],
            ["check", hub_path, "--axiom", "balanced-conference"],
            ["check", hub_path, "--axiom", "fairness"],
            ["check", hub_path, "--axiom", "partial-balanced", "--format", "json"],
            ["verify", hub_path, "--theorem", "lemma1", "--cap-subsets", "1"],
            ["verify", hub_path, "--theorem", "corollary1"],
            ["solve-axioms", hub_path, "--help"],
            ["solve-axioms", hub_path],
            [],
        ]
        shared = [self.run(capsys, argv) for argv in calls]
        monkeypatch.setattr(hypercoop.cli, "_parser", build_parser)
        assert [self.run(capsys, argv) for argv in calls] == shared
