"""The command line's stdout, stderr and exit code, byte for byte, against
a recorded transcript: every subcommand (`value` under each rule, `check`
under each axiom, `expand`, `verify`, `solve-axioms`) and their cap
refusals, both formats, on the sample games plus a document with no
hyperlinks.

After a deliberate change of output, regenerate the transcript with

    PYTHONPATH=src python tests/test_cli_transcript.py

which rewrites tests/transcripts/cli.json in place.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from hypercoop.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = Path(__file__).with_name("transcripts") / "cli.json"
NO_HYPERLINKS = {"players": [1, 2], "characteristic": {"unanimity": [1, 2]}}

COMMANDS = [
    *(["value", "--rule", rule] for rule in ("position", "myerson", "shapley")),
    ["value", "--rule", "myerson", "--decimals", "3"],
    *(
        ["check", "--axiom", axiom]
        for axiom in ("component-efficiency", "balanced-link", "balanced-conference", "partial-balanced")
    ),
    ["solve-axioms"],
    ["solve-axioms", "--cap-recursion", "2"],
    ["expand", "--k", "1"],
    ["expand", "--k", "2"],
    *(["verify", "--theorem", t] for t in ("1", "corollary1", "lemma1")),
    ["verify", "--theorem", "2", "--k", "3", "--decimals", "3"],
    # `verify` has no state cap: there `--cap-states` is refused as unknown.
    *(
        [*command, *cap]
        for command in (["expand"], *(["verify", "--theorem", t] for t in ("1", "2", "corollary1", "lemma1")))
        for cap in (["--cap-states", "10"], ["--cap-subsets", "2"])
    ),
]
GAMES = sorted((ROOT / "games").glob("*.json"))
ENTRIES = [
    {"document": name, "argv": [*command, "--format", fmt]}
    for name in [*(path.name for path in GAMES), "no_hyperlinks.json"]
    for command in COMMANDS
    for fmt in ("table", "json")
]


def write_documents(directory: Path) -> dict[str, Path]:
    """The sample games by file name, plus the no-hyperlink document
    written under `directory`."""
    path = directory / "no_hyperlinks.json"
    path.write_text(json.dumps(NO_HYPERLINKS), encoding="utf-8")
    return {**{game.name: game for game in GAMES}, path.name: path}


def run(entry: dict, documents: dict[str, Path]) -> dict:
    command, *options = entry["argv"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(documents[entry["document"]]), *options])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def record() -> list[dict]:
    with tempfile.TemporaryDirectory() as directory:
        documents = write_documents(Path(directory))
        return [{**entry, **run(entry, documents)} for entry in ENTRIES]


# Regenerating must not depend on the file it replaces.
RECORDED = [] if __name__ == "__main__" else json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def test_the_transcript_covers_every_document_and_command():
    assert [(e["document"], e["argv"]) for e in RECORDED] == [
        (e["document"], e["argv"]) for e in ENTRIES
    ]


@pytest.mark.parametrize(
    "entry", RECORDED, ids=[f"{e['document']}:{' '.join(e['argv'])}" for e in RECORDED]
)
def test_output_matches_the_transcript(entry, tmp_path):
    got = run(entry, write_documents(tmp_path))
    assert got == {key: entry[key] for key in ("stdout", "stderr", "code")}


if __name__ == "__main__":
    fresh = TRANSCRIPT.with_suffix(".json.tmp")
    fresh.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    fresh.replace(TRANSCRIPT)
