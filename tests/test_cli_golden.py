"""Byte fingerprints of a fixed CLI corpus.

Every invocation below runs in this process, in a fresh working directory
that holds seeded inputs under relative paths, and is pinned by the md5 of
its stdout, the md5 of its stderr and its exit code in
``data/cli_golden.json``. A change that keeps the CLI's bytes keeps every
entry; one that means to change them regenerates the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and names the entries
that moved.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from parsiml.cli import run

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

# Inputs the corpus reads, beside the matrices the setup invocations write.
FILES = {
    "t4.nwk": "((1,2),(3,4));\n",
    "t5.nwk": "((1,2),(3,(4,5)));\n",
    "bad.nwk": "((1,2),(3,4);\n",
    "p4.probs": "1 5 0.1\n2 5 0.2\n3 6 0.05\n4 6 0.3\n5 6 0.15\n",
    "bad.probs": "1 5 0.1\n2 5 0.7\n3 6 0.05\n4 6 0.3\n5 6 0.15\n",
    "q.mat": "4 2\n1 00\n2 01\n3 10\n4 11\n",
    "bad.mat": "4 2\n1 00\n2 0x\n3 10\n4 11\n",
}

# Run in order before the corpus; they write the matrices it reads.
SETUP = [
    ["gen", "--n", "4", "--k", "5", "--seed", "1", "--out", "x4.mat"],
    ["gen", "--n", "5", "--k", "6", "--seed", "3", "--out", "x5.mat"],
]

FORMATS = ("text", "json", "csv")


def _formatted(name, argv):
    return [(f"{name} {fmt}", ["--format", fmt, *argv]) for fmt in FORMATS]


CORPUS = [
    *_formatted("gen", ["gen", "--n", "5", "--k", "6", "--seed", "3"]),
    ("gen compressed", ["gen", "--n", "6", "--k", "9", "--seed", "2",
                        "--compressed"]),
    *_formatted("pad epsilon", ["pad", "--matrix", "x5.mat",
                                "--epsilon", "0.5"]),
    *_formatted("pad nc", ["pad", "--matrix", "x4.mat", "--nc", "3"]),
    *_formatted("score-mp", ["score-mp", "--tree", "t5.nwk",
                             "--matrix", "x5.mat"]),
    *_formatted("score-ml", ["score-ml", "--tree", "t4.nwk",
                             "--matrix", "x4.mat", "--probs", "p4.probs"]),
    *_formatted("search-mp", ["search-mp", "--matrix", "x5.mat"]),
    *_formatted("search-ml", ["search-ml", "--matrix", "x4.mat"]),
    ("search-ml restarts", ["search-ml", "--matrix", "x5.mat",
                            "--restarts", "2", "--seed", "4"]),
    *_formatted("enumerate", ["enumerate", "--n", "5"]),
    *_formatted("verify claim1", ["verify", "claim1", "--matrix", "x5.mat",
                                  "--tree", "t5.nwk", "--epsilon", "0.5"]),
    *_formatted("verify claim2", ["verify", "claim2", "--matrix", "x5.mat",
                                  "--tree", "t5.nwk", "--epsilon", "0.5",
                                  "--trials", "20", "--seed", "1"]),
    *_formatted("verify claim3", ["verify", "claim3", "--matrix", "x5.mat",
                                  "--tree", "t5.nwk", "--epsilon", "0.5",
                                  "--trials", "5"]),
    ("verify claim1 inconclusive", ["verify", "claim1", "--matrix", "q.mat",
                                    "--tree", "t4.nwk", "--epsilon", "0.05",
                                    "--nc", "8"]),
    ("verify claim1 fail", ["--m-min", "1", "verify", "claim1",
                            "--matrix", "q.mat", "--tree", "t4.nwk",
                            "--epsilon", "0.05", "--nc", "8"]),
    ("verify claim3 nc", ["verify", "claim3", "--matrix", "q.mat",
                          "--tree", "t4.nwk", "--epsilon", "0.05",
                          "--nc", "8", "--trials", "5", "--m-min", "1"]),
    *_formatted("verify prop1", ["verify", "prop1", "--matrix", "x4.mat",
                                 "--epsilon", "0.5"]),
    ("verify prop1 n5", ["verify", "prop1", "--matrix", "x5.mat",
                         "--epsilon", "0.5", "--restarts", "2"]),
    # refusals
    ("refuse negative seed", ["gen", "--n", "4", "--k", "2", "--seed", "-1"]),
    ("refuse unknown flag", ["--bogus", "1", "gen", "--n", "4", "--k", "2"]),
    ("refuse pad past the limit", ["pad", "--matrix", "x5.mat",
                                   "--epsilon", "0.01"]),
    ("refuse pad nc 0", ["pad", "--matrix", "x5.mat", "--nc", "0"]),
    ("refuse bad matrix", ["search-mp", "--matrix", "bad.mat"]),
    ("refuse missing file", ["score-mp", "--tree", "none.nwk",
                             "--matrix", "x5.mat"]),
    ("refuse bad newick", ["score-mp", "--tree", "bad.nwk",
                           "--matrix", "x4.mat"]),
    ("refuse leaf mismatch", ["score-mp", "--tree", "t4.nwk",
                              "--matrix", "x5.mat"]),
    ("refuse bad probs", ["score-ml", "--tree", "t4.nwk", "--matrix", "x4.mat",
                          "--probs", "bad.probs"]),
    ("refuse search-mp cap", ["search-mp", "--matrix", "x5.mat",
                              "--n-max", "4"]),
    ("refuse enumerate n2", ["enumerate", "--n", "2"]),
    ("refuse enumerate n9", ["enumerate", "--n", "9"]),
    ("refuse claim without tree", ["verify", "claim1", "--matrix", "x5.mat",
                                   "--epsilon", "0.5"]),
    ("refuse prop1 tree", ["verify", "prop1", "--matrix", "x5.mat",
                           "--tree", "t5.nwk", "--epsilon", "0.5"]),
    ("refuse claim2 epsilon beside nc", ["verify", "claim2",
                                         "--matrix", "x5.mat",
                                         "--tree", "t5.nwk", "--nc", "3",
                                         "--epsilon", "0.5"]),
    ("refuse claim1 nc without epsilon", ["verify", "claim1",
                                          "--matrix", "x4.mat",
                                          "--tree", "t4.nwk", "--nc", "40"]),
    ("refuse claim3 nc without epsilon", ["verify", "claim3",
                                          "--matrix", "x4.mat",
                                          "--tree", "t4.nwk", "--nc", "40"]),
    ("refuse verify unknown check", ["verify", "claim4", "--matrix", "x5.mat"]),
]


def _md5(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def fingerprint(argv) -> dict:
    """Run one invocation in this process: its exit code and output hashes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return {"argv": list(argv), "exit": code,
            "stdout_md5": _md5(out.getvalue()),
            "stderr_md5": _md5(err.getvalue())}


def corpus_fingerprints() -> dict:
    """Every corpus entry's fingerprint, run in the current directory."""
    for name, text in FILES.items():
        Path(name).write_text(text)
    for argv in SETUP:
        assert fingerprint(argv)["exit"] == 0, argv
    return {name: fingerprint(argv) for name, argv in CORPUS}


@pytest.fixture(scope="module")
def fingerprints(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("golden"))
        return corpus_fingerprints()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_corpus_matches_the_golden_names(golden):
    assert [name for name, _ in CORPUS] == list(golden)


@pytest.mark.parametrize("name", [name for name, _ in CORPUS])
def test_invocation_matches_its_fingerprint(fingerprints, golden, name):
    assert fingerprints[name] == golden[name]


def test_corpus_covers_every_verb_in_every_format():
    covered = {(argv[1], " ".join(argv[2:4]) if argv[2] == "verify"
                else argv[2]) for _, argv in CORPUS if argv[0] == "--format"}
    verbs = ("gen", "pad", "score-mp", "score-ml", "search-mp", "search-ml",
             "enumerate", "verify claim1", "verify claim2", "verify claim3",
             "verify prop1")
    assert covered == {(fmt, verb) for fmt in FORMATS for verb in verbs}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        table = corpus_fingerprints()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {json.dumps(entry)}"
        for name, entry in table.items()) + "\n}\n")
    print(f"wrote {len(table)} fingerprints to {GOLDEN}")
