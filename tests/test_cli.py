import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from parsiml import reduction
from parsiml.characters import pad_constant_sites
from parsiml.cli import run
from parsiml.parsimony import _PatternMasks

QUARTET = "((1,2),(3,4));\n"
MATRIX = "4 2\n1 00\n2 01\n3 10\n4 11\n"
CONSTANT = "4 2\n1 00\n2 00\n3 00\n4 00\n"


def run_cli(*args):
    """Run the CLI in this process, as ``python -m parsiml.cli`` would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(args))
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


def run_module(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "parsiml.cli", *args],
        capture_output=True, text=True, env=env)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "t.nwk").write_text(QUARTET)
    (tmp_path / "x.mat").write_text(MATRIX)
    (tmp_path / "c.mat").write_text(CONSTANT)
    return tmp_path


class TestScoring:
    def test_score_mp_text(self, workdir):
        proc = run_cli("score-mp", "--tree", str(workdir / "t.nwk"),
                       "--matrix", str(workdir / "x.mat"))
        assert proc.returncode == 0
        assert proc.stdout == "l(X,T) = 3\n"

    def test_score_mp_json(self, workdir):
        proc = run_cli("--format", "json", "score-mp",
                       "--tree", str(workdir / "t.nwk"),
                       "--matrix", str(workdir / "x.mat"))
        payload = json.loads(proc.stdout)
        assert payload["score"] == 3
        assert payload["tree"] == "(1,2,(3,4));"

    def test_score_ml_with_sidecar(self, workdir):
        (workdir / "p.probs").write_text(
            "1 5 0.1\n2 5 0.1\n3 6 0.1\n4 6 0.1\n5 6 0.1\n")
        proc = run_cli("--format", "json", "score-ml",
                       "--tree", str(workdir / "t.nwk"),
                       "--matrix", str(workdir / "x.mat"),
                       "--probs", str(workdir / "p.probs"))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["cost"] > 0


class TestSearch:
    def test_search_mp(self, workdir):
        proc = run_cli("--format", "json", "search-mp",
                       "--matrix", str(workdir / "x.mat"))
        payload = json.loads(proc.stdout)
        assert payload["score"] == 3
        assert payload["optima"] == ["(1,(2,4),3);", "(1,2,(3,4));"]

    @pytest.mark.parametrize("matrix,line", [
        ("2 2\n1 01\n2 10\n",
         "parsiml: error: topology enumeration needs n >= 3"),
        ("9 2\n" + "".join(f"{v} 01\n" for v in range(1, 10)),
         "parsiml: error: n=9 exceeds the enumeration cap (8); pass a "
         "larger cap explicitly to proceed")], ids=["n=2", "n=9"])
    def test_search_mp_refuses_before_any_insertion_pass(
            self, tmp_path, monkeypatch, matrix, line):
        passes = []
        monkeypatch.setattr(_PatternMasks, "insertion_masks",
                            lambda *args: passes.append(args))
        (tmp_path / "x.mat").write_text(matrix)
        proc = run_cli("search-mp", "--matrix", str(tmp_path / "x.mat"))
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (1, "", line + "\n")
        assert passes == []

    def test_search_ml(self, workdir):
        proc = run_cli("--format", "json", "search-ml",
                       "--matrix", str(workdir / "x.mat"))
        payload = json.loads(proc.stdout)
        assert proc.returncode == 0
        assert payload["converged"] is True
        assert len(payload["probs"]) == 5

    def test_threads_flag_refused(self, workdir):
        proc = run_cli("search-ml", "--matrix", str(workdir / "x.mat"),
                       "--threads", "2")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == \
            "parsiml: error: unrecognized arguments: --threads 2"

    @pytest.mark.parametrize("verb", [["search-mp"], ["search-ml"],
                                      ["enumerate", "--n", "5"]],
                             ids=["search-mp", "search-ml", "enumerate"])
    def test_csv_list_cells_parse(self, workdir, verb):
        args = verb if verb[0] == "enumerate" else \
            verb + ["--matrix", str(workdir / "x.mat")]
        proc = run_cli("--format", "csv", *args)
        assert proc.returncode == 0
        head, row = list(csv.reader(io.StringIO(proc.stdout)))
        assert len(head) == len(row)
        payload = json.loads(run_cli("--format", "json", *args).stdout)
        assert sorted(payload) == head
        lists = [key for key in head if isinstance(payload[key], list)]
        assert lists
        for key in lists:
            assert json.loads(row[head.index(key)]) == payload[key]

    @pytest.mark.parametrize("flag,value", [("--restarts", "0"),
                                            ("--restarts", "-2")])
    def test_bad_optimizer_settings_refused(self, workdir, flag, value):
        proc = run_cli("search-ml", "--matrix", str(workdir / "x.mat"),
                       flag, value)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert flag.lstrip("-") in proc.stderr

    def test_tol_flag_refused(self, workdir):
        # the fit's stopping rule is the library's constant mlopt.TOL
        proc = run_cli("search-ml", "--matrix", str(workdir / "x.mat"),
                       "--tol", "1e-8")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == \
            "parsiml: error: unrecognized arguments: --tol 1e-8"


class TestGeneratePad:
    def test_gen_is_parseable_and_deterministic(self, workdir):
        first = run_cli("gen", "--n", "5", "--k", "6", "--seed", "1")
        second = run_cli("gen", "--n", "5", "--k", "6", "--seed", "1")
        assert first.stdout == second.stdout
        assert first.stdout.splitlines()[0] == "5 6"

    def test_pad_epsilon(self, workdir):
        proc = run_cli("--format", "json", "pad",
                       "--matrix", str(workdir / "x.mat"),
                       "--epsilon", "0.5")
        payload = json.loads(proc.stdout)
        assert payload["M"] == 8
        assert payload["N_c"] == 64
        assert payload["k_padded"] == 66

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "5", "--k", "6"],
        ["gen", "--n", "5", "--k", "6", "--compressed"],
        ["pad", "--matrix", "x.mat", "--epsilon", "0.5"],
        ["pad", "--matrix", "x.mat", "--nc", "10"],
    ])
    def test_gen_and_pad_honour_format(self, workdir, argv):
        argv = [str(workdir / a) if a == "x.mat" else a for a in argv]
        text = run_cli(*argv).stdout
        as_json = json.loads(run_cli("--format", "json", *argv).stdout)
        header, row = csv.reader(io.StringIO(
            run_cli("--format", "csv", *argv).stdout))
        as_csv = dict(zip(header, row))
        assert as_json["matrix"] == as_csv["matrix"]
        # the text output is the matrix, after pad's one comment line
        assert text.endswith(as_json["matrix"])
        assert text.count("\n") - as_json["matrix"].count("\n") == \
            (1 if argv[0] == "pad" else 0)
        if argv[0] == "gen":
            assert (as_json["n"], as_json["k"], as_json["seed"]) == (5, 6, 0)
        else:
            assert as_csv["N_c"] == str(as_json["N_c"])

    def test_pad_explicit_count(self, workdir):
        proc = run_cli("pad", "--matrix", str(workdir / "x.mat"),
                       "--nc", "10")
        assert proc.returncode == 0
        assert "N_c=10" in proc.stdout

    @pytest.mark.parametrize("verb", ["pad", "verify"])
    def test_nc_past_float_limit(self, workdir, verb):
        # the matrix has k = 2, so k + N_c = 2^53 + 1
        extra = (["claim1", "--tree", str(workdir / "t.nwk"),
                  "--epsilon", "0.5"] if verb == "verify" else [])
        proc = run_cli(verb, *extra, "--matrix", str(workdir / "x.mat"),
                       "--nc", str(2 ** 53 - 1))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "2^53" in proc.stderr

    def test_help_lists_no_pad_cap(self):
        for argv in (["--help"], ["pad", "--help"], ["verify", "--help"]):
            proc = run_cli(*argv)
            assert proc.returncode == 0
            assert "--nc-max" not in proc.stdout


class TestEnumerate:
    def test_text_lines(self):
        proc = run_cli("enumerate", "--n", "4")
        assert proc.stdout.splitlines() == \
            ["(1,(2,3),4);", "(1,(2,4),3);", "(1,2,(3,4));"]

    def test_cap_exit(self):
        proc = run_cli("enumerate", "--n", "9")
        assert proc.returncode == 1
        assert "cap" in proc.stderr

    def test_n_max_lifts_the_cap(self, tmp_path):
        # a 9-leaf search is past the library's default cap; --n-max 9 lifts it
        (tmp_path / "x.mat").write_text(
            run_cli("gen", "--n", "9", "--k", "4", "--seed", "0").stdout)
        argv = ["search-mp", "--matrix", str(tmp_path / "x.mat")]
        capped = run_cli(*argv)
        assert capped.returncode == 1
        assert "cap" in capped.stderr
        proc = run_cli("--n-max", "9", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("score = ")

    def test_environment_changes_nothing(self, workdir):
        # M = 8 at --nc 8: inconclusive below the default M_min = 32; no
        # environment variable can lower M_min or raise the cap
        argv = ["verify", "claim1", "--matrix", str(workdir / "x.mat"),
                "--tree", str(workdir / "t.nwk"), "--epsilon", "0.05",
                "--nc", "8"]
        plain = run_module(*argv)
        env = dict(os.environ, PARSIML_M_MIN="1", PARSIML_N_MAX="9")
        overridden = run_module(*argv, env=env)
        assert plain.returncode == 3, plain.stderr
        assert (overridden.returncode, overridden.stdout, overridden.stderr) \
            == (plain.returncode, plain.stdout, plain.stderr)


class TestVerify:
    def test_claim2_json_passes(self, workdir):
        proc = run_cli("--format", "json", "verify", "claim2",
                       "--matrix", str(workdir / "x.mat"),
                       "--tree", str(workdir / "t.nwk"),
                       "--epsilon", "0.5", "--trials", "200", "--seed", "7")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "pass"
        assert payload["quantities"]["N_c"] == 64
        assert payload["runtime_ms"] is None

    def test_claim1_inconclusive_exit_code(self, workdir):
        proc = run_cli("verify", "claim1",
                       "--matrix", str(workdir / "x.mat"),
                       "--tree", str(workdir / "t.nwk"),
                       "--epsilon", "0.05", "--nc", "8")
        assert proc.returncode == 3
        assert "INCONCLUSIVE" in proc.stdout

    def test_claim1_fail_exit_code(self, workdir):
        proc = run_cli("--m-min", "1", "verify", "claim1",
                       "--matrix", str(workdir / "x.mat"),
                       "--tree", str(workdir / "t.nwk"),
                       "--epsilon", "0.05", "--nc", "8")
        assert proc.returncode == 2
        assert "FAIL" in proc.stdout

    def test_claim3_csv(self, workdir):
        proc = run_cli("--format", "csv", "verify", "claim3",
                       "--matrix", str(workdir / "x.mat"),
                       "--tree", str(workdir / "t.nwk"),
                       "--epsilon", "0.5", "--trials", "20")
        assert proc.returncode == 0
        assert proc.stdout.startswith("claim3,")

    def test_prop1(self, workdir):
        proc = run_cli("--format", "json", "verify", "prop1",
                       "--matrix", str(workdir / "x.mat"),
                       "--epsilon", "0.5")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["details"]["is_mp_optimum"] is True

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_claim2_without_trials_refused(self, workdir, trials):
        proc = run_cli("verify", "claim2",
                       "--matrix", str(workdir / "x.mat"),
                       "--tree", str(workdir / "t.nwk"),
                       "--epsilon", "0.5", "--trials", trials)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "trials" in proc.stderr

    def test_prop1_refuses_nc(self, workdir):
        # prop1 pads by epsilon alone; an --nc it would ignore is refused
        proc = run_cli("verify", "prop1", "--matrix", str(workdir / "x.mat"),
                       "--epsilon", "0.5", "--nc", "100000")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == \
            "parsiml: error: verify prop1 does not read --nc\n"

    @pytest.mark.parametrize("check,given", [
        ("prop1", ["--tree", "t.nwk"]), ("prop1", ["--trials", "7"]),
        ("claim1", ["--trials", "7"]), ("claim1", ["--restarts", "50"]),
        ("claim2", ["--restarts", "50"]), ("claim3", ["--restarts", "50"]),
    ], ids=lambda value: value if isinstance(value, str) else value[0])
    def test_option_the_check_never_reads_refused(self, workdir, check,
                                                  given):
        tree = [] if check == "prop1" else ["--tree", str(workdir / "t.nwk")]
        proc = run_cli("verify", check, "--matrix", str(workdir / "x.mat"),
                       "--epsilon", "0.5", *tree, *given)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == \
            f"parsiml: error: verify {check} does not read {given[0]}\n"

    @pytest.mark.parametrize("check,trials", [("claim2", 1000),
                                              ("claim3", 4133)])
    def test_cli_and_library_report_the_same_trials(self, workdir, quartet,
                                                    quartet_matrix, check,
                                                    trials):
        # the library owns the --trials default; claim3 adds its 3^5 grid
        # points, the canonical q, the fit and five threshold probes
        proc = run_cli("--format", "json", "verify", check,
                       "--matrix", str(workdir / "x.mat"),
                       "--tree", str(workdir / "t.nwk"), "--epsilon", "0.5")
        verify = getattr(reduction, f"verify_{check}")
        library = verify(pad_constant_sites(quartet_matrix, 0.5), quartet)
        assert json.loads(proc.stdout)["trials"] == library.trials == trials

    @pytest.mark.parametrize("check", ["claim1", "claim3"])
    @pytest.mark.parametrize("epsilon", ["nan", "7"])
    def test_epsilon_override_out_of_range_refused(self, workdir, check,
                                                   epsilon):
        proc = run_cli("verify", check, "--matrix", str(workdir / "x.mat"),
                       "--tree", str(workdir / "t.nwk"), "--nc", "10",
                       "--epsilon", epsilon)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "parsiml: error: epsilon must lie in (0, 1], " \
            f"got {float(epsilon)}\n"

    @pytest.mark.parametrize("epsilon", ["nan", "0.5"])
    def test_claim2_refuses_epsilon_beside_nc(self, workdir, epsilon):
        # claim2's bound reads no epsilon, so beside --nc it would be dropped
        proc = run_cli("verify", "claim2", "--matrix", str(workdir / "x.mat"),
                       "--tree", str(workdir / "t.nwk"), "--nc", "10",
                       "--epsilon", epsilon, "--trials", "5")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "parsiml: error: verify claim2 does not read " \
            "--epsilon beside --nc\n"

    @pytest.mark.parametrize("check,tree,message", [
        ("claim1", True, "verify claim1 requires --epsilon"),
        ("claim2", True, "verify claim2 requires --epsilon or --nc"),
        ("claim3", True, "verify claim3 requires --epsilon"),
        ("prop1", False, "verify prop1 requires --epsilon"),
    ])
    def test_missing_padding_option_refused(self, workdir, check, tree,
                                            message):
        given = ["--tree", str(workdir / "t.nwk")] if tree else []
        proc = run_cli("verify", check, "--matrix", str(workdir / "x.mat"),
                       *given)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"parsiml: error: {message}\n"

    @pytest.mark.parametrize("check", ["claim1", "claim3"])
    def test_nc_without_epsilon_refused(self, workdir, check):
        # their bounds read epsilon, which an --nc padding does not carry
        proc = run_cli("verify", check, "--matrix", str(workdir / "x.mat"),
                       "--tree", str(workdir / "t.nwk"), "--nc", "10")
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (1, "", f"parsiml: error: verify {check} requires --epsilon "
                    "beside --nc\n")

    def test_claim_requires_tree(self, workdir):
        proc = run_cli("verify", "claim2",
                       "--matrix", str(workdir / "x.mat"),
                       "--epsilon", "0.5")
        assert proc.returncode == 1
        assert "--tree" in proc.stderr


class TestTiming:
    """--timing puts the check's wall-clock time in every verify report,
    degenerate and vacuous ones included, and changes nothing else."""

    CASES = {
        "claim1": ["claim1", "--tree", "t.nwk", "--epsilon", "0.5"],
        "claim2": ["claim2", "--tree", "t.nwk", "--epsilon", "0.5",
                   "--trials", "20"],
        "claim3": ["claim3", "--tree", "t.nwk", "--epsilon", "0.5",
                   "--trials", "10"],
        "claim2-vacuous": ["claim2", "--tree", "t.nwk", "--nc", "2",
                           "--trials", "20"],
        "prop1": ["prop1", "--epsilon", "0.5"],
    }

    @staticmethod
    def split_runtime(fmt, out):
        """(runtime_ms or None, the rest of the report)."""
        if fmt == "json":
            payload = json.loads(out)
            return payload.pop("runtime_ms"), payload
        if fmt == "csv":
            (*rest, cell), = csv.reader(io.StringIO(out))
            return (float(cell) if cell else None), rest
        lines = out.splitlines()
        timed = [re.fullmatch(r"runtime   (\S+) ms", line) for line in lines]
        rest = [line for line, match in zip(lines, timed) if not match]
        values = [float(match[1]) for match in timed if match]
        assert len(values) <= 1
        return (values[0] if values else None), rest

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("case,matrix", [
        ("claim1", "c.mat"), ("claim1", "x.mat"), ("claim2", "c.mat"),
        ("claim2", "x.mat"), ("claim3", "c.mat"), ("claim3", "x.mat"),
        ("claim2-vacuous", "x.mat"), ("prop1", "c.mat"), ("prop1", "x.mat"),
    ], ids=lambda value: {"c.mat": "constant", "x.mat": "quartet"}.get(
        value, value))
    def test_runtime_only_under_timing(self, workdir, capsys, case, matrix,
                                       fmt):
        argv = ["--format", fmt, "verify", "--matrix", str(workdir / matrix),
                *[str(workdir / a) if a == "t.nwk" else a
                  for a in self.CASES[case]]]
        plain_exit = run(argv)
        plain = capsys.readouterr().out
        timed_exit = run(["--timing", *argv])
        timed = capsys.readouterr().out
        note = ("degenerate" if matrix == "c.mat"
                else "vacuous" if case == "claim2-vacuous" else "")
        if fmt != "csv":  # the CSV row carries no note
            assert note in plain
        untimed, plain_rest = self.split_runtime(fmt, plain)
        runtime, timed_rest = self.split_runtime(fmt, timed)
        assert untimed is None
        assert isinstance(runtime, float)
        assert math.isfinite(runtime) and runtime >= 0.0
        assert (timed_exit, timed_rest) == (plain_exit, plain_rest)


class TestPaperRegime:
    """epsilon = 0.15 < 0.2 on a 16-leaf caterpillar with M = 32, where
    N_c = 10,822,639,410 (least N with N^3 >= 32^20)."""

    CATERPILLAR = "(1,2,(3,(4,(5,(6,(7,(8,(9,(10,(11,(12,(13,(14,(15,16))))))))))))));\n"

    @pytest.mark.parametrize("check", [["claim1"], ["claim2", "--trials", "200"],
                                       ["claim3", "--trials", "50"]],
                             ids=["claim1", "claim2", "claim3"])
    def test_claims_reach_the_asserted_regime(self, tmp_path, check):
        matrix = run_cli("gen", "--n", "16", "--k", "32", "--seed", "0").stdout
        (tmp_path / "x.mat").write_text(matrix)
        (tmp_path / "t.nwk").write_text(self.CATERPILLAR)
        proc = run_cli("--format", "json", "verify", *check,
                       "--matrix", str(tmp_path / "x.mat"),
                       "--tree", str(tmp_path / "t.nwk"), "--epsilon", "0.15")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["quantities"]["N_c"] == 10822639410
        assert payload["preconditions_met"] is True


class TestErrorPaths:
    def test_unknown_flag(self, workdir):
        proc = run_cli("score-mp", "--tree", str(workdir / "t.nwk"),
                       "--matrix", str(workdir / "x.mat"), "--bogus")
        assert proc.returncode == 1
        assert "--bogus" in proc.stderr

    @pytest.mark.parametrize("argv,named", [
        (["--bogus", "2", "gen", "--n", "4", "--k", "2"], "--bogus 2"),
        (["--seed", "3", "--bogus", "2", "gen", "--n", "4"], "--bogus 2"),
        (["--bogus", "gen", "--n", "4", "--k", "2"], "--bogus"),
        (["gen", "--n", "4", "--k", "2", "--bogus", "2"], "--bogus 2"),
        (["--bogus", "-2", "gen", "--n", "4", "--k", "2"], "--bogus -2"),
    ])
    def test_unknown_flag_named_on_either_side_of_the_verb(self, argv, named):
        proc = run_cli(*argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: parsiml ")
        assert proc.stderr.count("usage:") == 1
        assert proc.stderr.splitlines()[-1] == \
            f"parsiml: error: unrecognized arguments: {named}"

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "4", "--k", "2"],
        ["search-ml", "--matrix", "x.mat"],
        ["verify", "claim2", "--matrix", "x.mat", "--tree", "t.nwk",
         "--epsilon", "0.5"],
        ["verify", "prop1", "--matrix", "x.mat", "--epsilon", "0.5"],
    ], ids=["gen", "search-ml", "claim2", "prop1"])
    def test_negative_seed_named(self, workdir, argv):
        argv = [str(workdir / a) if a in ("x.mat", "t.nwk") else a
                for a in argv]
        proc = run_cli("--seed", "-1", *argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "parsiml: error: --seed must be >= 0, got -1\n"

    def test_multiplicity_past_float_limit(self, workdir):
        (workdir / "p.probs").write_text(
            "1 5 0.1\n2 5 0.1\n3 6 0.1\n4 6 0.1\n5 6 0.1\n")
        (workdir / "big.mat").write_text(
            f"4 {2 ** 53 + 1}\ncounts {2 ** 53 + 1}\n1 0\n2 0\n3 1\n4 1\n")
        proc = run_cli("score-ml", "--tree", str(workdir / "t.nwk"),
                       "--matrix", str(workdir / "big.mat"),
                       "--probs", str(workdir / "p.probs"))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "2^53" in proc.stderr

    def test_missing_file(self, workdir):
        proc = run_cli("score-mp", "--tree", str(workdir / "nope.nwk"),
                       "--matrix", str(workdir / "x.mat"))
        assert proc.returncode == 1
        assert "nope.nwk" in proc.stderr

    def test_malformed_matrix(self, workdir):
        (workdir / "bad.mat").write_text("4 2\n1 0x\n2 01\n3 10\n4 11\n")
        proc = run_cli("score-mp", "--tree", str(workdir / "t.nwk"),
                       "--matrix", str(workdir / "bad.mat"))
        assert proc.returncode == 1
        assert "line 2" in proc.stderr

    def test_deep_newick_scores(self, tmp_path):
        n = 3000
        text = str(n)
        for leaf in range(n - 1, 0, -1):
            text = f"({leaf},{text})"
        (tmp_path / "deep.nwk").write_text(text + ";\n")
        (tmp_path / "deep.mat").write_text(
            run_cli("gen", "--n", str(n), "--k", "2").stdout)
        proc = run_cli("score-mp", "--tree", str(tmp_path / "deep.nwk"),
                       "--matrix", str(tmp_path / "deep.mat"))
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout.startswith("l(X,T) = ")

    def test_no_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 1

    def test_out_file(self, workdir):
        out = workdir / "report.json"
        proc = run_cli("--format", "json", "--out", str(out),
                       "score-mp", "--tree", str(workdir / "t.nwk"),
                       "--matrix", str(workdir / "x.mat"))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(out.read_text())["score"] == 3
