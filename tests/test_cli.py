import csv
import io
import json
import os
import subprocess
import sys

import pytest

QUARTET = "((1,2),(3,4));\n"
MATRIX = "4 2\n1 00\n2 01\n3 10\n4 11\n"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "parsiml.cli", *args],
        capture_output=True, text=True, env=env)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "t.nwk").write_text(QUARTET)
    (tmp_path / "x.mat").write_text(MATRIX)
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

    @pytest.mark.parametrize("flag,value", [("--tol", "-1"), ("--tol", "nan"),
                                            ("--restarts", "0"),
                                            ("--restarts", "-2")])
    def test_bad_optimizer_settings_refused(self, workdir, flag, value):
        proc = run_cli("search-ml", "--matrix", str(workdir / "x.mat"),
                       flag, value)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert flag.lstrip("-") in proc.stderr


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

    @pytest.mark.parametrize("name", ["PARSIML_N_MAX", "PARSIML_M_MIN"])
    def test_malformed_env_is_one_line_error(self, name):
        env = dict(os.environ, **{name: "abc"})
        proc = run_cli("enumerate", "--n", "4", env=env)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == \
            f"parsiml: error: environment variable {name}='abc' is not an integer\n"

    def test_env_override(self, workdir):
        env = dict(os.environ, PARSIML_N_MAX="9")
        proc = run_cli("--format", "json", "enumerate", "--n", "9", env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] == 135135


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
            "parsiml: error: verify prop1 pads by --epsilon, not --nc\n"

    def test_claim_requires_tree(self, workdir):
        proc = run_cli("verify", "claim2",
                       "--matrix", str(workdir / "x.mat"),
                       "--epsilon", "0.5")
        assert proc.returncode == 1
        assert "--tree" in proc.stderr


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
