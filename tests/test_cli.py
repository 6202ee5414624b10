"""End-to-end command line behaviour: output bytes, exit codes, and the
three subcommands."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from grothpoly import classical, cli
from grothpoly.report import VerificationReport


def run_cli(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    import os

    full_env = dict(os.environ)
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    full_env["PYTHONPATH"] = os.pathsep.join(p for p in (src, full_env.get("PYTHONPATH")) if p)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "grothpoly", *argv],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=300,
    )


class TestCompute:
    def test_double_grothendieck_by_word(self):
        r = run_cli("compute", "--family", "G", "--word", "12", "--n", "3")
        assert r.returncode == 0
        want = (
            "y1^2 - b*y1^2*y2 + x1*y1 - b*x1*y1*y2 + x2*y1 - b*x2*y1*y2"
            " + x1*x2 - b*x1*x2*y2"
        )
        assert r.stdout.strip() == want

    def test_identity_word_is_empty_string(self):
        r = run_cli("compute", "--family", "G", "--word", "", "--n", "1")
        assert r.returncode == 0
        assert r.stdout.strip() == "1"

    def test_perm_input(self):
        a = run_cli("compute", "--family", "H", "--perm", "2,1,3", "--n", "3")
        b = run_cli("compute", "--family", "H", "--word", "1", "--n", "3")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_word_and_perm_conflict(self):
        r = run_cli(
            "compute", "--family", "G", "--word", "1", "--perm", "2,1", "--n", "2"
        )
        assert r.returncode == 2
        assert "error" in json.loads(r.stderr)

    def test_missing_selector(self):
        r = run_cli("compute", "--family", "G", "--n", "2")
        assert r.returncode == 2

    def test_beta_and_q_specialisation(self):
        r = run_cli(
            "compute", "--family", "qG", "--word", "1", "--n", "3",
            "--beta", "0", "--q", "0",
        )
        assert r.returncode == 0
        assert r.stdout.strip() == "y1 + x1"

    def test_unknown_family(self):
        r = run_cli("compute", "--family", "Gq", "--word", "1", "--n", "2")
        assert r.returncode == 2
        assert "error" in json.loads(r.stderr)

    def test_bad_word_letter(self):
        r = run_cli("compute", "--family", "G", "--word", "3", "--n", "3")
        assert r.returncode == 2

    def test_non_reduced_word_rejected(self):
        r = run_cli("compute", "--family", "G", "--word", "11", "--n", "3")
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"] == "word '11' is not reduced"

    def test_ideal_flag(self):
        # family members are already staircase normal forms, so reduction
        # must leave them alone (real rewrites are covered in the library
        # tests); the flag still has to parse and run
        r = run_cli(
            "compute", "--family", "S", "--word", "121", "--n", "3",
            "--ideal", "x",
        )
        assert r.returncode == 0
        assert r.stdout.strip() == "x1^2*x2"
        r2 = run_cli(
            "compute", "--family", "S", "--word", "121", "--n", "3",
            "--ideal", "bogus",
        )
        assert r2.returncode == 2

    def test_latex_format(self):
        r = run_cli(
            "compute", "--family", "G", "--word", "1", "--n", "2",
            "--format", "latex",
        )
        assert r.returncode == 0
        assert r.stdout.strip() == "y_{1} + x_{1}"


class TestTable:
    def test_one_alphabet_schubert_rank2(self):
        r = run_cli("table", "--family", "S", "--n", "2")
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["1", "x1"]

    def test_byte_identical_reruns(self):
        a = run_cli("table", "--family", "qG", "--n", "3", "--format", "json")
        b = run_cli("table", "--family", "qG", "--n", "3", "--format", "json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_json_records(self):
        r = run_cli("table", "--family", "H", "--n", "2", "--format", "json")
        rows = [json.loads(line) for line in r.stdout.splitlines()]
        assert len(rows) == 2
        assert rows[0]["w"] == [1, 2]
        assert rows[0]["length"] == 0
        assert rows[1]["w"] == [2, 1]
        assert set(rows[0]) == {"family", "n", "w", "word", "length", "poly"}

    def test_rows_sorted_by_length(self):
        r = run_cli("table", "--family", "G", "--n", "3", "--format", "json")
        lens = [json.loads(line)["length"] for line in r.stdout.splitlines()]
        assert lens == sorted(lens)
        assert len(lens) == 6

    def test_latex_table(self):
        r = run_cli("table", "--family", "G", "--n", "2", "--format", "latex")
        lines = r.stdout.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("G_{id} &= ")
        assert lines[0].endswith(r"\\")


class TestVerify:
    def test_single_check_json(self):
        r = run_cli("verify", "cauchy", "--n", "2")
        assert r.returncode == 0
        obj = json.loads(r.stdout.strip())
        assert obj["id"] == "cauchy"
        assert obj["status"] == "pass"
        assert obj["counterexample"] is None
        assert isinstance(obj["ms"], (int, float))

    def test_unknown_id(self):
        r = run_cli("verify", "bogus_id", "--n", "2")
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"].startswith("unknown identity id")

    def test_over_cap_rank_is_exit_2(self):
        r = run_cli("verify", "basis", "--n", "5")
        assert r.returncode == 2

    def test_all_catalog_order_and_clamp(self):
        r = run_cli("verify", "--all", "--n", "2", env={"GROTHPOLY_WORKERS": "2"})
        assert r.returncode == 0
        rows = [json.loads(line) for line in r.stdout.splitlines()]
        ids = [row["id"] for row in rows]
        assert ids == [cid for _, cid in cli._catalog()]
        assert all(row["status"] == "pass" for row in rows)

    def test_all_conflicts_with_ids(self):
        r = run_cli("verify", "--all", "cauchy", "--n", "2")
        assert r.returncode == 2

    def test_failing_check_gives_exit_1(self, monkeypatch, capsys):
        def broken(n, rng):
            return False, {"w": [1, 2]}, None

        monkeypatch.setitem(classical.CLASSICAL_CHECKS, "always_red", broken)
        code = cli.main(["verify", "always_red", "--n", "2"])
        out = capsys.readouterr().out
        assert code == 1
        obj = json.loads(out.strip())
        assert obj["status"] == "fail"
        assert obj["counterexample"] == {"w": [1, 2]}

    def test_text_format(self):
        r = run_cli("verify", "orthogonality", "--n", "2", "--format", "text")
        assert r.returncode == 0
        assert r.stdout.startswith("PASS orthogonality n=2")


class TestArgparse:
    def test_no_command(self):
        r = run_cli()
        assert r.returncode == 2

    def test_missing_n(self):
        r = run_cli("table", "--family", "G")
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--family", "G", "--n", "-2"],
            ["table", "--family", "qS", "--n", "0"],
            ["compute", "--family", "G", "--word", "", "--n", "0"],
            ["compute", "--family", "S", "--perm", "1", "--n", "-1"],
        ],
    )
    def test_rank_below_one_is_exit_2(self, argv, capsys):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"].startswith("rank must be at least 1")

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--family", "G", "--n", "9", "--force-n"],
            ["table", "--family", "Sd", "--n", "7", "--force-n"],
            ["compute", "--family", "Hx", "--word", "", "--n", "7", "--force-n"],
        ],
    )
    def test_classical_hard_cap_holds_with_force_n(self, argv, capsys):
        # refused before any table is built, so this returns at once
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "classical families are capped at n=6"}
