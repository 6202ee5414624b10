"""End-to-end command line behaviour: output bytes, exit codes, the three
subcommands, and the option parser against the argparse parser it
replaced."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly import classical, cli
from grothpoly.perms import Permutation
from grothpoly.poly import beta, xvar
from grothpoly.report import CHECKS, Check, Counterexample, verify


def cli_env(env: dict | None = None) -> dict:
    """This process's environment, updated by env, in which a child imports
    the same package as this process, installed or not.  Its output is
    block-buffered, so the flush in cli.run is what writes it."""
    full_env = dict(os.environ)
    full_env.pop("PYTHONUNBUFFERED", None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    full_env["PYTHONPATH"] = os.pathsep.join(p for p in (src, full_env.get("PYTHONPATH")) if p)
    full_env.update(env or {})
    return full_env


def run_cli(*argv: str, env: dict | None = None, text: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "grothpoly", *argv],
        capture_output=True,
        text=text,
        env=cli_env(env),
        timeout=300,
    )


def assert_refused(r: subprocess.CompletedProcess) -> None:
    """Exit 2, nothing on stdout, and one stderr line holding {"error": <str>}."""
    assert r.returncode == 2
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert list(obj) == ["error"]
    assert isinstance(obj["error"], str)


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

    def test_beta_and_q_specialisation(self):
        r = run_cli(
            "compute", "--family", "qG", "--word", "1", "--n", "3",
            "--beta", "0", "--q", "0",
        )
        assert r.returncode == 0
        assert r.stdout.strip() == "y1 + x1"

    def test_bad_word_letter(self):
        r = run_cli("compute", "--family", "G", "--word", "3", "--n", "3")
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "word", ["a", "\u00b2", "1\u0661"], ids=["letter", "superscript-2", "arabic-indic-1"]
    )
    def test_word_of_non_ascii_digits_rejected(self, word, capsys):
        # str.isdigit() admits "²" and "١", which int() then refuses
        code = cli.main(["compute", "--family", "G", "--n", "3", "--word", word])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": f"word must be digits 1..2, got {word!r}"}

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "G", "--n", "5", "--word", "1432"],
            ["--family", "Hx", "--n", "4", "--perm", "2,4,1,3"],
            ["--family", "qG", "--n", "3", "--word", "12"],
        ],
    )
    @pytest.mark.parametrize("ideal", classical.IDEALS)
    def test_ideal_prints_the_member_as_it_is(self, argv, ideal, monkeypatch, capsys):
        # every member is its own normal form, so --ideal builds no rules
        def refuse(*args, **kwargs):
            raise AssertionError("compute --ideal built a NormalFormContext")

        assert cli.main(["compute", *argv]) == 0
        plain = capsys.readouterr().out
        monkeypatch.setattr(classical, "NormalFormContext", refuse)
        assert cli.main(["compute", *argv, "--ideal", ideal]) == 0
        assert capsys.readouterr().out == plain

    def test_latex_format(self):
        r = run_cli(
            "compute", "--family", "G", "--word", "1", "--n", "2",
            "--format", "latex",
        )
        assert r.returncode == 0
        assert r.stdout.strip() == "y_{1} + x_{1}"

    @pytest.mark.parametrize(
        "argv, size, digest",
        [
            # the costliest compute request a cap accepts (~1 s)
            (["compute", "--family", "bH", "--n", "5", "--word", ""], 1888987,
             "abbe2b32939327ca1f3511c0505498fec835fd33a08ef7a5da95bc6ae15e0040"),
            (["compute", "--family", "G", "--n", "6", "--word", "1"], 30386,
             "4058d039f1732cedbc48d9791913734d295fc1257df36b8399640103a934fb84"),
        ],
        ids=["bH-5-id", "G-6-s1"],
    )
    def test_compute_at_each_cap_needs_no_flag(self, argv, size, digest, capsys):
        # each kind's cap is open to compute without a flag, and prints the
        # bytes recorded when rank 5 (quantum) and 6 (classical) stood
        # behind --force-n
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


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

    def test_repeated_id_is_refused(self, capsys):
        code = cli.main(["verify", "--n", "2", "orthogonality", "cauchy", "orthogonality"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "identity id 'orthogonality' is repeated"}

    def test_over_cap_rank_is_exit_2(self):
        r = run_cli("verify", "basis", "--n", "5")
        assert r.returncode == 2

    def test_above_default_cap_names_the_flag(self):
        r = run_cli("verify", "quantum_cauchy", "--n", "4")
        assert r.returncode == 2
        assert r.stdout == ""
        assert json.loads(r.stderr) == {"error": "quantum_cauchy above n=3 needs --force-n"}

    def test_cauchy_is_capped_at_4(self):
        r = run_cli("verify", "cauchy", "--n", "5", "--force-n")
        assert r.returncode == 2
        assert r.stdout == ""
        assert json.loads(r.stderr) == {"error": "cauchy is capped at n=4"}

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["closed_forms", "cauchy", "--n", "5", "--force-n"], "cauchy is capped at n=4"),
            (["closed_forms", "basis", "--n", "4"], "basis above n=3 needs --force-n"),
            (["--all", "--n", "0"], "rank must be at least 1, got 0"),
            (["closed_forms", "basis", "--n", "9", "--force-n"], "closed_forms is capped at n=5"),
        ],
        ids=["hard_cap", "default_cap", "rank_below_one", "past_n_max"],
    )
    def test_refusal_runs_no_check(self, argv, error, monkeypatch, capsys):
        # a cap anywhere in the request is refused before the checks ahead
        # of it build their tables
        ran = []
        for cid, c in list(CHECKS.items()):
            def record(n, rng, cid=cid):
                ran.append(cid)

            monkeypatch.setitem(CHECKS, cid, c._replace(fn=record))
        code = cli.main(["verify", *argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": error}
        assert ran == []

    def test_no_environment_variable_or_process_pool(self):
        # a child, since pytest may have loaded multiprocessing already
        code = (
            "import sys\n"
            "from grothpoly import cli\n"
            "assert cli.main(['verify', 'closed_forms', '--n', '2']) == 0\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=cli_env({"GROTHPOLY_WORKERS": "abc"}), timeout=120)
        assert r.returncode == 0, r.stderr
        *rows, loaded = r.stdout.splitlines()
        assert [json.loads(row)["status"] for row in rows] == ["pass"]
        assert loaded == "False"

    def test_all_catalog_order_and_clamp(self):
        r = run_cli("verify", "--all", "--n", "2")
        assert r.returncode == 0
        rows = [json.loads(line) for line in r.stdout.splitlines()]
        ids = [row["id"] for row in rows]
        assert ids == list(CHECKS)
        assert all(row["status"] == "pass" for row in rows)

    def test_all_conflicts_with_ids(self):
        r = run_cli("verify", "--all", "cauchy", "--n", "2")
        assert r.returncode == 2

    def test_failing_check_gives_exit_1(self, monkeypatch, capsys):
        def broken(n, rng):
            raise Counterexample(w=[1, 2])

        monkeypatch.setitem(CHECKS, "always_red", Check(broken, 4, 5))
        code = cli.main(["verify", "always_red", "--n", "2"])
        out = capsys.readouterr().out
        assert code == 1
        obj = json.loads(out.strip())
        assert obj["status"] == "fail"
        assert obj["counterexample"] == {"w": [1, 2]}

    def test_verify_serialises_the_counterexample_fields(self, monkeypatch):
        # a MultiPoly field becomes its json_obj(), a Permutation its
        # one-line list, and any other value is kept as it is
        def passing(n, rng):
            return {"trials": n}

        def failing(n, rng):
            raise Counterexample(f=xvar(1) - beta(), w=Permutation((2, 3, 1)), part="roundtrip", k=n)

        monkeypatch.setitem(CHECKS, "green", Check(passing, 4, 5))
        monkeypatch.setitem(CHECKS, "red", Check(failing, 4, 5))
        rep = verify("green", 2)
        assert (rep.status, rep.counterexample, rep.detail) == ("pass", None, {"trials": 2})
        rep = verify("red", 2)
        assert rep.status == "fail"
        assert rep.detail is None
        assert json.dumps(rep.counterexample) == (
            '{"f": [{"coef": "-1", "monomial": {"b": 1}}, {"coef": "1", "monomial": {"x1": 1}}],'
            ' "w": [2, 3, 1], "part": "roundtrip", "k": 2}'
        )

    def test_internal_key_error_propagates(self, monkeypatch, capsys):
        """A KeyError inside a check is a fault of the program, not a bad
        argument: main lets it through rather than exit 2 with its key as
        the error.  No argv reaches a KeyError; unknown ids, families and
        commands are refused as ValueError first."""

        def faulty(n, rng):
            return {}[(1, 2)]

        monkeypatch.setitem(CHECKS, "faulty", Check(faulty, 4, 5))
        with pytest.raises(KeyError):
            cli.main(["verify", "faulty", "--n", "2"])
        assert capsys.readouterr().err == ""

    def test_readme_catalog_matches_registry(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text().split("### Verification catalog", 1)[1]
        rows = []
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("| `"):
                rows.append((cells[0].strip("`"), int(cells[1]), int(cells[2])))
            elif rows:
                break
        assert rows == [(cid, c.soft, c.hard) for cid, c in CHECKS.items()]

    def test_text_format(self):
        r = run_cli("verify", "orthogonality", "--n", "2", "--format", "text")
        assert r.returncode == 0
        assert r.stdout.startswith("PASS orthogonality n=2")


class TestArgparse:
    def test_no_command(self):
        assert_refused(run_cli())

    def test_missing_n(self):
        assert_refused(run_cli("table", "--family", "G"))

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["compute", "--family", "G", "--n", "abc", "--word", "1"], id="n-not-int"),
            pytest.param(["compute", "--family", "G", "--n", "3", "--word", "1", "--format", "bogus"],
                         id="unknown-format"),
            pytest.param(["verify", "--all", "--n", "3", "--seed", "x"], id="seed-not-int"),
            pytest.param(["compute", "--family", "G", "--n", "3", "--word", "1", "--bogus"],
                         id="unknown-option"),
            pytest.param(["compute", "--family", "Gq", "--n", "3", "--word", "1"], id="unknown-family"),
            pytest.param(["table", "--family", "Gq", "--n", "3"], id="unknown-family-table"),
            pytest.param(["compute", "--family", "G", "--n", "3", "--word", "1", "--perm", "2,1,3"],
                         id="word-and-perm"),
            pytest.param(["compute", "--family", "G", "--n", "3"], id="neither-word-nor-perm"),
            pytest.param(["compute", "--family", "G", "--n", "3", "--word", "1", "--beta", "1.5"],
                         id="beta-not-int"),
        ],
    )
    def test_parser_refusals_are_one_json_line(self, argv):
        # the structure is pinned, not argparse's wording, which varies
        # across Python versions
        assert_refused(run_cli(*argv))

    @pytest.mark.parametrize("argv", [["--help"], ["compute", "--help"]])
    def test_help_exits_0(self, argv):
        r = run_cli(*argv)
        assert r.returncode == 0
        assert r.stdout.startswith("usage: grothpoly")
        assert r.stderr == ""

    def test_q_refusal_keeps_its_wording(self, capsys):
        # argparse reads the --q value "1,x"; its converter keeps the
        # reader's wording, not argparse's "invalid _parse_q value"
        code = cli.main([*_G3, "--word", "1", "--q", "1,x"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "argument --q: expects comma-separated integers, got '1,x'"}

    def test_abbreviated_options_are_read_by_argparse(self, capsys):
        assert cli.main(["compute", "--family", "G", "--word", "1", "--n", "3"]) == 0
        full = capsys.readouterr()
        assert cli.main(["compute", "--fam", "G", "--wo", "1", "--n", "3"]) == 0
        assert capsys.readouterr() == full
        assert cli.main(["verify", "-h"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: grothpoly verify")
        assert err == ""

    def test_readme_cli_examples_run(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = readme.read_text().split("## CLI", 1)[1].split("```", 2)[1]
        commands = [line.split() for line in block.splitlines() if line.startswith("grothpoly ")]
        assert len(commands) >= 5
        for argv in commands:
            r = run_cli(*argv[1:])
            assert r.returncode == 0, (argv, r.stderr)

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--family", "G", "--n", "-2"],
            ["table", "--family", "qS", "--n", "0"],
            ["compute", "--family", "G", "--word", "", "--n", "0"],
            ["compute", "--family", "S", "--perm", "1", "--n", "-1"],
            ["verify", "--all", "--n", "0"],
            ["verify", "cauchy", "--n", "0"],
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
            ["table", "--family", "G", "--n", "9"],
            ["table", "--family", "Sd", "--n", "7"],
            ["compute", "--family", "Hx", "--word", "", "--n", "7"],
            ["compute", "--family", "G", "--word", "", "--n", "9"],
        ],
    )
    def test_classical_cap_holds(self, argv, capsys):
        # refused before any table is built, so this returns at once; a
        # rank past N_MAX gets the cap's wording, not check_rank's
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "classical families are capped at n=6"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--family", "G", "--n", "3", "--word", "1", "--force-n"],
            ["compute", "--family", "bH", "--n", "5", "--word", "", "--force-n"],
            ["table", "--family", "S", "--n", "2", "--force-n"],
            ["table", "--family", "G", "--n", "6", "--force-n"],
        ],
    )
    def test_force_n_is_an_option_of_verify_alone(self, argv, capsys):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "unrecognized arguments: --force-n"}
        assert "--force-n" in cli._COMMANDS["verify"][1]


class _Parser(argparse.ArgumentParser):
    """Refuses by raising ValueError, as the CLI's parser does."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used to build, kept as the reference that
    cli.parse_args is checked against (the dispatch to cmd_* left out)."""
    parser = _Parser(
        prog="grothpoly",
        description=cli.__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt_choices) -> None:
        p.add_argument("--n", type=int, required=True, help="rank (symmetric group S_n)")
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])

    def family(p: argparse.ArgumentParser) -> None:
        common(p, ("text", "json", "latex"))
        p.add_argument("--family", required=True, choices=cli._FAMILIES, help="family token")
        p.add_argument("--beta", type=int, help="substitute an integer for b")
        p.add_argument("--q", type=cli._parse_q, help="comma-separated integers for q1,q2,...")

    c = sub.add_parser("compute", help="print one family member")
    family(c)
    member = c.add_mutually_exclusive_group(required=True)
    member.add_argument("--word", help="reduced word as digits, empty for the identity")
    member.add_argument("--perm", help="one-line permutation, e.g. 2,3,1")
    c.add_argument("--ideal", choices=classical.IDEALS, help="print the normal form mod this ideal")

    t = sub.add_parser("table", help="print all n! members of a family")
    family(t)

    v = sub.add_parser("verify", help="run identity checkers")
    common(v, ("json", "text"))
    v.add_argument("--force-n", action="store_true", help="lift each check's default rank cap to its hard cap")
    v.add_argument("ids", nargs="*", help="identity ids (see README for the catalog)")
    v.add_argument("--all", action="store_true", help="run the full catalog, clamped to default caps")
    v.add_argument("--seed", type=int, default=0)
    return parser


def argparse_reads(argv: list[str]):
    """"refused", "help", or the attributes the reference parser sets."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = build_parser().parse_args(argv)
    except ValueError:
        return "refused"
    except SystemExit as e:
        assert e.code == 0 and out.getvalue().startswith("usage: grothpoly")
        return "help"
    return vars(args)


def cli_reads(argv: list[str]):
    """"refused", "help", or the attributes cli.parse_args sets."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = cli.parse_args(argv)
    except ValueError:
        return "refused"
    if args is None:
        assert out.getvalue().startswith("usage: grothpoly")
        return "help"
    assert out.getvalue() == ""
    return vars(args)


def widened(argv: list[str]) -> list[str]:
    """argv in the form in which argparse reads what cli.parse_args reads
    under its two widenings: every value joined to its option by "=" (so it
    may begin with "-"), and the verify ids gathered behind one "--" at the
    end.  Option names and prefixes resolve against the reference parser's
    own option strings, and a token moves to the ids only if that parser
    reads it as a positional."""
    command, tokens = argv[0], argv[1:]
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    reference = subparsers.choices[command]
    actions = reference._option_string_actions
    out, ids = [command], []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token == "--":
            ids += tokens[i:]
            break
        name, eq, _ = token.partition("=")
        prefix_of = [o for o in actions if name.startswith("--") and o.startswith(name)]
        hits = [name] if name in actions else prefix_of
        if not hits and reference._parse_optional(token) is None:
            ids.append(token)
        elif len(hits) == 1 and not eq and actions[hits[0]].nargs != 0 and i < len(tokens):
            out.append(f"{token}={tokens[i]}")
            i += 1
        else:
            out.append(token)
    return out + ["--", *ids] if ids else out


def assert_parity(argv: list[str]) -> None:
    """Both parsers accept, refuse or print help alike, and read the same
    attributes, except where a widening lets cli.parse_args read what
    argparse refuses."""
    want, got = argparse_reads(argv), cli_reads(argv)
    if want == "refused" and got != "refused":
        want = argparse_reads(widened(argv))
    assert got == want, argv


_G3 = ["compute", "--family", "G", "--n", "3"]


class TestParserParity:
    """cli.parse_args against the argparse parser it replaced.  Text run
    into -h ("-hx"), which argparse 3.11 refuses and 3.13 reads as help,
    goes to the argparse of the running version."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--n=3", "--family", "G", "--word", "1"],
            ["compute", "--fam", "G", "--wo", "1", "--n", "3"],
            ["compute", "--fam=G", "--wo=", "--n=3", "--form=latex", "--forc"],
            ["compute", "--fam=G", "--wo=", "--n=3", "--fo=latex"],
            ["compute", "--f", "text", "--family", "G", "--n", "3", "--word", "1"],
            [*_G3, "--word", "1", "--force-n"],
            ["verify", "--n", "3", "cauchy", "--force-n=1"],
            ["verify", "--n=3", "--form=text", "--forc", "cauchy"],
            [*_G3, "--word", "1", "--help=x"],
            [*_G3, "--word", "1", "--word", "2", "--n", "4"],
            ["verify", "--n", "3", "--n", "4", "--force-n", "--force-n", "cauchy"],
            [*_G3, "--word", ""],
            [*_G3, "--word", "1", "--beta", "-1"],
            [*_G3, "--word", "1", "--beta", "-1.5"],
            [*_G3, "--word", "1", "--perm", "2,1,3"],
            [*_G3, "--perm", "2,1,3", "--word", "1"],
            [*_G3, "--word"],
            [*_G3, "--word", "--", "1"],
            [*_G3, "--word", "1", "--"],
            [*_G3, "--", "--word", "1"],
            [*_G3, "--word", "1", "-1"],
            [*_G3, "--word", "1", "-x"],
            [*_G3, "--word", "1", "--bogus"],
            [*_G3, "--word", "1", "--=x"],
            [*_G3, "--word", "1", "--q", "1,x"],
            [*_G3, "--word", "1", "--ideal", "x", "--ideal", "bogus"],
            ["table", "--family", "qG", "--n", "3", "--q=-1,0", "--format", "json"],
            ["table", "--family", "G"],
            ["verify", "--n", "3", "--", "cauchy"],
            ["verify", "--n", "3", "--", "--", "cauchy"],
            ["verify", "--n", "3", "--"],
            ["verify", "--", "--n", "3"],
            ["verify", "cauchy", "--n", "3"],
            ["verify", "--n", "3", "-1", "-", "a b", "-x y", "--x y"],
            ["verify", "--n", "3", "-x"],
            ["verify", "--n", "3", "--bogus"],
            ["verify", "--n", "3", "--a", "--se", "4", "--s=5"],
            ["verify", "--n", "3", "--f", "json"],
            ["verify", "--n", "3", "--format", "latex"],
            ["verify", "--n", " 3", "--seed", "x"],
            ["compute", "--help"],
            ["compute", "--he", "--bogus"],
            ["compute", "--bogus", "--help"],
            ["compute", "--n", "x", "--help"],
            ["compute", "--help", "--n", "x"],
            ["verify", "-h"],
            ["verify", "-hx"],
            ["table", "--n", "3", "--", "-h"],
            ["--help"],
            ["-h"],
            ["--hel"],
            [],
            ["bogus"],
            ["--n", "3"],
            ["-1"],
        ],
    )
    def test_listed_argv(self, argv):
        assert_parity(argv)

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(["compute", "table", "verify"]),
        st.lists(
            st.sampled_from([
                ("--n",), ("--family",), ("--format",), ("--force-n",), ("--word",), ("--perm",),
                ("--beta",), ("--q",), ("--ideal",), ("--all",), ("--seed",),
                ("--fam",), ("--f",), ("--fo",), ("--form",), ("--forc",), ("--wo",), ("--p",),
                ("--a",), ("--s",), ("--i",), ("--b",),
                ("--n=3",), ("--n=",), ("--fam=G",), ("--force-n=1",), ("--format=json",),
                ("--word=",), ("--q=-1,0",), ("--all=",), ("--seed=2",),
                ("--bogus",), ("-x",), ("---n",), ("--",), ("--help",), ("--h",), ("-h",),
                ("3",), ("2",), ("0",), ("-1",), ("-1.5",), ("abc",), ("",), (" 4",), ("a b",),
                ("G",), ("qG",), ("S",), ("text",), ("json",), ("latex",), ("x",), ("signed",),
                ("1",), ("21",), ("2,1,3",), ("cauchy",), ("duality",),
                ("--q", "-1,0"), ("--perm", "-2,1"), ("--word", "-1"), ("--beta", "-1"),
            ]),
            max_size=10,
        ),
    )
    def test_generated_argv(self, command, chunks):
        assert_parity([command, *(token for chunk in chunks for token in chunk)])

    def test_a_value_may_begin_with_a_dash(self):
        argv = ["table", "--family", "qG", "--n", "3", "--q", "-1,0"]
        assert argparse_reads(argv) == "refused"
        assert cli_reads(argv)["q"] == [-1, 0]
        assert cli_reads(argv) == argparse_reads(["table", "--family", "qG", "--n", "3", "--q=-1,0"])
        assert cli_reads([*_G3, "--word", "--perm"])["word"] == "--perm"

    def test_verify_ids_may_come_in_several_runs(self):
        argv = ["verify", "cauchy", "--n", "2", "duality", "--seed", "1", "basis"]
        assert argparse_reads(argv) == "refused"
        assert cli_reads(argv)["ids"] == ["cauchy", "duality", "basis"]

    def test_the_widenings_need_full_option_names(self):
        # an abbreviation (--form, --fam) sends the argv to argparse, which
        # reads the ids in one run only and "-1,0" as an option
        argv = ["verify", "cauchy", "--n", "3", "duality", "--format", "text"]
        assert cli_reads(argv)["ids"] == ["cauchy", "duality"]
        assert cli_reads([*argv[:-2], "--form", "text"]) == "refused"
        assert cli_reads(["table", "--fam", "qG", "--n", "3", "--q", "-1,0"]) == "refused"


class TestQuantumRankCaps:
    """Quantum compute reaches n=5; quantum table stops at 4."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["compute", "--family", "qHx", "--perm", "1,2,3,4,5,6", "--n", "6"],
             "quantum families are capped at n=5"),
            (["compute", "--family", "qG", "--word", "1", "--n", "9"],
             "quantum families are capped at n=5"),
            (["table", "--family", "qS", "--n", "5"],
             "quantum table is capped at n=4"),
            (["table", "--family", "bH", "--n", "5"],
             "quantum table is capped at n=4"),
            (["table", "--family", "bH", "--n", "6"],
             "quantum families are capped at n=5"),
        ],
    )
    def test_refusals(self, argv, error, capsys):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": error}

    def test_rank5_compute_matches_table(self, capsys):
        from grothpoly.classical import family_table
        from grothpoly.perms import from_word

        code = cli.main(["compute", "--family", "qG", "--word", "213", "--n", "5"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == family_table(5, "qG")[from_word([2, 1, 3], 5)].text() + "\n"


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Every CLI process pays for its imports; dataclasses (and the inspect
    module it pulls in) cost several ms, so the CLI path must not load them."""
    unused = {"argparse", "gettext", "locale", "json", "heapq"}
    env = cli_env()
    show = "import sys; print(' '.join(sorted(sys.modules)))"

    def modules(code: str, *flags: str) -> set[str]:
        r = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                           env=env, timeout=60)
        assert r.returncode == 0, r.stderr
        return set(r.stdout.split())

    bare = modules(show)
    added = modules("import grothpoly.cli; " + show) - bare
    assert "grothpoly.cli" in added
    assert not added & {"dataclasses", "inspect", *unused}

    # nor does serving compute and table requests in each format load the
    # modules they have no use for: argparse (with the gettext and locale
    # it pulls in), json and heapq
    serve = (
        "import io, sys\n"
        "from grothpoly import cli\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        "for fmt in ('text', 'latex', 'json'):\n"
        "    assert cli.main(['compute', '--family', 'qG', '--n', '3', '--word', '21', '--format', fmt]) == 0\n"
        "    assert cli.main(['table', '--family', 'H', '--n', '3', '--beta', '1', '--format', fmt]) == 0\n"
        "    assert cli.main(['compute', '--family', 'G', '--n', '4', '--perm', '2,1,4,3', '--format', fmt,\n"
        "                     '--ideal', 'signed']) == 0\n"
        "    assert cli.main(['table', '--family', 'qG', '--n', '3', '--format', fmt, '--beta', '-1',\n"
        "                     '--q=1,0']) == 0\n"
        "sys.stdout = out\n"
        + show
    )
    served = modules(serve) - bare
    assert "grothpoly.cli" in served
    assert not served & {"dataclasses", "inspect", *unused}

    # a verify request writes JSON and draws from an rng, but its argv,
    # like every argv perfbench builds, is read without argparse
    verified = modules(
        "import io, sys\n"
        "from grothpoly import cli\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        "assert cli.main(['verify', '--all', '--n', '2', '--seed', '1']) == 0\n"
        "sys.stdout = out\n"
        + show
    ) - bare
    assert "json" in verified
    assert not verified & {"argparse", "gettext", "locale"}

    # typing, with the re, enum and contextlib it loads, costs a fresh
    # process several ms, and random (with math, bisect and _sha512) a few
    # more; only a verify check draws from an rng.  Site packages may import
    # them first, which hides them above, so this child starts without
    # site (-S).
    served = modules(serve, "-S")
    assert "grothpoly.cli" in served
    assert not served & {"typing", "re", "enum", "contextlib", "random"}

    # the paths that do write JSON still write it
    assert_refused(run_cli("compute", "--family", "G", "--n", "3", "--word", "11"))
    r = run_cli("verify", "duality", "--n", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "pass"


class TestProcessExit:
    """``python -m grothpoly`` ends through cli.run: it flushes stdout and
    stderr, then calls os._exit, which skips interpreter teardown.  Every
    run_cli test goes through it; refusals (exit 2, one JSON line) and
    --help (exit 0) are pinned in TestArgparse."""

    def test_large_table_through_a_pipe_matches_main(self, capsys):
        # about 5 MB, far more than one pipe or stdout buffer holds
        argv = ["table", "--family", "H", "--n", "5", "--format", "latex"]
        r = run_cli(*argv, text=False)
        assert r.returncode == 0
        assert r.stderr == b""
        assert cli.main(argv) == 0
        assert r.stdout == capsys.readouterr().out.encode()

    def test_unwritable_stdout_exits_as_before(self):
        # the flush in run fails, so run falls back to sys.exit and the
        # interpreter's own final flush reports the broken pipe (exit 120)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "grothpoly", "compute", "--family", "G", "--word", "1", "--n", "3"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=cli_env(),
                timeout=300,
            )
        finally:
            os.close(write_end)
        assert r.returncode == 120
        assert "BrokenPipeError" in r.stderr

    def test_main_returns_without_ending_the_process(self, monkeypatch, capsys):
        def refuse(code):
            raise AssertionError(f"main ended the process with {code}")

        monkeypatch.setattr(os, "_exit", refuse)
        assert cli.main(["compute", "--family", "G", "--word", "1", "--n", "2"]) == 0
        assert cli.main(["compute", "--family", "G", "--word", "11", "--n", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "y1 + x1\n"
        assert json.loads(err) == {"error": "word '11' is not reduced"}

    def test_run_ends_with_the_code_of_main(self, monkeypatch, capsys):
        ended = []
        monkeypatch.setattr(os, "_exit", ended.append)
        monkeypatch.setattr(sys, "argv", ["grothpoly", "compute", "--family", "G", "--word", "11", "--n", "3"])
        cli.run()
        assert ended == [2]
        assert capsys.readouterr().out == ""

    def test_run_falls_back_to_sys_exit_when_a_flush_fails(self, monkeypatch):
        class BrokenPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        ended = []
        monkeypatch.setattr(os, "_exit", ended.append)
        monkeypatch.setattr(sys, "argv", ["grothpoly", "compute", "--family", "G", "--word", "1", "--n", "3"])
        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 0
        assert ended == []


class TestCarryGate:
    """tests/carry_gate.py wraps the term kernel from outside and stops a
    request at the first map with a field that could carry."""

    GATE = str(Path(__file__).with_name("carry_gate.py"))

    def test_the_catalog_at_rank_3_keeps_every_field_below_the_top_bit(self):
        r = subprocess.run(
            [sys.executable, self.GATE, "verify", "--all", "--n", "3"],
            capture_output=True, text=True, env=cli_env(), timeout=300,
        )
        assert r.returncode == 0, r.stderr
        lines = [json.loads(line) for line in r.stdout.splitlines()]
        assert len(lines) == len(CHECKS) and all(line["status"] == "pass" for line in lines)
        # every wrapper saw calls, the batched localization included
        assert "carry gate: no field reached 128" in r.stderr
        assert " 0 calls" not in r.stderr and ", addmul_all 0" not in r.stderr

    def test_a_field_at_the_top_bit_stops_the_request(self):
        # x1^128 passes the power's own check (no field past 255), so only
        # the gate can refuse it
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import carry_gate; carry_gate.install(); "
            "from grothpoly.poly import xvar; xvar(1) ** 128"
        )
        r = subprocess.run(
            [sys.executable, "-c", code, str(Path(self.GATE).parent)],
            capture_output=True, text=True, env=cli_env(), timeout=60,
        )
        assert r.returncode == 3
        assert "holds a field of 128 or more" in r.stderr


class TestPeakRss:
    """tests/peak_rss.py runs one request in a child and fails it when the
    child fails or peaks over the bound."""

    RUNNER = str(Path(__file__).with_name("peak_rss.py"))

    def run(self, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, self.RUNNER, *argv], capture_output=True, text=True, env=cli_env(), timeout=60
        )

    def test_a_request_under_the_bound_passes_its_output_through(self):
        r = self.run("500", "--", "compute", "--family", "S", "--n", "2", "--word", "1")
        assert r.returncode == 0, r.stderr
        assert r.stdout == "x1\n"
        assert r.stderr.startswith("peak_rss: wall time ") and "(bound 500 MB)" in r.stderr

    def test_a_request_over_the_bound_fails(self):
        # no Python process fits in 1 MB
        r = self.run("1", "--", "compute", "--family", "S", "--n", "2", "--word", "1")
        assert r.returncode == 1
        assert r.stdout == "x1\n"

    def test_a_refused_request_keeps_its_exit_code(self):
        r = self.run("500", "--", "table", "--family", "G", "--n", "6")
        assert r.returncode == 2
        assert '{"error": "classical table is capped at n=5"}' in r.stderr

    def test_argv_without_the_separator_is_a_usage_error(self):
        r = self.run("500", "compute")
        assert r.returncode == 2
        assert r.stderr.startswith("usage: peak_rss.py")
