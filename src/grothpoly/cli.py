"""Command line interface: compute one polynomial, print a family table,
or run the identity verification catalog.

Family tokens double up on the library's internal names so the common
cases stay short:

    G, H, Sd          two-alphabet classical families (Sd = double Schubert)
    S                 one-alphabet Schubert basis (the coinvariant basis)
    Gx, Hx            classical y=0 specializations
    qG, qH, qS        two-alphabet quantum families
    qGx, qHx, qSx     quantum y=0 specializations
    bG, bH            the families built from the beta-form determinants

Options are "--name value" or "--name=value".  With every option named
in full, a value may begin with "-" (--q -1,0) and the verify ids may
come in several runs; an abbreviated option (--fam G) is read as
argparse reads it, without those two widenings.

Exit codes: 0 success (verify: all pass), 1 verify found a failure,
2 bad arguments.  Errors go to stderr as one JSON object per line.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import classical
from ._packing import BETA, Var
from .perms import Permutation, by_length, check_rank, first_reduced_word, from_word
from .poly import MultiPoly
from .report import CHECKS, check_caps, rank_caps, verify

_FAMILIES = {
    # token -> (kind for the rank caps, table name, latex symbol)
    "G": ("classical", "G", "G"),
    "H": ("classical", "H", "H"),
    "Sd": ("classical", "S", r"\mathfrak{S}"),
    "S": ("classical", "Sx", r"\mathfrak{S}"),
    "Gx": ("classical", "Gx", "G"),
    "Hx": ("classical", "Hx", "H"),
    "qG": ("quantum", "qG", r"\widetilde{G}"),
    "qH": ("quantum", "qH", r"\widetilde{\mathcal{H}}"),
    "qS": ("quantum", "qS", r"\widetilde{\mathfrak{S}}"),
    "qGx": ("quantum", "qGx", r"\widetilde{G}"),
    "qHx": ("quantum", "qHx", r"\widetilde{\mathcal{H}}"),
    "qSx": ("quantum", "qSx", r"\widetilde{\mathfrak{S}}"),
    "bG": ("quantum", "bG", r"\widetilde{\mathbf{G}}"),
    "bH": ("quantum", "bH", r"\widetilde{\mathbf{H}}"),
}


def _parse_word(text: str, n: int) -> Permutation:
    # str.isdigit() also admits non-ASCII digits such as "²", which int() refuses
    if text and not (text.isascii() and text.isdigit()):
        raise ValueError(f"word must be digits 1..{n - 1}, got {text!r}")
    w = from_word([int(c) for c in text], n)
    if w.length() != len(text):
        raise ValueError(f"word {text!r} is not reduced")
    return w


def _parse_perm(text: str, n: int) -> Permutation:
    try:
        oneline = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"permutation must be comma-separated integers, got {text!r}")
    if sorted(oneline) != list(range(1, n + 1)):
        raise ValueError(f"{text!r} is not a permutation of 1..{n}")
    return Permutation(oneline)


def _parse_q(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"expects comma-separated integers, got {text!r}") from None


def _substitution(args: SimpleNamespace) -> dict[Var, int]:
    """The --beta and --q values as one integer substitution."""
    values = {} if args.beta is None else {BETA: args.beta}
    values.update({Var("q", i): v for i, v in enumerate(args.q or (), start=1)})
    return values


def _render(p: MultiPoly, fmt: str) -> str:
    if fmt == "text":
        return p.text()
    if fmt == "latex":
        return p.latex()
    return p.dumps()


def _word_label(w: Permutation) -> str:
    word = first_reduced_word(w)
    return "".join(str(a) for a in word) if word else "id"


# rank cap per family kind: compute takes any rank up to it, and table,
# which builds all n! members, stops one rank below
_RANK_CAPS = {"classical": 6, "quantum": 5}


def _check_rank(args: SimpleNamespace, command: str) -> None:
    """Rank bounds of compute and table, and the --q count the rank admits.
    The caps come before check_rank, so a rank past N_MAX gets the cap's
    wording."""
    kind = _FAMILIES[args.family][0]
    cap = _RANK_CAPS[kind]
    if args.n > cap:
        raise ValueError(f"{kind} families are capped at n={cap}")
    if command == "table" and args.n >= cap:
        raise ValueError(f"{kind} table is capped at n={cap - 1}")
    check_rank(args.n)
    if args.q is not None and len(args.q) > args.n - 1:
        raise ValueError(f"--q got {len(args.q)} values, rank {args.n} has {args.n - 1}")


def cmd_compute(args: SimpleNamespace) -> int:
    _check_rank(args, "compute")
    values = _substitution(args)
    w = _parse_word(args.word, args.n) if args.word is not None else _parse_perm(args.perm, args.n)
    # every member has staircase x-support (x_i to at most n - i), so it is
    # its own normal form mod each ideal and --ideal prints it as it is
    p = classical.family_member(args.n, _FAMILIES[args.family][1], w)
    if values:
        p = p.specialize(values)
    print(_render(p, args.format))
    return 0


def cmd_table(args: SimpleNamespace) -> int:
    _check_rank(args, "table")
    values = _substitution(args)
    table = classical.family_table(args.n, _FAMILIES[args.family][1])
    symbol = _FAMILIES[args.family][2]
    for w in by_length(args.n):
        p = table[w].specialize(values) if values else table[w]
        if args.format == "text":
            print(p.text())
        elif args.format == "latex":
            print(f"{symbol}_{{{_word_label(w)}}} &= {p.latex()} \\\\")
        else:
            # the record's keys in sorted order, the polynomial spliced in
            # as p.dumps(); the family is an ASCII token, w ints and the
            # word digits, so each field is its own JSON text
            oneline = ",".join(map(str, w.oneline))
            word = _word_label(w) if w.length() else ""
            print(
                f'{{"family":"{args.family}","length":{w.length()},"n":{args.n},'
                f'"poly":{p.dumps()},"w":[{oneline}],"word":"{word}"}}'
            )
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
    if args.all:
        if args.ids:
            raise ValueError("--all does not take explicit ids")
        ids = list(CHECKS)
    else:
        if not args.ids:
            raise ValueError("give identity ids or --all")
        for i, cid in enumerate(args.ids):
            if cid not in CHECKS:
                raise ValueError(f"unknown identity id {cid!r}")
            if cid in args.ids[:i]:
                raise ValueError(f"identity id {cid!r} is repeated")
        ids = args.ids

    # every (id, rank) is checked before the first check body runs, so a
    # refused request builds nothing
    runs = []
    for cid in ids:
        n = args.n
        if args.all:
            # the catalog run clamps each check to its default cap
            soft, hard = rank_caps(cid)
            n = min(n, hard if args.force_n else soft)
        check_caps(cid, n, args.force_n)
        runs.append((cid, n))

    failed = False
    for cid, n in runs:
        r = verify(cid, n, args.seed, args.force_n)
        print(r.text_line() if args.format == "text" else r.json_line())
        failed = failed or not r.ok
    return 1 if failed else 0


# option -> (converter, or None for a flag; choices, or None for any value;
# default; help).  The value of --some-name lands in the attribute some_name.
_FAMILY_OPTIONS = {
    "--n": (int, None, None, "rank (symmetric group S_n)"),
    "--format": (str, ("text", "json", "latex"), "text", "default text"),
    "--family": (str, _FAMILIES, None, "family token (see grothpoly --help)"),
    "--beta": (int, None, None, "substitute an integer for b"),
    "--q": (_parse_q, None, None, "comma-separated integers for q1,q2,..."),
}

# command -> (help, options, required options, options of which exactly one
# is given).  verify alone takes positionals, the identity ids.
_COMMANDS = {
    "compute": (
        "print one family member",
        {
            **_FAMILY_OPTIONS,
            "--word": (str, None, None, "reduced word as digits, empty for the identity"),
            "--perm": (str, None, None, "one-line permutation, e.g. 2,3,1"),
            "--ideal": (str, classical.IDEALS, None, "print the normal form mod this ideal"),
        },
        ("--n", "--family"),
        ("--word", "--perm"),
    ),
    "table": ("print all n! members of a family", _FAMILY_OPTIONS, ("--n", "--family"), ()),
    "verify": (
        "run identity checkers",
        {
            "--n": (int, None, None, "rank (symmetric group S_n)"),
            "--format": (str, ("json", "text"), "json", "default json"),
            "--force-n": (None, None, False, "lift each check's default rank cap to its hard cap"),
            "--all": (None, None, False, "run the full catalog, clamped to default caps"),
            "--seed": (int, None, 0, "default 0"),
        },
        ("--n",),
        (),
    ),
}


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The request argv names, or None once -h or --help has printed the
    usage; a refused argv raises ValueError.  The loop below reads an argv
    whose options are all named in full, with each value valid and the
    command's required options given, widened as the module docstring
    says.  Every other argv, one to refuse included, goes to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return _argparse(argv)
    command, tokens = argv[0], iter(argv[1:])
    _, options, required, one_of = _COMMANDS[command]
    values = {o[2:].replace("-", "_"): default for o, (_, _, default, _) in options.items()}
    ids = [] if command == "verify" else None
    given = set()
    for token in tokens:
        if token == "--" and ids is not None:
            ids += tokens  # the rest are ids, whatever they look like
            break
        name, eq, value = token.partition("=")
        if name not in options:
            if ids is None or token[:1] == "-":
                return _argparse(argv)
            ids.append(token)
            continue
        convert, choices, _, _ = options[name]
        if convert is None:
            if eq:
                return _argparse(argv)
            value = True
        else:
            if not eq and (value := next(tokens, "--")) == "--":
                return _argparse(argv)
            try:
                value = convert(value)
            except ValueError:
                return _argparse(argv)
            if choices is not None and value not in choices:
                return _argparse(argv)
        values[name[2:].replace("-", "_")] = value
        given.add(name)
    if not given.issuperset(required) or len(given.intersection(one_of)) != bool(one_of):
        return _argparse(argv)
    if ids is not None:
        values["ids"] = ids
    return SimpleNamespace(command=command, **values)


def _argparse(argv: list[str]) -> SimpleNamespace | None:
    """argv as argparse reads it, the parser built from _COMMANDS: None once
    -h or --help has printed the usage, ValueError for a refusal."""
    import argparse  # not at module level: no argv the reader takes needs it

    def refuse(message: str):
        raise ValueError(message)

    def q_values(text: str) -> list[int]:
        # argparse words a ValueError from a converter as "invalid
        # _parse_q value"; an ArgumentTypeError keeps _parse_q's wording
        try:
            return _parse_q(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    parser = argparse.ArgumentParser(
        prog="grothpoly", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.error = refuse
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options, required, one_of) in _COMMANDS.items():
        sub = commands.add_parser(command, help=summary, description=summary)
        sub.error = refuse
        group = sub.add_mutually_exclusive_group(required=True) if one_of else sub
        for name, (convert, choices, default, text) in options.items():
            add = (group if name in one_of else sub).add_argument
            if convert is None:
                add(name, action="store_true", help=text)
            else:
                convert = q_values if convert is _parse_q else convert
                add(name, type=convert, choices=choices, default=default, required=name in required, help=text)
        if command == "verify":
            sub.add_argument("ids", nargs="*", help="identity ids (see README for the catalog)")
    try:
        return SimpleNamespace(**vars(parser.parse_args(argv)))
    except SystemExit:  # -h or --help printed the usage
        return None


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        return {"compute": cmd_compute, "table": cmd_table, "verify": cmd_verify}[args.command](args)
    except ValueError as e:
        import json

        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 2


def run() -> None:
    """Process entry point: main(), then end without interpreter teardown.

    Once the output is flushed, os._exit skips the module and object
    finalization that CPython runs at exit, a sizeable share of a short
    request.  If a flush fails for any reason (a closed or broken pipe, or
    no stream at all), sys.exit takes the normal path, so the failure is
    reported as it would be without this.  Library callers use main(argv),
    which only returns the exit code.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
