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

Exit codes: 0 success (verify: all pass), 1 verify found a failure,
2 bad arguments.  Errors go to stderr as one JSON object per line.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import classical
from ._packing import BETA, Var
from .perms import Permutation, by_length, first_reduced_word, from_word
from .poly import MultiPoly
from .report import CHECKS, check_caps, check_rank, rank_caps, verify

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


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _choice(*choices: str):
    def choose(text: str) -> str:
        if text not in choices:
            raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
        return text

    return choose


# option -> (converter, or None for a flag; default; metavar; help).  The
# value of --some-name lands in the attribute some_name (see _dest); a
# flag's default is False.  -h and --help print the usage and end the parse.
_HELP = (None, False, "", "print this help and exit")


def _common(formats: tuple[str, ...]) -> dict:
    return {
        "-h": _HELP,
        "--help": _HELP,
        "--n": (_int, None, "N", "rank (symmetric group S_n)"),
        "--format": (_choice(*formats), formats[0], "{" + ",".join(formats) + "}", f"default {formats[0]}"),
    }


_FAMILY_OPTIONS = {
    **_common(("text", "json", "latex")),
    "--family": (_choice(*_FAMILIES), None, "FAMILY", "family token (see grothpoly --help)"),
    "--beta": (_int, None, "B", "substitute an integer for b"),
    "--q": (_parse_q, None, "Q1,Q2,...", "comma-separated integers for q1,q2,..."),
}

# command -> (help, options, required options, options of which exactly one
# is given, attribute of the positionals or None)
_COMMANDS = {
    "compute": (
        "print one family member",
        {
            **_FAMILY_OPTIONS,
            "--word": (str, None, "WORD", "reduced word as digits, empty for the identity"),
            "--perm": (str, None, "PERM", "one-line permutation, e.g. 2,3,1"),
            "--ideal": (_choice(*classical.IDEALS), None, "{" + ",".join(classical.IDEALS) + "}",
                        "print the normal form mod this ideal"),
        },
        ("--n", "--family"),
        ("--word", "--perm"),
        None,
    ),
    "table": ("print all n! members of a family", _FAMILY_OPTIONS, ("--n", "--family"), (), None),
    "verify": (
        "run identity checkers",
        {
            **_common(("json", "text")),
            "--force-n": (None, False, "", "lift each check's default rank cap to its hard cap"),
            "--all": (None, False, "", "run the full catalog, clamped to default caps"),
            "--seed": (_int, 0, "SEED", "default 0"),
        },
        ("--n",),
        (),
        "ids",
    ),
}
_TOP_OPTIONS = {"-h": _HELP, "--help": _HELP}


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _lookup(token: str, options: dict) -> tuple[str, str | None] | None:
    """The option a token names and the value it carries (after "=", or
    run into a short option), None for a positional, or ("", None) for an
    unknown option.  The exact name wins; else a long option may be named
    by a unique prefix.  A token that looks like a negative number or holds
    a space is a positional, as argparse reads it."""
    if token[:1] != "-" or token == "-":
        return None
    if token.startswith("--"):
        name, eq, value = token.partition("=")
        if name not in options:
            hits = [o for o in options if o.startswith(name)]
            if len(hits) > 1:
                raise ValueError(f"ambiguous option: {token} could match {', '.join(hits)}")
            name = hits[0] if hits else ""
        if name:
            return name, value if eq else None
    elif token[:2] in options:
        return token[:2], token[2:] or None
    whole, dot, frac = token[1:].partition(".")
    negative_number = (not whole or whole.isdecimal()) and (frac.isdecimal() if dot else bool(whole))
    return None if negative_number or " " in token else ("", None)


def _usage(command: str) -> str:
    _, options, required, one_of, positional = _COMMANDS[command]

    def named(o: str) -> str:
        metavar = options[o][2]
        return f"{o} {metavar}" if metavar else o

    words = [named(o) for o in required]
    if one_of:
        words.append("(" + " | ".join(named(o) for o in one_of) + ")")
    optional = [o for o in options if o not in (*required, *one_of, *_TOP_OPTIONS)]
    words += [f"[{named(o)}]" for o in optional]
    if positional:
        words.append("[ID ...]")
    return f"grothpoly {command} " + " ".join(words)


def _help(command: str | None) -> str:
    if command is None:
        usages = [_usage(c) for c in _COMMANDS]
        return (
            "usage: " + "\n       ".join(usages) + "\n\n" + __doc__.rstrip()
            + "\n\ncommands:\n" + "".join(f"  {c:<9}{spec[0]}\n" for c, spec in _COMMANDS.items())
            + "\n`grothpoly <command> --help` lists a command's options."
        )
    lines = [f"usage: {_usage(command)}", "", _COMMANDS[command][0], "", "options:"]
    for o, (_, _, metavar, text) in _COMMANDS[command][1].items():
        label = "-h, --help" if o == "--help" else f"{o} {metavar}".rstrip()
        if o != "-h":
            lines.append(f"  {label:<28}  {text}")
    return "\n".join(lines)


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The request argv names, or None once a -h/--help has printed usage.

    Options are read as argparse reads them: "--name value" or
    "--name=value", a unique prefix of a long option, the first "--" ends
    the options.  Two inputs are read more widely: a value may begin with
    "-" (so "--q -1,0" is one option), and the verify ids may come in
    several runs between options.  A refused argv raises ValueError.
    """
    if not argv:
        raise ValueError("the following arguments are required: command")
    command, tokens = argv[0], argv[1:]
    if command not in _COMMANDS:
        found = _lookup(command, _TOP_OPTIONS)
        if found and found[0] and found[1] is None:
            print(_help(None))
            return None
        choices = ", ".join(map(repr, _COMMANDS))
        raise ValueError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    _, options, required, one_of, positional = _COMMANDS[command]
    values = {_dest(o): default for o, (_, default, _, _) in options.items() if o not in _TOP_OPTIONS}
    values["command"] = command
    if positional:
        values[positional] = []
    given: set[str] = set()
    extras: list[str] = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token == "--":
            # the rest are positionals; a command without any refuses the
            # "--" too, as argparse does
            if positional:
                values[positional] += tokens[i:]
            else:
                extras += tokens[i - 1:]
            break
        found = _lookup(token, options)
        if found is None:
            (values[positional] if positional else extras).append(token)
            continue
        name, value = found
        if not name:
            extras.append(token)
            continue
        convert = options[name][0]
        if convert is None:
            if value is not None:
                raise ValueError(f"argument {name}: ignored explicit argument {value!r}")
            if name in _TOP_OPTIONS:
                # argparse refuses an ambiguous prefix anywhere before the
                # first "--" ahead of printing help, whatever its position
                for t in tokens[: tokens.index("--") if "--" in tokens else None]:
                    _lookup(t, options)
                print(_help(command))
                return None
            values[_dest(name)] = True
        else:
            if value is None:
                if i == len(tokens) or tokens[i] == "--":
                    raise ValueError(f"argument {name}: expected one argument")
                value = tokens[i]
                i += 1
            try:
                values[_dest(name)] = convert(value)
            except ValueError as e:
                raise ValueError(f"argument {name}: {e}") from None
            clash = [o for o in one_of if o != name and o in given] if name in one_of else []
            if clash:
                raise ValueError(f"argument {name}: not allowed with argument {clash[0]}")
        given.add(name)
    missing = [o for o in required if o not in given]
    if missing:
        raise ValueError("the following arguments are required: " + ", ".join(missing))
    if one_of and not given.intersection(one_of):
        raise ValueError("one of the arguments " + " ".join(one_of) + " is required")
    if extras:
        raise ValueError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


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
