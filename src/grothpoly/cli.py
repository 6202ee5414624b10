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

import argparse
import json
import os
import sys

from . import classical
from ._packing import BETA, Var
from .perms import Permutation, by_length, first_reduced_word, from_word
from .poly import MultiPoly
from .report import CHECKS, check_rank, rank_caps, verify

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
        raise argparse.ArgumentTypeError(f"expects comma-separated integers, got {text!r}")


def _substitution(args: argparse.Namespace) -> dict[Var, int]:
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


# rank caps per family kind: (default, hard cap, table hard cap); --force-n
# lifts the default up to the hard caps
_RANK_CAPS = {"classical": (5, 6, 6), "quantum": (4, 5, 4)}


def _check_rank(args: argparse.Namespace, command: str) -> None:
    """Rank bounds of compute and table, and the --q count the rank admits."""
    check_rank(args.n)
    kind = _FAMILIES[args.family][0]
    default, hard, table_hard = _RANK_CAPS[kind]
    if args.n > hard:
        raise ValueError(f"{kind} families are capped at n={hard}")
    if command == "table" and args.n > table_hard:
        raise ValueError(f"{kind} table is capped at n={table_hard}")
    if args.n > default and not args.force_n:
        raise ValueError(f"{kind} families above n={default} need --force-n")
    if args.q is not None and len(args.q) > args.n - 1:
        raise ValueError(f"--q got {len(args.q)} values, rank {args.n} has {args.n - 1}")


def cmd_compute(args: argparse.Namespace) -> int:
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


def cmd_table(args: argparse.Namespace) -> int:
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
            # as p.dumps() rather than re-encoded
            family = json.dumps(args.family)
            oneline = json.dumps(list(w.oneline), separators=(",", ":"))
            word = json.dumps(_word_label(w) if w.length() else "")
            print(
                f'{{"family":{family},"length":{w.length()},"n":{args.n},'
                f'"poly":{p.dumps()},"w":{oneline},"word":{word}}}'
            )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
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

    tasks = []
    for cid in ids:
        n = args.n
        if args.all:
            # the catalog run clamps each check to its default cap
            soft, hard = rank_caps(cid)
            n = min(n, hard if args.force_n else soft)
        tasks.append((cid, n, args.seed, args.force_n))

    raw = os.environ.get("GROTHPOLY_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"GROTHPOLY_WORKERS must be an integer, got {raw!r}")
    if workers < 1:
        raise ValueError(f"GROTHPOLY_WORKERS must be at least 1, got {raw!r}")
    workers = min(workers, len(tasks))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            reports = pool.starmap(verify, tasks, chunksize=1)
    else:
        reports = [verify(*t) for t in tasks]

    failed = False
    for r in reports:
        print(r.text_line() if args.format == "text" else r.json_line())
        failed = failed or not r.ok
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Refuses by raising ValueError, which main prints as the JSON line."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="grothpoly",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt_choices) -> None:
        p.add_argument("--n", type=int, required=True, help="rank (symmetric group S_n)")
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
        p.add_argument("--force-n", action="store_true", help="lift the default rank caps")

    def family(p: argparse.ArgumentParser) -> None:
        common(p, ("text", "json", "latex"))
        p.add_argument("--family", required=True, choices=_FAMILIES, help="family token")
        p.add_argument("--beta", type=int, help="substitute an integer for b")
        p.add_argument("--q", type=_parse_q, help="comma-separated integers for q1,q2,...")

    c = sub.add_parser("compute", help="print one family member")
    family(c)
    member = c.add_mutually_exclusive_group(required=True)
    member.add_argument("--word", help="reduced word as digits, empty for the identity")
    member.add_argument("--perm", help="one-line permutation, e.g. 2,3,1")
    c.add_argument("--ideal", choices=classical.IDEALS, help="print the normal form mod this ideal")
    c.set_defaults(func=cmd_compute)

    t = sub.add_parser("table", help="print all n! members of a family")
    family(t)
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify", help="run identity checkers")
    common(v, ("json", "text"))
    v.add_argument("ids", nargs="*", help="identity ids (see README for the catalog)")
    v.add_argument("--all", action="store_true", help="run the full catalog, clamped to default caps")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (KeyError, ValueError) as e:
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
