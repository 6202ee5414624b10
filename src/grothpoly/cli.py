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
from typing import Mapping

from . import classical, quantum
from .perms import Permutation, by_length, first_reduced_word, from_word
from .poly import MultiPoly
from .report import VerificationReport

_FAMILIES = {
    # token -> (module kind, table name, latex symbol)
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


class CliError(Exception):
    pass


def _fail(msg: str) -> int:
    print(json.dumps({"error": msg}), file=sys.stderr)
    return 2


def _family_table(token: str, n: int) -> Mapping[Permutation, MultiPoly]:
    kind, name, _ = _FAMILIES[token]
    if kind == "classical":
        return classical.family_table(n, name)
    return quantum.quantum_table(n, name)


def _parse_word(text: str, n: int) -> Permutation:
    if text and not text.isdigit():
        raise CliError(f"word must be digits 1..{n - 1}, got {text!r}")
    w = from_word([int(c) for c in text], n)
    if w.length() != len(text):
        raise CliError(f"word {text!r} is not reduced")
    return w


def _parse_perm(text: str, n: int) -> Permutation:
    try:
        oneline = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CliError(f"permutation must be comma-separated integers, got {text!r}")
    if sorted(oneline) != list(range(1, n + 1)):
        raise CliError(f"{text!r} is not a permutation of 1..{n}")
    return Permutation(oneline)


def _specialize(p: MultiPoly, args: argparse.Namespace) -> MultiPoly:
    if getattr(args, "beta", None) is not None:
        p = p.specialize_beta(args.beta)
    qtext = getattr(args, "q", None)
    if qtext is not None:
        try:
            values = [int(v) for v in qtext.split(",")]
        except ValueError:
            raise CliError(f"--q expects comma-separated integers, got {qtext!r}")
        if len(values) > args.n - 1:
            raise CliError(f"--q got {len(values)} values, rank {args.n} has {args.n - 1}")
        p = p.specialize_q({i + 1: v for i, v in enumerate(values)})
    return p


def _render(p: MultiPoly, fmt: str) -> str:
    if fmt == "text":
        return p.text()
    if fmt == "latex":
        return p.latex()
    return p.dumps()


def _word_label(w: Permutation) -> str:
    word = first_reduced_word(w)
    return "".join(str(a) for a in word) if word else "id"


def _check_rank(args: argparse.Namespace) -> None:
    """Rank bounds shared by compute and table."""
    if args.n < 1:
        raise CliError(f"rank must be at least 1, got {args.n}")
    if _FAMILIES[args.family][0] == "quantum" and args.n > 4:
        raise CliError("quantum families are capped at n=4")
    if args.n > 6:
        raise CliError("classical families are capped at n=6")
    if args.n > 5 and not args.force_n:
        raise CliError("n above 5 needs --force-n")


def cmd_compute(args: argparse.Namespace) -> int:
    if args.family not in _FAMILIES:
        raise CliError(f"unknown family {args.family!r}")
    if (args.word is None) == (args.perm is None):
        raise CliError("exactly one of --word / --perm is required")
    _check_rank(args)
    w = _parse_word(args.word, args.n) if args.word is not None else _parse_perm(args.perm, args.n)
    p = _family_table(args.family, args.n)[w]
    if args.ideal is not None:
        p = classical.NormalFormContext(args.n, args.ideal).reduce(p)
    p = _specialize(p, args)
    print(_render(p, args.format))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.family not in _FAMILIES:
        raise CliError(f"unknown family {args.family!r}")
    _check_rank(args)
    table = _family_table(args.family, args.n)
    symbol = _FAMILIES[args.family][2]
    for w in by_length(args.n):
        p = _specialize(table[w], args)
        if args.format == "text":
            print(p.text())
        elif args.format == "latex":
            print(f"{symbol}_{{{_word_label(w)}}} &= {p.latex()} \\\\")
        else:
            record = {
                "family": args.family,
                "n": args.n,
                "w": list(w.oneline),
                "word": _word_label(w) if w.length() else "",
                "length": w.length(),
                "poly": p.json_obj(),
            }
            print(json.dumps(record, separators=(",", ":"), sort_keys=True))
    return 0


def _catalog() -> list[tuple[str, str]]:
    out = [("classical", cid) for cid in classical.CLASSICAL_CHECKS]
    out += [("quantum", cid) for cid in quantum.QUANTUM_CHECKS]
    return out


def _run_one(task: tuple[str, str, int, int, bool]) -> VerificationReport:
    kind, cid, n, seed, force = task
    if kind == "classical":
        return classical.verify_classical(cid, n, seed=seed, force=force)
    return quantum.verify_quantum(cid, n, seed=seed, force=force)


def cmd_verify(args: argparse.Namespace) -> int:
    catalog = _catalog()
    by_id = {cid: kind for kind, cid in catalog}
    if args.all:
        if args.ids:
            raise CliError("--all does not take explicit ids")
        wanted = [(kind, cid) for kind, cid in catalog]
    else:
        if not args.ids:
            raise CliError("give identity ids or --all")
        for cid in args.ids:
            if cid not in by_id:
                raise CliError(f"unknown identity id {cid!r}")
        wanted = [(by_id[cid], cid) for cid in args.ids]

    tasks = []
    for kind, cid in wanted:
        caps = classical.rank_caps(cid) if kind == "classical" else quantum.rank_caps(cid)
        if args.all:
            # the catalog run clamps each check to its default cap
            n = min(args.n, caps[1] if args.force_n else caps[0])
        else:
            n = args.n
        tasks.append((kind, cid, n, args.seed, args.force_n))

    workers = int(os.environ.get("GROTHPOLY_WORKERS", "1"))
    if workers > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            reports = list(pool.imap(_run_one, tasks))
    else:
        reports = [_run_one(t) for t in tasks]

    failed = False
    for r in reports:
        print(r.text_line() if args.format == "text" else r.json_line())
        failed = failed or not r.ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grothpoly",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt_choices) -> None:
        p.add_argument("--n", type=int, required=True, help="rank (symmetric group S_n)")
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
        p.add_argument("--force-n", action="store_true", help="lift the default rank caps")

    c = sub.add_parser("compute", help="print one family member")
    common(c, ("text", "json", "latex"))
    c.add_argument("--family", required=True, help="family token, e.g. G, qH, S")
    c.add_argument("--word", help="reduced word as digits, empty for the identity")
    c.add_argument("--perm", help="one-line permutation, e.g. 2,3,1")
    c.add_argument("--beta", type=int, help="substitute an integer for b")
    c.add_argument("--q", help="comma-separated integers for q1,q2,...")
    c.add_argument("--ideal", choices=classical.IDEALS, help="reduce mod this ideal")
    c.set_defaults(func=cmd_compute)

    t = sub.add_parser("table", help="print all n! members of a family")
    common(t, ("text", "json", "latex"))
    t.add_argument("--family", required=True)
    t.add_argument("--beta", type=int)
    t.add_argument("--q", help="comma-separated integers for q1,q2,...")
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify", help="run identity checkers")
    common(v, ("json", "text"))
    v.add_argument("ids", nargs="*", help="identity ids (see README for the catalog)")
    v.add_argument("--all", action="store_true", help="run the full catalog, clamped to default caps")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        return _fail(str(e))
    except (KeyError, ValueError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
