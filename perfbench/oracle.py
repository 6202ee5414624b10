"""Expected answers for the benchmark's requests.

Run as a script, it reads a job (a JSON list of entries, each naming a
``table --format json`` request, a permutation, an output format and a
key) and writes the sha256 of each entry's expected ``compute`` output:

    PYTHONPATH=src python perfbench/oracle.py JOB.json OUT.json

All tables run in one process, so each family table is built once.

``render_text`` and ``render_latex`` turn the ``poly`` field of a
``table --format json`` row into the text and LaTeX forms that
``compute`` prints, without going through the package's renderers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys


def _var_latex(name: str) -> str:
    return r"\beta" if name == "b" else f"{name[0]}_{{{name[1:]}}}"


def _render(poly: list[dict], var, join: str, power, coef_sep: str) -> str:
    if not poly:
        return "0"
    chunks = []
    for term in poly:
        c = int(term["coef"])
        body = join.join(var(v) if e == 1 else power(var(v), e) for v, e in term["monomial"].items())
        mag = abs(c)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}{coef_sep}{body}"
        if not chunks:
            chunks.append(piece if c > 0 else f"-{piece}")
        else:
            chunks.append(f" + {piece}" if c > 0 else f" - {piece}")
    return "".join(chunks)


def render_text(poly: list[dict]) -> str:
    return _render(poly, str, "*", lambda v, e: f"{v}^{e}", "*")


def render_latex(poly: list[dict]) -> str:
    return _render(poly, _var_latex, " ", lambda v, e: f"{v}^{{{e}}}", " ")


def render(poly: list[dict], fmt: str) -> str:
    if fmt == "text":
        return render_text(poly)
    if fmt == "latex":
        return render_latex(poly)
    return json.dumps(poly, separators=(",", ":"))


def expected_digests(job: list[dict]) -> dict[str, str]:
    """sha256 of the expected stdout of each job entry.

    An entry names a ``table --format json`` argv, a permutation ``w`` (one
    line) and a format; the expected output is that row's polynomial in the
    format, plus a newline.  Each table runs once, in this process.
    """
    from grothpoly import cli

    out = {}
    by_table: dict[tuple, list[dict]] = {}
    for entry in job:
        by_table.setdefault(tuple(entry["table"]), []).append(entry)
    for argv, entries in by_table.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"oracle table request failed with exit code {code}: {argv}")
        rows = {}
        for line in buf.getvalue().splitlines():
            row = json.loads(line)
            rows[tuple(row["w"])] = row["poly"]
        for entry in entries:
            text = render(rows[tuple(entry["w"])], entry["fmt"]) + "\n"
            out[entry["key"]] = hashlib.sha256(text.encode()).hexdigest()
    return out


def main(argv: list[str]) -> int:
    src, dst = argv
    with open(src) as f:
        job = json.load(f)
    digests = expected_digests(job)
    with open(dst, "w") as f:
        json.dump(digests, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
