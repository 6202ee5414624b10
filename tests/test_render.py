"""The renderers against a per-term reference, and the key order of
``table --format json`` lines.

The reference is the straightforward renderer: unpack each monomial into
a {Var: exponent} dict in display order and format its factors one by
one.  The library assembles each monomial from memoised display-group
strings instead, and must print the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from grothpoly import cli
from grothpoly._packing import BETA, FIELD_BITS, FIELD_MASK, N_MAX, Var
from grothpoly.classical import family_table
from grothpoly.perms import by_length, first_reduced_word
from grothpoly import poly
from grothpoly.poly import MultiPoly, zero

# ---------------------------------------------------------------------------
# reference renderers: one unpacked dict per term
# ---------------------------------------------------------------------------


def _reference(p: MultiPoly, name, pre: str, post: str, sep: str) -> str:
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for exps, c in p.monomials():
        body = sep.join(name(v) if e == 1 else f"{name(v)}{pre}{e}{post}" for v, e in exps.items())
        mag = abs(c)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}{sep}{body}"
        if not chunks:
            chunks.append(piece if c > 0 else f"-{piece}")
        else:
            chunks.append(f" + {piece}" if c > 0 else f" - {piece}")
    return "".join(chunks)


def reference_text(p: MultiPoly) -> str:
    return _reference(p, Var.name, "^", "", "*")


def reference_latex(p: MultiPoly) -> str:
    def name(v: Var) -> str:
        return r"\beta" if v.kind == "b" else f"{v.kind}_{{{v.index}}}"

    return _reference(p, name, "^{", "}", " ")


def reference_json_obj(p: MultiPoly) -> list[dict]:
    return [
        {"coef": str(c), "monomial": {v.name(): e for v, e in exps.items()}}
        for exps, c in p.monomials()
    ]


def reference_dumps(p: MultiPoly) -> str:
    return json.dumps(reference_json_obj(p), separators=(",", ":"))


# ---------------------------------------------------------------------------
# inputs: every variable kind and index, edge exponents and coefficients
# ---------------------------------------------------------------------------

ALL_VARS = (
    [BETA]
    + [Var("q", i) for i in range(1, N_MAX)]
    + [Var(k, i) for k in ("x", "y", "z") for i in range(1, N_MAX + 1)]
)
EXPONENTS = st.one_of(st.just(1), st.just(2), st.integers(10, FIELD_MASK - 1), st.just(FIELD_MASK))
COEFS = st.one_of(
    st.sampled_from([1, -1, 10**30, -(10**30)]),
    st.integers(-50, 50).filter(bool),
)


def _x_degree(exps: dict) -> int:
    return sum(e for v, e in exps.items() if v.kind == "x")


monomials = st.dictionaries(st.sampled_from(ALL_VARS), EXPONENTS, max_size=6).filter(
    lambda exps: _x_degree(exps) <= FIELD_MASK
)
polys = st.lists(st.tuples(monomials, COEFS), max_size=12).map(MultiPoly.from_monomials)


def _covering_poly() -> MultiPoly:
    """Every variable at exponents 1, 2, 17 and FIELD_MASK (one x at a time at
    the top), with coefficients ±1 and ±10**30, plus a constant term."""
    terms = [({}, -7)]
    for k, v in enumerate(ALL_VARS):
        for j, e in enumerate((1, 2, 17, FIELD_MASK)):
            c = (1, -1, 10**30, -(10**30))[(k + j) % 4]
            terms.append(({v: e, ALL_VARS[k - 1]: 1} if v.kind != "x" else {v: e}, c))
    terms.append(({v: 1 for v in ALL_VARS}, 3))
    return MultiPoly.from_monomials(terms)


def _assert_matches_reference(f: MultiPoly) -> None:
    assert f.text() == reference_text(f)
    assert f.latex() == reference_latex(f)
    assert f.dumps() == reference_dumps(f)
    assert f.json_obj() == reference_json_obj(f)
    assert f.dumps() == json.dumps(f.json_obj(), separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(f=polys)
@example(f=zero())
@example(f=MultiPoly.constant(-(10**30)))
@example(f=MultiPoly.constant(1))
def test_renderers_match_reference(f):
    _assert_matches_reference(f)


def test_covering_poly_matches_reference():
    f = _covering_poly()
    assert len(f) == 4 * len(ALL_VARS) + 2
    _assert_matches_reference(f)
    _assert_matches_reference(-f)
    # every kind and index shows up in each format
    text = f.text()
    assert all(v.name() in text for v in ALL_VARS)
    assert f"^{FIELD_MASK}" in text and "1000000000000000000000000000000" in text


_MEMOS = (poly._TEXT_GROUPS, poly._LATEX_GROUPS, poly._JSON_GROUPS)
_SMALL_LIMIT = 16


@settings(max_examples=200, deadline=None)
@given(fs=st.lists(polys, min_size=1, max_size=5))
def test_group_memos_stay_bounded(fs):
    # a small limit makes the memos empty many times while rendering
    saved = poly._GroupStrings.LIMIT
    poly._GroupStrings.LIMIT = _SMALL_LIMIT
    for memo in _MEMOS:
        memo.clear()
    try:
        for f in fs:
            _assert_matches_reference(f)
            assert all(len(memo) <= _SMALL_LIMIT for memo in _MEMOS)
    finally:
        poly._GroupStrings.LIMIT = saved


def test_group_memos_stay_below_limit_on_many_groups():
    # more distinct x and y/z groups than the limit, at its real value
    limit = poly._GroupStrings.LIMIT
    # more groups than one field has values, so each e is spread over two
    # variables in base 2^(FIELD_BITS - 1), keeping the x-degree in its field
    base = 1 << FIELD_BITS - 1
    x1, x2, y1, y2 = Var("x", 1), Var("x", 2), Var("y", 1), Var("y", 2)
    spread = (divmod(e, base) for e in range(1, limit + 100))
    f = MultiPoly.from_monomials(({x1: r, x2: q, y1: r, y2: q}, q * base + r) for q, r in spread)
    _assert_matches_reference(f)
    assert all(0 < len(memo) <= limit for memo in _MEMOS)


# ---------------------------------------------------------------------------
# table --format json lines: sorted keys, as json.dumps(sort_keys=True)
# ---------------------------------------------------------------------------


def _table_lines(*argv: str) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue().splitlines()


def test_table_json_lines_have_sorted_keys():
    # lexicographic key order equals display order only while every index
    # is a single digit, i.e. N_MAX <= 9
    assert N_MAX <= 9
    seen = ""
    for token in ("G", "bG"):
        name = cli._FAMILIES[token][1]
        table = family_table(3, name)
        lines = _table_lines("table", "--family", token, "--n", "3", "--format", "json")
        perms = by_length(3)
        assert len(lines) == len(perms)
        for line, w in zip(lines, perms):
            record = {
                "family": token,
                "n": 3,
                "w": list(w.oneline),
                "word": "".join(map(str, first_reduced_word(w))),
                "length": w.length(),
                "poly": reference_json_obj(table[w]),
            }
            assert line == json.dumps(record, separators=(",", ":"), sort_keys=True)
        seen += "".join(lines)
    # b and q both occur, so their keys are ordered against x, y and z
    assert '"b":' in seen and '"q1":' in seen
