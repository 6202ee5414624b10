"""The psi-operator towers behind H, qG and bH, and the y=0 seeded classical
tables, against the Bruhat-interval sums they replace.

The oracle below is the construction the tables used to be built with:
pi+/pi- towers summed over lower or upper Bruhat intervals, and the y=0
tables sliced out of the two-alphabet ones.  Further tests make sure no
table build goes back to scanning Bruhat intervals, pin the one registry
every family table is built from, check the restricted towers that build
single members against the tables and against one apply_perm chain per
member, count their operators, and make sure swapping any family's
operator kind is caught by the verify catalog, with the lines it prints
unchanged (record_swap_failures.py holds their hashes).
"""

from __future__ import annotations

import functools
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grothpoly
from grothpoly import _termkernel_py as kernel
from grothpoly import checks, classical, cli
from grothpoly._packing import BETA, FIELD_MASK, N_MAX, TOP_BITS, Var, kind_degree, pack, unit
from grothpoly.classical import (
    IDEALS,
    TOWERS,
    NormalFormContext,
    _descent_tower,
    family_member,
    family_members,
    family_table,
    top_class,
)
from grothpoly.divdiff import DEL, PI_MINUS, PI_PLUS, PSI_MINUS, PSI_PLUS, apply_perm
from grothpoly.perms import all_perms, bruhat_lower, bruhat_upper, from_word, longest
from grothpoly.poly import MultiPoly, or_monomials
from grothpoly.cli import _FAMILIES
from grothpoly.quantum import quantum_top
from grothpoly.report import CHECKS, rank_caps, verify
from record_swap_failures import mismatches

_B = unit(BETA)


def _interval_sum(tower, interval, ref_len, sign):
    """sum over v in interval of (sign*b)^|l(v) - ref_len| * tower[v]."""
    acc: dict[int, int] = {}
    for v in interval:
        d = abs(v.length() - ref_len)
        kernel.addmul(acc, tower[v]._t, d * _B, sign**d)
    return MultiPoly._raw(kernel.prune(acc))


@functools.cache
def _oracle_classical(n: int, family: str) -> dict:
    """The two-alphabet table of "G", "H" or "S"."""
    w0 = longest(n)
    tower = _descent_tower(top_class(n), DEL if family == "S" else PI_PLUS, "x", n)
    table = {}
    for w in all_perms(n):
        u = w.inverse() * w0
        if family == "H":
            table[w] = _interval_sum(tower, bruhat_lower(u), u.length(), 1)
        else:
            table[w] = tower[u]
    return table


def _oracle_quantum(n: int, family: str) -> dict:
    w0 = longest(n)
    if family.startswith("qG"):
        # qG_w = sum_{v >= w} (-b)^(l(v)-l(w)) qH_v
        tower = _descent_tower(quantum_top(n), PI_MINUS, "y", n)
        qh = {w: tower[w * w0] for w in all_perms(n)}
        table = {w: _interval_sum(qh, bruhat_upper(w), w.length(), -1) for w in all_perms(n)}
    else:
        # bH_w = sum_{v <= w w0} b^(l(w w0)-l(v)) pi+_v(bold top)
        tower = _descent_tower(quantum_top(n, beta_form=True), PI_PLUS, "y", n)
        table = {}
        for w in all_perms(n):
            u = w * w0
            table[w] = _interval_sum(tower, bruhat_lower(u), u.length(), 1)
    if family.endswith("x"):
        table = {w: p.set_zero("y") for w, p in table.items()}
    return table


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("family", ["H", "Hx", "Gx", "Sx"])
def test_classical_tables_match_interval_sums(family, n):
    table = family_table(n, family)
    oracle = _oracle_classical(n, family.rstrip("x"))
    if family.endswith("x"):
        oracle = {w: p.set_zero("y") for w, p in oracle.items()}
    assert set(table) == set(oracle)
    for w, p in oracle.items():
        assert table[w] == p, (family, w)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", ["bH", "qG", "qGx"])
def test_quantum_tables_match_interval_sums(family, n):
    table = family_table(n, family)
    oracle = _oracle_quantum(n, family)
    assert set(table) == set(oracle)
    for w, p in oracle.items():
        assert table[w] == p, (family, w)


def test_table_builds_never_scan_bruhat_intervals(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a table build scanned a Bruhat interval")

    for name, module in list(sys.modules.items()):
        if name == "grothpoly" or name.startswith("grothpoly."):
            for fn in ("bruhat_lower", "bruhat_upper", "bruhat_leq"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    for family in ("G", "H", "S", "Gx", "Hx", "Sx"):
        assert len(family_table(4, family)) == 24
    for family in ("qS", "qH", "qG", "bG", "bH"):
        for name in (family, family + "x"):
            assert len(family_table(3, name)) == 6


@pytest.mark.parametrize("token", sorted(_FAMILIES))
def test_every_cli_token_builds_through_family_table(token):
    table = family_table(2, _FAMILIES[token][1])
    assert set(table) == set(all_perms(2))


@pytest.mark.parametrize("name", ["nope", "qnope", "nopex", "x", "qGxx"])
def test_unknown_family_is_refused(name):
    with pytest.raises(ValueError, match="unknown family"):
        family_table(2, name)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", ["bG", "bH"])
def test_bold_y0_tables_are_slices(family, n):
    full = family_table(n, family)
    assert dict(family_table(n, family + "x")) == {w: p.set_zero("y") for w, p in full.items()}


Y_TOWERS = [base for base in TOWERS if TOWERS[base][2] == "y"]


@pytest.mark.parametrize("cached", [False, True], ids=["truncated", "sliced"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("base", Y_TOWERS)
def test_y0_members_are_the_full_members_at_y0(base, n, cached, monkeypatch):
    # with the full table cached the y=0 members are sliced from it; with
    # nothing cached they come off a tower cut by y-degree, which caches no
    # full table.  Either way, table and single members alike are the full
    # members with y set to 0
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    perms = all_perms(n)
    expect = {w: p.set_zero("y") for w, p in family_members(n, base, perms).items()}
    if cached:
        family_table(n, base)
    members = {w: family_member(n, base + "x", w) for w in perms}
    assert (n, base + "x") not in classical._TABLE_CACHE
    assert dict(family_table(n, base + "x")) == members == expect
    assert set(classical._TABLE_CACHE) == {(n, base + "x")} | ({(n, base)} if cached else set())


def _peel_heights(nodes) -> dict:
    """The height of each node in the peel tree: the most steps from it
    down to a node whose chain of first left descents passes through it."""
    height = dict.fromkeys(nodes, 0)
    for u in nodes:
        v, steps = u, 0
        while not v.is_identity():
            v, steps = v.s_times(v.left_descents()[0]), steps + 1
            height[v] = max(height[v], steps)
    return height


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("base", Y_TOWERS)
def test_y0_tower_nodes_keep_the_y_degrees_read_below_them(base, n):
    # each node of a cut tower is the uncut node's terms of y-degree at most
    # its height, for the whole tower and for the chain of one member
    seed, op_kind, _ = TOWERS[base]
    w0 = longest(n)
    for keys in (None, [w0]):
        full = _descent_tower(seed(n), op_kind, "y", n, keys)
        cut = _descent_tower(seed(n), op_kind, "y", n, keys, y0=True)
        assert set(cut) == set(full)
        height = _peel_heights(cut)
        for v, p in cut.items():
            assert p._t == {m: c for m, c in full[v]._t.items() if kind_degree(m, "y") <= height[v]}, v


@settings(max_examples=60, deadline=None)
@given(
    exps=st.lists(st.integers(0, FIELD_MASK), min_size=N_MAX, max_size=N_MAX),
    rest=st.integers(0, FIELD_MASK),
)
def test_y_degree_is_exact_for_every_exponent_a_field_holds(exps, rest):
    # the cut reads kind_degree(m, "y"): the sum of the 8 y fields, however
    # large, with every other field set as well
    others = {Var(k, i): rest for k, count in (("z", N_MAX), ("q", N_MAX - 1)) for i in range(1, count + 1)}
    m = pack({**{Var("y", i): e for i, e in enumerate(exps, start=1)}, **others, BETA: rest, Var("x", 1): rest})
    assert kind_degree(m, "y") == sum(exps)


# every table name: the TOWERS keys and their y=0 specialisations
TABLE_NAMES = sorted(name for base in TOWERS for name in (base, base + "x"))


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_rank_4_tables_keep_every_field_below_its_top_bit(name):
    # a field holds up to FIELD_MASK, and two fields below
    # 1 << (FIELD_BITS - 1) add without a carry; every exponent and x-degree
    # of a rank-4 table stays below that, so their products cannot carry
    used = or_monomials(m for p in family_table(4, name).values() for m in p._t)
    assert not used & TOP_BITS


@functools.cache
def _keyed_chains(n: int, family: str) -> dict:
    """The table as one apply_perm chain per member, along
    first_reduced_word rather than the tower's left-descent peel, keyed by
    hand.  Member w of an x-alphabet family is op_{w^-1 w0} on the seed,
    the y=0 tokens peeling the y=0 seed; member w of a y-alphabet family is
    op_{w w0} on the seed, the y=0 tokens setting y to 0 afterwards."""
    base = family[:-1] if family.endswith("x") else family
    seed, op_kind, alphabet = TOWERS[base]
    top = seed(n)
    if alphabet == "x" and base != family:
        top = top.set_zero("y")
    w0 = longest(n)
    table = {}
    for w in all_perms(n):
        key = w.inverse() * w0 if alphabet == "x" else w * w0
        p = apply_perm(op_kind, key, top, alphabet)
        table[w] = p.set_zero("y") if alphabet == "y" and base != family else p
    return table


def test_table_names_cover_every_tower():
    assert len(TABLE_NAMES) == 16
    assert {_FAMILIES[t][1] for t in _FAMILIES} <= set(TABLE_NAMES)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("family", TABLE_NAMES)
def test_member_chain_matches_table(family, n, monkeypatch):
    # the single members run with no table cached, so none is read back
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    members = {w: family_member(n, family, w) for w in all_perms(n)}
    assert classical._TABLE_CACHE == {}
    table = family_table(n, family)
    oracle = _keyed_chains(n, family)
    for w in all_perms(n):
        assert members[w] == table[w] == oracle[w], (family, w)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("family", TABLE_NAMES)
def test_every_member_is_its_own_normal_form(family, n):
    # every seed has staircase x-support (x_i to at most n - i), and each
    # operator keeps it: d_i on x_i^a x_(i+1)^e gives exponents at most
    # max(a, e) - 1, and pi/psi add at most one to e first.  So no rule lead
    # x_i^(n-i+1) divides a member's monomial, and compute --ideal prints
    # members unchanged
    table = family_table(n, family)
    for ideal in IDEALS:
        ctx = NormalFormContext(n, ideal)
        for w, p in table.items():
            assert ctx.reduce(p) == p, (ideal, w)


def test_member_reads_a_cached_table(monkeypatch):
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    table = family_table(3, "H")
    w = all_perms(3)[2]
    assert family_member(3, "H", w) is table[w]


@pytest.mark.parametrize(
    "family, n",
    [(f, n) for n in (1, 2, 3) for f in TABLE_NAMES]
    + [(f, 4) for f in ("G", "H", "S", "Gx", "Hx", "Sx")],
)
def test_embedded_members_match_the_next_rank(family, n, monkeypatch):
    # one restricted rank-(n+1) tower with nothing cached, then read off
    # the cached rank-(n+1) table, both against that table
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    embedded = [w.embed(n + 1) for w in all_perms(n)]
    members = family_members(n + 1, family, embedded)
    assert classical._TABLE_CACHE == {}
    big = family_table(n + 1, family)
    assert members == {v: big[v] for v in embedded}
    cached = family_members(n + 1, family, embedded)
    assert all(cached[v] is big[v] for v in embedded)


def _count_operators(monkeypatch) -> list:
    calls = []
    real = classical.apply_op
    monkeypatch.setattr(classical, "apply_op", lambda *a: calls.append(a[0]) or real(*a))
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    return calls


@pytest.mark.parametrize("family", ["G", "Hx", "qG", "qGx", "bHx"])
def test_operator_counts(family, monkeypatch):
    # a table is its tower, n! - 1 operators, a y=0 table of a y-alphabet
    # family included, which caches no full table; one member is the l(key)
    # operators of its own chain, keyed by w^-1 w0 on an x-alphabet tower
    # and by w w0 on a y-alphabet one
    calls = _count_operators(monkeypatch)
    n = 4
    w0 = longest(n)
    base = family.rstrip("x")
    _, op_kind, alphabet = TOWERS[base]
    for w in all_perms(n):
        family_member(n, family, w)
        key = w.inverse() * w0 if alphabet == "x" else w * w0
        assert len(calls) == key.length(), w
        calls.clear()
    family_table(n, family)
    assert len(calls) == 23
    assert set(calls) == {op_kind}
    assert set(classical._TABLE_CACHE) == {(n, family)}


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("family", ["G", "Hx", "qS", "qGx"])
def test_member_of_the_wrong_rank_is_refused(family, cached, monkeypatch):
    # one refusal, before any table is read or tower built, whether the
    # family is cached, built from its own tower, or a y=0 family cut by
    # y-degree (qGx)
    calls = _count_operators(monkeypatch)
    if cached:
        family_table(3, family)
        calls.clear()
    for w in (from_word([1], 2), from_word([1], 4)):
        with pytest.raises(ValueError, match=r"^rank mismatch: a member of a rank-3 family is a permutation in S_3$"):
            family_members(3, family, [all_perms(3)[1], w])
        with pytest.raises(ValueError, match="^rank mismatch"):
            family_member(3, family, w)
    assert calls == []


@pytest.mark.parametrize("family", ["G", "H", "S", "Gx", "Hx", "Sx", "qS", "qG", "qGx"])
def test_embedded_members_take_27_operators_at_rank_4(family, monkeypatch):
    # the keys of w.embed(5), w in S_4, share one chain of l(w0(4) w0(5))
    # = 4 operators below an S_4 tower of 23
    calls = _count_operators(monkeypatch)
    family_members(5, family, [w.embed(5) for w in all_perms(4)])
    assert len(calls) == 27


def test_member_builds_need_no_apply_perm(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a member build ran apply_perm")

    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    monkeypatch.setattr(checks, "apply_perm", refuse)
    w = from_word([2, 1, 3], 4)
    for family in ("G", "Hx", "qG", "bHx"):
        assert family_member(4, family, w) == family_table(4, family)[w]
    assert verify("stability", 3).ok
    assert verify("quantum_stability", 3).ok


_KINDS = (DEL, PI_PLUS, PI_MINUS, PSI_PLUS, PSI_MINUS)


@pytest.mark.parametrize(
    "base, kind", [(b, k) for b in list(TOWERS) for k in _KINDS if k != TOWERS[b][1]]
)
def test_swapped_operator_kind_fails_a_check(base, kind, monkeypatch):
    # bG and bH are caught by corollary2 alone
    seed, _, alphabet = TOWERS[base]
    monkeypatch.setitem(TOWERS, base, (seed, kind, alphabet))
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    failed = [cid for cid in CHECKS if not verify(cid, min(3, rank_caps(cid)[0])).ok]
    assert failed, (base, kind)


def test_swapped_operator_kinds_print_the_recorded_lines(monkeypatch):
    # every line of the 32 swaps at n = 2 and 3, failing ones included;
    # n = 4 runs in CI
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    assert mismatches((2, 3)) == []


@pytest.mark.parametrize("check_id", list(CHECKS))
def test_each_check_declares_the_tables_its_body_reads(check_id, monkeypatch):
    # verify builds a check's tables before its timer starts, so a table
    # the body reads but does not declare would be built inside the body
    # and timed with it
    c = CHECKS[check_id]
    added = []

    def body(n, rng):
        before = list(classical._TABLE_CACHE)
        detail = c.fn(n, rng)
        added.extend(key for key in classical._TABLE_CACHE if key not in before)
        return detail

    monkeypatch.setitem(CHECKS, check_id, c._replace(fn=body))
    for n in range(2, min(4, c.soft) + 1):
        monkeypatch.setattr(classical, "_TABLE_CACHE", {})
        assert verify(check_id, n).ok
        assert added == []
        assert list(classical._TABLE_CACHE) == [(n, family) for family in c.tables]


@pytest.mark.parametrize("check_id", list(CHECKS))
def test_each_check_declares_its_tables_in_reading_order(check_id, monkeypatch):
    # run on an empty cache, a body builds each table it reads as it first
    # reads it, so the declared tables are all it reads, in that order;
    # verify building them in that order keeps every build the same
    c = CHECKS[check_id]
    for n in (2, 3):
        monkeypatch.setattr(classical, "_TABLE_CACHE", {})
        c.fn(n, random.Random(0))
        assert list(classical._TABLE_CACHE) == [(n, family) for family in c.tables]


@pytest.mark.parametrize("check_id", ["stability", "quantum_stability"])
def test_stability_builds_no_table_of_the_next_rank(check_id, monkeypatch):
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    assert verify(check_id, 3).ok
    assert classical._TABLE_CACHE
    assert {n for n, _ in classical._TABLE_CACHE} == {3}


def test_stability_holds_one_family_of_embedded_members_at_a_time(monkeypatch):
    # at n = 5 the rank-6 members of one family take ~130 MB, so a family's
    # members must be freed before the next family's are built
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    for family in ("G", "H", "S", "Gx", "Hx", "Sx"):
        family_table(3, family)
    live: set[int] = set()
    alive_at_build = []

    class Members(dict):
        def __del__(self):
            live.discard(id(self))

    real = checks.family_members

    def tracked(n, family, ws):
        alive_at_build.append(len(live))
        members = Members(real(n, family, ws))
        live.add(id(members))
        return members

    monkeypatch.setattr(checks, "family_members", tracked)
    assert verify("stability", 3).ok
    assert alive_at_build == [0] * 6


def test_quantum_stability_builds_each_base_family_once(monkeypatch):
    # one 8-operator cut-down tower at rank 4 for each of qS, qH and qG,
    # shared by the exact and ratio tries and sliced for qSx, qHx and qGx
    calls = _count_operators(monkeypatch)
    for family in ("qS", "qH", "qG", "qSx", "qHx", "qGx"):
        family_table(3, family)
    calls.clear()
    rep = verify("quantum_stability", 3)
    assert len(calls) == 24
    modes = {"qS": "exact", "qH": "ratio", "qG": "ratio", "qSx": "exact", "qHx": "ratio", "qGx": "exact"}
    assert rep.detail == modes


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--family", "G", "--n", "6", "--word", "1"],
        ["compute", "--family", "Hx", "--n", "5", "--perm", "2,1,3,5,4"],
        ["compute", "--family", "S", "--n", "4", "--word", "", "--ideal", "x"],
        ["compute", "--family", "qGx", "--n", "4", "--word", "12", "--format", "json"],
        ["compute", "--family", "bH", "--n", "3", "--word", "", "--format", "latex", "--beta", "2"],
    ],
)
def test_compute_builds_no_table(argv, monkeypatch, capsys):
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert classical._TABLE_CACHE == {}


_PER_MEMBER = {
    "grothendieck_double": "G",
    "dual_grothendieck_double": "H",
    "schubert_double": "S",
    "grothendieck": "Gx",
    "dual_grothendieck": "Hx",
    "schubert": "Sx",
    "quantum_grothendieck_double": "qG",
    "quantum_dual_grothendieck_double": "qH",
    "quantum_schubert_double": "qS",
    "quantum_grothendieck": "qGx",
    "quantum_dual_grothendieck": "qHx",
    "quantum_schubert": "qSx",
}


@pytest.mark.parametrize(
    "name, family", [*_PER_MEMBER.items(), ("bold_family", "bG"), ("bold_family", "bH")]
)
def test_per_member_functions_build_no_table(name, family, monkeypatch):
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    w = from_word([2, 1, 3], 4)
    fn = getattr(grothpoly, name)
    p = fn(w, family[1]) if name == "bold_family" else fn(w)
    assert classical._TABLE_CACHE == {}
    assert p == family_table(4, family)[w]


def test_rank6_member_builds_no_table(monkeypatch):
    # the whole rank-6 table is 720 members and tens of seconds
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    assert grothpoly.grothendieck_double(from_word([1], 6))
    assert classical._TABLE_CACHE == {}


def _record_operators(monkeypatch) -> list:
    """Empty the table cache and record, without running, every operator
    a family build applies."""
    calls = []
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    monkeypatch.setattr(classical, "apply_op", lambda *a: calls.append(a))
    monkeypatch.setattr(checks, "apply_perm", lambda *a: calls.append(a))
    return calls


@pytest.mark.parametrize("q", ["x", "1,2,3,4,5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--family", "G", "--n", "5"],
        ["compute", "--family", "bH", "--n", "5", "--word", ""],
    ],
)
def test_refused_q_does_no_work(argv, q, monkeypatch, capsys):
    calls = _record_operators(monkeypatch)
    assert cli.main([*argv, "--q", q]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert list(json.loads(err)) == ["error"]
    assert classical._TABLE_CACHE == {}
    assert calls == []


@pytest.mark.parametrize(
    "family, n, error",
    [
        ("G", 6, "classical table is capped at n=5"),
        ("Sd", 6, "classical table is capped at n=5"),
        ("bH", 5, "quantum table is capped at n=4"),
    ],
)
def test_table_at_the_cap_does_no_work(family, n, error, monkeypatch, capsys):
    # table builds all n! members, so it stops one rank below compute's cap
    calls = _record_operators(monkeypatch)
    assert cli.main(["table", "--family", family, "--n", str(n)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": error}
    assert classical._TABLE_CACHE == {}
    assert calls == []


@pytest.mark.parametrize("family", ["G", "Hx", "qS", "bHx"])
@pytest.mark.parametrize("n", [-1, 0])
def test_rank_below_one_is_refused(family, n):
    with pytest.raises(ValueError, match="rank must be at least 1"):
        family_table(n, family)
    with pytest.raises(ValueError, match="rank must be at least 1"):
        family_member(n, family, all_perms(1)[0])
