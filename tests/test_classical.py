"""Golden tables for the classical double families, normal forms mod the
three quotient ideals, dual-basis expansion, and the registered checkers
at small rank."""

from __future__ import annotations

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly.classical import (
    CLASSICAL_CHECKS,
    IDEALS,
    NormalFormContext,
    complete_h,
    dual_grothendieck,
    dual_grothendieck_double,
    elementary,
    expand_dual_basis,
    family_table,
    grothendieck,
    grothendieck_double,
    monk_expansion,
    pairing0,
    pieri_targets,
    rank_caps,
    scalar_product,
    schubert,
    schubert_double,
    staircase_monomials,
    top_class,
    verify_classical,
)
from grothpoly._packing import FIELD_MASK, Var, exponent, pack, unit
from grothpoly.divdiff import PI_PLUS, apply_perm
from grothpoly.perms import (
    all_perms,
    bruhat_leq,
    bruhat_upper,
    by_length,
    first_reduced_word,
    from_word,
    identity,
    longest,
)
from grothpoly.poly import MultiPoly, beta, one, xvar, yvar, zero

# Frozen rank-3 values, hand-checked against the reference table the
# families were calibrated on.  Keys are reduced words ("" = identity).
GOLDEN_G = {
    "": "1 - 2*b*y1 + b^2*y1^2 - b*y2 + 2*b^2*y1*y2 - b^3*y1^2*y2",
    "2": "y1 - b*y1^2 + y2 - 2*b*y1*y2 + b^2*y1^2*y2 + x1 - b*x1*y1 + x2"
    " - b*x2*y1 + b*x1*x2 - b^2*x1*x2*y1",
    "1": "y1 - b*y1^2 - b*y1*y2 + b^2*y1^2*y2 + x1 - b*x1*y1 - b*x1*y2"
    " + b^2*x1*y1*y2",
    "12": "y1^2 - b*y1^2*y2 + x1*y1 - b*x1*y1*y2 + x2*y1 - b*x2*y1*y2"
    " + x1*x2 - b*x1*x2*y2",
    "21": "y1*y2 - b*y1^2*y2 + x1*y1 - b*x1*y1^2 + x1*y2 - b*x1*y1*y2"
    " + x1^2 - b*x1^2*y1",
    "121": "y1^2*y2 + x1*y1^2 + x1*y1*y2 + x2*y1*y2 + x1^2*y1 + x1*x2*y1"
    " + x1*x2*y2 + x1^2*x2",
}
GOLDEN_H = {
    "": "1 + 2*b*x1 + b*x2 + b^2*x1^2 + 2*b^2*x1*x2 + b^3*x1^2*x2",
    "2": "y1 + y2 - b*y1*y2 + x1 + b*x1*y1 + b*x1*y2 - b^2*x1*y1*y2 + x2"
    " + b*x1^2 + 2*b*x1*x2 + b^2*x1^2*x2",
    "1": "y1 + x1 + b*x1*y1 + b*x2*y1 + b*x1^2 + b*x1*x2 + b^2*x1*x2*y1"
    " + b^2*x1^2*x2",
    "12": "y1^2 + x1*y1 + b*x1*y1^2 + x2*y1 + b*x1^2*y1 + x1*x2"
    " + b*x1*x2*y1 + b*x1^2*x2",
    "21": "y1*y2 + x1*y1 + x1*y2 + b*x2*y1*y2 + x1^2 + b*x1*x2*y1"
    " + b*x1*x2*y2 + b*x1^2*x2",
    "121": "y1^2*y2 + x1*y1^2 + x1*y1*y2 + x2*y1*y2 + x1^2*y1 + x1*x2*y1"
    " + x1*x2*y2 + x1^2*x2",
}


def word_key(w) -> str:
    return "".join(map(str, first_reduced_word(w)))


class TestGoldenTables:
    def test_twelve_rank3_entries(self):
        gt = family_table(3, "G")
        ht = family_table(3, "H")
        for w in all_perms(3):
            assert gt[w].text() == GOLDEN_G[word_key(w)]
            assert ht[w].text() == GOLDEN_H[word_key(w)]

    def test_top_entries_coincide(self):
        # at w0 all three double families equal the top class
        for n in (2, 3, 4):
            w0 = longest(n)
            t = top_class(n)
            assert grothendieck_double(w0) == t
            assert dual_grothendieck_double(w0) == t
            assert schubert_double(w0) == t

    def test_schubert_is_beta_zero(self):
        for w in all_perms(3):
            assert schubert_double(w) == grothendieck_double(w).specialize_beta(0)
            assert schubert_double(w) == dual_grothendieck_double(w).specialize_beta(0)

    def test_single_variants(self):
        for w in all_perms(3):
            assert grothendieck(w) == grothendieck_double(w).set_zero("y")
            assert dual_grothendieck(w) == dual_grothendieck_double(w).set_zero("y")
            assert schubert(w) == schubert_double(w).set_zero("y")

    def test_rank2_by_hand(self):
        s1 = from_word((1,), 2)
        assert grothendieck_double(s1) == xvar(1) + yvar(1)
        assert grothendieck_double(identity(2)) == one() - beta() * yvar(1)
        assert dual_grothendieck_double(identity(2)) == one() + beta() * xvar(1)
        assert schubert_double(identity(2)) == one()

    def test_tables_are_read_only(self):
        true_id = family_table(2, "G")[identity(2)]
        with pytest.raises(TypeError):
            family_table(2, "G")[identity(2)] = zero()
        assert family_table(2, "G")[identity(2)] == true_id == one() - beta() * yvar(1)

    def test_g_tower_recurrence(self):
        # each non-top member arises from a longer one by a single pi+ step
        gt = family_table(3, "G")
        for w in all_perms(3):
            for i in w.right_descents():
                # here w has a descent, so G_{w s_i} = pi+_i G_w on x
                shorter = w.times_s(i)
                assert apply_perm(PI_PLUS, from_word((i,), 3), gt[w]) == gt[shorter]


class TestNormalForms:
    @pytest.mark.parametrize("ideal", ["x", "unsigned", "signed"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_generators_reduce_to_zero(self, ideal, n):
        ctx = NormalFormContext(n, ideal)
        for g in ctx.original_generators():
            assert ctx.reduce(g) == zero()
            assert ctx.contains(g)
        for g in ctx.generators():
            assert ctx.reduce(g) == zero()

    def test_rewriting_identity(self):
        # the rules rest on h_{m}(x_1..x_i) = sum_b (-1)^b e_b(x_{i+1}..x_n)
        # h_{m-b}(x_1..x_n) with m = n-i+1; check it as a raw identity
        for n in (2, 3, 4):
            xs = [Var("x", k) for k in range(1, n + 1)]
            for i in range(1, n + 1):
                m = n - i + 1
                lhs = complete_h(m, xs[:i])
                rhs = zero()
                for b in range(0, n - i + 1):
                    rhs = rhs + (
                        elementary(b, xs[i:]) * complete_h(m - b, xs) * ((-1) ** b)
                    )
                assert lhs == rhs

    @pytest.mark.parametrize("ideal", ["x", "unsigned", "signed"])
    def test_reduce_is_idempotent_and_linear(self, ideal, rng):
        ctx = NormalFormContext(3, ideal)
        for _ in range(20):
            f = _random_xy_poly(rng, 3)
            g = _random_xy_poly(rng, 3)
            rf = ctx.reduce(f)
            assert ctx.reduce(rf) == rf
            assert ctx.reduce(f + g) == ctx.reduce(rf + ctx.reduce(g))
            assert ctx.contains(f - rf)

    def test_staircase_support(self, rng):
        n = 3
        ctx = NormalFormContext(n, "x")
        stairs = {m._t and max(m._t) or 0 for m in staircase_monomials(n)}
        assert len(staircase_monomials(n)) == 6
        for _ in range(25):
            f = ctx.reduce(_random_xy_poly(rng, n))
            for exps, _ in f.monomials():
                for v, e in exps.items():
                    if v.kind == "x":
                        assert e <= n - v.index

    def test_staircase_monomials_listing(self):
        texts = sorted(m.text() for m in staircase_monomials(3))
        assert texts == sorted(["1", "x1", "x1^2", "x1*x2", "x1^2*x2", "x2"])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("ideal", IDEALS)
    def test_reduce_matches_full_monomial_heap(self, ideal, data):
        n = data.draw(st.integers(2, 4), label="n")
        fs = data.draw(st.lists(_xyb_polys(n), min_size=1, max_size=3), label="fs")
        ctx = NormalFormContext(n, ideal)
        want = [_oracle_reduce(ctx, f) for f in fs]
        for f, r in zip(fs, want):
            assert ctx.reduce(f) == r
        # a second pass over the same context answers from its memo
        for f, r in zip(fs, want):
            assert ctx.reduce(f) == r

    @pytest.mark.parametrize("ideal", IDEALS)
    def test_returned_normal_form_does_not_alias_the_memo(self, ideal):
        ctx = NormalFormContext(3, ideal)
        f = xvar(2) ** 2  # one term: its normal form is one memo entry, scaled by 1
        r = ctx.reduce(f)
        want = dict(r._t)
        assert want
        r._t.clear()
        r._t[0] = 99
        assert ctx.reduce(f)._t == want
        assert ctx.reduce(f * yvar(2)) == _oracle_reduce(ctx, f * yvar(2))


def _oracle_reduce(ctx: NormalFormContext, f: MultiPoly) -> MultiPoly:
    """Reduction by a heap over full packed monomials, one term at a time:
    the algorithm NormalFormContext.reduce had before it reduced each
    x-monomial once.  Kept here as a slow, independent oracle."""
    n = ctx.n
    gens = [sorted(g._t.items()) for g in ctx.generators()]
    terms = dict(f._t)
    heap = [-m for m in terms]
    heapq.heapify(heap)
    while heap:
        m = -heapq.heappop(heap)
        c = terms.get(m, 0)
        if c == 0:
            terms.pop(m, None)
            continue
        i = next((i for i in range(1, n + 1) if exponent(m, Var("x", i)) >= n - i + 1), None)
        if i is None:
            continue
        cof = m - (n - i + 1) * unit(Var("x", i))
        for gm, gc in gens[i - 1]:
            k = gm + cof
            old = terms.get(k)
            v = (old or 0) - c * gc
            if v:
                if old is None:
                    heapq.heappush(heap, -k)
                terms[k] = v
            else:
                terms.pop(k, None)
    return MultiPoly._raw({m: c for m, c in terms.items() if c})


@st.composite
def _xyb_polys(draw, n: int) -> MultiPoly:
    """Random polynomials in x, y and beta at rank n.  Each x_i may go two
    or more past its staircase bound n - i; the total x-degree is capped
    a little above the staircase top so the oracle stays fast."""
    cap = n * (n - 1) // 2 + 2
    terms: dict[int, int] = {}
    for _ in range(draw(st.integers(1, 4))):
        exps, budget = {}, cap
        for i in draw(st.permutations(range(1, n + 1))):
            exps[Var("x", i)] = e = draw(st.integers(0, min(n + 1, budget)))
            budget -= e
        ys = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        exps.update({Var("y", i + 1): e for i, e in enumerate(ys)})
        exps[Var("b", 0)] = draw(st.integers(0, 2))
        m = pack({v: e for v, e in exps.items() if e})
        terms[m] = terms.get(m, 0) + draw(st.integers(-5, 5).filter(bool))
    return MultiPoly._raw({m: c for m, c in terms.items() if c})


def _random_xy_poly(rng, n, terms=5):
    items = []
    for _ in range(terms):
        exps = {}
        for k in range(1, n + 1):
            e = rng.randint(0, 2)
            if e:
                exps[Var("x", k)] = e
        if rng.random() < 0.4:
            exps[Var("y", rng.randint(1, n))] = 1
        if rng.random() < 0.3:
            exps[Var("b", 0)] = 1
        items.append((exps, rng.randint(-4, 4)))
    return MultiPoly.from_monomials(items)


class TestDualBasis:
    def test_delta_on_dual_family(self):
        # expanding H_v(x) in the G-dual sense returns the point mass at v
        n = 3
        for v in all_perms(n):
            coeffs = expand_dual_basis(dual_grothendieck(v), n)
            for w, c in coeffs.items():
                want = one() if w == v else zero()
                assert c == want, (v, w)

    def test_g_family_expands_over_upper_interval(self):
        n = 3
        for v in all_perms(n):
            coeffs = expand_dual_basis(grothendieck(v), n)
            for w in all_perms(n):
                c = coeffs.get(w, zero())
                if bruhat_leq(v, w):
                    assert c == (-beta()) ** (w.length() - v.length())
                else:
                    assert c == zero()

    def test_reconstruction(self, rng):
        n = 3
        ctx = NormalFormContext(n, "x")
        for _ in range(10):
            f = ctx.reduce(_random_xy_poly(rng, n).set_zero("y").set_zero("b"))
            coeffs = expand_dual_basis(f, n)
            back = zero()
            for w, c in coeffs.items():
                back = back + c * dual_grothendieck(w)
            assert ctx.reduce(back) == f

    def test_pairing_crosscheck(self, rng):
        n = 3
        for _ in range(10):
            f = _random_xy_poly(rng, n).set_zero("y")
            g = _random_xy_poly(rng, n).set_zero("y")
            assert pairing0(f, g, n) == scalar_product(f, g, n, quotient=True)

    def test_pairing_adjointness(self, rng):
        # <pi_w f, g> = <f, pi_{w^-1} g> for the quotient pairing
        n = 3
        for w in all_perms(n):
            f = _random_xy_poly(rng, n).set_zero("y")
            g = _random_xy_poly(rng, n).set_zero("y")
            lhs = scalar_product(apply_perm(PI_PLUS, w, f), g, n, quotient=True)
            rhs = scalar_product(f, apply_perm(PI_PLUS, w.inverse(), g), n, quotient=True)
            assert lhs == rhs


class TestPieri:
    def test_monk_endpoints_within_target_set(self):
        n = 4
        for w in all_perms(3):
            w = w.embed(n)
            for k in (1, 2, 3):
                exp = monk_expansion(w, k)
                for v, c in exp.items():
                    assert not c.is_zero()
                    m = v.length() - w.length() - 1
                    assert v in pieri_targets(w, k, m)

    def test_monk_schubert_limit(self):
        # at beta=0 only the length+1 endpoints survive, with coefficient 1
        n = 3
        for w in all_perms(n):
            for k in (1, 2):
                for v, c in monk_expansion(w, k).items():
                    c0 = c.specialize_beta(0)
                    if v.length() == w.length() + 1:
                        assert c0 == one()
                    else:
                        assert c0 == zero()

    def test_pieri_targets_rank_bounds(self):
        n = 3
        for w in all_perms(n):
            for k in (1, 2):
                for m in (0, 1, 2):
                    for v in pieri_targets(w, k, m):
                        assert v.length() == w.length() + m + 1
                        assert bruhat_leq(w, v)


CHECK_BUDGET_N = {"basis": 3, "free_module": 3}


class TestCheckerCatalog:
    @pytest.mark.parametrize("check_id", sorted(CLASSICAL_CHECKS))
    @pytest.mark.parametrize("n", [2, 3])
    def test_catalog_passes(self, check_id, n):
        n = min(n, rank_caps(check_id)[0])
        rep = verify_classical(check_id, n, seed=1)
        assert rep.ok, (check_id, rep.counterexample)
        assert rep.counterexample is None
        assert rep.n == n

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            verify_classical("no_such_check", 3)
        with pytest.raises(KeyError):
            rank_caps("no_such_check")

    def test_rank_cap_enforced(self):
        with pytest.raises(ValueError):
            verify_classical("basis", 5)

    def test_report_shape(self):
        rep = verify_classical("cauchy", 2)
        line = rep.json_line()
        import json

        obj = json.loads(line)
        assert set(obj) >= {"id", "n", "status", "counterexample", "ms"}
        assert obj["status"] == "pass"
        assert obj["counterexample"] is None
