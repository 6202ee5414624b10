"""Golden tables for the classical double families, normal forms mod the
three quotient ideals, dual-basis expansion, and the registered checkers
at small rank."""

from __future__ import annotations

import heapq
import inspect
import itertools
import json
import random
import re
from collections.abc import Mapping
from math import prod
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grothpoly
from grothpoly import classical
from grothpoly.classical import (
    _RECAST_YZ,
    _RECAST_YZ_MOVES,
    _SWAP_YZ,
    _SWAP_YZ_MOVES,
    IDEALS,
    SWAP_XY,
    SWAP_XY_MOVES,
    NormalFormContext,
    _binomial_split,
    _cauchy_numerator,
    _cauchy_product,
    _descent_tower,
    _embedding_failure,
    _monk_sides,
    _mu,
    _random_quotient_poly,
    _staircase_packed,
    complete_h,
    det_bareiss,
    divexact,
    dual_grothendieck,
    dual_grothendieck_double,
    elementary,
    eta,
    expand_dual_basis,
    family_members,
    family_table,
    grothendieck,
    grothendieck_double,
    localize,
    monk_expansion,
    omega,
    pairing0,
    permute_y,
    schubert,
    schubert_double,
    top_class,
)
from grothpoly._packing import BETA, FIELD_BITS, FIELD_MASK, N_MAX, Var, exponent, pack, unit
from grothpoly.divdiff import DEL, PI_MINUS, PI_PLUS, PSI_MINUS, PSI_PLUS, apply_perm
from grothpoly.perms import (
    Permutation,
    all_perms,
    bruhat_leq,
    bruhat_upper,
    by_length,
    first_reduced_word,
    from_word,
    identity,
    longest,
    transposition,
)
from grothpoly.poly import MultiPoly, beta, const, dot, one, xvar, yvar, zero
from grothpoly.quantum import apply_X, eval_at_X, gk_determinant, quantize, quantum_top
from grothpoly.report import CHECKS, rank_caps, verify


def scalar_product(f: MultiPoly, g: MultiPoly, n: int) -> MultiPoly:
    """eta(pi_{w_0}(f * g)), the quotient pairing straight from its
    definition: the reference pairing0 is checked against."""
    return eta(apply_perm(PI_PLUS, longest(n), f * g, "x"))


def staircase_monomials(n: int) -> list[MultiPoly]:
    """The n! monomials prod x_i^{e_i} with e_i <= n-i, in canonical order."""
    return [MultiPoly._raw({m: 1}) for m in _staircase_packed(n)]


def pieri_targets(w: Permutation, k: int, m: int) -> set[Permutation]:
    """Endpoints v = w (i_1,j_1)...(i_{m+1},j_{m+1}) with every i_l <= k < j_l
    and l(v) = l(w) + m + 1, deduplicated.

    >>> sorted(v.oneline for v in pieri_targets(identity(3), 1, 0))
    [(2, 1, 3)]
    """
    n = w.n
    trans = [
        transposition(i, j, n) for i in range(1, k + 1) for j in range(k + 1, n + 1)
    ]
    goal = w.length() + m + 1
    found: set[Permutation] = set()

    def rec(cur: Permutation, depth: int) -> None:
        if depth == m + 1:
            if cur.length() == goal:
                found.add(cur)
            return
        for t in trans:
            rec(cur * t, depth + 1)

    rec(w, 0)
    return found


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
            assert schubert_double(w) == grothendieck_double(w).specialize({BETA: 0})
            assert schubert_double(w) == dual_grothendieck_double(w).specialize({BETA: 0})

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
        for g in ctx.generators():
            assert ctx.reduce(g) == zero()

    @pytest.mark.parametrize("n", [-1, 0])
    def test_rank_below_one_is_refused(self, n):
        with pytest.raises(ValueError, match="rank must be at least 1, got"):
            NormalFormContext(n, "x")

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
            assert ctx.reduce(f - rf).is_zero()

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


def _x_monomials(n: int, degrees: range) -> list[int]:
    """Every x-monomial in x_1..x_n whose degree lies in degrees."""
    return [
        pack({Var("x", i + 1): e for i, e in enumerate(exps) if e})
        for exps in itertools.product(range(max(degrees) + 1), repeat=n)
        if sum(exps) in degrees
    ]


class TestMonomialReduction:
    """Normal forms of x-monomials up to twice the staircase top: each
    agrees with the full-monomial oracle, and x_j * NF(m) reduces to
    NF(x_j * m)."""

    @staticmethod
    def _agree(ctx: NormalFormContext, monos: list[int]) -> None:
        n = ctx.n
        for m in monos:
            f = MultiPoly._raw({m: 1})
            nf = ctx.reduce(f)
            assert nf == _oracle_reduce(ctx, f), (ctx.ideal, m)
            for j in range(1, n + 1):
                assert ctx.reduce(xvar(j) * nf) == ctx.reduce(xvar(j) * f), (ctx.ideal, m, j)

    @pytest.mark.parametrize("ideal", IDEALS)
    def test_every_monomial_up_to_twice_the_staircase_at_rank3(self, ideal):
        self._agree(NormalFormContext(3, ideal), _x_monomials(3, range(7)))

    @pytest.mark.parametrize("ideal", IDEALS)
    def test_sampled_monomials_of_degree_8_to_12_at_rank4(self, ideal):
        monos = random.Random(14).sample(_x_monomials(4, range(8, 13)), 8)
        self._agree(NormalFormContext(4, ideal), monos)

    @pytest.mark.parametrize("ideal", IDEALS)
    def test_an_x_past_the_rank_rides_along(self, ideal):
        # no rule lowers x4 at rank 3, so it is carried into the normal form
        ctx = NormalFormContext(3, ideal)
        for exps in ({1: 3, 4: 3}, {2: 2, 3: 1, 4: 2}, {4: 6}):
            f = MultiPoly._raw({pack({Var("x", i): e for i, e in exps.items()}): 1})
            assert ctx.reduce(f) == _oracle_reduce(ctx, f)

    def test_reduce_refuses_a_y_field_that_would_pass_the_mask(self):
        # x1 reduces to y1 at rank 1 (unsigned), whose y1 field then adds
        # to the rest's: FIELD_MASK is the largest kept, one more carries
        # into y2
        ctx = NormalFormContext(1, "unsigned")
        assert ctx.reduce(xvar(1) * yvar(1) ** (FIELD_MASK - 1)) == yvar(1) ** FIELD_MASK
        with pytest.raises(ValueError, match=f"past {FIELD_MASK}"):
            ctx.reduce(xvar(1) * yvar(1) ** FIELD_MASK)
        # x1^2 at rank 2 (signed) reduces to terms of y1-degree 1
        ctx = NormalFormContext(2, "signed")
        f = xvar(1) ** 2 * yvar(1) ** (FIELD_MASK - 1)
        assert ctx.reduce(f) == _oracle_reduce(ctx, f)
        with pytest.raises(ValueError, match=f"past {FIELD_MASK}"):
            ctx.reduce(f * yvar(1))


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
            assert pairing0(f, g, n) == scalar_product(f, g, n)
        # every pair of table members at n <= 3, and sampled pairs at n = 4
        for n in (1, 2, 3, 4):
            gt, ht = family_table(n, "Gx"), family_table(n, "Hx")
            pairs = list(itertools.product(all_perms(n), repeat=2))
            for u, v in pairs if n <= 3 else rng.sample(pairs, 40):
                assert pairing0(ht[u], gt[v], n) == scalar_product(ht[u], gt[v], n), (u, v)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mu_is_the_determinant_on_every_product_monomial(self, n):
        # a product of two staircase members has x_i <= 2(n - i): 105
        # monomials at n = 4
        ranges = [range(2 * (n - i) + 1) for i in range(1, n + 1)]
        for exps in itertools.product(*ranges):
            m = pack({Var("x", i): e for i, e in enumerate(exps, start=1) if e})
            assert _mu(n, m) == scalar_product(MultiPoly._raw({m: 1}), one(), n)._t, exps

    @pytest.mark.parametrize("n", [5, 6])
    def test_mu_is_the_determinant_on_random_monomials(self, n, rng):
        # past degree n(n-1)/2 both sides are 0 without a determinant, so
        # the samples stay at or below it
        seen = 0
        while seen < 50:
            exps = [rng.randint(0, 2 * (n - i)) for i in range(1, n + 1)]
            if sum(exps) > n * (n - 1) // 2:
                continue
            seen += 1
            m = pack({Var("x", i): e for i, e in enumerate(exps, start=1) if e})
            assert _mu(n, m) == scalar_product(MultiPoly._raw({m: 1}), one(), n)._t, exps

    def test_orthogonality_passes_at_its_hard_cap(self):
        assert verify("orthogonality", 5, force=True).ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pairing_refuses_an_x_past_the_rank(self, n):
        # pi_{w_0} at rank n treats x_{n+1}..x_8 as scalars, so x1*x3 at
        # rank 2 would pair to 0 instead of being refused
        for k in (n + 1, N_MAX):
            past = xvar(1) * xvar(k)
            with pytest.raises(ValueError, match=f"an x past x{n}"):
                pairing0(past, one(), n)
            with pytest.raises(ValueError, match=f"an x past x{n}"):
                pairing0(one(), past, n)
        # x_n itself is in range
        f = xvar(n) ** n * xvar(1)
        assert pairing0(f, one(), n) == scalar_product(f, one(), n)

    def test_pairing_refuses_a_field_that_would_pass_the_mask(self):
        # the x-parts of f and g add: x1^FIELD_MASK is the largest kept
        assert pairing0(xvar(1) ** (FIELD_MASK - 1), xvar(1), 2) == zero()
        with pytest.raises(ValueError, match=f"past {FIELD_MASK}"):
            pairing0(xvar(1) ** FIELD_MASK, xvar(1), 2)
        # so do their b parts, and a mu at rank n adds up to b^(n(n-1)/2)
        n = 3
        top = FIELD_MASK - n * (n - 1) // 2
        f = beta() ** (top - 2)
        assert pairing0(f, beta() ** 2, n) == scalar_product(f, beta() ** 2, n)
        for f, g in ((beta() ** (top - 2), beta() ** 3), (beta() ** (top + 1), one())):
            with pytest.raises(ValueError, match=f"past {FIELD_MASK}"):
                pairing0(f, g, n)
        with pytest.raises(ValueError, match=f"past {FIELD_MASK}"):
            pairing0(beta() ** FIELD_MASK, one(), 2)

    def test_pairing_adjointness(self, rng):
        # <pi_w f, g> = <f, pi_{w^-1} g> for the quotient pairing
        n = 3
        for w in all_perms(n):
            f = _random_xy_poly(rng, n).set_zero("y")
            g = _random_xy_poly(rng, n).set_zero("y")
            lhs = scalar_product(apply_perm(PI_PLUS, w, f), g, n)
            rhs = scalar_product(f, apply_perm(PI_PLUS, w.inverse(), g), n)
            assert lhs == rhs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orthogonality_detail_is_the_rendered_pairing_matrix(self, n):
        # the matrix is reported at n <= 3 only, each entry pairing0(H_u, G_v).text()
        gt, ht = family_table(n, "Gx"), family_table(n, "Hx")
        perms = all_perms(n)
        detail = {"order": [list(u.oneline) for u in perms]}
        if n <= 3:
            detail["matrix"] = [[pairing0(ht[u], gt[v], n).text() for v in perms] for u in perms]
        assert verify("orthogonality", n).detail == detail


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
                    c0 = c.specialize({BETA: 0})
                    if v.length() == w.length() + 1:
                        assert c0 == one()
                    else:
                        assert c0 == zero()

    def test_monk_expansion_returns_a_new_dict_each_call(self):
        w = Permutation((2, 1, 3))
        first = monk_expansion(w, 1)
        expect = dict(first)
        first.clear()
        again = monk_expansion(w, 1)
        assert again == expect and again is not first

    def test_pieri_targets_rank_bounds(self):
        n = 3
        for w in all_perms(n):
            for k in (1, 2):
                for m in (0, 1, 2):
                    for v in pieri_targets(w, k, m):
                        assert v.length() == w.length() + m + 1
                        assert bruhat_leq(w, v)


def _leibniz_det(rows: list[list[int]]) -> int:
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_det_bareiss_on_integer_matrices(rng):
    # free_module takes its integer determinant through det_bareiss; sparse
    # entries force the row swaps and the vanishing-column exit
    for _ in range(60):
        size = rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(size)] for _ in range(size)]
        got = det_bareiss([[const(c) for c in row] for row in rows])
        assert got == const(_leibniz_det(rows))


@pytest.mark.parametrize("path", ["quotient", "cross-multiplied"])
@pytest.mark.parametrize("family", ["G", "H", "Hx"])
def test_ratio_mode_finds_the_one_perturbed_member(family, path, monkeypatch):
    # ratio mode compares small[w] * (big_id / small_id) with big[w], the
    # quotient split into binomials applied one pass each; when the quotient
    # is refused it falls back to small[w] * big_id == big[w] * small_id
    n = 3
    exact_quotient = classical.divexact
    divisions = []

    def divexact(f, g):
        divisions.append((f, g))
        if path == "cross-multiplied":
            raise ArithmeticError("forced")
        return exact_quotient(f, g)

    monkeypatch.setattr(classical, "divexact", divexact)
    passes = _calls(monkeypatch, "_times_images")
    small = family_table(n, family)
    big = family_members(n + 1, family, [v.embed(n + 1) for v in all_perms(n)])
    assert _embedding_failure(small, big, n, "ratio") is None
    # the quotient is a product of binomials, applied to each member in
    # passes; the cross-multiplied form multiplies instead
    assert len(passes) == (6 if path == "quotient" else 0)
    w = Permutation((2, 3, 1))
    perturbed = dict(big)
    perturbed[w.embed(n + 1)] *= one() + beta() * xvar(1)
    assert _embedding_failure(small, perturbed, n, "ratio") == w
    # one division per call of the big identity member by the small one;
    # every other division splits the quotient, by a binomial 1 +- b v
    big_id, small_id = big[identity(n + 1)], small[identity(n)]
    assert [d for d in divisions if d[1] == small_id] == [(big_id, small_id)] * 2
    assert all(g in _binomials(n + 1) for _, g in divisions if g != small_id)
    assert (len(divisions) > 2) == (path == "quotient")


def _calls(monkeypatch, name: str) -> list[tuple]:
    """The argument tuples of every later call of classical.<name>."""
    calls: list[tuple] = []
    real = getattr(classical, name)
    monkeypatch.setattr(classical, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("family", ["G", "H", "Hx"])
def test_ratio_mode_with_a_quotient_that_is_no_binomial_product(family, monkeypatch):
    # every rank-4 member times a factor that no binomial 1 +- b v divides:
    # the quotient divides exactly but splits with that factor left over,
    # which each member is multiplied by after its binomial passes, and the
    # first w that fails is the one the cross-multiplied form finds
    n = 3
    factor = const(2) + xvar(1) * yvar(2) + beta() * xvar(2) * yvar(1)
    small = family_table(n, family)
    embedded = family_members(n + 1, family, [v.embed(n + 1) for v in all_perms(n)])
    big = {v: p * factor for v, p in embedded.items()}
    quotient = divexact(big[identity(n + 1)], small[identity(n)])
    assert _binomial_split(quotient, n + 1)[1] == factor

    def refused(f, g):
        raise ArithmeticError("forced")

    for w in (None, Permutation((1, 3, 2)), Permutation((3, 2, 1))):
        members = dict(big)
        if w is not None:
            members[w.embed(n + 1)] *= one() - beta() * yvar(3)
        found = _embedding_failure(small, members, n, "ratio")
        with monkeypatch.context() as m:
            m.setattr(classical, "divexact", refused)
            assert _embedding_failure(small, members, n, "ratio") == found == w


@pytest.mark.parametrize(
    "table, w, perturb, counterexample",
    [
        # Gx, Sx and S embed exactly and are tried first
        ("Gx", (2, 1, 3), lambda p: p + xvar(1), '{"family": "Gx", "w": [2, 1, 3], "mode": "exact"}'),
        # the identity member is kept, so the ratio is G_id(4) / G_id(3)
        ("G", (1, 3, 2), lambda p: p * (one() + beta() * xvar(1)), '{"family": "G", "w": [1, 3, 2], "mode": "ratio"}'),
    ],
    ids=["exact", "ratio"],
)
def test_forced_stability_failure(table, w, perturb, counterexample, monkeypatch):
    # the embedded rank-4 members are read from a perturbed cached table
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    members = dict(family_table(4, table))
    big = Permutation(w).embed(4)
    members[big] = perturb(members[big])
    classical._TABLE_CACHE[4, table] = MappingProxyType(members)
    rep = verify("stability", 3)
    assert rep.status == "fail"
    assert json.dumps(rep.counterexample) == counterexample
    assert rep.detail is None


@pytest.mark.parametrize(
    "n, w, perturb, counterexample",
    [
        # the first failing pairing in (u, v) order, its value two terms
        (3, (2, 3, 1), lambda p: p + xvar(1) + 5 * beta() * xvar(1) * xvar(2),
         '{"u": [2, 1, 3], "v": [2, 3, 1], "value": [{"coef": "1", "monomial": {}},'
         ' {"coef": "5", "monomial": {"b": 1}}]}'),
        (3, (3, 1, 2), lambda p: p * (one() - 2 * beta() * xvar(2)) + xvar(1) ** 2,
         '{"u": [1, 2, 3], "v": [3, 1, 2], "value": [{"coef": "-2", "monomial": {"b": 1}}]}'),
        (4, (1, 3, 2, 4), lambda p: p * (one() + beta() * xvar(2)) ** 3,
         '{"u": [1, 3, 4, 2], "v": [1, 3, 2, 4], "value": [{"coef": "-4", "monomial": {"b": 3}}]}'),
        (4, (3, 4, 1, 2), lambda p: p - 2 * xvar(1) ** 3 * xvar(2) * xvar(3) + beta() * xvar(1) ** 3 * xvar(2) ** 2,
         '{"u": [1, 2, 4, 3], "v": [3, 4, 1, 2], "value": [{"coef": "1", "monomial": {"b": 1}}]}'),
    ],
    ids=["rank3-two-terms", "rank3-at-the-identity", "rank4-b3", "rank4-top-degree"],
)
def test_forced_orthogonality_failure(n, w, perturb, counterexample, monkeypatch):
    # one Gx member perturbed in the cached table; H is read as built
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    members = dict(family_table(n, "Gx"))
    members[Permutation(w)] = perturb(members[Permutation(w)])
    classical._TABLE_CACHE[n, "Gx"] = MappingProxyType(members)
    rep = verify("orthogonality", n)
    assert rep.status == "fail"
    assert json.dumps(rep.counterexample) == counterexample
    assert rep.detail is None


CLASSICAL_IDS = [cid for cid, c in CHECKS.items() if c.fn.__module__ == "grothpoly.classical"]


class TestCheckerCatalog:
    @pytest.mark.parametrize("check_id", sorted(CLASSICAL_IDS))
    @pytest.mark.parametrize("n", [2, 3])
    def test_catalog_passes(self, check_id, n):
        n = min(n, rank_caps(check_id)[0])
        rep = verify(check_id, n, seed=1)
        assert rep.ok, (check_id, rep.counterexample)
        assert rep.counterexample is None
        assert rep.n == n

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            verify("no_such_check", 3)
        with pytest.raises(KeyError):
            rank_caps("no_such_check")

    def test_rank_cap_enforced(self):
        with pytest.raises(ValueError):
            verify("basis", 5)

    def test_report_shape(self):
        rep = verify("cauchy", 2)
        line = rep.json_line()
        import json

        obj = json.loads(line)
        assert set(obj) >= {"id", "n", "status", "counterexample", "ms"}
        assert obj["status"] == "pass"
        assert obj["counterexample"] is None


# ---------------------------------------------------------------------------
# ideal membership by localization
# ---------------------------------------------------------------------------

EPS = {"signed": -1, "unsigned": 1}


def _vanishes_at_every_point(f: MultiPoly, n: int, eps: int) -> bool:
    return all(localize(f, u, eps).is_zero() for u in all_perms(n))


def _involution_differences(n: int) -> dict[Permutation, MultiPoly]:
    """omega(G_v) H_id - (-1)^l(v) H_{w0 v w0} omega(G_id), unreduced."""
    gt, ht, w0 = family_table(n, "G"), family_table(n, "H"), longest(n)
    gid_om = omega(gt[identity(n)], n)
    return {
        v: omega(gt[v], n) * ht[identity(n)] - ht[w0 * v * w0] * gid_om * (-1) ** v.length()
        for v in all_perms(n)
    }


def _pieri_differences(n: int) -> dict[tuple[Permutation, int], MultiPoly]:
    gt = family_table(n, "G")
    out = {}
    for w in all_perms(n):
        for k in range(1, n):
            lhs, rhs = _monk_sides(gt, n, w, k)
            out[w, k] = lhs - rhs
    return out


def _oracle_signed_or_unsigned(n, failure, **detail):
    """The reduce-only reference for the localization path: reduce every
    difference mod the signed, then the unsigned NormalFormContext."""
    for ideal in ("signed", "unsigned"):
        counterexample = failure(NormalFormContext(n, ideal))
        if counterexample is None:
            return True, None, {"ideal": ideal, **detail}
    return False, {"ideal": ideal, **counterexample}, None


def _oracle_involution(n: int):
    differences = _involution_differences(n)

    def failure(ctx):
        for v, difference in differences.items():
            reduced = ctx.reduce(difference)
            if not reduced.is_zero():
                return {"v": list(v.oneline), "difference": reduced.json_obj()}
        return None

    return _oracle_signed_or_unsigned(n, failure)


def _oracle_pieri_double(n: int):
    gt = family_table(n, "G")

    def failure(ctx):
        for w in all_perms(n):
            for k in range(1, n):
                lhs, rhs = (ctx.reduce(side) for side in _monk_sides(gt, n, w, k))
                if lhs != rhs:
                    return {"w": list(w.oneline), "k": k, "difference": (lhs - rhs).json_obj()}
        return None

    return _oracle_signed_or_unsigned(n, failure, chains="saturated")


def _oracle_cauchy_sum(n: int, ht) -> tuple[MultiPoly, MultiPoly]:
    """sum_w h_w(x, y') G_{w w0}(y, z), y'_i = -z_i / (1 - b z_i), cleared
    by prod_i (1 - b z_i)^(d_i), d_i the y-degrees of ht; and that
    denominator.  The group-law inverse goes into the H side, as the
    paper writes the Cauchy formula."""
    gt = family_table(n, "G")
    w0 = longest(n)
    dens = [max(h.max_exponent(Var("y", i)) for h in ht.values()) for i in range(1, n + 1)]
    acc = dot((_cauchy_numerator(ht[w], dens), gt[w * w0].relabel(_RECAST_YZ)) for w in all_perms(n))
    return acc, _cauchy_numerator(one(), dens)


def _oracle_cauchy(n: int):
    acc, den = _oracle_cauchy_sum(n, family_table(n, "H"))
    rhs = _cauchy_product(n) * den
    if acc == rhs:
        return True, None, None
    return False, {"lhs": acc.json_obj(), "rhs": rhs.json_obj()}, None


def _oracle_quantum_cauchy(n: int):
    acc, den = _oracle_cauchy_sum(n, family_table(n, "qH"))
    rhs = quantum_top(n, beta_form=True) * den
    if acc == rhs:
        return True, None, None
    return False, {"difference": (acc - rhs).json_obj()}, None


def _oracle_interpolation(n: int, seed: int = 0):
    """One pi^y descent tower on each sampled f(y), paired with H(x, -y)."""
    rng = random.Random(seed)
    samples = 50 if n <= 3 else 12
    ht = family_table(n, "H")
    gid = family_table(n, "G")[identity(n)].negate_vars("y")
    hneg = {w: h.negate_vars("y") for w, h in ht.items()}
    for trial in range(samples):
        f = _random_quotient_poly(n, rng)
        tower = _descent_tower(f.relabel(SWAP_XY), PI_PLUS, "y", n)
        lhs = f * gid
        rhs = dot((hneg[w], tower[w]) for w in all_perms(n))
        if lhs != rhs:
            difference = (lhs - rhs).json_obj()
            return False, {"trial": trial, "f": f.json_obj(), "difference": difference}, None
    return True, None, {"samples": samples}


def _random_monomial(rng, n: int) -> MultiPoly:
    exps = {Var(kind, i): rng.randint(0, 3) for kind in "xy" for i in range(1, n + 1)}
    exps[BETA] = rng.randint(0, 2)
    return MultiPoly.from_monomials([({v: e for v, e in exps.items() if e}, rng.choice((-2, 1, 3)))])


def _root_pairs(u: Permutation) -> tuple[tuple[int, ...], list[tuple[MultiPoly, MultiPoly]]]:
    """a = first_reduced_word(u) and, for each letter a_j, the pair
    (y_{p_j(a_j)}, y_{p_j(a_j + 1)}), where p_j = s_{a_1} ... s_{a_(j-1)}."""
    a = first_reduced_word(u)
    p, pairs = identity(u.n), []
    for letter in a:
        pairs.append((yvar(p(letter)), yvar(p(letter + 1))))
        p = p.times_s(letter)
    return a, pairs


def _billey(w: Permutation, u: Permutation) -> MultiPoly:
    """S_w at x_i = -y_u(i) by Billey's formula, read off a reduced word
    a of u alone: the sum, over the subwords of a of length l(w) whose
    product is w, of prod_j r_j, r_j = y_{p_j(a_j)} - y_{p_j(a_j + 1)}
    (see _root_pairs)."""
    a, pairs = _root_pairs(u)
    roots = [s - t for s, t in pairs]
    return sum(
        (
            prod((roots[j] for j in subword), start=one())
            for subword in itertools.combinations(range(len(a)), w.length())
            if from_word([a[j] for j in subword], u.n) == w
        ),
        start=zero(),
    )


def _demazure(word: list[int], n: int) -> Permutation:
    """The 0-Hecke product of a word: a letter that is a right descent of
    the product so far leaves it unchanged."""
    v = identity(n)
    for a in word:
        if v(a) < v(a + 1):
            v = v.times_s(a)
    return v


def _graham_willems(u: Permutation) -> tuple[dict[Permutation, MultiPoly], MultiPoly]:
    """(values, D): D * G_w at x_i = -y_u(i) for every w <= u, by the
    K-theoretic localization formula (Graham, Duke 2002; Willems 2004), read
    off a reduced word a of u alone, and D = prod_j (1 - b y_{p_j(a_j)}).

    In this code's normalization G_w|_u = G_id * sum_J b^(|J| - l(w))
    prod_{j in J} r_j / (1 - b y_{p_j(a_j)}), J over the subwords of a whose
    0-Hecke product is w, with r_j and p_j as in _root_pairs and
    G_id = prod_{j<n} (1 - b y_j)^(n-j).  Clearing by D keeps it in Z[b][y]:
    each term is a factor r_j for j in J, and 1 - b y_{p_j(a_j)} for j not in J.
    """
    n = u.n
    a, pairs = _root_pairs(u)
    roots = [s - t for s, t in pairs]
    dens = [one() - beta() * s for s, _ in pairs]
    gid = prod(((one() - beta() * yvar(j)) ** (n - j) for j in range(1, n)), start=one())
    values: dict[Permutation, MultiPoly] = {}
    for inside in itertools.product((False, True), repeat=len(a)):
        w = _demazure([letter for letter, i in zip(a, inside) if i], n)
        factors = (r if i else d for r, d, i in zip(roots, dens, inside))
        term = beta() ** (sum(inside) - w.length()) * prod(factors, start=gid)
        values[w] = values.get(w, zero()) + term
    return values, prod(dens, start=one())


def _graham_willems_mismatches(table: Mapping[Permutation, MultiPoly], n: int, family: str = "G") -> list:
    """The (w, u) at which D * localize(table[w], u, -1) differs from the
    formula: G_w's value, or for family "H" the interval sum
    H_w = sum_{v >= w} b^(l(v) - l(w)) G_v of those values, the sum the
    inversion check tests."""
    out = []
    for u in all_perms(n):
        values, den = _graham_willems(u)
        if family == "H":
            values = {
                w: sum((beta() ** (v.length() - w.length()) * values.get(v, zero()) for v in bruhat_upper(w)),
                       start=zero())
                for w in all_perms(n)
            }
        out += [(w, u) for w in all_perms(n) if localize(table[w], u, -1) * den != values.get(w, zero())]
    return out


class TestLocalization:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("eps", [-1, 1])
    def test_localize_is_a_ring_homomorphism(self, n, eps, rng):
        points = all_perms(n)
        for _ in range(15):
            f, g = _random_xy_poly(rng, n, terms=6), _random_xy_poly(rng, n, terms=4)
            u = rng.choice(points)
            lf, lg = localize(f, u, eps), localize(g, u, eps)
            assert localize(f * g, u, eps) == lf * lg
            assert localize(f - g, u, eps) == lf - lg
            assert not lf.uses_kind("x")
        assert localize(const(3), points[0], eps) == const(3)
        # x_i goes to eps * y_u(i), y and b stay
        u = points[-1]
        assert localize(xvar(1) * yvar(2) * beta(), u, eps) == yvar(u(1)) * yvar(2) * beta() * eps

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4), eps=st.sampled_from([-1, 1]))
    def test_localize_matches_a_term_by_term_reference(self, data, n, eps):
        # terms in x, y, z, q and b, exponents up to 2^(FIELD_BITS - 1) - 1,
        # the largest localize takes; the x-degree of two x's may pass it,
        # since localizing drops the x-degree; the reference substitutes
        # eps * y_u(i) for x_i one term at a time in MultiPoly
        exponent = st.one_of(st.integers(1, 3), st.integers(1, (1 << FIELD_BITS - 1) - 1))
        others = [*(Var("y", j) for j in range(1, n + 1)), Var("z", 1), Var("z", 2), Var("q", 1), BETA]
        xs = st.dictionaries(st.sampled_from([Var("x", i) for i in range(1, n + 1)]), exponent, max_size=2)
        term = st.tuples(
            xs,
            st.dictionaries(st.sampled_from(others), exponent, max_size=3),
            st.integers(-5, 5).filter(bool),
        )
        f = MultiPoly.from_monomials([({**xs, **rest}, c) for xs, rest, c in data.draw(st.lists(term, max_size=6))])
        u = data.draw(st.sampled_from(all_perms(n)))
        expect = zero()
        for exps, c in f.monomials():
            value = const(c)
            for var, e in exps.items():
                value = value * (yvar(u(var.index)) * eps if var.kind == "x" else MultiPoly.variable(var)) ** e
            expect = expect + value
        assert localize(f, u, eps) == expect

    def test_localize_refuses_what_has_no_point(self):
        with pytest.raises(ValueError, match="past x2"):
            localize(xvar(3), identity(2), -1)
        # an exponent with its field's top bit, moved onto or added to a y
        # field, could carry into the next field
        top = 1 << FIELD_BITS - 1
        for f in (xvar(1) ** top, xvar(1) * yvar(2) ** top, beta() ** top * xvar(2)):
            with pytest.raises(ValueError, match=f"every exponent below 1 << {FIELD_BITS - 1}"):
                localize(f, identity(2), -1)
        with pytest.raises(ValueError, match="eps"):
            localize(xvar(1), identity(2), 0)

    def test_localize_drops_the_x_degree_before_it_looks_for_top_bits(self):
        # every exponent is the largest localize takes, while the x-degree
        # has its field's top bit; at the swap y1 gets x2's exponent on top
        # of its own and fills its field to FIELD_MASK - 1
        e = (1 << FIELD_BITS - 1) - 1
        f = xvar(1) ** e * xvar(2) ** e
        assert localize(f, identity(2), 1) == yvar(1) ** e * yvar(2) ** e
        assert localize(f * yvar(1) ** e, from_word([1], 2), -1) == yvar(1) ** (2 * e) * yvar(2) ** e

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("ideal", ["signed", "unsigned"])
    def test_membership_by_localization_is_a_zero_normal_form(self, n, ideal, rng):
        ctx = NormalFormContext(n, ideal)
        gens = ctx.original_generators()
        eps = EPS[ideal]

        def agree(f: MultiPoly) -> bool:
            member = ctx.reduce(f).is_zero()
            assert _vanishes_at_every_point(f, n, eps) == member
            return member

        for _ in range(6):
            f, g = _random_xy_poly(rng, n), _random_xy_poly(rng, n)
            gen = rng.choice(gens)
            assert agree(f + g * gen) == agree(f)
            member = dot((_random_xy_poly(rng, n, terms=3), h) for h in gens)
            assert agree(member)
            assert not agree(member + _random_monomial(rng, n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("ideal", ["signed", "unsigned"])
    def test_membership_of_the_check_differences(self, n, ideal):
        ctx = NormalFormContext(n, ideal)
        differences = [*_involution_differences(n).values(), *_pieri_differences(n).values()]
        if n == 4:
            differences = differences[::5]  # keep the reductions short
        for f in differences:
            assert _vanishes_at_every_point(f, n, EPS[ideal]) == ctx.reduce(f).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["G", "H", "S"])
    def test_members_vanish_off_their_bruhat_upper_set(self, n, family):
        table = family_table(n, family)
        for v in all_perms(n):
            for u in all_perms(n):
                assert localize(table[v], u, -1).is_zero() == (not bruhat_leq(v, u))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_schubert_localizations_follow_billeys_formula(self, n):
        # a formula that reads no tower and shares no code with localize
        table = family_table(n, "S")
        for w in all_perms(n):
            for u in all_perms(n):
                assert localize(table[w], u, -1) == _billey(w, u), (w, u)

    @pytest.mark.parametrize("kind", [PI_PLUS, PI_MINUS, PSI_PLUS, PSI_MINUS])
    def test_billeys_formula_catches_a_swapped_schubert_tower(self, kind, monkeypatch):
        # the formula reads no tower, so a wrong operator kind in the S tower
        # shows as a disagreement, not as a shared error
        seed, op_kind, alphabet = classical.TOWERS["S"]
        assert op_kind == DEL
        monkeypatch.setitem(classical.TOWERS, "S", (seed, kind, alphabet))
        monkeypatch.setattr(classical, "_TABLE_CACHE", {})
        table = family_table(3, "S")
        points = all_perms(3)
        assert any(localize(table[w], u, -1) != _billey(w, u) for w in points for u in points)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_grothendieck_localizations_follow_the_k_theoretic_formula(self, n):
        # like Billey's formula, it reads no tower and shares no code with localize
        assert _graham_willems_mismatches(family_table(n, "G"), n) == []

    @pytest.mark.parametrize("kind", [DEL, PI_MINUS, PSI_PLUS, PSI_MINUS])
    def test_k_theoretic_formula_catches_a_swapped_grothendieck_tower(self, kind, monkeypatch):
        seed, op_kind, alphabet = classical.TOWERS["G"]
        assert op_kind == PI_PLUS
        monkeypatch.setitem(classical.TOWERS, "G", (seed, kind, alphabet))
        monkeypatch.setattr(classical, "_TABLE_CACHE", {})
        assert _graham_willems_mismatches(family_table(3, "G"), 3) != []

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_h_localizations_follow_the_interval_sum_of_the_k_theoretic_formula(self, n):
        # H's oracle reads G's values off the formula, not the G or H tower
        assert _graham_willems_mismatches(family_table(n, "H"), n, "H") == []

    @pytest.mark.parametrize("kind", [DEL, PI_PLUS, PI_MINUS, PSI_MINUS])
    def test_k_theoretic_interval_sum_catches_a_swapped_h_tower(self, kind, monkeypatch):
        seed, op_kind, alphabet = classical.TOWERS["H"]
        assert op_kind == PSI_PLUS
        monkeypatch.setitem(classical.TOWERS, "H", (seed, kind, alphabet))
        monkeypatch.setattr(classical, "_TABLE_CACHE", {})
        assert _graham_willems_mismatches(family_table(3, "H"), 3, "H") != []

    @pytest.mark.parametrize("n", [3, 4])
    def test_each_check_localizes_at_each_point_once(self, n, monkeypatch):
        # every G (and H, omega(G)) member once per point and nothing else:
        # the fixed factors of both checks split into binomials with
        # cofactor 1, which are relabelled at each point, not localized
        # (both checks pass under the signed ideal), whatever ran before in
        # the process
        size = len(all_perms(n))
        expected = {"pieri_double": size * size, "involution": 2 * size * size}
        family_table(n, "H")
        calls = []
        at_point = classical._at_point

        def counted(*args):
            calls.append(args[1])
            return at_point(*args)

        monkeypatch.setattr(classical, "_at_point", counted)
        for order in (["pieri_double", "involution"], ["involution", "pieri_double"]):
            for check_id in order:
                calls.clear()
                assert verify(check_id, n).ok
                assert len(calls) == expected[check_id], (order, check_id)


@pytest.mark.parametrize(
    "table, ws, perturb",
    [
        ("G", [(1, 2, 3)], lambda p, t: p * (one() + beta() * xvar(1))),
        ("G", [(1, 2, 3)], lambda p, t: p * (xvar(1) * yvar(2) + one())),
        ("G", [(2, 1, 3)], lambda p, t: p * (one() + beta() * xvar(2))),
        ("G", [(2, 3, 1)], lambda p, t: p * (xvar(2) + one())),
        # G_{w0} vanishes at every signed point but w0, and G_(2,3,1) is
        # neither G_id nor a G_{s_k}: the signed ideal fails at w0 alone
        ("G", [(2, 3, 1)], lambda p, t: p + t[longest(3)]),
        # binomials the cancelled factors carry or share, which must not
        # cancel a failure away
        ("G", [(2, 1, 3)], lambda p, t: p * (one() - beta() * yvar(1))),
        ("G", [(1, 2, 3)], lambda p, t: p * (one() + beta() * yvar(2))),
        ("H", [(1, 2, 3)], lambda p, t: p * (one() + beta() * xvar(1))),
        ("H", [(1, 2, 3)], lambda p, t: p * (one() - beta() * yvar(3))),
        ("H", [(3, 2, 1)], lambda p, t: p * (one() - beta() * yvar(1))),
        # (1, 3, 2), k = 1 fails from the third point on, and k = 2 already
        # at the first: a scan that returned its first hit would report k = 2
        ("G", [(1, 3, 2), (2, 1, 3)], lambda p, t: p + xvar(1) - yvar(1)),
        # omega(G_id) and omega(G_(1,3,2)) made 0 at the first unsigned point:
        # v = (1, 3, 2) holds there and fails later, v = (2, 1, 3) fails there
        ("G", [(1, 2, 3), (1, 3, 2)], lambda p, t: p - omega(localize(omega(p, 3), identity(3), 1), 3)),
        # G_(1,3,2) = G_{s_2} made 0: it is 0 at every point while its Monk
        # sum for k = 1 is not, so (1, 3, 2), k = 1 fails only where G_w is
        # 0; a scan that skipped every case with G_w 0 would report k = 2 of
        # (2, 1, 3)
        ("G", [(1, 3, 2)], lambda p, t: zero()),
    ],
    ids=[
        "G_id-binomial",
        "G_id-times",
        "G_s1-binomial",
        "G_231-times",
        "G_231-plus-G_w0",
        "G_s1-y1-binomial",
        "G_id-y2-binomial",
        "H_id-x1-binomial",
        "H_id-y3-binomial",
        "H_w0-y1-binomial",
        "G_132-and-G_213-plus-x1-y1",
        "G_id-and-G_132-zero-at-the-first-unsigned-point",
        "G_132-zero",
    ],
)
def test_forced_failures_print_the_reduce_payloads(table, ws, perturb, monkeypatch):
    n = 3
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    members = dict(family_table(n, table))
    for w in map(Permutation, ws):
        members[w] = perturb(members[w], members)
    classical._TABLE_CACHE[n, table] = MappingProxyType(members)
    for check_id, oracle in (("involution", _oracle_involution), ("pieri_double", _oracle_pieri_double)):
        rep = verify(check_id, n)
        ok, counterexample, detail = oracle(n)
        # pieri_double reads no H
        assert ok == rep.ok == (check_id == "pieri_double" and table == "H"), check_id
        assert json.dumps(rep.counterexample) == json.dumps(counterexample), check_id
        assert rep.detail == detail, check_id


@pytest.mark.parametrize(
    "check_id, table, w, perturb, counterexample",
    [
        ("basis", "Gx", (2, 1, 3), lambda p, t: p + xvar(1) ** 3,
         '{"w": [2, 1, 3], "reason": "support outside staircase"}'),
        ("basis", "Gx", (1, 2, 3), lambda p, t: p * (one() + beta()),
         '{"det": [{"coef": "1", "monomial": {}}, {"coef": "1", "monomial": {"b": 1}}]}'),
        ("free_module", "Sx", (1, 3, 2), lambda p, t: p + xvar(3),
         '{"w": [1, 3, 2], "reason": "support outside staircase"}'),
        # two equal rows
        ("free_module", "Sx", (2, 1, 3), lambda p, t: t[identity(3)],
         '{"reason": "determinant vanished at y=0"}'),
    ],
    ids=["basis-outside", "basis-det", "free_module-outside", "free_module-det"],
)
def test_forced_staircase_failures_print_their_payloads(check_id, table, w, perturb, counterexample, monkeypatch):
    # no operator-kind swap makes basis or free_module fail, so their two
    # failure paths are pinned on a perturbed table
    n = 3
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    members = dict(family_table(n, table))
    members[Permutation(w)] = perturb(members[Permutation(w)], members)
    classical._TABLE_CACHE[n, table] = MappingProxyType(members)
    rep = verify(check_id, n)
    assert rep.status == "fail"
    assert json.dumps(rep.counterexample) == counterexample
    assert rep.detail is None


def _binomials(n: int) -> list[MultiPoly]:
    """1 + c b v for v in x_1..x_n, y_1..y_n and c = +-1."""
    variables = [*map(xvar, range(1, n + 1)), *map(yvar, range(1, n + 1))]
    return [one() + beta() * v * c for v in variables for c in (1, -1)]


def _divides(d: MultiPoly, f: MultiPoly) -> bool:
    try:
        divexact(f, d)
    except ArithmeticError:
        return False
    return True


def _split_product(binomials: list[tuple[Var, int]]) -> MultiPoly:
    """The product of the binomials 1 + c b v of a _binomial_split."""
    return prod((one() + beta() * MultiPoly.variable(v) * c for v, c in binomials), start=one())


@pytest.mark.parametrize("n", [2, 3])
def test_binomial_split_divides_out_every_binomial(n, rng):
    binomials = _binomials(n)

    def nonzero_poly() -> MultiPoly:
        while not (f := _random_xy_poly(rng, n, terms=3)):
            pass
        return f

    def binomial_product(count: int) -> MultiPoly:
        return prod((rng.choice(binomials) ** rng.randint(1, 3) for _ in range(count)), start=one())

    for _ in range(10):
        factors = binomial_product(3)
        f = nonzero_poly() * factors
        split, cofactor = _binomial_split(f, n)
        assert cofactor * _split_product(split) == f
        assert _divides(factors, _split_product(split))
        assert not [d for d in binomials if _divides(d, cofactor)]


def _binomial_split_untrimmed(f: MultiPoly, n: int) -> tuple[list[tuple[Var, int]], MultiPoly]:
    """_binomial_split trying every binomial, whatever f holds."""
    split = []
    if f:
        for v in [*(Var("x", i) for i in range(1, n + 1)), *(Var("y", i) for i in range(1, n + 1))]:
            for c in (1, -1):
                d = one() + beta() * MultiPoly.variable(v) * c
                while _divides(d, f):
                    f = divexact(f, d)
                    split.append((v, c))
    return split, f


@pytest.mark.parametrize("n", [2, 3])
def test_binomial_split_matches_trying_every_binomial(n, rng):
    # f lacks b, or a variable the binomials hold, so _binomial_split
    # tries fewer binomials than the untrimmed loop
    binomials = _binomials(n)
    variables = [*(Var("x", i) for i in range(1, n + 1)), *(Var("y", i) for i in range(1, n + 1))]

    def binomial_product(count: int) -> MultiPoly:
        return prod((rng.choice(binomials) ** rng.randint(1, 2) for _ in range(count)), start=one())

    for trial in range(12):
        f = _random_xy_poly(rng, n, terms=3) * binomial_product(3)
        if trial % 3:
            f = f.specialize({rng.choice(variables): 0})
        else:
            f = f.set_zero("b")
        assert _binomial_split(f, n) == _binomial_split_untrimmed(f, n)
    # x1 occurs to the powers 0, 1 in d y1 and 2, 4 in d rest, each time
    # with b: the OR of the two sets of exponents shares no bit
    d = one() + beta() * xvar(1)
    rest = xvar(1) ** 2 - beta() * xvar(1) ** 3
    x1 = Var("x", 1)
    for f, split in ((d * yvar(1), ([(x1, 1)], yvar(1))), (d * rest, ([(x1, 1), (x1, -1)], xvar(1) ** 2))):
        assert _binomial_split(f, n) == _binomial_split_untrimmed(f, n) == split


def test_binomial_split_returns_zero_unchanged(monkeypatch):
    calls = 0
    divide = classical.divexact

    def counted(f, g):
        nonlocal calls
        calls += 1
        assert calls < 1000, "_binomial_split kept dividing"
        return divide(f, g)

    monkeypatch.setattr(classical, "divexact", counted)
    assert _binomial_split(zero(), 3) == ([], zero())
    assert calls == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_fixed_sides_split_into_binomials_with_cofactor_1(n):
    # G_id, b G_{s_k} + G_id, H_id and omega(G_id) each split into l(w0)
    # binomials, so neither check multiplies by a fixed factor
    gt, ht, e = family_table(n, "G"), family_table(n, "H"), identity(n)
    fixed = [gt[e], ht[e], omega(gt[e], n), *(beta() * gt[e.times_s(k)] + gt[e] for k in range(1, n))]
    for f in fixed:
        split, cofactor = _binomial_split(f, n)
        assert cofactor == 1
        assert len(split) == longest(n).length()


@pytest.mark.parametrize("check_id", ["involution", "pieri_double"])
def test_passing_membership_checks_build_no_normal_form_context(check_id, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a passing membership check reduced something")

    monkeypatch.setattr(classical, "NormalFormContext", refuse)
    assert verify(check_id, 4).ok


def test_free_module_builds_no_normal_form_context(monkeypatch):
    # every S_w(x) is already its own normal form mod the unsigned ideal
    def refuse(*args, **kwargs):
        raise AssertionError("free_module reduced something")

    monkeypatch.setattr(classical, "NormalFormContext", refuse)
    assert verify("free_module", 3).ok
    assert verify("free_module", 4, force=True).ok


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: top_class(0), "rank must be at least 1, got 0", id="top_class-0"),
        pytest.param(lambda: top_class(-2), "rank must be at least 1, got -2", id="top_class-neg2"),
        pytest.param(
            lambda: expand_dual_basis(xvar(1), 0), "rank must be at least 1, got 0", id="expand_dual_basis-rank0"
        ),
        pytest.param(lambda: expand_dual_basis(xvar(3), 2), "an x past x2", id="expand_dual_basis-x3-at-rank2"),
        pytest.param(lambda: pairing0(one(), one(), 0), "rank must be at least 1, got 0", id="pairing0-rank0"),
        pytest.param(lambda: quantum_top(0), "rank must be at least 1, got 0", id="quantum_top-0"),
        pytest.param(
            lambda: quantum_top(-2, beta_form=True), "rank must be at least 1, got -2", id="quantum_top-bold-neg2"
        ),
        pytest.param(lambda: apply_X(1, one(), 0), "rank must be at least 1, got 0", id="apply_X-rank0"),
        pytest.param(lambda: eval_at_X(const(3), 0), "rank must be at least 1, got 0", id="eval_at_X-rank0"),
        pytest.param(lambda: quantize(const(3), 0), "rank must be at least 1, got 0", id="quantize-rank0"),
        pytest.param(lambda: quantize(one() + beta(), -1), "rank must be at least 1, got -1", id="quantize-neg1"),
        # coefficients and permutation entries are ints: nothing truncates
        # a float, and no float or bool reaches repr or a counterexample
        pytest.param(lambda: MultiPoly.constant(1.5), r"a coefficient is an int, not 1\.5", id="constant-float"),
        pytest.param(
            lambda: MultiPoly.from_monomials([({Var("x", 1): 1}, 1), ({}, 2.7)]),
            r"a coefficient is an int, not 2\.7",
            id="from_monomials-float",
        ),
        pytest.param(
            lambda: grothendieck_double(identity(2)).specialize({BETA: 0.5}),
            r"specialize substitutes ints, not 0\.5",
            id="specialize-float",
        ),
        pytest.param(
            lambda: Permutation([2.0, 1.0]), r"not a permutation of 1\.\.2: \(2\.0, 1\.0\)", id="Permutation-floats"
        ),
        pytest.param(lambda: Permutation([True, 2]), r"not a permutation of 1\.\.2: \(True, 2\)", id="Permutation-bool"),
        # so are letters, variable indices and exponents: a bool is not
        # taken as 0 or 1, and a float is refused before it reaches packing
        pytest.param(lambda: from_word([1, True], 3), "a letter is an int, not True", id="from_word-bool"),
        pytest.param(lambda: from_word([1.5], 3), r"a letter is an int, not 1\.5", id="from_word-float"),
        pytest.param(lambda: Var("x", True), "a variable index is an int, not True", id="Var-bool"),
        pytest.param(lambda: Var("x", 2.0), r"a variable index is an int, not 2\.0", id="Var-float"),
        pytest.param(lambda: MultiPoly({Var("x", 1): True}), "an exponent is an int, not True", id="MultiPoly-bool"),
        pytest.param(lambda: MultiPoly({Var("x", 1): 2.0}), r"an exponent is an int, not 2\.0", id="MultiPoly-float"),
        pytest.param(
            lambda: MultiPoly.from_monomials([({Var("y", 2): False}, 1)]),
            "an exponent is an int, not False",
            id="from_monomials-bool-exponent",
        ),
        pytest.param(lambda: xvar(1) ** True, "exponent must be a nonnegative int", id="pow-bool"),
    ]
    + [
        pytest.param(
            lambda k=k: monk_expansion(identity(3), k), rf"k must lie in 1\.\.2, got {k}", id=f"monk_expansion-k{k}"
        )
        for k in (0, 3, 5, -1)
    ],
)
def test_inputs_without_an_answer_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# every rank parameter of the public entries, monk_expansion's k,
# transposition's entries and rank, embed's rank and localize's eps
RANK_PARAMETERS = {
    "all_perms": all_perms,
    "by_length": by_length,
    "identity": identity,
    "longest": longest,
    "from_word": lambda n: from_word([], n),
    "top_class": top_class,
    "NormalFormContext": NormalFormContext,
    "expand_dual_basis": lambda n: expand_dual_basis(xvar(1), n),
    "pairing0": lambda n: pairing0(xvar(1), one(), n),
    "quantum_top": quantum_top,
    "apply_X": lambda n: apply_X(1, one(), n),
    "eval_at_X": lambda n: eval_at_X(xvar(1), n),
    "quantize": lambda n: quantize(xvar(1), n),
    "verify": lambda n: verify("closed_forms", n),
    "monk_expansion-k": lambda k: monk_expansion(identity(3), k),
    "transposition-i": lambda i: transposition(i, 2, 3),
    "transposition-j": lambda j: transposition(1, j, 3),
    "transposition-n": lambda n: transposition(1, 2, n),
    "embed": lambda m: identity(3).embed(m),
    "localize-eps": lambda eps: localize(xvar(1), identity(2), eps),
}


@pytest.mark.parametrize("entry", sorted(RANK_PARAMETERS))
@settings(max_examples=15, deadline=None)
@given(value=st.one_of(st.booleans(), st.floats(), st.integers(-2, 9).map(float), st.text(max_size=3)))
@example(value=True)
@example(value=-1.0)
@example(value=1.0)
@example(value=2.0)
@example(value=3.0)
@example(value=4.0)
@example(value="3")
def test_a_rank_that_is_not_an_int_is_refused(entry, value):
    # a bool is not taken as 0 or 1 (transposition(True, 2, 3) is not s_1,
    # nor localize's eps True the point x_i = y_u(i)), and a float such as
    # 3.0 or -1.0 or a str is refused before it reaches range() or a
    # comparison
    with pytest.raises(ValueError):
        RANK_PARAMETERS[entry](value)


# the beta_form flag of the quantum seeds: a bool, and no value that
# passes for one by its truth value
FLAG_PARAMETERS = {
    "quantum_top-beta_form": lambda flag: quantum_top(2, flag),
    "gk_determinant-beta_form": lambda flag: gk_determinant(1, Var("y", 1), flag),
}


@pytest.mark.parametrize("entry", sorted(FLAG_PARAMETERS))
@settings(max_examples=15, deadline=None)
@given(value=st.one_of(st.integers(), st.floats(), st.text(max_size=3), st.none()))
@example(value=1)
@example(value=0)
@example(value=0.0)
@example(value="no")
def test_a_flag_that_is_not_a_bool_is_refused(entry, value):
    # True and False are taken; 1 is refused although True's seed, which
    # shares its memo key, is cached by then
    call = FLAG_PARAMETERS[entry]
    assert call(True) != call(False)
    with pytest.raises(ValueError, match="beta_form is a bool"):
        call(value)


# A valid call, as keyword arguments, of every entry of grothpoly.__all__
# and every MultiPoly constructor that takes an int: a parameter annotated
# int, an Iterable[int] or a Mapping[..., int].  The test below finds
# those entries by their signatures, so a new one needs a row here.
VALID_INT_CALLS = {
    "MultiPoly": {"terms": {Var("x", 1): 2}},
    "MultiPoly.constant": {"c": 3},
    "MultiPoly.from_monomials": {"items": [({Var("x", 1): 2}, 3)]},
    "NormalFormContext": {"n": 2},
    "Permutation": {"oneline": [2, 1, 3]},
    "Var": {"kind": "x", "index": 1},
    "all_perms": {"n": 2},
    "expand_dual_basis": {"f": xvar(1), "n": 2},
    "from_word": {"word": [1], "n": 2},
    "identity": {"n": 2},
    "localize": {"f": xvar(1), "u": identity(2), "eps": -1},
    "longest": {"n": 2},
    "monk_expansion": {"w": identity(3), "k": 1},
    "pairing0": {"f": xvar(1), "g": one(), "n": 2},
    "quantize": {"f": xvar(1), "n": 2},
    "qvar": {"i": 1},
    "top_class": {"n": 2},
    "verify": {"check_id": "closed_forms", "n": 2, "seed": 1},
    "xvar": {"i": 1},
    "yvar": {"i": 1},
    "zvar": {"i": 1},
}
MULTIPOLY_CONSTRUCTORS = ("MultiPoly", "MultiPoly.constant", "MultiPoly.from_monomials", "MultiPoly.variable")


def _entry(name: str):
    obj = grothpoly
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


def _int_parameters(name: str) -> list[str]:
    """The parameters of an entry whose annotation names int."""
    return [
        p.name
        for p in inspect.signature(_entry(name)).parameters.values()
        if re.search(r"\bint\b", str(p.annotation))
    ]


def _int_slots(value):
    """(path, put) for each int inside a valid argument: put(bad) is a copy
    of the argument with that int replaced by bad.  Lists, tuples and dict
    values are entered; a Var or a Permutation is not."""
    if type(value) is int:
        yield "", lambda bad: bad
    elif type(value) in (list, tuple):
        for i, item in enumerate(value):
            for path, put in _int_slots(item):
                yield f"[{i}]{path}", lambda bad, i=i, put=put: type(value)((*value[:i], put(bad), *value[i + 1 :]))
    elif type(value) is dict:
        for key, item in value.items():
            for path, put in _int_slots(item):
                yield f"[{key}]{path}", lambda bad, key=key, put=put: {**value, key: put(bad)}


def _int_cases():
    for name, kwargs in sorted(VALID_INT_CALLS.items()):
        for param in _int_parameters(name):
            for path, put in _int_slots(kwargs[param]):
                for bad in (True, 1.5, "1"):
                    yield pytest.param(name, param, put, bad, id=f"{name}-{param}{path}-{bad!r}")


def test_every_entry_taking_an_int_has_a_valid_call():
    entries = [*grothpoly.__all__, *MULTIPOLY_CONSTRUCTORS]
    taking_ints = {name for name in entries if callable(_entry(name)) and _int_parameters(name)}
    assert taking_ints == set(VALID_INT_CALLS)
    for name, kwargs in VALID_INT_CALLS.items():
        _entry(name)(**kwargs)
        assert all(any(_int_slots(kwargs[p])) for p in _int_parameters(name)), name


@pytest.mark.parametrize("name, param, put, bad", _int_cases())
def test_every_int_parameter_refuses_a_bool_a_float_and_a_str(name, param, put, bad):
    kwargs = {**VALID_INT_CALLS[name], param: put(bad)}
    with pytest.raises(ValueError):
        _entry(name)(**kwargs)


@pytest.mark.parametrize(
    "check_id, oracle",
    [
        ("involution", _oracle_involution),
        ("pieri_double", _oracle_pieri_double),
        ("cauchy", _oracle_cauchy),
        ("quantum_cauchy", _oracle_quantum_cauchy),
        ("interpolation", _oracle_interpolation),
    ],
)
def test_passing_checks_match_their_oracles(check_id, oracle):
    for n in (2, 3, 4) if check_id == "cauchy" else (2, 3):
        rep = verify(check_id, n)
        assert (rep.ok, rep.counterexample, rep.detail) == oracle(n)


@pytest.mark.parametrize("seed", [1, 7])
def test_interpolation_matches_its_oracle_at_other_seeds(seed):
    for n in (2, 3):
        rep = verify("interpolation", n, seed=seed)
        assert (rep.ok, rep.counterexample, rep.detail) == _oracle_interpolation(n, seed)


@pytest.mark.parametrize("n, samples", [(3, 50), (4, 12)])
def test_interpolation_on_the_real_tables_draws_no_trial(n, samples, monkeypatch):
    # every R_m is x^m G_id(x, -y), so every trial would pass by linearity
    # and none is drawn; the detail still names the samples a run stands for
    draws = _calls(monkeypatch, "_random_quotient_poly")
    rep = verify("interpolation", n)
    assert (rep.ok, rep.detail) == (True, {"samples": samples})
    assert draws == []


@pytest.mark.parametrize(
    "table, w, perturb, fails",
    [
        ("H", (2, 1, 3), lambda p: p * (one() + beta() * yvar(2)), {"cauchy", "interpolation"}),
        # y1^4 lifts H's y1-degree past every member's, and so the H-side
        # clearing power the failure payload is built with
        ("H", (1, 3, 2), lambda p: p + yvar(1) ** 4, {"cauchy", "interpolation"}),
        (
            "G",
            (1, 2, 3),
            lambda p: p * (one() - beta() * xvar(1)),
            {"cauchy", "quantum_cauchy", "interpolation"},
        ),
        ("G", (3, 1, 2), lambda p: p + yvar(2) ** 3 * xvar(1), {"cauchy", "quantum_cauchy"}),
        ("qH", (1, 2, 3), lambda p: p * (one() + beta() * xvar(2)), {"quantum_cauchy"}),
        ("qH", (2, 3, 1), lambda p: p + yvar(1) ** 4, {"quantum_cauchy"}),
    ],
    ids=[
        "H_213-binomial",
        "H_132-plus-y1^4",
        "G_id-binomial",
        "G_312-plus-y2^3x1",
        "qH_id-binomial",
        "qH_231-plus-y1^4",
    ],
)
def test_forced_cauchy_and_interpolation_failures_print_the_oracle_payloads(
    table, w, perturb, fails, monkeypatch
):
    n = 3
    monkeypatch.setattr(classical, "_TABLE_CACHE", {})
    members = dict(family_table(n, table))
    members[Permutation(w)] = perturb(members[Permutation(w)])
    classical._TABLE_CACHE[n, table] = MappingProxyType(members)
    failed = set()
    for check_id, oracle in (
        ("cauchy", _oracle_cauchy),
        ("quantum_cauchy", _oracle_quantum_cauchy),
        ("interpolation", _oracle_interpolation),
    ):
        rep = verify(check_id, n)
        ok, counterexample, detail = oracle(n)
        assert rep.ok == ok, check_id
        assert json.dumps(rep.counterexample) == json.dumps(counterexample), check_id
        assert rep.detail == detail, check_id
        if not ok:
            failed.add(check_id)
    assert failed == fails


def _random_mixed_poly(rng: random.Random, top: int) -> MultiPoly:
    """A few terms in x and y up to index top, z, b and q, so a relabel
    has fixed variables of every kind to leave alone."""
    pool = [Var(k, i) for k in "xyz" for i in range(1, top + 1)] + [BETA, Var("q", 1), Var("q", 2)]
    terms = []
    for _ in range(rng.randint(1, 8)):
        exps = {v: rng.randint(1, 3) for v in rng.sample(pool, rng.randint(0, 5))}
        terms.append((exps, rng.randint(-4, 4)))
    return MultiPoly.from_monomials(terms)


class TestRelabelMoves:
    """omega, permute_y and the swap maps relabel through move lists built
    once; each must equal relabel with its explicit mapping."""

    def test_omega_matches_relabel_up_to_n_max(self):
        rng = random.Random(7)
        for n in range(1, N_MAX + 1):
            mapping = {Var(k, i): Var(k, n + 1 - i) for k in "xy" for i in range(1, n + 1)}
            for _ in range(20):
                f = _random_mixed_poly(rng, N_MAX)
                assert omega(f, n) == f.relabel(mapping)

    def test_permute_y_matches_relabel_for_every_w(self):
        rng = random.Random(11)
        for n in range(1, 6):
            for w in all_perms(n):
                mapping = {Var("y", i): Var("y", w(i)) for i in range(1, n + 1)}
                f = _random_mixed_poly(rng, 6)
                assert permute_y(f, w) == f.relabel(mapping)

    def test_swap_moves_match_relabel(self):
        rng = random.Random(13)
        maps = [(SWAP_XY, SWAP_XY_MOVES), (_SWAP_YZ, _SWAP_YZ_MOVES), (_RECAST_YZ, _RECAST_YZ_MOVES)]
        for _ in range(50):
            f = _random_mixed_poly(rng, N_MAX)
            for mapping, moves in maps:
                assert f._moved(moves) == f.relabel(mapping)

    def test_moved_refuses_an_x_degree_past_the_field(self):
        # x-degree FIELD_MASK + 1 is refused, FIELD_MASK is the largest kept
        high = FIELD_MASK // 2 + 1
        with pytest.raises(ValueError, match="would pass"):
            (yvar(1) ** high * yvar(2) ** (FIELD_MASK - high + 1))._moved(SWAP_XY_MOVES)
        moved = (yvar(1) ** high * yvar(2) ** (FIELD_MASK - high))._moved(SWAP_XY_MOVES)
        assert moved == xvar(1) ** high * xvar(2) ** (FIELD_MASK - high)
        assert moved.degree("x") == FIELD_MASK
