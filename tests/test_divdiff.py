"""Operator algebra for divided differences and their isobaric variants:
nilpotence, braid moves, Leibniz rules, and Moebius inversion between the
two triangular operator families."""

from __future__ import annotations

import random

import pytest

from grothpoly._packing import BETA, FIELD_MASK, Var
from grothpoly.classical import divexact
from grothpoly.divdiff import (
    DEL,
    PI_MINUS,
    PI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    apply_op,
    apply_perm,
    apply_word,
)
from grothpoly.perms import all_perms, bruhat_lower, from_word, reduced_words
from grothpoly.poly import MultiPoly, beta, one, xvar, yvar, zero

ALL_KINDS = (DEL, PI_PLUS, PI_MINUS, PSI_PLUS, PSI_MINUS)


def s_i(i: int, f: MultiPoly, alphabet: str = "x") -> MultiPoly:
    """s_i f: the i-th and (i+1)-st variables of one alphabet exchanged."""
    vi, vj = Var(alphabet, i), Var(alphabet, i + 1)
    return f.relabel({vi: vj, vj: vi})


def random_poly(rng: random.Random, n: int = 4, terms: int = 6) -> MultiPoly:
    items = []
    for _ in range(terms):
        exps = {}
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(("x", "x", "y", "b"))
            idx = 0 if kind == "b" else rng.randint(1, n)
            v = Var(kind, idx)
            exps[v] = exps.get(v, 0) + rng.randint(1, 2)
        items.append((exps, rng.randint(-5, 5)))
    return MultiPoly.from_monomials(items)


class TestSingleOperators:
    def test_divdiff_exactness(self, rng):
        # del_i f times (x_i - x_{i+1}) recovers f - s_i f, which also
        # certifies that the division in apply_op was exact
        for _ in range(50):
            f = random_poly(rng)
            i = rng.randint(1, 3)
            lhs = apply_op(DEL, i, f) * (xvar(i) - xvar(i + 1))
            assert lhs == f - s_i(i, f)

    def test_divdiff_kills_symmetric(self, rng):
        for _ in range(30):
            f = random_poly(rng)
            i = rng.randint(1, 3)
            sym = f * s_i(i, f)
            assert apply_op(DEL, i, sym) == zero()

    def test_nilpotence(self, rng):
        for _ in range(60):
            f = random_poly(rng)
            i = rng.randint(1, 3)
            assert apply_op(DEL, i, apply_op(DEL, i, f)) == zero()

    def test_isobaric_squares(self, rng):
        # pi+ squares to -beta pi+, pi- squares to +beta pi-
        for _ in range(40):
            f = random_poly(rng)
            i = rng.randint(1, 3)
            plus = apply_op(PI_PLUS, i, f)
            minus = apply_op(PI_MINUS, i, f)
            assert apply_op(PI_PLUS, i, plus) == -(beta() * plus)
            assert apply_op(PI_MINUS, i, minus) == beta() * minus

    def test_psi_squares(self, rng):
        # psi+ = pi+ + beta squares to +beta psi+, psi- = pi- - beta to -beta psi-
        for _ in range(40):
            f = random_poly(rng)
            i = rng.randint(1, 3)
            plus = apply_op(PSI_PLUS, i, f)
            minus = apply_op(PSI_MINUS, i, f)
            assert plus == apply_op(PI_PLUS, i, f) + beta() * f
            assert minus == apply_op(PI_MINUS, i, f) - beta() * f
            assert apply_op(PSI_PLUS, i, plus) == beta() * plus
            assert apply_op(PSI_MINUS, i, minus) == -(beta() * minus)

    def test_isobaric_on_invariants(self, rng):
        # an s_i-invariant g is an eigenvector: pi+ g = -beta g and
        # pi- g = +beta g (consistent with the square laws above)
        for _ in range(20):
            f = random_poly(rng)
            i = rng.randint(1, 3)
            g = f * s_i(i, f)
            assert apply_op(PI_PLUS, i, g) == -(beta() * g)
            assert apply_op(PI_MINUS, i, g) == beta() * g

    def test_leibniz_both_forms(self, rng):
        for _ in range(40):
            f = random_poly(rng, terms=4)
            g = random_poly(rng, terms=4)
            i = rng.randint(1, 3)
            d = apply_op(DEL, i, f * g)
            assert d == apply_op(DEL, i, f) * g + s_i(i, f) * apply_op(DEL, i, g)
            assert d == f * apply_op(DEL, i, g) + apply_op(DEL, i, f) * s_i(i, g)

    def test_other_alphabet(self, rng):
        for _ in range(20):
            f = random_poly(rng)
            i = rng.randint(1, 3)
            lhs = apply_op(DEL, i, f, "y") * (yvar(i) - yvar(i + 1))
            assert lhs == f - s_i(i, f, "y")

    def test_pi_values_on_constants(self):
        # the two isobaric flavours disagree already on 1, by sign
        assert apply_op(PI_PLUS, 1, one()) == -beta()
        assert apply_op(PI_MINUS, 1, one()) == beta()

    def test_b_shift_past_the_field_is_refused(self):
        # b^FIELD_MASK times b used to carry into z1
        top = beta() ** FIELD_MASK
        refused = f"b would push an exponent past {FIELD_MASK}"
        with pytest.raises(ValueError, match=refused):
            apply_op(PSI_PLUS, 1, top * xvar(1))
        with pytest.raises(ValueError, match=refused):
            apply_op(PSI_MINUS, 1, top * xvar(1))
        with pytest.raises(ValueError, match=refused):
            apply_op(PI_PLUS, 1, top)
        # refused even where the term's staircase is empty
        with pytest.raises(ValueError, match=refused):
            apply_op(PSI_PLUS, 1, top)
        assert apply_op(DEL, 1, top * xvar(1)) == top
        # one b less is the largest power a deformed kind takes
        below = beta() ** (FIELD_MASK - 1)
        assert apply_op(PSI_PLUS, 1, below * xvar(1)).max_exponent(BETA) == FIELD_MASK
        assert apply_op(PI_PLUS, 1, below) == -top

    @pytest.mark.parametrize("alphabet", ["x", "y"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_staircases_of_every_length_match_a_term_by_term_reference(self, kind, alphabet, rng):
        # terms v_i^a v_j^e r with |a - e| = 0, 1, 2 and 3, the one-step
        # staircases among them written without a loop; the staircases of
        # (a, e) and (e, a) on one r land on the same keys
        s, t = {DEL: (0, 0), PI_PLUS: (1, 0), PI_MINUS: (-1, 0), PSI_PLUS: (1, 1), PSI_MINUS: (-1, -1)}[kind]
        i = 2
        vi, vj = Var(alphabet, i), Var(alphabet, i + 1)
        other = "y" if alphabet == "x" else "x"
        rests = [{}, {BETA: 1}, {Var(alphabet, 1): 2}, {Var(other, 3): 1, BETA: 2}]
        items = []
        for a in range(5):
            for e in range(5):
                if abs(a - e) <= 3:
                    items += [({vi: a, vj: e, **r}, rng.choice((-2, -1, 1, 3))) for r in rests]
        f = MultiPoly.from_monomials(items)
        assert {abs(exps.get(vi, 0) - exps.get(vj, 0)) for exps, _ in f.monomials()} == {0, 1, 2, 3}
        vi_p, vj_p = MultiPoly.variable(vi), MultiPoly.variable(vj)

        def reference(term: MultiPoly) -> MultiPoly:
            h = (one() + beta() * vj_p * s) * term
            return divexact(h - s_i(i, h, alphabet), vi_p - vj_p) + beta() * term * t

        # one term at a time, so no cancellation hides a wrong staircase
        terms = [MultiPoly.from_monomials([(exps, c)]) for exps, c in f.monomials()]
        for term in terms:
            assert apply_op(kind, i, term, alphabet) == reference(term)
        assert apply_op(kind, i, f, alphabet) == sum(map(reference, terms), zero())

    def test_top_exponent_of_v_next_is_accepted(self):
        # pi+_1 y2^n = -sum_{p<n} y1^p y2^(n-1-p) - b sum_{p<=n} y1^p y2^(n-p):
        # v_{i+1} f is never formed, so no exponent passes the input's
        n = FIELD_MASK
        g = apply_op(PI_PLUS, 1, yvar(2) ** n, "y")
        assert len(g) == 2 * n + 1
        assert set(g._t.values()) == {-1}
        for top in (beta() * yvar(1) ** n, beta() * yvar(2) ** n, yvar(2) ** (n - 1)):
            assert len(g + top) == 2 * n


class TestRelations:
    def test_braid(self, rng):
        for kind in ALL_KINDS:
            for _ in range(25):
                f = random_poly(rng)
                a = apply_word(kind, (1, 2, 1), f)
                b = apply_word(kind, (2, 1, 2), f)
                assert a == b

    def test_distant_commutation(self, rng):
        for kind in ALL_KINDS:
            for _ in range(25):
                f = random_poly(rng)
                a = apply_word(kind, (1, 3), f)
                b = apply_word(kind, (3, 1), f)
                assert a == b

    def test_word_choice_independence(self, rng):
        # apply_perm may pick any reduced word; all choices must agree
        for kind in ALL_KINDS:
            for w in all_perms(3):
                f = random_poly(rng, n=3)
                vals = {
                    apply_word(kind, word, f).dumps()
                    for word in reduced_words(w)
                }
                assert len(vals) <= 1 or w.length() == 0
                if vals:
                    assert apply_perm(kind, w, f).dumps() in vals

    def test_apply_word_is_rightmost_first(self, rng):
        f = random_poly(rng)
        assert apply_word(DEL, (1, 2), f) == apply_op(DEL, 1, apply_op(DEL, 2, f))

    def test_apply_op_dispatch(self, rng):
        # every deformed kind against its definition from del and ring
        # operations, in both alphabets the towers act on
        for alphabet, var in (("x", xvar), ("y", yvar)):
            for _ in range(20):
                f = random_poly(rng)
                i = rng.randint(1, 3)
                d = apply_op(DEL, i, f, alphabet)
                shifted = beta() * apply_op(DEL, i, f * var(i + 1), alphabet)
                assert apply_op(PI_PLUS, i, f, alphabet) == d + shifted
                assert apply_op(PI_MINUS, i, f, alphabet) == d - shifted
                assert apply_op(PSI_PLUS, i, f, alphabet) == d + shifted + beta() * f
                assert apply_op(PSI_MINUS, i, f, alphabet) == d - shifted - beta() * f

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError):
            apply_op("pi", 1, one())


class TestIntervalSums:
    def test_psi_on_one(self):
        # the interval sum at a simple reflection annihilates constants,
        # unlike the sign-flipped isobaric operator which scales them
        s1 = from_word((1,), 3)
        assert apply_perm(PSI_PLUS, s1, one()) == zero()
        assert apply_op(PI_MINUS, 1, one()) == beta()

    def test_psi_squares_like_pi_minus(self, rng):
        # on a single index both operators satisfy T^2 = beta T, yet they
        # differ as operators (see test_psi_on_one)
        s1 = from_word((1,), 3)
        for _ in range(10):
            f = random_poly(rng, n=3)
            g = apply_perm(PSI_PLUS, s1, f)
            assert apply_perm(PSI_PLUS, s1, g) == beta() * g

    def test_moebius_inversion(self, rng):
        # psi_w = sum_{v<=w} beta^{l(w)-l(v)} pi+_v inverts to
        # pi+_w = sum_{v<=w} (-beta)^{l(w)-l(v)} psi_v
        for w in all_perms(3):
            f = random_poly(rng, n=3, terms=4)
            direct = apply_perm(PSI_PLUS, w, f)
            summed = zero()
            for v in bruhat_lower(w):
                summed = summed + apply_perm(PI_PLUS, v, f) * (
                    beta() ** (w.length() - v.length())
                )
            assert direct == summed

            back = zero()
            for v in bruhat_lower(w):
                back = back + apply_perm(PSI_PLUS, v, f) * (
                    (-beta()) ** (w.length() - v.length())
                )
            assert back == apply_perm(PI_PLUS, w, f)
