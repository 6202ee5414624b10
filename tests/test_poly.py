"""Ring axioms against a naive oracle, serialization roundtrips, and the
rendering goldens for the polynomial layer."""

from __future__ import annotations

import fractions
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly import _termkernel_py as kernel
from grothpoly._packing import BETA, Var, adjacent_pair, pack
from grothpoly.poly import MultiPoly, beta, one, qvar, xvar, yvar, zero, zvar

# ---------------------------------------------------------------------------
# naive oracle: polynomials as {sorted((name, exp), ...): coef}
# ---------------------------------------------------------------------------

VARS = (
    [Var("x", i) for i in range(1, 5)]
    + [Var("y", i) for i in range(1, 4)]
    + [Var("z", i) for i in range(1, 3)]
    + [Var("b", 0), Var("q", 1), Var("q", 2)]
)


def naive_from(p: MultiPoly) -> dict:
    out: dict = {}
    for exps, c in p.monomials():
        key = tuple(sorted((v.kind + str(v.index), e) for v, e in exps.items()))
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def naive_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def naive_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            merged: dict = {}
            for name, e in ka + kb:
                merged[name] = merged.get(name, 0) + e
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


@st.composite
def polys(draw, max_terms: int = 5, max_exp: int = 3):
    items = []
    for _ in range(draw(st.integers(0, max_terms))):
        exps = {}
        for v in draw(st.lists(st.sampled_from(VARS), max_size=3)):
            exps[v] = draw(st.integers(1, max_exp))
        items.append((exps, draw(st.integers(-9, 9).filter(bool))))
    return MultiPoly.from_monomials(items)


@settings(max_examples=300)
@given(f=polys(), g=polys())
def test_add_matches_oracle(f, g):
    assert naive_from(f + g) == naive_add(naive_from(f), naive_from(g))


@settings(max_examples=300)
@given(f=polys(), g=polys())
def test_mul_matches_oracle(f, g):
    assert naive_from(f * g) == naive_mul(naive_from(f), naive_from(g))


@settings(max_examples=200)
@given(f=polys(), g=polys(), h=polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * one() == f
    assert f + zero() == f
    assert f - f == zero()


@settings(max_examples=200)
@given(f=polys())
def test_json_roundtrip(f):
    assert MultiPoly.loads(f.dumps()) == f


@settings(max_examples=100)
@given(f=polys(), g=polys())
def test_integer_evaluation_homomorphism(f, g):
    """Substituting integers for every variable commutes with + and *."""
    point = {v: (i % 5) - 2 for i, v in enumerate(VARS)}

    def ev(p: MultiPoly) -> int:
        total = 0
        for exps, c in p.monomials():
            val = c
            for v, e in exps.items():
                val *= point[v] ** e
            total += val
        return total

    assert ev(f + g) == ev(f) + ev(g)
    assert ev(f * g) == ev(f) * ev(g)


# ---------------------------------------------------------------------------
# the term kernel, called directly
# ---------------------------------------------------------------------------

X1 = pack({Var("x", 1): 1})
X1_SQ = pack({Var("x", 1): 2})


def test_kernel_mul_edge_cases():
    a = {X1: 1, 0: 1}
    b = {X1: 1, 0: -1}  # (x1 + 1)(x1 - 1): the x1 cross terms cancel
    assert kernel.mul(a, b) == {X1_SQ: 1, 0: -1}
    assert kernel.mul({}, a) == kernel.mul(a, {}) == {}
    big = 10**50  # Python ints: no truncation at 2^64
    assert kernel.mul({X1: big}, {X1: -big}) == {X1_SQ: -big * big}


def test_kernel_addmul_zero_coef_is_noop():
    acc = {0: 3}
    kernel.addmul(acc, {0: 5, X1: 1}, X1, 0)
    assert acc == {0: 3}


@settings(max_examples=100)
@given(f=polys(), g=polys())
def test_kernel_prune_leaves_no_zeros(f, g):
    acc = dict(f._t)
    kernel.addmul(acc, g._t, 0, -1)
    kernel.addmul(acc, f._t, 0, -1)  # acc is -g now, with explicit zeros where terms cancelled
    pruned = kernel.prune(acc)
    assert 0 not in pruned.values()
    assert pruned == {m: -c for m, c in g._t.items()}


@settings(max_examples=100)
@given(f=polys(), alphabet=st.sampled_from("xy"), i=st.integers(1, 3))
def test_kernel_swap_twice_is_identity(f, alphabet, i):
    pair = adjacent_pair(alphabet, i)
    assert kernel.swap(kernel.swap(f._t, *pair), *pair) == f._t


def test_power_and_unary():
    f = xvar(1) + yvar(2) * 2
    assert f ** 0 == one()
    assert f ** 3 == f * f * f
    assert -f == f * -1
    with pytest.raises(ValueError):
        f ** -1


@pytest.mark.parametrize("base", [xvar(8), beta(), qvar(7)], ids=["x8", "b", "q7"])
def test_power_past_the_field_is_refused(base):
    # 65536 = FIELD_MASK + 1 used to wrap into the next field, silently
    with pytest.raises(ValueError):
        base ** 65536
    assert (base ** 65535).text() == base.text() + "^65535"


def test_power_checks_every_field_of_every_term():
    f = one() + xvar(1) ** 3 * yvar(2) ** 30000
    with pytest.raises(ValueError):
        f ** 3
    with pytest.raises(ValueError):
        (xvar(1) ** 20000 * xvar(2) ** 20000) ** 2  # x1 and x2 fit; the x-degree does not
    assert (f ** 2).max_exponent(Var("y", 2)) == 60000


def test_times_var_past_the_field_is_refused():
    with pytest.raises(ValueError):
        (one() + yvar(3) ** 65535).times_var(Var("y", 3))
    with pytest.raises(ValueError):
        (xvar(1) ** 40000).times_var(Var("x", 2), 30000)  # overflows the x-degree
    with pytest.raises(ValueError):
        xvar(1).times_var(Var("x", 2), -1)  # used to borrow from every field above
    assert beta().times_var(BETA, 65534) == beta() ** 65535


def test_triple_binomial_expansion():
    # three binomial factors: 2*2*2 = 8 raw coefficient products, and all
    # eight stay distinct after collection
    f = (xvar(1) + yvar(1)) * (xvar(2) + yvar(1)) * (one() - beta() * yvar(2))
    assert len(f) == 8
    naive = naive_mul(
        naive_mul(naive_from(xvar(1) + yvar(1)), naive_from(xvar(2) + yvar(1))),
        naive_from(one() - beta() * yvar(2)),
    )
    assert naive_from(f) == naive


def test_substitute_is_a_homomorphism():
    from grothpoly.poly import ominus

    f = (xvar(1) + yvar(1)) * (one() + beta() * yvar(1))
    g = yvar(1) * yvar(1) - xvar(2)
    bind = {Var("y", 1): ominus("z", 1)}
    lhs = (f * g).substitute(bind)
    rhs = f.substitute(bind) * g.substitute(bind)
    den = {Var("z", 1): 4}
    assert lhs.lifted_num(den) == rhs.lifted_num(den)


def test_ominus_against_fractions():
    """ominus really is -z/(1-b z): check by rational evaluation."""
    from grothpoly.poly import ominus

    expr = (xvar(1) + yvar(1)).substitute({Var("y", 1): ominus("z", 1)})
    num = expr.lifted_num({Var("z", 1): 1})
    for zval in (2, 3, -1):
        for bval in (0, 1, 2):
            for xval in (1, -2):
                point = {Var("z", 1): zval, Var("b", 0): bval, Var("x", 1): xval}

                def ev(p):
                    total = 0
                    for exps, c in p.monomials():
                        v = c
                        for var, e in exps.items():
                            v *= point[var] ** e
                        total += v
                    return total

                want = fractions.Fraction(xval) + fractions.Fraction(-zval, 1 - bval * zval)
                got = fractions.Fraction(ev(num), 1 - bval * zval)
                assert got == want


def test_beta_weighted_matches_manual_substitution():
    rng = random.Random(7)
    for _ in range(40):
        items = []
        for _ in range(rng.randint(1, 5)):
            exps = {}
            for i in (1, 2):
                e = rng.randint(0, 2)
                if e:
                    exps[Var("y", i)] = e
            if rng.random() < 0.5:
                exps[Var("x", 1)] = rng.randint(1, 2)
            items.append((exps, rng.randint(-3, 3)))
        p = MultiPoly.from_monomials(items)
        cap = p.degree("y") + rng.randint(0, 2)
        manual = MultiPoly.from_monomials(
            [
                (
                    {
                        **{v: e for v, e in exps.items() if v.kind != "y"},
                        Var("b", 0): exps.get(Var("b", 0), 0)
                        + cap
                        - sum(e for v, e in exps.items() if v.kind == "y"),
                    },
                    c,
                )
                for exps, c in p.monomials()
            ]
        )
        assert p.beta_weighted(cap, "y") == manual


def test_specializations():
    p = (one() + beta() * xvar(1)) * (qvar(1) + xvar(2))
    assert p.specialize_beta(0) == qvar(1) + xvar(2)
    assert p.specialize_q({1: 0}) == (one() + beta() * xvar(1)) * xvar(2)
    assert p.negate_beta().negate_beta() == p
    assert p.set_zero("q") == (one() + beta() * xvar(1)) * xvar(2)


def test_swap_and_permute_kinds():
    p = xvar(1) * yvar(2) + zvar(1) * 3
    assert p.swap_kinds("x", "y") == yvar(1) * xvar(2) + zvar(1) * 3
    assert p.permute_indices("x", {1: 2, 2: 1}) == xvar(2) * yvar(2) + zvar(1) * 3
    with pytest.raises(ValueError):
        p.permute_indices("x", {1: 2})


def test_text_rendering_goldens():
    assert zero().text() == "0"
    assert (one() * -3).text() == "-3"
    assert (xvar(1) ** 2 - beta() * yvar(3)).text() == "-b*y3 + x1^2"
    f = (xvar(1) + yvar(1)) * (xvar(2) + yvar(1))
    assert f.text() == "y1^2 + x1*y1 + x2*y1 + x1*x2"


def test_latex_rendering_goldens():
    assert (beta() * xvar(1) * yvar(2) ** 2).latex() == r"\beta x_{1} y_{2}^{2}"
    assert (qvar(1) - one()).latex() == "-1 + q_{1}"


def test_constant_and_degree_queries():
    p = xvar(1) * xvar(2) + 5
    assert p.constant_term() == 5
    assert p.degree("x") == 2
    assert p.degree("y") == 0
    assert p.uses_kind("x") and not p.uses_kind("z")
    assert p.max_exponent(Var("x", 1)) == 1
