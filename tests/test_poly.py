"""Ring axioms against a naive oracle, serialization roundtrips, and the
rendering goldens for the polynomial layer."""

from __future__ import annotations

import fractions
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly import _termkernel_py as kernel
from grothpoly._packing import (
    BETA,
    FIELD_BITS,
    FIELD_MASK,
    MASK_X,
    N_MAX,
    NUM_SLOTS,
    XDEG_SHIFT,
    Var,
    from_ylow,
    mono_divides,
    pack,
    to_ylow,
    unit,
    unpack,
)
from grothpoly.poly import MultiPoly, beta, dot, one, qvar, xvar, yvar, zero, zvar

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


def _evaluate(p: MultiPoly, point: dict) -> int | fractions.Fraction:
    """p at a point mapping each of its variables to an int or a Fraction."""
    total = 0
    for exps, c in p.monomials():
        v = c
        for var, e in exps.items():
            v *= point[var] ** e
        total += v
    return total


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


@settings(max_examples=100)
@given(f=polys(), g=polys())
def test_integer_evaluation_homomorphism(f, g):
    """Substituting integers for every variable commutes with + and *."""
    point = {v: (i % 5) - 2 for i, v in enumerate(VARS)}

    def ev(p: MultiPoly) -> int:
        return _evaluate(p, point)

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


@settings(max_examples=100)
@given(pairs=st.lists(st.tuples(polys(), polys()), max_size=4))
def test_dot_is_the_sum_of_products(pairs):
    expect = zero()
    for a, b in pairs:
        expect = expect + a * b
    got = dot(pairs)
    assert got == expect
    assert 0 not in got._t.values()
    # every product cancels against its negation, leaving no explicit zero
    assert dot(pairs + [(-a, b) for a, b in pairs])._t == {}


def test_dot_of_nothing_is_zero():
    assert dot([])._t == {}
    assert dot(iter(())) == 0


def test_kernel_addmul_zero_coef_is_noop():
    acc = {0: 3}
    kernel.addmul(acc, {0: 5, X1: 1}, X1, 0)
    assert acc == {0: 3}


MONOS = st.sampled_from([0, X1, X1_SQ, pack({Var("y", 1): 1}), pack({BETA: 2, Var("q", 1): 1})])


@st.composite
def summand_lists(draw):
    """(f, mono, coef) summands: coefficients 0 included, empty maps, and
    some summands repeated with the opposite sign, so keys collide and
    cancel to explicit zeros."""
    out = [
        (draw(polys())._t, draw(MONOS), draw(st.integers(-3, 3)))
        for _ in range(draw(st.integers(0, 5)))
    ]
    out += [(f, mono, -coef) for f, mono, coef in out if draw(st.booleans())]
    return draw(st.permutations(out))


@settings(max_examples=200)
@given(acc=polys(), summands=summand_lists())
def test_kernel_addmul_all_folds_addmul(acc, summands):
    folded = dict(acc._t)
    for f, mono, coef in summands:
        kernel.addmul(folded, f, mono, coef)
    batched = dict(acc._t)
    kernel.addmul_all(batched, iter(summands))
    # the same terms, explicit zeros included, in the same order
    assert list(batched.items()) == list(folded.items())


def test_kernel_addmul_all_cancels_to_explicit_zeros():
    acc: dict = {}
    kernel.addmul_all(acc, [({0: 2, X1: 1}, X1, 3), ({}, X1, 5), ({X1: 7}, 0, 0), ({0: 6}, X1, -1)])
    assert acc == {X1: 0, X1_SQ: 3}
    assert kernel.prune(acc) == {X1_SQ: 3}


@settings(max_examples=100)
@given(f=polys(), g=polys())
def test_kernel_prune_leaves_no_zeros(f, g):
    acc = dict(f._t)
    kernel.addmul(acc, g._t, 0, -1)
    kernel.addmul(acc, f._t, 0, -1)  # acc is -g now, with explicit zeros where terms cancelled
    pruned = kernel.prune(acc)
    assert 0 not in pruned.values()
    assert pruned == {m: -c for m, c in g._t.items()}


@settings(max_examples=50)
@given(f=polys())
def test_kernel_prune_hands_back_a_map_without_zeros(f):
    # no zero: the map itself; a zero: a new map, the argument untouched
    acc = dict(f._t)
    assert kernel.prune(acc) is acc
    acc[pack({Var("x", 5): 1})] = 0  # x5 is not in VARS
    before = dict(acc)
    pruned = kernel.prune(acc)
    assert pruned is not acc and acc == before
    assert pruned == f._t


def test_power_and_unary():
    f = xvar(1) + yvar(2) * 2
    assert f ** 0 == one()
    assert f ** 3 == f * f * f
    assert -f == f * -1
    with pytest.raises(ValueError):
        f ** -1


# two exponents that fill a field: LOW + HIGH is FIELD_MASK, the largest
# exponent a field holds, and LOW + HIGH + 1 the first it cannot; HIGH has
# the field's top bit, so a product of the two takes the field-by-field path
HIGH = FIELD_MASK * 5 // 8
LOW = FIELD_MASK - HIGH


@pytest.mark.parametrize("base", [xvar(8), beta(), qvar(7)], ids=["x8", "b", "q7"])
def test_power_past_the_field_is_refused(base):
    # FIELD_MASK + 1 used to wrap into the next field, silently
    with pytest.raises(ValueError):
        base ** (FIELD_MASK + 1)
    assert (base ** FIELD_MASK).text() == base.text() + f"^{FIELD_MASK}"


def test_power_checks_every_field_of_every_term():
    f = one() + xvar(1) ** 3 * yvar(2) ** (FIELD_MASK // 2)
    with pytest.raises(ValueError):
        f ** 3
    # x1 and x2 fit at (FIELD_MASK + 1) // 2 each; the x-degree does not
    quarter = (FIELD_MASK + 1) // 4
    with pytest.raises(ValueError):
        (xvar(1) ** quarter * xvar(2) ** quarter) ** 2
    assert (f ** 2).max_exponent(Var("y", 2)) == FIELD_MASK - 1
    square = (xvar(1) ** quarter * xvar(2) ** (quarter - 1)) ** 2
    assert square == xvar(1) ** (2 * quarter) * xvar(2) ** (2 * quarter - 2)


@pytest.mark.parametrize(
    "a, b",
    [
        (yvar(1) ** HIGH, yvar(1) ** (LOW + 1)),  # printed y2: y1 carried
        (beta() ** HIGH, beta() ** (LOW + 1)),  # printed z1: b carried
        (xvar(1) ** HIGH, xvar(2) ** (LOW + 1)),  # x1, x2 fit; the x-degree carried
        (one() + zvar(2) ** FIELD_MASK, one() + zvar(2)),  # the top field, not the top bit
    ],
    ids=["y1", "b", "xdeg", "z2"],
)
def test_product_past_the_field_is_refused(a, b):
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        b * a
    # dot checks every polynomial pair it accumulates, not only the first
    with pytest.raises(ValueError):
        dot([(a, b)])
    with pytest.raises(ValueError):
        dot([(one(), xvar(1)), (xvar(1), one() * 3), (b, a)])


def test_product_up_to_the_field_is_exact():
    assert yvar(1) ** HIGH * yvar(1) ** LOW == yvar(1) ** FIELD_MASK
    big = (one() + beta() ** HIGH) * (xvar(1) ** (LOW + 1) + yvar(2) ** HIGH)
    assert big * (one() + beta() ** LOW) == big + big * beta() ** LOW


def test_pack_refuses_x_degree_past_the_field():
    with pytest.raises(ValueError):
        pack({Var("x", 1): HIGH, Var("x", 2): LOW + 1})
    with pytest.raises(ValueError):
        MultiPoly({Var("x", 1): HIGH, Var("x", 2): LOW + 1})
    m = pack({Var("x", 1): HIGH, Var("x", 2): LOW})  # x-degree exactly FIELD_MASK
    assert MultiPoly._raw({m: 1}) == xvar(1) ** HIGH * xvar(2) ** LOW


# every field near 0, where divisibility is likely, or anywhere below
# its top bit (mono_divides' one subtraction) or up to FIELD_MASK (a top
# bit sends it to its field loop)
_FIELDS = st.sampled_from([FIELD_MASK >> 1, FIELD_MASK]).flatmap(
    lambda top: st.lists(
        st.one_of(st.integers(0, 3), st.integers(0, top)), min_size=NUM_SLOTS, max_size=NUM_SLOTS
    )
)


def _packed(fields: list[int]) -> int:
    return sum(e << s * FIELD_BITS for s, e in enumerate(fields))


@given(m=_FIELDS, free=_FIELDS, clip=st.lists(st.booleans(), min_size=NUM_SLOTS, max_size=NUM_SLOTS))
def test_mono_divides_compares_every_field(m, free, clip):
    # a clipped field of d is at most m's, so d often divides m
    d = [min(a, b) if c else a for a, b, c in zip(free, m, clip)]
    assert mono_divides(_packed(d), _packed(m)) == all(a <= b for a, b in zip(d, m))
    assert mono_divides(_packed(m), _packed(d)) == all(b <= a for a, b in zip(d, m))


@given(m=_FIELDS)
def test_ylow_order_round_trips_every_field(m):
    # every field, up to FIELD_MASK, comes back where it was; x and xdeg
    # never move, and the non-x fields only trade slots among themselves
    mono = _packed(m)
    low = to_ylow(mono)
    assert from_ylow(low) == mono
    assert low & MASK_X == mono & MASK_X
    assert sorted((low >> s * FIELD_BITS) & FIELD_MASK for s in range(NUM_SLOTS)) == sorted(m)


def test_ylow_order_puts_y_then_b_then_q_then_z_from_the_lowest_slot():
    order = (
        [Var("y", i) for i in range(1, N_MAX + 1)]
        + [BETA]
        + [Var("q", i) for i in range(1, N_MAX)]
        + [Var("z", i) for i in range(1, N_MAX + 1)]
    )
    assert [to_ylow(unit(v)) for v in order] == [1 << s * FIELD_BITS for s in range(len(order))]
    assert [from_ylow(1 << s * FIELD_BITS) for s in range(len(order))] == [unit(v) for v in order]
    # a y-b monomial, as every localized value holds, is below
    # 2**(9 * FIELD_BITS)
    full = pack({**{Var("y", i): FIELD_MASK for i in range(1, N_MAX + 1)}, BETA: FIELD_MASK})
    assert to_ylow(full) == (1 << 9 * FIELD_BITS) - 1


def test_empty_monomial_is_one():
    assert MultiPoly() == zero()
    assert MultiPoly({}) == one()
    assert MultiPoly({Var("x", 1): 0}) == one()
    assert MultiPoly({Var("x", 1): 0, Var("y", 2): 3}) == yvar(2) ** 3


@pytest.mark.parametrize("index", [-1, 1, 5])
def test_beta_index_out_of_range_is_refused(index):
    with pytest.raises(ValueError, match="b index out of range"):
        MultiPoly({Var("b", index): 1})
    with pytest.raises(ValueError, match="b index out of range"):
        pack({Var("b", index): 1})


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
    """Clearing y1 -> -z1/(1 - b z1) is multiplicative: clearing powers add."""
    from grothpoly.classical import _cauchy_numerator

    f = (xvar(1) + yvar(1)) * (one() + beta() * yvar(1))
    g = yvar(1) * yvar(1) - xvar(2)
    lhs = _cauchy_numerator(f * g, [4])
    rhs = _cauchy_numerator(f, [2]) * _cauchy_numerator(g, [2])
    assert lhs == rhs


def test_ominus_against_fractions():
    """The cleared numerator is f(x, -z/(1 - b z)) * prod (1 - b z_i)^(d_i):
    checked by rational evaluation, so every term's clearing power is pinned."""
    from grothpoly.classical import _cauchy_numerator

    two = (xvar(1) + yvar(1)) * (xvar(2) - yvar(2) ** 2) + beta() * yvar(1) * yvar(2)
    cases = [
        (xvar(1) + yvar(1), [1]),
        (xvar(1) + yvar(1), [3]),
        ((xvar(1) + yvar(1)) * (one() + beta() * yvar(1)) * (yvar(1) ** 2 - xvar(2)), [4]),
        (two, [1, 2]),
        (two, [2, 3]),
    ]
    for f, dens in cases:
        num = _cauchy_numerator(f, dens)
        assert not num.uses_kind("y")
        for zvals in ((2, -1), (3, 2), (-1, 3)):
            for bval in (0, 1, 2):
                for xval in (1, -2):
                    point = {Var("b", 0): bval, Var("x", 1): xval, Var("x", 2): xval + 5}
                    want = fractions.Fraction(1)
                    for i, d in enumerate(dens, start=1):
                        zval = zvals[i - 1]
                        point[Var("z", i)] = zval
                        point[Var("y", i)] = fractions.Fraction(-zval, 1 - bval * zval)
                        want *= (1 - bval * zval) ** d
                    assert _evaluate(num, point) == _evaluate(f, point) * want


def test_cauchy_numerator_refuses_a_short_clearing_power():
    from grothpoly.classical import _cauchy_numerator

    with pytest.raises(ValueError, match="nonnegative"):
        _cauchy_numerator(yvar(1) ** 2, [1])


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
    assert p.specialize({BETA: 0}) == qvar(1) + xvar(2)
    assert p.specialize({Var("q", 1): 0}) == (one() + beta() * xvar(1)) * xvar(2)
    assert p.negate_vars("b").negate_vars("b") == p
    assert p.set_zero("q") == (one() + beta() * xvar(1)) * xvar(2)


def _specialized(p: MultiPoly, values: dict) -> MultiPoly:
    """specialize term by term: each substituted exponent e becomes a
    factor value**e, so a 0 (or False) kills the term."""
    items = []
    for exps, c in p.monomials():
        for var, value in values.items():
            c *= value ** exps.pop(var, 0)
        items.append((exps, c))
    return MultiPoly.from_monomials(items)


@settings(max_examples=300)
@given(
    p=polys(max_terms=8),
    values=st.dictionaries(
        st.sampled_from(VARS), st.sampled_from([0, 0, False, 1, -1, 2, -3]), min_size=1, max_size=6
    ),
)
def test_specialize_with_zeros_matches_the_general_path(p, values):
    """Zero values drop terms by one mask test; the result is the one the
    per-term substitution gives, x variables (and their x-degree field)
    included."""
    got = p.specialize(values)
    assert got == _specialized(p, values)
    assert 0 not in got._t.values()
    # the x-degree field follows the x exponents that are left
    assert all((m >> XDEG_SHIFT) == sum(e for v, e in unpack(m).items() if v.kind == "x") for m in got._t)


def test_specialize_at_zero_drops_exactly_the_terms_holding_the_variable():
    p = xvar(1) * yvar(2) + xvar(2) ** 2 + beta() * qvar(1) - 4
    assert p.specialize({Var("x", 1): 0}) == xvar(2) ** 2 + beta() * qvar(1) - 4
    assert p.specialize({Var("x", 2): False, BETA: 0}) == xvar(1) * yvar(2) - 4
    assert p.specialize({Var("x", 2): 0, Var("q", 1): 2}) == xvar(1) * yvar(2) + beta() * 2 - 4
    assert p.specialize({}) == p


def _swap(k1: str, k2: str) -> dict[Var, Var]:
    """The relabelling that exchanges two alphabets index-wise."""
    return {Var(a, i): Var(b, i) for a, b in ((k1, k2), (k2, k1)) for i in range(1, N_MAX + 1)}


def test_swap_and_permute_kinds():
    p = xvar(1) * yvar(2) + zvar(1) * 3
    assert p.relabel(_swap("x", "y")) == yvar(1) * xvar(2) + zvar(1) * 3
    x1, x2 = Var("x", 1), Var("x", 2)
    assert p.relabel({x1: x2, x2: x1}) == xvar(2) * yvar(2) + zvar(1) * 3
    with pytest.raises(ValueError):
        p.relabel({x1: x2})


def test_relabel_keeps_the_x_degree_field():
    # the x-degree moves with the exponents, so equality and degree agree
    # with the same polynomial built directly
    p = yvar(1) ** 3 * yvar(2) + xvar(1) * zvar(2)
    assert p.relabel(_swap("x", "y")) == xvar(1) ** 3 * xvar(2) + yvar(1) * zvar(2)
    assert p.relabel(_swap("x", "y")).degree("x") == 4
    assert p.relabel(_swap("x", "z")).relabel(_swap("x", "z")) == p


def test_relabel_refuses_x_degree_past_the_field():
    with pytest.raises(ValueError):
        (yvar(1) ** HIGH * yvar(2) ** (LOW + 1)).relabel(_swap("x", "y"))
    assert (yvar(1) ** HIGH * yvar(2) ** LOW).relabel(_swap("x", "y")) == xvar(1) ** HIGH * xvar(2) ** LOW


def test_beta_weighted_clears_the_x_degree_field():
    assert xvar(1).beta_weighted(1, "x") == 1
    assert (xvar(1) * xvar(2) + yvar(1)).beta_weighted(2, "x") == one() + beta() ** 2 * yvar(1)


@pytest.mark.parametrize(
    "p, cap",
    [(beta() ** FIELD_MASK, 1), (yvar(1), FIELD_MASK + 2)],
    ids=["b_full", "cap_too_large"],
)
def test_beta_weighted_refuses_b_past_the_field(p, cap):
    # used to print z1: b carried into z1
    with pytest.raises(ValueError):
        p.beta_weighted(cap, "y")


def test_beta_weighted_fills_b_up_to_the_field():
    assert (beta() ** (FIELD_MASK - 1)).beta_weighted(1, "y") == beta() ** FIELD_MASK
    assert yvar(1).beta_weighted(FIELD_MASK + 1, "y") == beta() ** FIELD_MASK


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
