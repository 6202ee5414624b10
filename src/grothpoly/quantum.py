"""Quantum families: q-deformed elementary symmetric polynomials, the
tridiagonal determinants that generate them, the commuting operators X_j,
the quantization map, and the quantum double Schubert / Grothendieck
families with their identity checkers.

The q-deformation enters through one recurrence,

    e~_i(x_1..x_k) = e~_i(x_1..x_{k-1}) + x_k e~_{i-1}(x_1..x_{k-1})
                     + q_{k-1} e~_{i-2}(x_1..x_{k-2}),

so ``quantum_elementary(k, i)`` and ``gk_determinant(k, t)`` need no rank.
``quantum_top(n)`` and the operators do, and refuse a rank below 1:
``apply_X(j, f, n)``, ``eval_at_X(f, n)`` and ``quantize(f, n)`` act at
rank n and refuse any x_j with j > n.
``quantize`` returns the polynomial F with ``eval_at_X(F, n) == f``.
Everything else is towers of divided-difference operators over the y
alphabet, registered in classical.TOWERS and built by
classical.family_members.
"""

from __future__ import annotations

from functools import cache

from ._packing import BETA, N_MAX, XDEG_SHIFT, Var, exponent, unit
from .classical import (
    SWAP_XY_MOVES,
    TOWERS,
    _cauchy_product,
    _cauchy_mismatch,
    _embedding_failure,
    elementary,
    expand_dual_basis,
    family_member,
    family_members,
    family_table,
    refuse_x_past,
    top_class,
)
from .divdiff import DEL, PI_MINUS, PI_PLUS, PSI_MINUS, PSI_PLUS, apply_word
from .perms import (
    Permutation,
    all_perms,
    identity,
    longest,
)
from .poly import MultiPoly, beta, dot, one, or_monomials, qvar, xvar, zero
from .report import Counterexample, check, check_rank

# ---------------------------------------------------------------------------
# quantum elementary symmetric polynomials and their generating determinant
# ---------------------------------------------------------------------------


@cache
def quantum_elementary(k: int, i: int) -> MultiPoly:
    """e~_i(x_1..x_k | q_1..q_{k-1}); q = 0 recovers e_i.

    >>> quantum_elementary(2, 2).text()
    'q1 + x1*x2'
    """
    if i == 0:
        return one()
    if i < 0 or k <= 0 or i > k:
        return zero()
    val = quantum_elementary(k - 1, i) + xvar(k) * quantum_elementary(k - 1, i - 1)
    if k >= 2:
        val = val + qvar(k - 1) * quantum_elementary(k - 2, i - 2)
    return val


def gk_determinant(k: int, t: Var, beta_form: bool = False) -> MultiPoly:
    """The k-th tridiagonal determinant as a polynomial in t.

    Plain form: sum_{i=0}^k t^{k-i} e~_i(x_1..x_k).  The beta form carries
    an extra (1+beta*t)^i inside the sum, which is the denominator-cleared
    version of substituting t/(1+beta*t) and rescaling by (1+beta*t)^k.

    A beta_form that is not a bool raises ValueError.

    >>> gk_determinant(1, Var("y", 1)).text()
    'y1 + x1'
    """
    _check_beta_form(beta_form)
    tp = MultiPoly.variable(t)
    pairs = []
    for i in range(0, k + 1):
        e = quantum_elementary(k, i)
        if beta_form:
            e = e * (one() + beta() * tp) ** i
        pairs.append((e, tp ** (k - i)))
    return dot(pairs)


def quantum_top(n: int, beta_form: bool = False) -> MultiPoly:
    """S~_{w_0}(x,y) = prod_{i=1}^{n-1} Delta_i(y_{n-i} | x_1..x_i); with
    beta_form, the same product of beta-form determinants (the bold seed).
    Each is built once per rank.  A beta_form that is not a bool raises
    ValueError."""
    check_rank(n)
    _check_beta_form(beta_form)
    return _quantum_top(n, beta_form)


def _check_beta_form(beta_form: bool) -> None:
    """Refuse a beta_form that is not a bool: 1, 0.0 or "no" would pass as
    one by truth value, and 1 would share True's memo entry."""
    if type(beta_form) is not bool:
        raise ValueError(f"beta_form is a bool, not {beta_form!r}")


# read only behind quantum_top's rank and flag checks, as classical._top_class is
@cache
def _quantum_top(n: int, beta_form: bool) -> MultiPoly:
    p = one()
    for i in range(1, n):
        p = p * gk_determinant(i, Var("y", n - i), beta_form)
    return p


# ---------------------------------------------------------------------------
# the commuting operators X_j and the quantization map
# ---------------------------------------------------------------------------


# sum(_Q_UNITS[a:b]) is the packed monomial q_a q_{a+1} ... q_{b-1}
_Q_UNITS = [0] + [unit(Var("q", t)) for t in range(1, N_MAX)]


def apply_X(j: int, f: MultiPoly, n: int) -> MultiPoly:
    """x_j f - sum_{i<j} q_{ij} d_{(ij)} f + sum_{j<k} q_{jk} d_{(jk)} f,
    where q_{ij} = q_i q_{i+1} ... q_{j-1} and d_{(ij)} is the
    divided-difference word for the transposition.

    >>> apply_X(1, xvar(1), 2).text()
    'q1 + x1^2'
    """
    check_rank(n)
    if not 1 <= j <= n:
        raise ValueError(f"X_{j} does not exist at rank {n}")
    refuse_x_past(or_monomials(f._t), n)
    pairs = [(xvar(j), f)]
    for i in range(1, n + 1):
        if i != j:
            a, b = min(i, j), max(i, j)
            q_ab = MultiPoly._raw({sum(_Q_UNITS[a:b]): -1 if i < j else 1})
            word = [*range(a, b), *range(b - 2, a - 1, -1)]
            pairs.append((q_ab, apply_word(DEL, word, f, "x")))
    return dot(pairs)


# X-products differ between ranks, so the memo is keyed by (x-part, n)
@cache
def _x_power_at_one(xpart: int, n: int) -> MultiPoly:
    """X^I(1) for the packed x-monomial x^I (order immaterial: the X_j
    commute); peels one X_j off the highest x_j present, so an x_j with
    j > n meets apply_X's rank check."""
    j = next((j for j in range(N_MAX, 0, -1) if exponent(xpart, Var("x", j))), 0)
    return one() if j == 0 else apply_X(j, _x_power_at_one(xpart - unit(Var("x", j)), n), n)


def eval_at_X(f: MultiPoly, n: int) -> MultiPoly:
    """f with every x-monomial replaced by the matching X-product, applied
    to 1.  Non-x variables ride along as scalars."""
    check_rank(n)
    parts = f.split_x().items()
    return dot((coeff, _x_power_at_one(xpart, n)) for xpart, coeff in parts)


def quantize(f: MultiPoly, n: int) -> MultiPoly:
    """The unique F with eval_at_X(F, n) == f, by triangular elimination.

    X^I(1) = x^I plus terms of strictly smaller total x-degree, so
    repeatedly stripping the top-degree layer of the residual terminates.

    >>> quantize(xvar(1) ** 2, 2).text()
    '-q1 + x1^2'
    """
    check_rank(n)
    if f.uses_kind("y") or f.uses_kind("z"):
        raise ValueError("quantize expects a polynomial in x, beta and q")
    quantized: dict[int, int] = {}
    rem = f
    prev_deg = None
    while rem:
        d = rem.degree("x")
        if prev_deg is not None and d >= prev_deg:
            raise AssertionError("quantization failed to reduce degree")
        prev_deg = d
        # each X^I(1) is x^I plus lower x-degree, so subtracting the image
        # of the whole top layer strips it at once
        layer = {m: c for m, c in rem._t.items() if m >> XDEG_SHIFT == d}
        quantized.update(layer)
        rem = rem - eval_at_X(MultiPoly._raw(layer), n)
    return MultiPoly._raw(quantized)


# ---------------------------------------------------------------------------
# the quantum families
# ---------------------------------------------------------------------------


def _bold_seed(n: int) -> MultiPoly:
    return quantum_top(n, beta_form=True)


# y-alphabet towers: member w is tower[w w0], and the y=0 members are the
# full ones at y = 0.  The psi towers are Bruhat-interval sums of their pi
# siblings (v >= w iff v w0 <= w w0): qG_w = sum_{v>=w} (-b)^(l(v)-l(w)) qH_v,
# and bH_w is the b-weighted sum of the bG tower below w w0.  bH is a psi+
# tower, not a pi- one: on the bold seed the two genuinely differ, and only
# psi+ matches the y=0 tables.
TOWERS.update({
    "qS": (quantum_top, DEL, "y"),
    "qH": (quantum_top, PI_MINUS, "y"),
    "qG": (quantum_top, PSI_MINUS, "y"),
    "bG": (_bold_seed, PI_PLUS, "y"),
    "bH": (_bold_seed, PSI_PLUS, "y"),
})


def quantum_schubert_double(w: Permutation) -> MultiPoly:
    return family_member(w.n, "qS", w)


def quantum_dual_grothendieck_double(w: Permutation) -> MultiPoly:
    return family_member(w.n, "qH", w)


def quantum_grothendieck_double(w: Permutation) -> MultiPoly:
    return family_member(w.n, "qG", w)


def quantum_schubert(w: Permutation) -> MultiPoly:
    return family_member(w.n, "qSx", w)


def quantum_dual_grothendieck(w: Permutation) -> MultiPoly:
    return family_member(w.n, "qHx", w)


def quantum_grothendieck(w: Permutation) -> MultiPoly:
    return family_member(w.n, "qGx", w)


def bold_family(w: Permutation, kind: str) -> MultiPoly:
    if kind not in ("G", "H"):
        raise ValueError("kind must be G or H")
    return family_member(w.n, "b" + kind, w)


# ---------------------------------------------------------------------------
# identity checkers
# ---------------------------------------------------------------------------


@check("theorem1", hard=4)
def _check_theorem1(n: int, rng: random.Random) -> dict | None:
    got = eval_at_X(quantum_top(n), n)
    expect = top_class(n)
    if got != expect:
        raise Counterexample(difference=got - expect)


@check("corollary1", hard=4)
def _check_corollary1(n: int, rng: random.Random) -> dict | None:
    tables = {fam: family_table(n, fam) for fam in ("qS", "qH", "S", "H")}
    for w in all_perms(n):
        for qfam, cfam in (("qS", "S"), ("qH", "H")):
            got = eval_at_X(tables[qfam][w], n)
            expect = tables[cfam][w]
            if got != expect:
                raise Counterexample(family=qfam, w=w, difference=got - expect)


@check("quantum_cauchy", soft=3, hard=4)
def _check_quantum_cauchy(n: int, rng: random.Random) -> dict | None:
    mismatch = _cauchy_mismatch(n, family_table(n, "qH"), quantum_top(n, beta_form=True))
    if mismatch is not None:
        lhs, rhs = mismatch
        raise Counterexample(difference=lhs - rhs)


@check("corollary2", hard=4)
def _check_corollary2(n: int, rng: random.Random) -> dict | None:
    # remark_id and classical_limit read the full qG table, so it is built
    # here and qGx sliced from it, not cut from a second qG tower
    family_table(n, "qG")
    qgx = family_table(n, "qGx")
    qhx = family_table(n, "qHx")
    bgx = family_table(n, "bGx")
    bhx = family_table(n, "bHx")
    gxt = family_table(n, "Gx")
    w0 = longest(n)
    for w in all_perms(n):
        if bhx[w] != qhx[w]:
            raise Counterexample(bullet=1, w=w)
        if bgx[w] != qgx[w]:
            raise Counterexample(bullet=2, w=w)
    # coefs[v][u] = eta(pi+_u Gx_{v w0}), one pi+ tower per v
    coefs = {v: expand_dual_basis(gxt[v * w0], n) for v in all_perms(n)}
    for w in all_perms(n):
        acc = dot((coefs[v][w * w0], qhx[v]) for v in all_perms(n))
        if acc != qgx[w]:
            raise Counterexample(bullet=3, w=w, difference=acc - qgx[w])


@check("remark_id", hard=4)
def _check_remark_id(n: int, rng: random.Random) -> dict | None:
    """The bottom of the isobaric tower against the beta-weighted top,
    plus the alphabet-swap line.

    The weighted value beta^{n(n-1)/2} * top(x, (1/beta,..)) is compared
    against both rank-bottom members; which one it equals is a finding
    (the displayed label and the operator it abbreviates disagree).  The
    swap line H_id(x,y) <-> G_id(y,x) with beta negated is likewise
    reported: tried with q in place, with q reversed, and if both fail
    the q=0 limit must still hold (the classical swap duality).
    """
    qg_id = family_table(n, "qG")[identity(n)]
    qh_id = family_table(n, "qH")[identity(n)]
    cap = n * (n - 1) // 2
    weighted = quantum_top(n).beta_weighted(cap, "y")
    detail: dict = {}
    if qg_id == weighted:
        detail["weighted_member"] = "G"
    elif qh_id == weighted:
        detail["weighted_member"] = "H"
    else:
        raise Counterexample(part="beta_weighted", value=weighted)

    swapped = qg_id.negate_vars("b")._moved(SWAP_XY_MOVES)
    if qh_id == swapped:
        detail["swap_q"] = "in place"
    else:
        flip = {Var("q", i): Var("q", n - i) for i in range(1, n)}
        if qh_id == swapped.relabel(flip):
            detail["swap_q"] = "reversed"
        else:
            qzero = {Var("q", i): 0 for i in range(1, n)}
            if qh_id.specialize(qzero) != swapped.specialize(qzero):
                raise Counterexample(part="swap at q=0", difference=qh_id - swapped)
            detail["swap_q"] = "fails with q (q=0 limit holds)"
    return detail


def _random_x_poly(n: int, rng: random.Random, max_deg: int = 4) -> MultiPoly:
    """Up to 6 random terms c * x^e in x_1..x_n, each of x-degree at most
    max_deg and c in -3..3; a draw of larger degree is dropped before its
    coefficient is drawn.  Each monomial is packed as the sum of its
    exponents times the x units."""
    units = [unit(Var("x", i)) for i in range(1, n + 1)]
    terms: dict[int, int] = {}
    for _ in range(rng.randint(1, 6)):
        exps = [rng.randint(0, max_deg) for _ in units]
        if sum(exps) > max_deg:
            continue
        m = sum(e * u for e, u in zip(exps, units))
        terms[m] = terms.get(m, 0) + rng.randint(-3, 3)
    return MultiPoly._raw({m: c for m, c in terms.items() if c})


@check("quantization_props", hard=4)
def _check_quantization_props(n: int, rng: random.Random) -> dict | None:
    for k in range(1, n + 1):
        for i in range(1, k + 1):
            got = eval_at_X(quantum_elementary(k, i), n)
            expect = elementary(i, [Var("x", t) for t in range(1, k + 1)])
            if got != expect:
                raise Counterexample(part="etilde", k=k, i=i)
    roundtrips = 100 if n <= 3 else 20
    for trial in range(roundtrips):
        f = _random_x_poly(n, rng)
        if eval_at_X(quantize(f, n), n) != f:
            raise Counterexample(part="roundtrip", trial=trial, f=f)
    for trial in range(10):
        # multiplicativity against a symmetric factor: the quantization of
        # f*g factors as the quantization of f (which lands on the e->e~
        # rewrite) times the quantization of g
        g = _random_x_poly(n, rng, max_deg=3)
        f = zero()
        for i in range(1, n + 1):
            f = f + elementary(i, [Var("x", t) for t in range(1, n + 1)]) * rng.randint(-2, 2)
        f = f + rng.randint(-2, 2)
        if quantize(f * g, n) != quantize(f, n) * quantize(g, n):
            raise Counterexample(part="lambda_multiplicative", trial=trial)
    st = family_table(n, "Sx")
    qs = family_table(n, "qSx")
    for w in all_perms(n):
        fq = quantize(st[w], n)
        if fq != qs[w]:
            raise Counterexample(part="schubert", w=w, difference=fq - qs[w])
    return {"roundtrips": roundtrips}


@check("commuting", hard=4)
def _check_commuting(n: int, rng: random.Random) -> dict | None:
    trials = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for _ in range(12):
                f = _random_x_poly(n, rng, max_deg=5)
                lhs = apply_X(i, apply_X(j, f, n), n)
                rhs = apply_X(j, apply_X(i, f, n), n)
                trials += 1
                if lhs != rhs:
                    raise Counterexample(i=i, j=j, f=f)
    return {"assertions": trials}


@check("classical_limit", hard=4)
def _check_classical_limit(n: int, rng: random.Random) -> dict | None:
    qzero = {Var("q", i): 0 for i in range(1, n)}
    pairs = [("qS", "S"), ("qH", "H"), ("qG", "G"), ("qSx", "Sx"), ("qHx", "Hx"), ("qGx", "Gx")]
    for qfam, cfam in pairs:
        qt = family_table(n, qfam)
        cf = family_table(n, cfam)
        for w in all_perms(n):
            if qt[w].specialize(qzero) != cf[w]:
                raise Counterexample(family=qfam, w=w)
    st = family_table(n, "S")
    for w in all_perms(n):
        if family_table(n, "qG")[w].specialize({**qzero, BETA: 0}) != st[w]:
            raise Counterexample(family="qG at beta=0", w=w)
    if quantum_top(n, beta_form=True).specialize(qzero) != _cauchy_product(n):
        raise Counterexample(family="bold top")


# embeds into rank n+1, and the quantum tables stop at 4
@check("quantum_stability", soft=3, hard=3)
def _check_quantum_stability(n: int, rng: random.Random) -> dict | None:
    detail: dict = {}
    # qSx, qHx and qGx are sliced from the qS, qH and qG members built here
    embedded = [w.embed(n + 1) for w in all_perms(n)]
    big = {fam: family_members(n + 1, fam, embedded) for fam in ("qS", "qH", "qG")}
    big.update({fam + "x": {w: p.set_zero("y") for w, p in members.items()} for fam, members in big.items()})
    for fam, members in big.items():
        small = family_table(n, fam)
        if _embedding_failure(small, members, n, "exact") is None:
            detail[fam] = "exact"
        elif _embedding_failure(small, members, n, "ratio") is None:
            detail[fam] = "ratio"
        else:
            raise Counterexample(family=fam, mode="neither exact nor ratio")
    return detail
