"""Quantum families: q-deformed elementary symmetric polynomials, the
tridiagonal determinants that generate them, the commuting operators X_j,
the quantization map, and the quantum double Schubert / Grothendieck
families with their identity checkers.

The q-deformation enters through one recurrence,

    e~_i(x_1..x_k) = e~_i(x_1..x_{k-1}) + x_k e~_{i-1}(x_1..x_{k-1})
                     + q_{k-1} e~_{i-2}(x_1..x_{k-2}),

everything else is towers of divided-difference operators over the y
alphabet, exactly as in the classical module.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from ._packing import FIELD_MASK, Var, shift
from .classical import (
    _descent_tower,
    _poly_json,
    _recast_yz,
    elementary,
    eta,
    family_table,
    top_class,
)
from .divdiff import DEL, PI_MINUS, PI_PLUS, apply_perm, apply_word
from .perms import (
    Permutation,
    all_perms,
    bruhat_lower,
    bruhat_upper,
    identity,
    longest,
)
from .poly import (
    MultiPoly,
    beta,
    den_poly,
    ominus,
    one,
    qvar,
    xvar,
    yvar,
    zero,
)
from .report import VerificationReport


class QuantumContext:
    """Rank plus the memo tables the quantum constructions share.

    Immutable from the caller's point of view; the dicts fill lazily.
    """

    def __init__(self, n: int):
        self.n = n
        self._etilde: dict[tuple[int, int], MultiPoly] = {}
        self._xpow1: dict[tuple[int, ...], MultiPoly] = {}
        self._tables: dict[str, Mapping[Permutation, MultiPoly]] = {}

    def q_factor(self, i: int, j: int) -> MultiPoly:
        """q_{ij} = q_i q_{i+1} ... q_{j-1}, for i < j."""
        p = one()
        for t in range(i, j):
            p = p * qvar(t)
        return p


_CTX_CACHE: dict[int, QuantumContext] = {}


def quantum_context(n: int) -> QuantumContext:
    ctx = _CTX_CACHE.get(n)
    if ctx is None:
        ctx = QuantumContext(n)
        _CTX_CACHE[n] = ctx
    return ctx


# ---------------------------------------------------------------------------
# quantum elementary symmetric polynomials and their generating determinant
# ---------------------------------------------------------------------------


def quantum_elementary(k: int, i: int, ctx: QuantumContext) -> MultiPoly:
    """e~_i(x_1..x_k | q_1..q_{k-1}); q = 0 recovers e_i.

    >>> quantum_elementary(2, 2, quantum_context(3)).text()
    'q1 + x1*x2'
    """
    if i == 0:
        return one()
    if i < 0 or k <= 0 or i > k:
        return zero()
    key = (k, i)
    val = ctx._etilde.get(key)
    if val is None:
        val = quantum_elementary(k - 1, i, ctx) + xvar(k) * quantum_elementary(
            k - 1, i - 1, ctx
        )
        if k >= 2:
            val = val + qvar(k - 1) * quantum_elementary(k - 2, i - 2, ctx)
        ctx._etilde[key] = val
    return val


def gk_determinant(k: int, t: Var, ctx: QuantumContext, beta_form: bool = False) -> MultiPoly:
    """The k-th tridiagonal determinant as a polynomial in t.

    Plain form: sum_{i=0}^k t^{k-i} e~_i(x_1..x_k).  The beta form carries
    an extra (1+beta*t)^i inside the sum, which is the denominator-cleared
    version of substituting t/(1+beta*t) and rescaling by (1+beta*t)^k.

    >>> gk_determinant(1, Var("y", 1), quantum_context(2)).text()
    'y1 + x1'
    """
    tp = MultiPoly.variable(t)
    total = zero()
    for i in range(0, k + 1):
        term = quantum_elementary(k, i, ctx) * tp ** (k - i)
        if beta_form:
            term = term * (one() + beta() * tp) ** i
        total = total + term
    return total


def quantum_top(ctx: QuantumContext) -> MultiPoly:
    """S~_{w_0}(x,y) = prod_{i=1}^{n-1} Delta_i(y_{n-i} | x_1..x_i)."""
    p = one()
    for i in range(1, ctx.n):
        p = p * gk_determinant(i, Var("y", ctx.n - i), ctx)
    return p


def bold_top(ctx: QuantumContext) -> MultiPoly:
    """Same product with the beta-form determinants."""
    p = one()
    for i in range(1, ctx.n):
        p = p * gk_determinant(i, Var("y", ctx.n - i), ctx, beta_form=True)
    return p


# ---------------------------------------------------------------------------
# the commuting operators X_j and the quantization map
# ---------------------------------------------------------------------------


def _palindrome(i: int, j: int) -> list[int]:
    return list(range(i, j)) + list(range(j - 2, i - 1, -1))


def apply_X(j: int, f: MultiPoly, ctx: QuantumContext) -> MultiPoly:
    """x_j f - sum_{i<j} q_{ij} d_{(ij)} f + sum_{j<k} q_{jk} d_{(jk)} f,
    where d_{(ij)} is the divided-difference word for the transposition.

    >>> apply_X(1, xvar(1), quantum_context(2)).text()
    'q1 + x1^2'
    """
    n = ctx.n
    out = xvar(j) * f
    for i in range(1, j):
        out = out - ctx.q_factor(i, j) * apply_word(DEL, _palindrome(i, j), f, "x")
    for k in range(j + 1, n + 1):
        out = out + ctx.q_factor(j, k) * apply_word(DEL, _palindrome(j, k), f, "x")
    return out


def _x_power_at_one(I: tuple[int, ...], ctx: QuantumContext) -> MultiPoly:
    """X_1^{i_1} ... X_n^{i_n} applied to 1 (order immaterial: they commute)."""
    val = ctx._xpow1.get(I)
    if val is not None:
        return val
    j = 0
    for pos in range(len(I) - 1, -1, -1):
        if I[pos]:
            j = pos + 1
            break
    if j == 0:
        val = one()
    else:
        smaller = tuple(e - 1 if pos == j - 1 else e for pos, e in enumerate(I))
        val = apply_X(j, _x_power_at_one(smaller, ctx), ctx)
    ctx._xpow1[I] = val
    return val


def _x_exponents(xpart: int, n: int) -> tuple[int, ...]:
    return tuple((xpart >> shift(Var("x", i))) & FIELD_MASK for i in range(1, n + 1))


def eval_at_X(f: MultiPoly, ctx: QuantumContext) -> MultiPoly:
    """f with every x-monomial replaced by the matching X-product, applied
    to 1.  Non-x variables ride along as scalars."""
    acc = zero()
    for xpart, coeff in f.split_by_kinds(("x",)).items():
        acc = acc + coeff * _x_power_at_one(_x_exponents(xpart, ctx.n), ctx)
    return acc


@dataclass
class OperatorPoly:
    """A polynomial in the commuting operators X_1..X_n.

    terms maps an exponent tuple to its coefficient (a polynomial free of
    x); commutativity makes the representation canonical.
    """

    n: int
    terms: dict[tuple[int, ...], MultiPoly]

    def value_at_one(self, ctx: QuantumContext) -> MultiPoly:
        acc = zero()
        for I, coeff in self.terms.items():
            acc = acc + coeff * _x_power_at_one(I, ctx)
        return acc

    def as_polynomial(self) -> MultiPoly:
        """Surrogate symbols replaced by the x variables."""
        acc = zero()
        for I, coeff in self.terms.items():
            mono = one()
            for pos, e in enumerate(I):
                if e:
                    mono = mono * xvar(pos + 1) ** e
            acc = acc + coeff * mono
        return acc

    def at_q_zero(self) -> MultiPoly:
        return self.as_polynomial().specialize_q(
            {i: 0 for i in range(1, self.n)}
        )


def quantize(f: MultiPoly, ctx: QuantumContext) -> tuple[OperatorPoly, MultiPoly]:
    """The unique F with F(X_1..X_n)(1) = f, by triangular elimination.

    X^I(1) = x^I plus terms of strictly smaller total x-degree, so
    repeatedly stripping the top-degree layer of the residual terminates.
    Returns (F, F written in the x variables).

    >>> quantize(xvar(1) ** 2, quantum_context(2))[1].text()
    '-q1 + x1^2'
    """
    if f.uses_kind("y") or f.uses_kind("z"):
        raise ValueError("quantize expects a polynomial in x, beta and q")
    terms: dict[tuple[int, ...], MultiPoly] = {}
    rem = f
    prev_deg = None
    while not rem.is_zero():
        d = rem.degree("x")
        if prev_deg is not None and d >= prev_deg:
            raise AssertionError("quantization failed to reduce degree")
        prev_deg = d
        for xpart, coeff in rem.split_by_kinds(("x",)).items():
            I = _x_exponents(xpart, ctx.n)
            if sum(I) != d:
                continue
            terms[I] = terms.get(I, zero()) + coeff
            rem = rem - coeff * _x_power_at_one(I, ctx)
    op = OperatorPoly(ctx.n, {I: c for I, c in terms.items() if not c.is_zero()})
    return op, op.as_polynomial()


# ---------------------------------------------------------------------------
# the quantum families
# ---------------------------------------------------------------------------


def quantum_table(n: int, family: str) -> Mapping[Permutation, MultiPoly]:
    """All members of one quantum family at rank n.

    qS / qH / qG are the quantum double Schubert, dual Grothendieck and
    Grothendieck families; bG / bH the two built from the beta-form
    determinant product.  Append "x" for the y=0 specialisation.  The
    result is a read-only view of the cached table.
    """
    ctx = quantum_context(n)
    table = ctx._tables.get(family)
    if table is not None:
        return table
    w0 = longest(n)
    if family.endswith("x"):
        full = quantum_table(n, family[:-1])
        table = {w: p.set_zero("y") for w, p in full.items()}
    elif family == "qS":
        tower = _descent_tower(quantum_top(ctx), DEL, "y", n)
        table = {w: tower[w * w0] for w in all_perms(n)}
    elif family == "qH":
        tower = _descent_tower(quantum_top(ctx), PI_MINUS, "y", n)
        table = {w: tower[w * w0] for w in all_perms(n)}
    elif family == "qG":
        ht = quantum_table(n, "qH")
        table = {}
        for w in all_perms(n):
            acc = zero()
            for v in bruhat_upper(w):
                acc = acc + ht[v] * ((beta() * -1) ** (v.length() - w.length()))
            table[w] = acc
    elif family == "bG":
        tower = _descent_tower(bold_top(ctx), PI_PLUS, "y", n)
        table = {w: tower[w * w0] for w in all_perms(n)}
    elif family == "bH":
        # the psi of the interval-sum kind, not a pi- tower: on this seed
        # the two genuinely differ, and only the sum matches the y=0 slices
        tower = _descent_tower(bold_top(ctx), PI_PLUS, "y", n)
        table = {}
        for w in all_perms(n):
            u = w * w0
            acc = zero()
            for v in bruhat_lower(u):
                acc = acc + tower[v] * (beta() ** (u.length() - v.length()))
            table[w] = acc
    else:
        raise ValueError(f"unknown quantum family {family!r}")
    ctx._tables[family] = MappingProxyType(table)
    return ctx._tables[family]


def quantum_schubert_double(w: Permutation) -> MultiPoly:
    return quantum_table(w.n, "qS")[w]


def quantum_dual_grothendieck_double(w: Permutation) -> MultiPoly:
    return quantum_table(w.n, "qH")[w]


def quantum_grothendieck_double(w: Permutation) -> MultiPoly:
    return quantum_table(w.n, "qG")[w]


def quantum_schubert(w: Permutation) -> MultiPoly:
    return quantum_table(w.n, "qSx")[w]


def quantum_dual_grothendieck(w: Permutation) -> MultiPoly:
    return quantum_table(w.n, "qHx")[w]


def quantum_grothendieck(w: Permutation) -> MultiPoly:
    return quantum_table(w.n, "qGx")[w]


def bold_family(w: Permutation, kind: str) -> MultiPoly:
    if kind not in ("G", "H"):
        raise ValueError("kind must be G or H")
    return quantum_table(w.n, "b" + kind)[w]


# ---------------------------------------------------------------------------
# identity checkers
# ---------------------------------------------------------------------------


def _check_theorem1(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    ctx = quantum_context(n)
    got = eval_at_X(quantum_top(ctx), ctx)
    expect = top_class(n)
    if got == expect:
        return True, None, None
    return False, {"difference": _poly_json(got - expect)}, None


def _check_corollary1(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    ctx = quantum_context(n)
    qs = quantum_table(n, "qS")
    qh = quantum_table(n, "qH")
    st = family_table(n, "S")
    ht = family_table(n, "H")
    for w in all_perms(n):
        got = eval_at_X(qs[w], ctx)
        if got != st[w]:
            return (
                False,
                {"family": "qS", "w": list(w.oneline), "difference": _poly_json(got - st[w])},
                None,
            )
        got = eval_at_X(qh[w], ctx)
        if got != ht[w]:
            return (
                False,
                {"family": "qH", "w": list(w.oneline), "difference": _poly_json(got - ht[w])},
                None,
            )
    return True, None, None


def _check_quantum_cauchy(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    ctx = quantum_context(n)
    qh = quantum_table(n, "qH")
    gt = family_table(n, "G")
    w0 = longest(n)

    dens: dict[Var, int] = {}
    for h in qh.values():
        for i in range(1, n + 1):
            d = h.max_exponent(Var("y", i))
            zi = Var("z", i)
            if d > dens.get(zi, 0):
                dens[zi] = d
    bindings = {Var("y", i): ominus("z", i) for i in range(1, n + 1)}

    acc = zero()
    for w in all_perms(n):
        r = qh[w].substitute(bindings)
        num = r.lifted_num(dens)
        acc = acc + num * _recast_yz(gt[w * w0])

    rhs = bold_top(ctx) * den_poly(dens)
    if acc == rhs:
        return True, None, None
    return False, {"difference": _poly_json(acc - rhs)}, None


def _check_corollary2(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    qgx = quantum_table(n, "qGx")
    qhx = quantum_table(n, "qHx")
    bg = quantum_table(n, "bG")
    bh = quantum_table(n, "bH")
    gxt = family_table(n, "Gx")
    w0 = longest(n)
    for w in all_perms(n):
        if bh[w].set_zero("y") != qhx[w]:
            return False, {"bullet": 1, "w": list(w.oneline)}, None
        if bg[w].set_zero("y") != qgx[w]:
            return False, {"bullet": 2, "w": list(w.oneline)}, None
    for w in all_perms(n):
        acc = zero()
        for v in all_perms(n):
            c = eta(apply_perm(PI_PLUS, w * w0, gxt[v * w0], "x"))
            acc = acc + c * qhx[v]
        if acc != qgx[w]:
            return (
                False,
                {"bullet": 3, "w": list(w.oneline), "difference": _poly_json(acc - qgx[w])},
                None,
            )
    return True, None, None


def _check_remark_id(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    """The bottom of the isobaric tower against the beta-weighted top,
    plus the alphabet-swap line.

    The weighted value beta^{n(n-1)/2} * top(x, (1/beta,..)) is compared
    against both rank-bottom members; which one it equals is a finding
    (the displayed label and the operator it abbreviates disagree).  The
    swap line H_id(x,y) <-> G_id(y,x) with beta negated is likewise
    reported: tried with q in place, with q reversed, and if both fail
    the q=0 limit must still hold (the classical swap duality).
    """
    ctx = quantum_context(n)
    qg_id = quantum_table(n, "qG")[identity(n)]
    qh_id = quantum_table(n, "qH")[identity(n)]
    cap = n * (n - 1) // 2
    weighted = quantum_top(ctx).beta_weighted(cap, "y")
    detail: dict = {}
    if qg_id == weighted:
        detail["weighted_member"] = "G"
    elif qh_id == weighted:
        detail["weighted_member"] = "H"
    else:
        return False, {"part": "beta_weighted", "value": _poly_json(weighted)}, None

    swapped = qg_id.negate_beta().swap_kinds("x", "y")
    if qh_id == swapped:
        detail["swap_q"] = "in place"
    else:
        flip = {i: n - i for i in range(1, n)}
        if qh_id == swapped.permute_indices("q", flip):
            detail["swap_q"] = "reversed"
        else:
            qzero = {i: 0 for i in range(1, n)}
            if qh_id.specialize_q(qzero) != swapped.specialize_q(qzero):
                return False, {"part": "swap at q=0", "difference": _poly_json(qh_id - swapped)}, None
            detail["swap_q"] = "fails with q (q=0 limit holds)"
    return True, None, detail


def _random_x_poly(n: int, rng: random.Random, max_deg: int = 4) -> MultiPoly:
    p = zero()
    for _ in range(rng.randint(1, 6)):
        mono = one()
        for i in range(1, n + 1):
            e = rng.randint(0, max_deg)
            if e:
                mono = mono * xvar(i) ** e
        deg = mono.degree("x")
        if deg > max_deg:
            continue
        p = p + mono * rng.randint(-3, 3)
    return p


def _check_quantization_props(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    ctx = quantum_context(n)
    for k in range(1, n + 1):
        for i in range(1, k + 1):
            got = eval_at_X(quantum_elementary(k, i, ctx), ctx)
            expect = elementary(i, [Var("x", t) for t in range(1, k + 1)])
            if got != expect:
                return False, {"part": "etilde", "k": k, "i": i}, None
    roundtrips = 100 if n <= 3 else 20
    for trial in range(roundtrips):
        f = _random_x_poly(n, rng)
        op, _ = quantize(f, ctx)
        if op.value_at_one(ctx) != f:
            return False, {"part": "roundtrip", "trial": trial, "f": _poly_json(f)}, None
    for trial in range(10):
        # multiplicativity against a symmetric factor: the quantization of
        # f*g factors as the quantization of f (which lands on the e->e~
        # rewrite) times the quantization of g
        g = _random_x_poly(n, rng, max_deg=3)
        f = zero()
        for i in range(1, n + 1):
            f = f + elementary(i, [Var("x", t) for t in range(1, n + 1)]) * rng.randint(-2, 2)
        f = f + rng.randint(-2, 2)
        _, fg_q = quantize(f * g, ctx)
        _, f_q = quantize(f, ctx)
        _, g_q = quantize(g, ctx)
        if fg_q != f_q * g_q:
            return False, {"part": "lambda_multiplicative", "trial": trial}, None
    st = family_table(n, "Sx")
    qs = quantum_table(n, "qSx")
    for w in all_perms(n):
        _, fq = quantize(st[w], ctx)
        if fq != qs[w]:
            return (
                False,
                {"part": "schubert", "w": list(w.oneline), "difference": _poly_json(fq - qs[w])},
                None,
            )
    return True, None, {"roundtrips": roundtrips}


def _check_commuting(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    ctx = quantum_context(n)
    trials = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for _ in range(12):
                f = _random_x_poly(n, rng, max_deg=5)
                lhs = apply_X(i, apply_X(j, f, ctx), ctx)
                rhs = apply_X(j, apply_X(i, f, ctx), ctx)
                trials += 1
                if lhs != rhs:
                    return (
                        False,
                        {"i": i, "j": j, "f": _poly_json(f)},
                        None,
                    )
    return True, None, {"assertions": trials}


def _check_classical_limit(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    ctx = quantum_context(n)
    qzero = {i: 0 for i in range(1, n)}
    pairs = [("qS", "S"), ("qH", "H"), ("qG", "G"), ("qSx", "Sx"), ("qHx", "Hx"), ("qGx", "Gx")]
    for qfam, cfam in pairs:
        qt = quantum_table(n, qfam)
        cf = family_table(n, cfam)
        for w in all_perms(n):
            if qt[w].specialize_q(qzero) != cf[w]:
                return False, {"family": qfam, "w": list(w.oneline)}, None
    st = family_table(n, "S")
    for w in all_perms(n):
        if quantum_table(n, "qG")[w].specialize_q(qzero).specialize_beta(0) != st[w]:
            return False, {"family": "qG at beta=0", "w": list(w.oneline)}, None
    rhs_classical = one()
    for i in range(1, n):
        for j in range(1, n - i + 1):
            rhs_classical = rhs_classical * (
                xvar(i) + yvar(j) + beta() * xvar(i) * yvar(j)
            )
    if bold_top(ctx).specialize_q(qzero) != rhs_classical:
        return False, {"family": "bold top"}, None
    return True, None, None


def _check_quantum_stability(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    m = n + 1
    detail: dict = {}
    for fam in ("qS", "qH", "qG", "qSx", "qHx", "qGx"):
        small = quantum_table(n, fam)
        big = quantum_table(m, fam)
        exact = all(big[w.embed(m)] == small[w] for w in all_perms(n))
        if exact:
            detail[fam] = "exact"
            continue
        small_id = small[identity(n)]
        big_id = big[identity(m)]
        ratio = all(
            small[w] * big_id == big[w.embed(m)] * small_id for w in all_perms(n)
        )
        if ratio:
            detail[fam] = "ratio"
            continue
        return False, {"family": fam, "mode": "neither exact nor ratio"}, None
    return True, None, detail


QUANTUM_CHECKS = {
    "theorem1": _check_theorem1,
    "corollary1": _check_corollary1,
    "quantum_cauchy": _check_quantum_cauchy,
    "corollary2": _check_corollary2,
    "remark_id": _check_remark_id,
    "quantization_props": _check_quantization_props,
    "commuting": _check_commuting,
    "classical_limit": _check_classical_limit,
    "quantum_stability": _check_quantum_stability,
}

_DEFAULT_N = {"quantum_cauchy": 3, "quantum_stability": 3}
_DEFAULT_N_ANY = 4
_HARD_N_ANY = 4


def rank_caps(check_id: str) -> tuple[int, int]:
    """(default cap, forced cap) for one checker id.

    quantum_stability keeps 3 even when forced: it embeds into rank n+1
    and the quantum tables stop at 4.
    """
    if check_id not in QUANTUM_CHECKS:
        raise KeyError(f"unknown check {check_id!r}")
    soft = _DEFAULT_N.get(check_id, _DEFAULT_N_ANY)
    hard = 3 if check_id == "quantum_stability" else _HARD_N_ANY
    return soft, hard


def verify_quantum(check_id: str, n: int, seed: int = 0, force: bool = False) -> VerificationReport:
    if n < 1:
        raise ValueError("n must be at least 1")
    soft, hard = rank_caps(check_id)
    if n > hard:
        raise ValueError(f"{check_id} is capped at n={hard}")
    if n > soft and not force:
        raise ValueError(f"{check_id} above n={soft} needs force=True")
    rng = random.Random(seed)
    start = time.perf_counter()
    ok, counterexample, detail = QUANTUM_CHECKS[check_id](n, rng)
    ms = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        check_id=check_id,
        n=n,
        status="pass" if ok else "fail",
        counterexample=counterexample,
        ms=ms,
        detail=detail,
    )
