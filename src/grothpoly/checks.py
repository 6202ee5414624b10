"""The identity checks of the verify catalog, in catalog order, and the
helpers only they use.

Each check is registered with ``@check(id, soft=..., hard=..., tables=...)``
(see report): ``tables`` names the rank-n families its body reads, in the
order it reads them, and report.verify builds them before it starts the
check's timer.  Members a check builds for itself, such as the embedded
rank-(n+1) members of the stability checks, are built in its body.

The classical checks come first: the Cauchy, orthogonality, Pieri, Moebius,
duality and stability identities of the double Grothendieck and Schubert
families, and the basis and free-module determinants.  The quantum ones
follow: Theorem 1, the quantum Cauchy identity and its corollaries, the
quantization map and the commuting X_j, and the q = 0 limits.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cache
from math import comb

from . import _termkernel_py as kernel
from ._packing import BETA, FIELD_MASK, MASK_B, N_MAX, Var, mono_divides, pack, shift, to_ylow, unit
from .classical import (
    NormalFormContext,
    _at_point,
    _descent_tower,
    _paired,
    _x_parts,
    _xvars,
    _yvars,
    elementary,
    expand_dual_basis,
    family_members,
    family_table,
    monk_expansion,
    top_class,
)
from .divdiff import PI_PLUS, apply_perm
from .perms import Permutation, all_perms, bruhat_upper, by_length, identity, longest
from .poly import MultiPoly, beta, const, dot, one, or_monomials, relabel_moves, xvar, yvar, zero, zvar
from .quantum import apply_X, eval_at_X, quantize, quantum_elementary, quantum_top
from .report import Counterexample, check


# ---------------------------------------------------------------------------
# relabelling moves
# ---------------------------------------------------------------------------

# f(x, y) -> f(y, x), f(x, y) -> f(y, z), and f(x, y) -> f(x, z), as
# mappings for relabel and as the moves they make
SWAP_XY = {Var(a, i): Var(b, i) for a, b in ("xy", "yx") for i in range(1, N_MAX + 1)}
_RECAST_YZ = {Var(a, i): Var(b, i) for a, b in ("xy", "yz", "zx") for i in range(1, N_MAX + 1)}
_SWAP_YZ = {Var(a, i): Var(b, i) for a, b in ("yz", "zy") for i in range(1, N_MAX + 1)}
SWAP_XY_MOVES = relabel_moves(SWAP_XY)
_RECAST_YZ_MOVES = relabel_moves(_RECAST_YZ)
_SWAP_YZ_MOVES = relabel_moves(_SWAP_YZ)


def omega(f: MultiPoly, n: int) -> MultiPoly:
    """Reverse both alphabets: x_i -> x_{n+1-i} and y_i -> y_{n+1-i}."""
    return f._moved(_omega_moves(n))


@cache
def _omega_moves(n: int) -> tuple[tuple[int, int], ...]:
    return relabel_moves({Var(k, i): Var(k, n + 1 - i) for k in "xy" for i in range(1, n + 1)})


def permute_y(f: MultiPoly, w: Permutation) -> MultiPoly:
    """y_i -> y_{w(i)}."""
    return f._moved(_permute_y_moves(w))


@cache
def _permute_y_moves(w: Permutation) -> tuple[tuple[int, int], ...]:
    return relabel_moves({Var("y", i): Var("y", w(i)) for i in range(1, w.n + 1)})


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def divexact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient f / g; raises ArithmeticError if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rem = dict(f._t)
    glead = max(g._t)
    gc = g._t[glead]
    out: dict[int, int] = {}
    while rem:
        m = max(rem)
        c = rem[m]
        if c % gc or not mono_divides(glead, m):
            raise ArithmeticError("non-exact polynomial division")
        q = c // gc
        k = m - glead
        out[k] = out.get(k, 0) + q
        # unchecked: no field can carry.  Each divisor here is a binomial
        # 1 + c*b*v, whose other term is 1 (_binomial_split), or divides f
        # (det_bareiss's pivots, stability's ratio).  Then each k is a term
        # of the quotient q, and k plus a monomial of g has each field at
        # most that of f = q*g
        kernel.addmul(rem, g._t, k, -q)
        rem = {mm: cc for mm, cc in rem.items() if cc}
    return MultiPoly._raw(out)


def det_bareiss(mat: list[list[MultiPoly]]) -> MultiPoly:
    """Fraction-free determinant of a square matrix of polynomials."""
    size = len(mat)
    if size == 0:
        return one()
    m = [row[:] for row in mat]
    sign = 1
    prev = one()
    for k in range(size - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, size):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return zero()
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num if k == 0 else divexact(num, prev)
        prev = m[k][k]
    return m[size - 1][size - 1] * sign


# ---------------------------------------------------------------------------
# binomial factors at the points of the signed and unsigned ideals
# ---------------------------------------------------------------------------


def _binomial_split(f: MultiPoly, n: int) -> tuple[list[tuple[Var, int]], MultiPoly]:
    """(binomials, cofactor): f = cofactor * prod (1 + c b v) over the
    (v, c) in binomials, every binomial 1 + c b v (v in x_1..x_n,
    y_1..y_n, c = +-1) divided out of f as often as it divides it.  A zero
    f comes back unchanged, with no binomial.

    Only a v that occurs with b in some monomial of f is tried.  No other
    binomial in v can divide f: if h != 0 and h_k v^k is the part of h of
    top degree k in v, then (1 + c b v) h has the nonzero part
    c b v^(k+1) h_k, each monomial of which holds both b and v.
    """
    binomials: list[tuple[Var, int]] = []
    if f:
        with_b = or_monomials(m for m in f._t if m & MASK_B)
        for v in (*_xvars(1, n), *_yvars(1, n)):
            if not (with_b >> shift(v)) & FIELD_MASK:
                continue
            for c in (1, -1):
                d = MultiPoly._raw({0: 1, unit(BETA) + unit(v): c})
                while True:
                    try:
                        f = divexact(f, d)
                    except ArithmeticError:
                        break
                    binomials.append((v, c))
    return binomials, f


# the y-low b*y_j at index j, the monomial of the binomial 1 +- b y_j
_BY_UNITS = [0] + [to_ylow(unit(BETA) + unit(v)) for v in _yvars(1, N_MAX)]


def _relabelled(
    split: tuple[list[tuple[Var, int]], MultiPoly], w: Permutation
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list | None]:
    """A _binomial_split under permute_y by w, as (xs, ys, cofactor): (i, c)
    for each binomial 1 + c b x_i, whose image depends on the point; the
    image (y-low b y_w(j), c) of each 1 + c b y_j, which does not; and the
    _x_parts of the cofactor, None for a cofactor of 1."""
    binomials, cofactor = split
    xs = [(v.index, c) for v, c in binomials if v.kind == "x"]
    ys = [(_BY_UNITS[w(v.index)], c) for v, c in binomials if v.kind == "y"]
    return xs, ys, None if cofactor == 1 else _x_parts(permute_y(cofactor, w))


def _x_images(xs: list[tuple[int, int]], u: Permutation, eps: int) -> list[tuple[int, int]]:
    """The images (y-low b y_u(i), eps c) of the binomials 1 + c b x_i at
    the point x_i = eps * y_u(i)."""
    return [(_BY_UNITS[u[i - 1]], c * eps) for i, c in xs]


def _cancel(left: list[tuple[int, int]], right: list[tuple[int, int]]) -> tuple[list, list]:
    """The two lists of binomial images with the images they share, as a
    multiset, taken out of both."""
    right = list(right)
    kept = []
    for image in left:
        if image in right:
            right.remove(image)
        else:
            kept.append(image)
    return kept, right


def _times_images(
    t: dict[int, int], images: list[tuple[int, int]], cofactor: list | dict | None = None, at=None
) -> dict[int, int]:
    """The term map t times the binomial images 1 + s m, (m, s) in
    images, and then times at(cofactor), the cofactor as a term map (a
    localized one, or one as it stands under an identity at), unless it
    is None (a cofactor of 1).  Each distinct image, k times in images,
    is applied in one pass over the terms as sum_j C(k, j) s^j m^j, with
    no product; the result is pruned once.  t and m are in one order,
    the display or the y-low one; t itself comes back if there is
    nothing to apply."""
    if not t:
        return t
    # unchecked adds: no field can carry.  pieri_double and involution
    # call this at rank n <= 5, their hard cap, where t's fields are at
    # most 20 (a member's x and y fields are at most 4 and its b at most
    # 10; the Monk sum adds b^10 at most), and a side's binomials divide a
    # fixed factor of b-degree n(n-1)/2 <= 10, so they add at most 10 to b
    # and to each y field
    for (m, s), k in Counter(images).items():
        g = dict(t)
        for j in range(1, k + 1):
            kernel.addmul(g, t, j * m, comb(k, j) * s**j)
        t = g
    if images:
        t = kernel.prune(t)
    # the cofactor's product is field-checked as any other is
    return t if cofactor is None else (MultiPoly._raw(at(cofactor)) * MultiPoly._raw(t))._t


# ---------------------------------------------------------------------------
# the classical checks
# ---------------------------------------------------------------------------


def _cauchy_product(n: int) -> MultiPoly:
    """prod_{i+j <= n} (x_i + y_j + b x_i y_j), the classical Cauchy right-hand side."""
    p = one()
    for i in range(1, n):
        for j in range(1, n - i + 1):
            p = p * (xvar(i) + yvar(j) + beta() * xvar(i) * yvar(j))
    return p


def _cauchy_numerator(
    h: MultiPoly, dens: Sequence[int], memo: dict[tuple[int, ...], MultiPoly] | None = None
) -> MultiPoly:
    """h(x, y') * prod_i (1 - b z_i)^(d_i) with y'_i = -z_i / (1 - b z_i), a
    polynomial.

    y'_i is the inverse of z_i in the b-deformed group law, so a term
    c * y^e becomes c * prod_i (-z_i)^(e_i) * (1 - b z_i)^(d_i - e_i).  Only
    y_1..y_len(dens) are replaced; an e_i above d_i raises ValueError.
    memo maps each exponent tuple e to its cleared factor; callers with the
    same dens may share one.
    """
    units = [unit(Var("y", i)) for i in range(1, len(dens) + 1)]
    shifts = [shift(Var("y", i)) for i in range(1, len(dens) + 1)]
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for m, c in h._t.items():
        key = tuple((m >> sh) & FIELD_MASK for sh in shifts)
        stripped = m - sum(e * u for e, u in zip(key, units))
        groups.setdefault(key, {})[stripped] = c
    if memo is None:
        memo = {}

    def cleared(key: tuple[int, ...]) -> MultiPoly:
        p = memo.get(key)
        if p is None:
            p = one()
            for i, e in enumerate(key):
                z = zvar(i + 1)
                p = p * (-z) ** e * (one() - beta() * z) ** (dens[i] - e)
            memo[key] = p
        return p

    return dot((cleared(key), MultiPoly._raw(terms)) for key, terms in groups.items())


def _cauchy_sum(
    n: int, ht: Mapping[Permutation, MultiPoly], cleared: str
) -> tuple[MultiPoly, MultiPoly]:
    """The paired sum over w of an H-type table ht against G, with the
    group-law inverse phi(z) = -z / (1 - b z) cleared into one side by the
    common denominator prod_i (1 - b z_i)^(d_i); and that denominator.

    cleared="H" gives sum_w h_w(x, phi(z)) G_{w w0}(y, z), the Cauchy
    left-hand side as the paper writes it.  cleared="G" gives
    sum_w h_w(x, z) G_{w w0}(y, phi(z)), which has the same verdict: phi is
    an involution and the right-hand sides hold no z, so substituting
    z -> phi(z) turns either identity into the other.  G has far fewer
    terms than H or qH, so clearing it is the cheap side: at n = 4 it
    takes 5 to 6.5 times fewer term products.  The d_i are the y-degrees
    of the cleared table itself, G's when G is cleared: no member of it
    can exceed them, and an H member of any y-degree can never make the
    substitution raise.
    """
    gt = family_table(n, "G")
    w0 = longest(n)
    side = gt if cleared == "G" else ht
    dens = [max(p.max_exponent(Var("y", i)) for p in side.values()) for i in range(1, n + 1)]
    pairs = []
    memo: dict[tuple[int, ...], MultiPoly] = {}
    for w in all_perms(n):
        h, g = ht[w], gt[w * w0]
        if cleared == "G":
            numerator = _cauchy_numerator(g, dens, memo)
            pairs.append((h._moved(_SWAP_YZ_MOVES), numerator._moved(SWAP_XY_MOVES)))
        else:
            pairs.append((_cauchy_numerator(h, dens, memo), g._moved(_RECAST_YZ_MOVES)))
    return dot(pairs), _cauchy_numerator(one(), dens, memo)


def _cauchy_mismatch(
    n: int, ht: Mapping[Permutation, MultiPoly], rhs: MultiPoly
) -> tuple[MultiPoly, MultiPoly] | None:
    """None if the Cauchy sum of ht equals rhs (a polynomial free of z);
    else the cleared H-side sum and rhs times its denominator, the two
    polynomials a failure reports."""
    acc, den = _cauchy_sum(n, ht, "G")
    if acc == rhs * den:
        return None
    acc, den = _cauchy_sum(n, ht, "H")
    return acc, rhs * den


@check("cauchy", hard=4, tables=("H", "G"))
def _check_cauchy(n: int, rng: random.Random) -> dict | None:
    mismatch = _cauchy_mismatch(n, family_table(n, "H"), _cauchy_product(n))
    if mismatch is not None:
        lhs, rhs = mismatch
        raise Counterexample(lhs=lhs, rhs=rhs)


@check("orthogonality", tables=("Gx", "Hx"))
def _check_orthogonality(n: int, rng: random.Random) -> dict | None:
    gt = family_table(n, "Gx")
    ht = family_table(n, "Hx")
    w0 = longest(n)
    perms = all_perms(n)
    g_parts = [gt[v].split_x() for v in perms]
    for u in perms:
        # every pairing of H_u through one functional, then compared in order
        for v, val in zip(perms, _paired(ht[u], g_parts, n)):
            expect = one() if v == w0 * u else zero()
            if val != expect:
                raise Counterexample(u=u, v=v, value=val)
    detail = {"order": [list(u.oneline) for u in perms]}
    if n <= 3:
        # every pairing passed, so each entry is 1 at v = w0 u and 0 elsewhere
        detail["matrix"] = [["1" if v == w0 * u else "0" for v in perms] for u in perms]
    return detail


def _monk_sides(
    gt: Mapping[Permutation, MultiPoly], n: int, w: Permutation, k: int
) -> tuple[MultiPoly, MultiPoly]:
    """G_{s_k}(x; w y) G_w and G_id(x; w y) sum_v c_v G_v, the c_v from
    monk_expansion(w, k): the two sides of the Monk rule, unreduced.
    On a y=0 table the y-permutation is the identity and G_id is 1."""
    rhs = dot((gt[v], coef) for v, coef in monk_expansion(w, k).items())
    return permute_y(gt[identity(n).times_s(k)], w) * gt[w], permute_y(gt[identity(n)], w) * rhs


def _signed_or_unsigned(
    n: int,
    cases: Sequence,
    failures: Callable[..., Iterable[bool]],
    sides: Callable[[object], tuple[dict, MultiPoly, MultiPoly]],
    **detail,
) -> dict:
    """The detail of a pass under the first of the signed and unsigned
    ideals where every case holds at every point; else raise Counterexample
    for the first failing case under the unsigned one: sides(case) gives
    its fields and its two sides, and the fields come after the ideal and
    before the difference of the sides, reduced mod the unsigned ideal.

    Membership is decided at the n! points x_i = eps * y_u(i), the zero
    set of the ideal (eps = -1 for the signed one, +1 for the unsigned
    one; see localize), one point at a time.  At each point u,
    failures(at, pending, u, eps) localizes what it reads with at(parts),
    the _x_parts at u, all sharing one image memo, relabels any binomial
    it holds with u and eps (see _x_images), and yields, for each case of
    pending in order, whether it fails at u.  pending is the cases before
    the first failure found so far, so the failure reported is the first
    case in order that fails at any point, and no point's values outlive
    it.

    That is exact.  Z[b][x, y]/I is free over Z[b][y] on the staircase
    monomials (see NormalFormContext), so f is in I iff its normal form
    r = sum_s c_s x^s is 0, and f and r agree at every point.  Over
    Q(b, y) the n! points are distinct and the quotient has dimension n!,
    so I is radical there, the quotient is Q(b, y)^(n!) by evaluation, and
    r vanishes at every point iff every c_s is 0.  So the first failure is
    the one the reduce path finds.
    """
    for ideal, eps in (("signed", -1), ("unsigned", 1)):
        first = len(cases)
        for u in all_perms(n):
            images: dict[int, tuple[int, int]] = {}
            fails = failures(lambda parts: _at_point(parts, u, eps, images), cases[:first], u, eps)
            first = next((i for i, bad in enumerate(fails) if bad), first)
        if first == len(cases):
            return {"ideal": ideal, **detail}
    fields, lhs, rhs = sides(cases[first])
    raise Counterexample(ideal=ideal, **fields, difference=NormalFormContext(n, ideal).reduce(lhs - rhs))


@check("pieri_simple", tables=("Gx",))
def _check_pieri_simple(n: int, rng: random.Random) -> dict | None:
    gt = family_table(n, "Gx")
    ctx = NormalFormContext(n, "x")
    for w in all_perms(n):
        for k in range(1, n):
            lhs, rhs = (ctx.reduce(side) for side in _monk_sides(gt, n, w, k))
            if lhs != rhs:
                raise Counterexample(w=w, k=k, lhs=lhs, rhs=rhs)
    return {"chains": "saturated"}


@check("pieri_double", tables=("G",))
def _check_pieri_double(n: int, rng: random.Random) -> dict | None:
    gt = family_table(n, "G")
    parts = {w: _x_parts(p) for w, p in gt.items()}
    e = identity(n)
    # Case (w, k) is G_{s_k}(x; w y) G_w against G_id(w y) M, M the Monk
    # sum sum_v c_v G_v.  Times b, plus G_id(w y) G_w on both sides, it is
    # P_k(x; w y) G_w against G_id(w y) (G_w + b M), P_k = b G_{s_k} + G_id:
    # b is not 0 in the domain Z[b][y], so each gets the same verdict at
    # each point.  P_k and G_id are split into binomials once, and the
    # images of their y-binomials, which do not depend on the point, are
    # cancelled once per case.
    right = _binomial_split(gt[e], n)
    splits = {k: (_binomial_split(beta() * gt[e.times_s(k)] + gt[e], n), right) for k in range(1, n)}
    cases = []
    for w in all_perms(n):
        for k in range(1, n):
            (lx, ly, lcof), (rx, ry, rcof) = (_relabelled(split, w) for split in splits[k])
            # G_w + b M as (member, y-low b-monomial, coefficient), summed
            # at each point by addmul on the localized members.  No field
            # can carry there: a b-monomial holds b alone, to the power of
            # a Monk chain's length, at most l(w0) <= 28, and a localized
            # member's b field is its rest's, below 1 << (FIELD_BITS - 1)
            # (_x_parts), so the sum stays below 1 << FIELD_BITS
            terms = [(w, 0, 1)] + [
                (v, to_ylow(m), a) for v, c in monk_expansion(w, k).items() for m, a in (beta() * c)._t.items()
            ]
            cases.append((w, k, lx, rx, *_cancel(ly, ry), lcof, rcof, terms))

    def failures(at, pending, u, eps):
        lg = {w: at(p) for w, p in parts.items()}
        for w, _, lx, rx, ly, ry, lcof, rcof, terms in pending:
            total: dict[int, int] = {}
            for v, m, a in terms:
                kernel.addmul(total, lg[v], m, a)
            gw, total = lg[w], kernel.prune(total)
            # G_w and G_w + b M both 0 at u make both sides 0 there, so the
            # case holds at u whatever P_k and G_id come to; the values are
            # computed, so no vanishing theorem is assumed
            if not (gw or total):
                yield False
                continue
            left, right = _cancel(_x_images(lx, u, eps) + ly, _x_images(rx, u, eps) + ry)
            yield _times_images(gw, left, lcof, at) != _times_images(total, right, rcof, at)

    def sides(case: tuple) -> tuple[dict, MultiPoly, MultiPoly]:
        w, k = case[:2]
        return {"w": w, "k": k}, *_monk_sides(gt, n, w, k)

    return _signed_or_unsigned(n, cases, failures, sides, chains="saturated")


def _staircase_packed(n: int) -> list[int]:
    ranges = [range(n - i + 1) for i in range(1, n + 1)]
    out = []
    for exps in itertools.product(*ranges):
        out.append(pack({Var("x", i + 1): e for i, e in enumerate(exps) if e}))
    return sorted(out)


def _random_quotient_poly(n: int, rng: random.Random) -> MultiPoly:
    terms: dict[int, int] = {}
    for m in _staircase_packed(n):
        if rng.random() < 0.5:
            continue
        c0 = rng.randint(-3, 3)
        c1 = rng.randint(-2, 2)
        if c0:
            terms[m] = c0
        if c1:
            terms[m + unit(BETA)] = c1
    if not terms:
        terms[0] = 1
    return MultiPoly._raw(terms)


@check("interpolation", tables=("H", "G"))
def _check_interpolation(n: int, rng: random.Random) -> dict | None:
    samples = 50 if n <= 3 else 12
    hneg = {w: h.negate_vars("y") for w, h in family_table(n, "H").items()}
    gid = family_table(n, "G")[identity(n)].negate_vars("y")
    # pi^y_w is Z[b, x]-linear, so sum_w H_w(x, -y) pi_w(f(y)) is
    # sum_m c_m(b) R_m over the staircase monomials x^m of f, with
    # R_m = sum_w H_w(x, -y) pi_w(y^m) built once per monomial
    basis = {}
    for m in _staircase_packed(n):
        tower = _descent_tower(MultiPoly._raw({m: 1})._moved(SWAP_XY_MOVES), PI_PLUS, "y", n)
        basis[m] = dot((hneg[w], tower[w]) for w in all_perms(n))
    # so if every R_m is x^m G_id(x, -y), every f passes: both sides are
    # then f G_id(x, -y), and no trial needs drawing
    if all(r._t == {k + m: c for k, c in gid._t.items()} for m, r in basis.items()):
        return {"samples": samples}
    for trial in range(samples):
        f = _random_quotient_poly(n, rng)
        lhs = f * gid
        # f is the sum of x^m c_m(b) over its x-parts x^m
        rhs = dot((basis[xpart], rest) for xpart, rest in f.split_x().items())
        if lhs != rhs:
            raise Counterexample(trial=trial, f=f, difference=lhs - rhs)
    return {"samples": samples}


@check("involution", tables=("G", "H"))
def _check_involution(n: int, rng: random.Random) -> dict | None:
    gt, ht = family_table(n, "G"), family_table(n, "H")
    w0, e = longest(n), identity(n)
    # case v is omega(G_v) H_id against (-1)^l(v) H_{w0 v w0} omega(G_id),
    # the sign taken into the H side once; H_id and omega(G_id) are split
    # into binomials once
    parts = (
        {v: _x_parts(omega(p, n)) for v, p in gt.items()},
        {v: _x_parts(ht[w0 * v * w0] * (-1 if v.length() & 1 else 1)) for v in gt},
    )
    (hx, hy, hcof), (gx, gy, gcof) = (_relabelled(_binomial_split(f, n), e) for f in (ht[e], omega(gt[e], n)))

    def failures(at, pending, u, eps):
        lg, lh = ({v: at(p) for v, p in table.items()} for table in parts)
        hid, gid = _cancel(_x_images(hx, u, eps) + hy, _x_images(gx, u, eps) + gy)
        for v in pending:
            yield _times_images(lg[v], hid, hcof, at) != _times_images(lh[v], gid, gcof, at)

    def sides(v: Permutation) -> tuple[dict, MultiPoly, MultiPoly]:
        sign = -1 if v.length() & 1 else 1
        return {"v": v}, omega(gt[v], n) * ht[e], ht[w0 * v * w0] * omega(gt[e], n) * sign

    return _signed_or_unsigned(n, all_perms(n), failures, sides)


@check("moebius", tables=("G", "H"))
def _check_moebius(n: int, rng: random.Random) -> dict | None:
    gt = family_table(n, "G")
    ht = family_table(n, "H")
    w0 = longest(n)
    gid = gt[identity(n)]
    for w in all_perms(n):
        got = apply_perm(PI_PLUS, w0, ht[w], "x")
        expect = gid if w == w0 else zero()
        if got != expect:
            raise Counterexample(family="H", w=w, value=got)
    for w in all_perms(n):
        got = apply_perm(PI_PLUS, w0, gt[w], "x")
        expect = gid * ((beta() * -1) ** (w0 * w).length())
        if got != expect:
            raise Counterexample(family="G", w=w, value=got)


@check("closed_forms", tables=("G", "H"))
def _check_closed_forms(n: int, rng: random.Random) -> dict | None:
    gid = family_table(n, "G")[identity(n)]
    hid = family_table(n, "H")[identity(n)]
    gexp = one()
    hexp = one()
    for k in range(1, n):
        gexp = gexp * (one() - beta() * yvar(k)) ** (n - k)
        hexp = hexp * (one() + beta() * xvar(k)) ** (n - k)
    if gid != gexp:
        raise Counterexample(family="G", difference=gid - gexp)
    if hid != hexp:
        raise Counterexample(family="H", difference=hid - hexp)


@check("dominant", tables=("G",))
def _check_dominant(n: int, rng: random.Random) -> dict | None:
    gt = family_table(n, "G")
    gid = gt[identity(n)]
    count = 0
    for w in all_perms(n):
        if not w.is_dominant():
            continue
        count += 1
        code = w.code()
        # G_w times the binomials 1 - b y_i, one pass each
        images = [(unit(BETA) + unit(Var("y", i)), -1) for c in code for i in range(1, c + 1)]
        lhs = MultiPoly._raw(_times_images(gt[w]._t, images))
        rhs = gid
        for k in range(1, n + 1):
            for i in range(1, code[k - 1] + 1):
                rhs = rhs * (xvar(k) + yvar(i))
        if lhs != rhs:
            raise Counterexample(w=w, difference=lhs - rhs)
    return {"dominant_count": count}


@check("duality", tables=("G", "H"))
def _check_duality(n: int, rng: random.Random) -> dict | None:
    gt = family_table(n, "G")
    ht = family_table(n, "H")
    for w in all_perms(n):
        expect = gt[w.inverse()].negate_vars("b")._moved(SWAP_XY_MOVES)
        if ht[w] != expect:
            raise Counterexample(w=w, difference=ht[w] - expect)


@check("inversion", tables=("G", "H"))
def _check_inversion(n: int, rng: random.Random) -> dict | None:
    gt = family_table(n, "G")
    ht = family_table(n, "H")
    for w in all_perms(n):
        up = [(v, v.length() - w.length()) for v in bruhat_upper(w)]
        hexp = dot((gt[v], beta() ** d) for v, d in up)
        gexp = dot((ht[v], (beta() * -1) ** d) for v, d in up)
        if ht[w] != hexp:
            raise Counterexample(direction="H_from_G", w=w)
        if gt[w] != gexp:
            raise Counterexample(direction="G_from_H", w=w)


def _embedding_failure(
    small: Mapping[Permutation, MultiPoly], big: Mapping[Permutation, MultiPoly], n: int, mode: str
) -> Permutation | None:
    """The first w in S_n whose member small[w] does not embed as the
    rank-(n+1) member big[w.embed(n+1)]: on the nose for mode "exact", up
    to the identity members for mode "ratio"."""
    m = n + 1
    small_id = small[identity(n)]
    big_id = big[identity(m)]
    ratio = None
    if mode == "ratio":
        # Z[x, y, z, b, q] is a domain and small_id != 0, so comparing
        # against the exact quotient gives the cross-multiplied verdict
        try:
            ratio = divexact(big_id, small_id)
        except ArithmeticError:
            pass
        else:
            # the quotient's binomials 1 + c b v (G's prod (1 - b y_j), H's
            # prod (1 + b x_i)) are applied one pass each, and what is left
            # of it, if not 1, as one product
            binomials, cofactor = _binomial_split(ratio, m)
            images = [(unit(BETA) + unit(v), c) for v, c in binomials]
            rest = None if cofactor == 1 else cofactor._t
    for w in all_perms(n):
        big_w = big[w.embed(m)]
        if mode == "exact":
            ok = big_w == small[w]
        elif ratio is not None:
            ok = _times_images(small[w]._t, images, rest, lambda t: t) == big_w._t
        else:
            ok = small[w] * big_id == big_w * small_id
        if not ok:
            return w
    return None


@check("stability", tables=("Gx", "Sx", "S", "G", "H", "Hx"))
def _check_stability(n: int, rng: random.Random) -> dict | None:
    """Embedding into rank n+1 fixes each family up to its identity-member
    normalisation: the quotient P_w / P_id is what embeds on the nose.  The
    normalisation is trivial (so stability is exact) for Schuberts and for
    G at y=0; H_id carries (1 + beta x) factors that survive y=0, so the
    single H goes through the ratio form along with both doubles.
    """
    exact, ratio = ["Gx", "Sx", "S"], ["G", "H", "Hx"]
    embedded = [w.embed(n + 1) for w in all_perms(n)]
    for mode, families in (("exact", exact), ("ratio", ratio)):
        for fam in families:
            # no name holds the members, so one family's are freed before
            # the next family's are built
            w = _embedding_failure(family_table(n, fam), family_members(n + 1, fam, embedded), n, mode)
            if w is not None:
                raise Counterexample(family=fam, w=w, mode=mode)
    return {"embedded_into": n + 1, "exact": exact, "ratio": ratio}


def _staircase_rows(n: int, table: Mapping[Permutation, MultiPoly]) -> list[list[MultiPoly]]:
    """The coefficients of table[w] over the staircase x-monomials, one
    row per w in by_length order.  Raises Counterexample at the first
    member with support outside the staircase."""
    index = {m: j for j, m in enumerate(_staircase_packed(n))}
    rows = []
    for w in by_length(n):
        row = [zero()] * len(index)
        for part, coeff in table[w].split_x().items():
            if part not in index:
                raise Counterexample(w=w, reason="support outside staircase")
            row[index[part]] = coeff
        rows.append(row)
    return rows


@check("basis", soft=3, hard=4, tables=("Gx",))
def _check_basis(n: int, rng: random.Random) -> dict | None:
    det = det_bareiss(_staircase_rows(n, family_table(n, "Gx")))
    if det != one() and det != const(-1):
        raise Counterexample(det=det)
    return {"det": det.text()}


@check("free_module", soft=3, hard=4, tables=("Sx",))
def _check_free_module(n: int, rng: random.Random) -> dict | None:
    # each S_w(x) has staircase x-support, so it is its own normal form mod
    # the unsigned ideal (no rule lead x_i^(n-i+1) divides its monomials)
    det = det_bareiss(_staircase_rows(n, family_table(n, "Sx"))).constant_term()
    if det == 0:
        raise Counterexample(reason="determinant vanished at y=0")
    return {"det_at_y0": det}


# ---------------------------------------------------------------------------
# the quantum checks
# ---------------------------------------------------------------------------


@check("theorem1", hard=4)
def _check_theorem1(n: int, rng: random.Random) -> dict | None:
    got = eval_at_X(quantum_top(n), n)
    expect = top_class(n)
    if got != expect:
        raise Counterexample(difference=got - expect)


@check("corollary1", hard=4, tables=("qS", "qH", "S", "H"))
def _check_corollary1(n: int, rng: random.Random) -> dict | None:
    tables = {fam: family_table(n, fam) for fam in ("qS", "qH", "S", "H")}
    for w in all_perms(n):
        for qfam, cfam in (("qS", "S"), ("qH", "H")):
            got = eval_at_X(tables[qfam][w], n)
            expect = tables[cfam][w]
            if got != expect:
                raise Counterexample(family=qfam, w=w, difference=got - expect)


@check("quantum_cauchy", soft=3, hard=4, tables=("qH", "G"))
def _check_quantum_cauchy(n: int, rng: random.Random) -> dict | None:
    mismatch = _cauchy_mismatch(n, family_table(n, "qH"), quantum_top(n, beta_form=True))
    if mismatch is not None:
        lhs, rhs = mismatch
        raise Counterexample(difference=lhs - rhs)


@check("corollary2", hard=4, tables=("qG", "qGx", "qHx", "bGx", "bHx", "Gx"))
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


@check("remark_id", hard=4, tables=("qG", "qH"))
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


@check("quantization_props", hard=4, tables=("Sx", "qSx"))
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


@check(
    "classical_limit", hard=4,
    tables=("qS", "S", "qH", "H", "qG", "G", "qSx", "Sx", "qHx", "Hx", "qGx", "Gx"),
)
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
@check("quantum_stability", soft=3, hard=3, tables=("qS", "qH", "qG", "qSx", "qHx", "qGx"))
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
