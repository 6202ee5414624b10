"""Double Grothendieck, dual Grothendieck and Schubert families, the
quotient pairing, the three ideals' normal forms, localization at their
points, and the Monk expansion.

Every family is produced the same way: start from the top polynomial

    prod_{i+j <= n} (x_i + y_j)

and peel it down with divided-difference operators indexed by reduced words.
family_members builds these and the quantum families alike, and alone turns
a TOWERS entry into members: one descent tower, cut down to the members
asked for and those they are peeled from (for the y=0 members of a
y-alphabet family, also to the y-degrees they read), or a y=0 slice of a
cached full table.  family_table asks it for all n! members and caches
the table per rank, since the identity checks read whole tables;
family_member asks it for one, which is one operator chain, and the
stability checks (see checks) for the embedded rank-(n+1) members.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cache
from math import comb
from types import MappingProxyType

from . import _termkernel_py as kernel
from ._packing import (
    BETA,
    FIELD_BITS,
    FIELD_MASK,
    MASK_Q,
    MASK_X,
    MASK_Y,
    MASK_Z,
    N_MAX,
    TOP_BITS,
    XDEG_SHIFT,
    XDEG_UNIT,
    Var,
    from_ylow,
    kind_degree,
    pack,
    shift,
    to_ylow,
    unit,
)
from .divdiff import DEL, PI_PLUS, PSI_PLUS, apply_op
from .perms import Permutation, all_perms, check_rank, identity, longest, transposition
from .poly import MultiPoly, _check_product_fields, beta, dot, one, or_monomials, xvar, yvar, zero

# ---------------------------------------------------------------------------
# symmetric-function helpers
# ---------------------------------------------------------------------------


def elementary(k: int, variables: Sequence[Var]) -> MultiPoly:
    """Elementary symmetric polynomial e_k in the given variables.

    >>> elementary(2, [Var("x", 1), Var("x", 2), Var("x", 3)]).text()
    'x1*x2 + x1*x3 + x2*x3'
    """
    if k < 0:
        return zero()
    if k == 0:
        return one()
    if k > len(variables):
        return zero()
    terms: dict[int, int] = {}
    for combo in itertools.combinations(variables, k):
        m = pack({v: 1 for v in combo})
        terms[m] = terms.get(m, 0) + 1
    return MultiPoly._raw(terms)


def complete_h(k: int, variables: Sequence[Var]) -> MultiPoly:
    """Complete homogeneous symmetric polynomial h_k.

    >>> complete_h(2, [Var("x", 1), Var("x", 2)]).text()
    'x1^2 + x1*x2 + x2^2'
    """
    if k < 0:
        return zero()
    if k == 0:
        return one()
    if not variables:
        return zero()
    terms: dict[int, int] = {}
    for combo in itertools.combinations_with_replacement(variables, k):
        exps: dict[Var, int] = {}
        for v in combo:
            exps[v] = exps.get(v, 0) + 1
        m = pack(exps)
        terms[m] = terms.get(m, 0) + 1
    return MultiPoly._raw(terms)


def _xvars(lo: int, hi: int) -> list[Var]:
    return [Var("x", i) for i in range(lo, hi + 1)]


def _yvars(lo: int, hi: int) -> list[Var]:
    return [Var("y", i) for i in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# family tables
# ---------------------------------------------------------------------------


def top_class(n: int) -> MultiPoly:
    """prod_{i+j <= n} (x_i + y_j), the common seed of all three families,
    built once per rank."""
    check_rank(n)
    return _top_class(n)


# read only behind top_class's rank check: True hashes as 1, so the memo
# alone would answer top_class(True) with top_class(1)
@cache
def _top_class(n: int) -> MultiPoly:
    p = one()
    for i in range(1, n):
        for j in range(1, n - i + 1):
            p = p * (xvar(i) + yvar(j))
    return p


def _descent_tower(
    seed: MultiPoly,
    op_kind: str,
    alphabet: str,
    n: int,
    keys: Iterable[Permutation] | None = None,
    y0: bool = False,
) -> dict[Permutation, MultiPoly]:
    """op_v(seed) for every v in keys (all of S_n when None) and every v
    they are peeled from, one left descent at a time: v is op_a of
    v.s_times(a), a its first left descent.  Each node is built once, so
    one key alone costs l(v) operators.

    With y0, for a y-alphabet tower read only at y = 0, node v keeps only
    its terms of y-degree at most its height h(v), the most operators any
    node peeled from it still takes.  That is exact for every y=0 part
    read: each operator kind on y, d_a((1 + s b y_(a+1)) f) + t b f, sends
    a term of y-degree D to terms of y-degree D - 1 and D, so the y=0 part
    of a node h steps below v reads only v's terms of y-degree at most h.
    """
    peel: dict[Permutation, int] = {}
    for v in all_perms(n) if keys is None else keys:
        while v not in peel and not v.is_identity():
            peel[v] = a = v.left_descents()[0]
            v = v.s_times(a)
    order = sorted(peel, key=Permutation.length)
    e = identity(n)
    table = {e: seed}
    if y0:
        height = dict.fromkeys([e, *order], 0)
        for v in reversed(order):
            parent = v.s_times(peel[v])
            height[parent] = max(height[parent], height[v] + 1)
        # the y-degree of each y-part met, memoised for the whole tower
        degrees: dict[int, int] = {}

        def cut(v: Permutation, p: MultiPoly) -> MultiPoly:
            h = height[v]
            kept = {}
            for m, c in p._t.items():
                d = degrees.get(m & MASK_Y)
                if d is None:
                    d = degrees[m & MASK_Y] = kind_degree(m, "y")
                if d <= h:
                    kept[m] = c
            return MultiPoly._raw(kept)

        table[e] = cut(e, seed)
    for v in order:
        p = apply_op(op_kind, peel[v], table[v.s_times(peel[v])], alphabet)
        table[v] = cut(v, p) if y0 else p
    return table


_TABLE_CACHE: dict[tuple[int, str], Mapping[Permutation, MultiPoly]] = {}

# base family -> (seed at rank n, operator kind, alphabet) of its descent
# tower; the quantum module adds its families at import.
# H_w = psi+_u(top) = sum_{v<=u} b^(l(u)-l(v)) G-tower_v, u = w^-1 w0
TOWERS: dict[str, tuple[Callable[[int], MultiPoly], str, str]] = {
    "S": (top_class, DEL, "x"),
    "G": (top_class, PI_PLUS, "x"),
    "H": (top_class, PSI_PLUS, "x"),
}


def family_members(n: int, family: str, ws: Sequence[Permutation]) -> dict[Permutation, MultiPoly]:
    """Members w in ws of one family at rank n, keyed by permutation.

    family is a key of TOWERS, or one with "x" appended for the y=0
    specialisation; a rank below 1, an unknown family or a w not in S_n
    raises ValueError.  Members are read from the cached table if there
    is one, and a y-alphabet family's y=0 members are sliced from its
    cached full table if there is one.  Otherwise member w is
    op_{key(w)} of the seed, read off one descent tower cut down to the
    keys of ws and the nodes they are peeled from, caching nothing:
    l(key(w)) operators for one member.  An x-alphabet tower keys w by
    w^-1 w0 and peels its y=0 members from the y=0 seed, the x-operators
    treating y as scalars; a y-alphabet tower keys w by w w0 and peels its
    y=0 members from the full seed, each node cut to the y-degrees the
    y=0 members below it read (see _descent_tower).
    """
    check_rank(n)
    if any(w.n != n for w in ws):
        raise ValueError(f"rank mismatch: a member of a rank-{n} family is a permutation in S_{n}")
    cached = _TABLE_CACHE.get((n, family))
    if cached is not None:
        return {w: cached[w] for w in ws}
    base = family[:-1] if family.endswith("x") else family
    if base not in TOWERS:
        raise ValueError(f"unknown family {family!r}")
    seed, op_kind, alphabet = TOWERS[base]
    y0 = base != family and alphabet == "y"
    full = _TABLE_CACHE.get((n, base)) if y0 else None
    if full is not None:
        return {w: full[w].set_zero("y") for w in ws}
    top = seed(n) if base == family or y0 else seed(n).set_zero("y")
    w0 = longest(n)
    keys = {w: w.inverse() * w0 if alphabet == "x" else w * w0 for w in ws}
    tower = _descent_tower(top, op_kind, alphabet, n, keys.values(), y0)
    return {w: tower[key].set_zero("y") if y0 else tower[key] for w, key in keys.items()}


def family_table(n: int, family: str) -> Mapping[Permutation, MultiPoly]:
    """All members of one family at rank n, as a read-only view of the
    cached table."""
    cached = _TABLE_CACHE.get((n, family))
    if cached is None:
        cached = _TABLE_CACHE[n, family] = MappingProxyType(family_members(n, family, all_perms(n)))
    return cached


def family_member(n: int, family: str, w: Permutation) -> MultiPoly:
    """Member w of one family at rank n; see family_members."""
    return family_members(n, family, [w])[w]


def grothendieck_double(w: Permutation) -> MultiPoly:
    return family_member(w.n, "G", w)


def dual_grothendieck_double(w: Permutation) -> MultiPoly:
    return family_member(w.n, "H", w)


def schubert_double(w: Permutation) -> MultiPoly:
    return family_member(w.n, "S", w)


def grothendieck(w: Permutation) -> MultiPoly:
    return family_member(w.n, "Gx", w)


def dual_grothendieck(w: Permutation) -> MultiPoly:
    return family_member(w.n, "Hx", w)


def schubert(w: Permutation) -> MultiPoly:
    return family_member(w.n, "Sx", w)


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------


def eta(f: MultiPoly) -> MultiPoly:
    """Constant term in the x alphabet (the counit of the pairing)."""
    return f.set_zero("x")


def refuse_x_past(used: int, n: int) -> None:
    """Raise ValueError if used, an OR of monomials, holds an x_k with k > n,
    which operators on x_1..x_n would treat as a scalar.  The x_k fields
    sit just below the x-degree field, x_8 highest."""
    if n < N_MAX and (used & (XDEG_UNIT - 1)) >> shift(Var("x", n + 1)):
        raise ValueError(f"an x past x{n} is above the rank {n}")


_B_SHIFT = shift(BETA)

# (n, x-monomial) -> mu of it at rank n, as a term map in b
_MU_CACHE: dict[tuple[int, int], dict[int, int]] = {}


def _mu(n: int, xpart: int) -> dict[int, int]:
    """mu(x^m) = eta(pi_{w_0} x^m) at rank n as a term map in b, by the
    determinant in pairing0's docstring."""
    m = [(xpart >> sh) & FIELD_MASK for sh in _X_SHIFTS[:n]]
    free = n * (n - 1) // 2 - sum(m)

    def minor(j: int, rows: tuple[int, ...]) -> int:
        # Laplace down column j (x_{j+1}, binomial C(j, .)) of the minor
        # on rows; row i holds delta_i = n - 1 - i
        total = 0
        for pos, i in enumerate(rows):
            k = n - 1 - i - m[j]
            if 0 <= k <= j:
                rest = minor(j + 1, rows[:pos] + rows[pos + 1 :]) if j + 1 < n else 1
                total += (-1) ** pos * comb(j, k) * rest
        return total

    det = minor(0, tuple(range(n))) if free >= 0 else 0
    return {free * unit(BETA): det} if det else {}


def _paired(f: MultiPoly, g_parts: Sequence[Mapping[int, MultiPoly]], n: int) -> list[MultiPoly]:
    """<f, g> for each g given by its split_x(), at rank n.

    By bilinearity <f, g> = sum_c g_c(b) * L(c), where the functional
    L(c) = sum_a f_a(b) * mu(x^(a+c)) is built once for each x-part c
    that occurs in g_parts.  Each mu is memoised in _MU_CACHE.
    """
    # unchecked adds: no field can carry.  Every map here holds b alone
    # (split_x took the x-parts off), and a mu adds at most b^(n(n-1)/2).
    # pairing0 refuses an f and g whose b fields with that could pass
    # FIELD_MASK; orthogonality pairs the Hx and Gx tables at rank n <= 5,
    # its hard cap, whose b fields are at most 10 and 4, with n(n-1)/2 <= 10
    f_parts = [(a, fa._t) for a, fa in f.split_x().items()]
    mus = _MU_CACHE
    functional: dict[int, dict[int, int]] = {}
    for c in {c for parts in g_parts for c in parts}:
        acc: dict[int, int] = {}
        for a, fa in f_parts:
            mu = mus.get((n, a + c))
            if mu is None:
                mu = mus[n, a + c] = _mu(n, a + c)
            for bpart, coef in mu.items():
                kernel.addmul(acc, fa, bpart, coef)
        functional[c] = kernel.prune(acc)
    out = []
    for parts in g_parts:
        acc = {}
        for c, gc in parts.items():
            lc = functional[c]
            for bpart, coef in gc._t.items():
                kernel.addmul(acc, lc, bpart, coef)
        out.append(MultiPoly._raw(kernel.prune(acc)))
    return out


def pairing0(f: MultiPoly, g: MultiPoly, n: int) -> MultiPoly:
    """Quotient pairing eta(pi_{w_0}(f*g)) for polynomials in x and beta only.

    Linear in each monomial of the product, so it is read off the value
    mu(x^m) = eta(pi_{w_0} x^m) on each x-monomial, a determinant
    (Lascoux-Schuetzenberger, carried over to the [FK] deformation):
    since pi_i f = d_i((1 + b x_{i+1}) f), pi_{w_0} = d_{w_0} . P with
    P = prod_{j=2..n} (1 + b x_j)^(j-1); and eta . d_{w_0} takes h to
    sum_sigma sgn(sigma) [x^sigma(delta)] h, delta = (n-1, ..., 0), where
    [x^e] (P x^m) = prod_j C(j-1, e_j - m_j) b^(e_j - m_j).  So

        mu(x^m) = b^(N - |m|) * det[C(j-1, n-i-m_j)]_{i,j=1..n},

    N = n(n-1)/2, C(a, k) = 0 outside 0 <= k <= a, and mu = 0 when
    |m| > N.  No divided difference runs.  This is the one-pair case of
    _paired, which orthogonality calls with the whole G table.  Raises
    ValueError on a rank that is not an int or is below 1, if f or g
    holds y, z, q or an x past x_n, and if a field of f*g, or its b times
    the b^N a mu may add, would pass FIELD_MASK.
    """
    check_rank(n)
    used = or_monomials(f._t) | or_monomials(g._t)
    if used & (MASK_Y | MASK_Z | MASK_Q):
        raise ValueError("pairing0 expects polynomials in x and beta only")
    refuse_x_past(used, n)
    _check_product_fields(f._t, g._t)
    if _b_max(f._t) + _b_max(g._t) + n * (n - 1) // 2 > FIELD_MASK:
        raise ValueError(f"pairing would push b past {FIELD_MASK}")
    return _paired(f, [g.split_x()], n)[0]


def _b_max(t: dict[int, int]) -> int:
    return max(((m >> _B_SHIFT) & FIELD_MASK for m in t), default=0)


def expand_dual_basis(f: MultiPoly, n: int) -> dict[Permutation, MultiPoly]:
    """Coefficients c_w(beta) with f = sum_w c_w * H_w(x), via c_w = eta(pi_w f).

    Valid on the staircase span: both Grothendieck families restrict to
    bases there, and pairing f against G_{w_0 w} reads off the coefficient
    of H_w.  Raises ValueError if f holds an x past x_n, which the
    operators on x_1..x_n would treat as a scalar.
    """
    check_rank(n)
    used = or_monomials(f._t)
    if used & (MASK_Y | MASK_Z | MASK_Q):
        raise ValueError("expand_dual_basis expects polynomials in x and beta only")
    refuse_x_past(used, n)
    tower = _descent_tower(f, PI_PLUS, "x", n)
    return {w: eta(tower[w]) for w in all_perms(n)}


# ---------------------------------------------------------------------------
# quotient rings and normal forms
# ---------------------------------------------------------------------------

IDEALS = ("x", "signed", "unsigned")



class NormalFormContext:
    """Reduction mod one of three ideals of Z[beta][x, y].

    ideal="x":        generated by h_{n-i+1}(x_1..x_i), the y-free quotient.
    ideal="unsigned": generated by e_i(x) - e_i(y).
    ideal="signed":   generated by e_i(x) - (-1)^i e_i(y).

    Each choice admits a Groebner-style rewriting system whose i-th rule has
    the monic, pure-x leading monomial x_i^{n-i+1}, so normal forms are
    supported on the staircase exponents e_i <= n-i in x (coefficients may
    involve y and beta).  The quotient is therefore a free Z[beta][y]-module
    on the n! staircase monomials.  For the signed and unsigned ideals the
    generators vanish at the n! points x_i = -+y_u(i), u in S_n, and
    membership in either of them is tested there (see localize and
    checks._signed_or_unsigned).  The ideal "x" has the single point x = 0 and is
    not radical, so membership in it is decided by reduction.

    Reduction is linear over Z[y, beta], so only x-monomials are ever
    reduced, each once per context into a per-instance memo, by a heap over
    x-parts, every x-part carrying its whole Z[y, beta] coefficient;
    ``reduce`` then adds up memo entries scaled by the non-x part of each
    term.
    """

    def __init__(self, n: int, ideal: str = "x"):
        check_rank(n)
        if ideal not in IDEALS:
            raise ValueError(f"ideal must be one of {IDEALS}")
        self.n = n
        self.ideal = ideal
        self._gens = self._build_rules()
        # rule i-1: (shift of x_i, lead exponent, packed lead x_i^e, tail),
        # the tail being g_i minus its lead, grouped by x-part
        self._rules = []
        for i, g in enumerate(self._gens, start=1):
            e = n - i + 1
            lead = e * unit(Var("x", i))
            tail: dict[int, list[tuple[int, int]]] = {}
            for m, c in g._t.items():
                if m != lead:
                    xp = m & MASK_X
                    tail.setdefault(xp, []).append((m - xp, c))
            self._rules.append((shift(Var("x", i)), e, lead, sorted(tail.items())))
        self._nf: dict[int, dict[int, int]] = {}

    def _build_rules(self) -> list[MultiPoly]:
        """The i-th rewriting rule, monic with lead x_i^{n-i+1}, i = 1..n."""
        n = self.n
        rules = []
        for i in range(1, n + 1):
            m = n - i + 1
            g = complete_h(m, _xvars(1, i))
            if self.ideal != "x":
                ys = _yvars(1, n)
                signs = [(-1) ** (b if self.ideal == "unsigned" else m) for b in range(m)]
                g = g - dot(
                    (elementary(b, _xvars(i + 1, n)), complete_h(m - b, ys) * sign)
                    for b, sign in enumerate(signs)
                )
            rules.append(g)
        return rules

    def generators(self) -> list[MultiPoly]:
        """The rewriting rules as polynomials, for inspection and tests."""
        return [MultiPoly._raw(dict(g._t)) for g in self._gens]

    def original_generators(self) -> list[MultiPoly]:
        """e_i(x) minus the matching y-side, i = 1..n (just e_i(x) for ideal x)."""
        n = self.n
        out = []
        for i in range(1, n + 1):
            g = elementary(i, _xvars(1, n))
            if self.ideal == "unsigned":
                g = g - elementary(i, _yvars(1, n))
            elif self.ideal == "signed":
                g = g - elementary(i, _yvars(1, n)) * ((-1) ** i)
            out.append(g)
        return out

    def _x_normal_form(self, xmono: int) -> dict[int, int]:
        """Normal form of one x-monomial, by a heap over x-parts."""
        import heapq  # not at module level: no compute or table request reduces

        coefs = {xmono: {0: 1}}  # x-part -> its Z[y, beta] coefficient
        heap = [-xmono]
        out: dict[int, int] = {}
        while heap:
            xp = -heapq.heappop(heap)
            coef = kernel.prune(coefs.pop(xp))
            if not coef:
                continue
            # the first rule whose lead divides xp
            for sh, e, lead, tail in self._rules:
                if (xp >> sh) & FIELD_MASK >= e:
                    break
            else:
                # The packed order (x-degree, then x8..x1) is additive, so
                # every rule's tail sorts strictly below its lead, also after
                # multiplying by xp / lead: a popped x-part never comes back,
                # and a staircase one is final.  No field can carry in
                # either add below: coef holds no x, so xp lands on empty
                # fields, and every rule is homogeneous in x and y (with
                # no b), so coef's y fields stay at most xmono's x-degree,
                # itself a field
                kernel.addmul(out, coef, xp, 1)
                continue
            cof = xp - lead
            for gx, gterms in tail:
                k = gx + cof
                acc = coefs.get(k)
                if acc is None:
                    acc = coefs[k] = {}
                    heapq.heappush(heap, -k)
                for rest, gc in gterms:
                    kernel.addmul(acc, coef, rest, -gc)
        return out

    def reduce(self, f: MultiPoly) -> MultiPoly:
        """Normal form of f: no x_i appears with exponent above n - i.
        Raises ValueError if a y field of the result would pass FIELD_MASK."""
        nf = self._nf
        # Every rule is homogeneous in x and y, so the normal form of an
        # x-part has its y fields at most its x-degree.  With every field
        # of f, the x-degree included, below 1 << (FIELD_BITS - 1) no add
        # can carry; otherwise each one is checked.
        checked = or_monomials(f._t) & TOP_BITS
        acc: dict[int, int] = {}
        for m, c in f._t.items():
            xp = m & MASK_X
            r = nf.get(xp)
            if r is None:
                r = nf[xp] = self._x_normal_form(xp)
            if checked:
                _check_product_fields(r, {m - xp: c})
            kernel.addmul(acc, r, m - xp, c)
        return MultiPoly._raw(kernel.prune(acc))


# ---------------------------------------------------------------------------
# localization at the points of the signed and unsigned ideals
# ---------------------------------------------------------------------------

# Localized values are term maps in the y-low order of _packing, which
# holds a y-b monomial in the low 72 bits: the checks only test them for
# equality and zero, and what they report is built from the polynomials.
# The shift of x_(i+1) at index i, and the y-low unit of y_j at index j
_X_SHIFTS = [shift(v) for v in _xvars(1, N_MAX)]
_Y_UNITS = [0] + [to_ylow(unit(v)) for v in _yvars(1, N_MAX)]
# the top bit of every field but the x-degree, which localizing drops
_LOCALIZED_TOP_BITS = TOP_BITS & (XDEG_UNIT - 1)


def _x_parts(f: MultiPoly) -> list[tuple[int, dict[int, int]]]:
    """f's terms grouped by x-part, as (x-part, rest), each rest a term
    map in the y-low order.  Raises ValueError on an exponent of
    1 << (FIELD_BITS - 1) or more: moved onto a y field it could carry
    into the next one.  The x-degree is not an exponent here."""
    if any(m & _LOCALIZED_TOP_BITS for m in f._t):
        raise ValueError(f"localize needs every exponent below 1 << {FIELD_BITS - 1}")
    groups: dict[int, dict[int, int]] = {}
    for m, c in f._t.items():
        key = m & MASK_X
        groups.setdefault(key, {})[to_ylow(m - key)] = c
    return list(groups.items())


def _at_point(
    parts: list[tuple[int, dict[int, int]]], u: Permutation, eps: int, images: dict[int, tuple[int, int]]
) -> dict[int, int]:
    """The x-parts of _x_parts, all in x_1..x_(u.n), at the point
    x_i = eps * y_u(i), as a y-low term map: each x-part becomes a signed
    y-monomial, memoised in images (one dict per point, shared by every
    polynomial localized there), and the rests are summed in one
    addmul_all."""
    summands = []
    for xp, rest in parts:
        image = images.get(xp)
        if image is None:
            ymono = sum(((xp >> _X_SHIFTS[i]) & FIELD_MASK) * _Y_UNITS[j] for i, j in enumerate(u))
            sign = -1 if eps < 0 and (xp >> XDEG_SHIFT) & 1 else 1
            image = images[xp] = (ymono, sign)
        summands.append((rest, *image))
    out: dict[int, int] = {}
    # unchecked: no field can carry.  _x_parts refused every field of the
    # member at 1 << (FIELD_BITS - 1) or more, the x-degree aside, so a
    # rest's y field and the x exponent an image moves onto it are each
    # below that, and an image holds no b
    kernel.addmul_all(out, summands)
    return kernel.prune(out)


def localize(f: MultiPoly, u: Permutation, eps: int) -> MultiPoly:
    """f at the point x_i = eps * y_u(i), i = 1..u.n: a polynomial in y and
    beta (and any z or q f carries), the image of a ring homomorphism.

    Each x-part of f becomes the y-monomial it lands on, signed by its
    x-degree parity when eps = -1.  Raises ValueError if f holds an x past
    x_n, or an exponent of 1 << (FIELD_BITS - 1) or more.
    """
    if type(eps) is not int or eps not in (1, -1):
        raise ValueError("eps must be 1 or -1")
    if u.n > N_MAX:
        raise ValueError(f"a point of rank {u.n} needs x{u.n}, past x{N_MAX}")
    refuse_x_past(or_monomials(f._t), u.n)
    return MultiPoly._raw({from_ylow(m): c for m, c in _at_point(_x_parts(f), u, eps, {}).items()})


# ---------------------------------------------------------------------------
# Monk/Pieri support sets
# ---------------------------------------------------------------------------


def monk_expansion(w: Permutation, k: int) -> dict[Permutation, MultiPoly]:
    """Coefficient of G_v(x) in G_{s_k}(x) * G_w(x) mod the one-alphabet ideal.

    Sums beta^{m} over saturated Bruhat chains of m+1 steps
    w < w t_{a_1 b_1} < ... with every a_l <= k < b_l, the pairs taken
    strictly decreasing in the order (b, -a).  Without the chain and
    ordering constraints the endpoints are all length-(l(w)+m+1) products
    w t_{a_1 b_1} ... t_{a_{m+1} b_{m+1}} with every a_l <= k < b_l, which
    admits extra permutations whose terms do not cancel; the constrained
    form is the one the product actually satisfies (cross-checked against
    dual-basis expansion coefficients through rank 4).  Raises ValueError
    unless k is an int (not a bool) in 1..n - 1.  The chains are walked
    once per (w, k); each call returns a new dict.
    """
    n = w.n
    if type(k) is not int or not 1 <= k < n:
        raise ValueError(f"k must lie in 1..{n - 1}, got {k!r}")
    return dict(_monk_terms(w, k))


@cache
def _monk_terms(w: Permutation, k: int) -> tuple[tuple[Permutation, MultiPoly], ...]:
    n = w.n
    pairs = sorted(
        ((b, -a) for a in range(1, k + 1) for b in range(k + 1, n + 1)), reverse=True
    )
    trans = [transposition(-na, b, n) for b, na in pairs]
    out: dict[Permutation, MultiPoly] = {}

    def rec(cur: Permutation, start: int, steps: int) -> None:
        if steps:
            contrib = beta() ** (steps - 1)
            out[cur] = out.get(cur, zero()) + contrib
        for i in range(start, len(trans)):
            nxt = cur * trans[i]
            if nxt.length() == cur.length() + 1:
                rec(nxt, i + 1, steps + 1)

    rec(w, 0, 0)
    return tuple(out.items())
