"""Double Grothendieck, dual Grothendieck and Schubert families, plus the
identity checkers that exercise them.

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
stability checks for the embedded rank-(n+1) members.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cache
from math import comb
from types import MappingProxyType

from . import _termkernel_py as kernel
from ._packing import (
    BETA,
    FIELD_BITS,
    FIELD_MASK,
    MASK_B,
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
    mono_divides,
    pack,
    shift,
    to_ylow,
    unit,
)
from .divdiff import DEL, PI_PLUS, PSI_PLUS, apply_op, apply_perm
from .perms import (
    Permutation,
    all_perms,
    bruhat_upper,
    by_length,
    identity,
    longest,
    transposition,
)
from .poly import (
    MultiPoly,
    _check_product_fields,
    beta,
    const,
    dot,
    one,
    or_monomials,
    relabel_moves,
    xvar,
    yvar,
    zero,
    zvar,
)
from .report import Counterexample, check, check_rank

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


def _staircase_packed(n: int) -> list[int]:
    ranges = [range(n - i + 1) for i in range(1, n + 1)]
    out = []
    for exps in itertools.product(*ranges):
        out.append(pack({Var("x", i + 1): e for i, e in enumerate(exps) if e}))
    return sorted(out)


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
    _signed_or_unsigned).  The ideal "x" has the single point x = 0 and is
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


# ---------------------------------------------------------------------------
# misc transforms used by the checkers
# ---------------------------------------------------------------------------


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


# f(x, y) -> f(y, x), f(x, y) -> f(y, z), and f(x, y) -> f(x, z), as
# mappings for relabel and as the moves they make
SWAP_XY = {Var(a, i): Var(b, i) for a, b in ("xy", "yx") for i in range(1, N_MAX + 1)}
_RECAST_YZ = {Var(a, i): Var(b, i) for a, b in ("xy", "yz", "zx") for i in range(1, N_MAX + 1)}
_SWAP_YZ = {Var(a, i): Var(b, i) for a, b in ("yz", "zy") for i in range(1, N_MAX + 1)}
SWAP_XY_MOVES = relabel_moves(SWAP_XY)
_RECAST_YZ_MOVES = relabel_moves(_RECAST_YZ)
_SWAP_YZ_MOVES = relabel_moves(_SWAP_YZ)


# ---------------------------------------------------------------------------
# identity checkers
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


@check("cauchy", hard=4)
def _check_cauchy(n: int, rng: random.Random) -> dict | None:
    mismatch = _cauchy_mismatch(n, family_table(n, "H"), _cauchy_product(n))
    if mismatch is not None:
        lhs, rhs = mismatch
        raise Counterexample(lhs=lhs, rhs=rhs)


@check("orthogonality")
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


@check("pieri_simple")
def _check_pieri_simple(n: int, rng: random.Random) -> dict | None:
    gt = family_table(n, "Gx")
    ctx = NormalFormContext(n, "x")
    for w in all_perms(n):
        for k in range(1, n):
            lhs, rhs = (ctx.reduce(side) for side in _monk_sides(gt, n, w, k))
            if lhs != rhs:
                raise Counterexample(w=w, k=k, lhs=lhs, rhs=rhs)
    return {"chains": "saturated"}


@check("pieri_double")
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


@check("interpolation")
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
        basis[m] = dot((hneg[w], tower[w]) for w in all_perms(n))._t
    # so if every R_m is x^m G_id(x, -y), every f passes: both sides are
    # then f G_id(x, -y), and no trial needs drawing
    if all(r == {k + m: c for k, c in gid._t.items()} for m, r in basis.items()):
        return {"samples": samples}
    for trial in range(samples):
        f = _random_quotient_poly(n, rng)
        lhs = f * gid
        acc: dict[int, int] = {}
        for t, c in f._t.items():
            xpart = t & MASK_X
            # only a failing check draws trials, so the check costs nothing
            # on the passing path
            _check_product_fields(basis[xpart], {t - xpart: c})
            kernel.addmul(acc, basis[xpart], t - xpart, c)
        rhs = MultiPoly._raw(kernel.prune(acc))
        if lhs != rhs:
            raise Counterexample(trial=trial, f=f, difference=lhs - rhs)
    return {"samples": samples}


@check("involution")
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


@check("moebius")
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


@check("closed_forms")
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


@check("dominant")
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


@check("duality")
def _check_duality(n: int, rng: random.Random) -> dict | None:
    gt = family_table(n, "G")
    ht = family_table(n, "H")
    for w in all_perms(n):
        expect = gt[w.inverse()].negate_vars("b")._moved(SWAP_XY_MOVES)
        if ht[w] != expect:
            raise Counterexample(w=w, difference=ht[w] - expect)


@check("inversion")
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


@check("stability")
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


@check("basis", soft=3, hard=4)
def _check_basis(n: int, rng: random.Random) -> dict | None:
    det = det_bareiss(_staircase_rows(n, family_table(n, "Gx")))
    if det != one() and det != const(-1):
        raise Counterexample(det=det)
    return {"det": det.text()}


@check("free_module", soft=3, hard=4)
def _check_free_module(n: int, rng: random.Random) -> dict | None:
    # each S_w(x) has staircase x-support, so it is its own normal form mod
    # the unsigned ideal (no rule lead x_i^(n-i+1) divides its monomials)
    det = det_bareiss(_staircase_rows(n, family_table(n, "Sx"))).constant_term()
    if det == 0:
        raise Counterexample(reason="determinant vanished at y=0")
    return {"det_at_y0": det}
