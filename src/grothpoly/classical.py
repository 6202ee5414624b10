"""Double Grothendieck, dual Grothendieck and Schubert families, plus the
identity checkers that exercise them.

Every family is produced the same way: start from the top polynomial

    prod_{i+j <= n} (x_i + y_j)

and peel it down with divided-difference operators indexed by reduced words.
Tables are cached per rank, so asking for one member builds the whole family
once and answers later queries from the cache.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from types import MappingProxyType
from typing import Mapping, Sequence

from . import _termkernel_py as kernel
from ._packing import BETA, FIELD_MASK, MASK_X, XDEG_SHIFT, Var, mono_divides, pack, shift, unit
from .divdiff import DEL, PI_PLUS, apply_op, apply_perm
from .perms import (
    Permutation,
    all_perms,
    bruhat_lower,
    bruhat_upper,
    by_length,
    identity,
    longest,
    transposition,
)
from .poly import MultiPoly, beta, const, den_poly, ominus, one, xvar, yvar, zero
from .report import VerificationReport

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
    """prod_{i+j <= n} (x_i + y_j), the common seed of all three families."""
    p = one()
    for i in range(1, n):
        for j in range(1, n - i + 1):
            p = p * (xvar(i) + yvar(j))
    return p


def _descent_tower(seed: MultiPoly, op_kind: str, alphabet: str, n: int) -> dict[Permutation, MultiPoly]:
    """op_v(seed) for every v, peeling one left descent at a time."""
    table = {identity(n): seed}
    for v in by_length(n):
        if v.is_identity():
            continue
        a = v.left_descents()[0]
        table[v] = apply_op(op_kind, a, table[v.s_times(a)], alphabet)
    return table


_TABLE_CACHE: dict[tuple[int, str], Mapping[Permutation, MultiPoly]] = {}


def family_table(n: int, family: str) -> Mapping[Permutation, MultiPoly]:
    """All members of one family at rank n, keyed by permutation.

    family is "G" (Grothendieck), "H" (dual Grothendieck) or "S" (Schubert),
    each in the two alphabets x and y; append "x" for the y=0 specialisation.
    The result is a read-only view of the cached table.
    """
    key = (n, family)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    if family.endswith("x"):
        full = family_table(n, family[:-1])
        table = {w: p.set_zero("y") for w, p in full.items()}
    elif family == "S":
        tower = _descent_tower(top_class(n), DEL, "x", n)
        w0 = longest(n)
        table = {w: tower[(w.inverse() * w0)] for w in all_perms(n)}
    elif family == "G":
        tower = _descent_tower(top_class(n), PI_PLUS, "x", n)
        w0 = longest(n)
        table = {w: tower[(w.inverse() * w0)] for w in all_perms(n)}
    elif family == "H":
        tower = _descent_tower(top_class(n), PI_PLUS, "x", n)
        w0 = longest(n)
        table = {}
        for w in all_perms(n):
            u = w.inverse() * w0
            acc: dict[int, int] = {}
            for v in bruhat_lower(u):
                kernel.addmul(acc, tower[v]._t, (u.length() - v.length()) * unit(BETA), 1)
            table[w] = MultiPoly._raw(kernel.prune(acc))
    else:
        raise ValueError(f"unknown family {family!r}")
    _TABLE_CACHE[key] = MappingProxyType(table)
    return _TABLE_CACHE[key]


def grothendieck_double(w: Permutation) -> MultiPoly:
    return family_table(w.n, "G")[w]


def dual_grothendieck_double(w: Permutation) -> MultiPoly:
    return family_table(w.n, "H")[w]


def schubert_double(w: Permutation) -> MultiPoly:
    return family_table(w.n, "S")[w]


def grothendieck(w: Permutation) -> MultiPoly:
    return family_table(w.n, "Gx")[w]


def dual_grothendieck(w: Permutation) -> MultiPoly:
    return family_table(w.n, "Hx")[w]


def schubert(w: Permutation) -> MultiPoly:
    return family_table(w.n, "Sx")[w]


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------


def eta(f: MultiPoly) -> MultiPoly:
    """Constant term in the x alphabet (the counit of the pairing)."""
    return f.set_zero("x")


def scalar_product(f: MultiPoly, g: MultiPoly, n: int, quotient: bool = False) -> MultiPoly:
    """pi_{w_0}(f * g); with quotient=True, followed by eta."""
    p = apply_perm(PI_PLUS, longest(n), f * g, "x")
    return eta(p) if quotient else p


_MU_CACHE: dict[tuple[int, int], dict[int, int]] = {}


def pairing0(f: MultiPoly, g: MultiPoly, n: int) -> MultiPoly:
    """Quotient pairing eta(pi_{w_0}(f*g)) for polynomials in x and beta only.

    Linear in each monomial of the product, so the value of the functional
    eta . pi_{w_0} on each x-monomial is computed once and reused.  Same
    answer as scalar_product(..., quotient=True), much faster on big tables.
    """
    for p in (f, g):
        if p.uses_kind("y") or p.uses_kind("z") or p.uses_kind("q"):
            raise ValueError("pairing0 expects polynomials in x and beta only")
    prod = f * g
    xmask = ~((FIELD_MASK << shift(BETA)))
    acc: dict[int, int] = {}
    w0 = longest(n)
    for m, c in prod._t.items():
        bpart = m & (FIELD_MASK << shift(BETA))
        xpart = m & xmask
        mu = _MU_CACHE.get((n, xpart))
        if mu is None:
            val = eta(apply_perm(PI_PLUS, w0, MultiPoly._raw({xpart: 1}), "x"))
            mu = val._t
            _MU_CACHE[(n, xpart)] = mu
        kernel.addmul(acc, mu, bpart, c)
    return MultiPoly._raw(kernel.prune(acc))


def expand_dual_basis(f: MultiPoly, n: int) -> dict[Permutation, MultiPoly]:
    """Coefficients c_w(beta) with f = sum_w c_w * H_w(x), via c_w = eta(pi_w f).

    Valid on the staircase span: both Grothendieck families restrict to
    bases there, and pairing f against G_{w_0 w} reads off the coefficient
    of H_w.
    """
    if f.uses_kind("y") or f.uses_kind("z") or f.uses_kind("q"):
        raise ValueError("expand_dual_basis expects polynomials in x and beta only")
    tower = _descent_tower(f, PI_PLUS, "x", n)
    return {w: eta(tower[w]) for w in all_perms(n)}


# ---------------------------------------------------------------------------
# quotient rings and normal forms
# ---------------------------------------------------------------------------

IDEALS = ("x", "signed", "unsigned")
_XPART = MASK_X | FIELD_MASK << XDEG_SHIFT  # the x exponents and x-degree of a monomial


def staircase_monomials(n: int) -> list[MultiPoly]:
    """The n! monomials prod x_i^{e_i} with e_i <= n-i, in canonical order."""
    return [MultiPoly._raw({m: 1}) for m in _staircase_packed(n)]


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
    involve y and beta).

    Reduction is linear over Z[y, beta], so only x-monomials are ever
    reduced.  Each x-monomial's normal form is found once per context by a
    heap over x-parts, every x-part carrying its whole Z[y, beta]
    coefficient, and kept in a per-instance memo; ``reduce`` then adds up
    memo entries scaled by the non-x part of each term.
    """

    def __init__(self, n: int, ideal: str = "x"):
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
                    xp = m & _XPART
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
                tail = zero()
                for b in range(0, n - i + 1):
                    sign = (-1) ** b if self.ideal == "unsigned" else (-1) ** m
                    tail = tail + (
                        elementary(b, _xvars(i + 1, n)) * complete_h(m - b, ys) * sign
                    )
                g = g - tail
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

    def _reducer_for(self, xpart: int) -> int | None:
        """Index into _rules of the first rule whose lead divides xpart."""
        for i, (sh, e, _, _) in enumerate(self._rules):
            if (xpart >> sh) & FIELD_MASK >= e:
                return i
        return None

    def _x_normal_form(self, xmono: int) -> dict[int, int]:
        """Normal form of one x-monomial, by a heap over x-parts."""
        coefs = {xmono: {0: 1}}  # x-part -> its Z[y, beta] coefficient
        heap = [-xmono]
        out: dict[int, int] = {}
        while heap:
            xp = -heapq.heappop(heap)
            coef = kernel.prune(coefs.pop(xp))
            if not coef:
                continue
            i = self._reducer_for(xp)
            if i is None:
                # The packed order (x-degree, then x8..x1) is additive, so
                # every rule's tail sorts strictly below its lead, also after
                # multiplying by xp / lead: a popped x-part never comes back,
                # and a staircase one is final.
                kernel.addmul(out, coef, xp, 1)
                continue
            _, _, lead, tail = self._rules[i]
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
        """Normal form of f: no x_i appears with exponent above n - i."""
        nf = self._nf
        acc: dict[int, int] = {}
        for m, c in f._t.items():
            xp = m & _XPART
            r = nf.get(xp)
            if r is None:
                r = nf[xp] = self._x_normal_form(xp)
            kernel.addmul(acc, r, m - xp, c)
        return MultiPoly._raw(kernel.prune(acc))

    def contains(self, f: MultiPoly) -> bool:
        return self.reduce(f).is_zero()


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


def monk_expansion(w: Permutation, k: int) -> dict[Permutation, MultiPoly]:
    """Coefficient of G_v(x) in G_{s_k}(x) * G_w(x) mod the one-alphabet ideal.

    Sums beta^{m} over saturated Bruhat chains of m+1 steps
    w < w t_{a_1 b_1} < ... with every a_l <= k < b_l, the pairs taken
    strictly decreasing in the order (b, -a).  Without the chain and
    ordering constraints the endpoint set is pieri_targets, which admits
    extra permutations whose terms do not cancel; the constrained form is
    the one the product actually satisfies (cross-checked against
    dual-basis expansion coefficients through rank 4).
    """
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
    return out


# ---------------------------------------------------------------------------
# misc transforms used by the checkers
# ---------------------------------------------------------------------------


def omega(f: MultiPoly, n: int) -> MultiPoly:
    """Reverse both alphabets: x_i -> x_{n+1-i} and y_i -> y_{n+1-i}."""
    flip = {i: n + 1 - i for i in range(1, n + 1)}
    return f.permute_indices("x", flip).permute_indices("y", flip)


def permute_y(f: MultiPoly, w: Permutation) -> MultiPoly:
    """y_i -> y_{w(i)}."""
    return f.permute_indices("y", {i: w(i) for i in range(1, w.n + 1)})


def _recast_yz(f: MultiPoly) -> MultiPoly:
    """f(x, y) -> f(y, z)."""
    return f.swap_kinds("y", "z").swap_kinds("x", "y")


# ---------------------------------------------------------------------------
# identity checkers
# ---------------------------------------------------------------------------


def _poly_json(p: MultiPoly) -> list:
    return p.json_obj()


def _check_cauchy(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    gt = family_table(n, "G")
    ht = family_table(n, "H")
    w0 = longest(n)

    dens: dict[Var, int] = {}
    for h in ht.values():
        for i in range(1, n + 1):
            d = h.max_exponent(Var("y", i))
            zi = Var("z", i)
            if d > dens.get(zi, 0):
                dens[zi] = d
    bindings = {Var("y", i): ominus("z", i) for i in range(1, n + 1)}

    acc = zero()
    for w in all_perms(n):
        r = ht[w].substitute(bindings)
        num = r.lifted_num(dens)
        acc = acc + num * _recast_yz(gt[w * w0])

    rhs = one()
    for i in range(1, n):
        for j in range(1, n - i + 1):
            rhs = rhs * (xvar(i) + yvar(j) + beta() * xvar(i) * yvar(j))
    rhs = rhs * den_poly(dens)
    if acc == rhs:
        return True, None, None
    return False, {"lhs": _poly_json(acc), "rhs": _poly_json(rhs)}, None


def _check_orthogonality(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    gt = family_table(n, "Gx")
    ht = family_table(n, "Hx")
    w0 = longest(n)
    perms = all_perms(n)
    matrix = []
    for u in perms:
        row = []
        for v in perms:
            val = pairing0(ht[u], gt[v], n)
            expect = one() if v == w0 * u else zero()
            if val != expect:
                return (
                    False,
                    {"u": list(u.oneline), "v": list(v.oneline), "value": _poly_json(val)},
                    None,
                )
            row.append(val.text())
        matrix.append(row)
    detail = {"order": [list(u.oneline) for u in perms]}
    if n <= 3:
        detail["matrix"] = matrix
    return True, None, detail


def _check_pieri_simple(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    gt = family_table(n, "Gx")
    ctx = NormalFormContext(n, "x")
    for w in all_perms(n):
        for k in range(1, n):
            sk = identity(n).times_s(k)
            lhs = ctx.reduce(gt[sk] * gt[w])
            rhs = zero()
            for v, coef in monk_expansion(w, k).items():
                rhs = rhs + gt[v] * coef
            rhs = ctx.reduce(rhs)
            if lhs != rhs:
                return (
                    False,
                    {
                        "w": list(w.oneline),
                        "k": k,
                        "lhs": _poly_json(lhs),
                        "rhs": _poly_json(rhs),
                    },
                    None,
                )
    return True, None, {"chains": "saturated"}


def _check_pieri_double(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    gt = family_table(n, "G")
    last_fail: dict | None = None
    for ideal in ("signed", "unsigned"):
        ctx = NormalFormContext(n, ideal)
        ok = True
        for w in all_perms(n):
            for k in range(1, n):
                sk = identity(n).times_s(k)
                lhs = ctx.reduce(permute_y(gt[sk], w) * gt[w])
                rhs = zero()
                for v, coef in monk_expansion(w, k).items():
                    rhs = rhs + gt[v] * coef
                rhs = ctx.reduce(permute_y(gt[identity(n)], w) * rhs)
                if lhs != rhs:
                    ok = False
                    last_fail = {
                        "ideal": ideal,
                        "w": list(w.oneline),
                        "k": k,
                        "difference": _poly_json(lhs - rhs),
                    }
                    break
            if not ok:
                break
        if ok:
            return True, None, {"ideal": ideal, "chains": "saturated"}
    return False, last_fail, None


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


def _check_interpolation(n: int, rng: random.Random, samples: int | None = None) -> tuple[bool, dict | None, dict | None]:
    if samples is None:
        samples = 50 if n <= 3 else 12
    ht = family_table(n, "H")
    gid = family_table(n, "G")[identity(n)].negate_vars("y")
    hneg = {w: h.negate_vars("y") for w, h in ht.items()}
    for trial in range(samples):
        f = _random_quotient_poly(n, rng)
        fy = f.swap_kinds("x", "y")
        tower = _descent_tower(fy, PI_PLUS, "y", n)
        lhs = f * gid
        rhs = zero()
        for w in all_perms(n):
            rhs = rhs + hneg[w] * tower[w]
        if lhs != rhs:
            return (
                False,
                {"trial": trial, "f": _poly_json(f), "difference": _poly_json(lhs - rhs)},
                None,
            )
    return True, None, {"samples": samples}


def _check_involution(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    gt = family_table(n, "G")
    ht = family_table(n, "H")
    w0 = longest(n)
    hid = ht[identity(n)]
    gid_om = omega(gt[identity(n)], n)
    last_fail: dict | None = None
    for ideal in ("signed", "unsigned"):
        ctx = NormalFormContext(n, ideal)
        ok = True
        for v in all_perms(n):
            lhs = omega(gt[v], n) * hid
            rhs = ht[w0 * v * w0] * gid_om * ((-1) ** v.length())
            if not ctx.contains(lhs - rhs):
                ok = False
                last_fail = {
                    "ideal": ideal,
                    "v": list(v.oneline),
                    "difference": _poly_json(ctx.reduce(lhs - rhs)),
                }
                break
        if ok:
            return True, None, {"ideal": ideal}
    return False, last_fail, None


def _check_moebius(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    gt = family_table(n, "G")
    ht = family_table(n, "H")
    w0 = longest(n)
    gid = gt[identity(n)]
    for w in all_perms(n):
        got = apply_perm(PI_PLUS, w0, ht[w], "x")
        expect = gid if w == w0 else zero()
        if got != expect:
            return False, {"family": "H", "w": list(w.oneline), "value": _poly_json(got)}, None
    for w in all_perms(n):
        got = apply_perm(PI_PLUS, w0, gt[w], "x")
        expect = gid * ((beta() * -1) ** (w0 * w).length())
        if got != expect:
            return False, {"family": "G", "w": list(w.oneline), "value": _poly_json(got)}, None
    return True, None, None


def _check_closed_forms(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    gid = family_table(n, "G")[identity(n)]
    hid = family_table(n, "H")[identity(n)]
    gexp = one()
    hexp = one()
    for k in range(1, n):
        gexp = gexp * (one() - beta() * yvar(k)) ** (n - k)
        hexp = hexp * (one() + beta() * xvar(k)) ** (n - k)
    if gid != gexp:
        return False, {"family": "G", "difference": _poly_json(gid - gexp)}, None
    if hid != hexp:
        return False, {"family": "H", "difference": _poly_json(hid - hexp)}, None
    return True, None, None


def _check_dominant(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    gt = family_table(n, "G")
    gid = gt[identity(n)]
    count = 0
    for w in all_perms(n):
        if not w.is_dominant():
            continue
        count += 1
        code = w.code()
        lhs = gt[w]
        rhs = gid
        for k in range(1, n + 1):
            for i in range(1, code[k - 1] + 1):
                lhs = lhs * (one() - beta() * yvar(i))
                rhs = rhs * (xvar(k) + yvar(i))
        if lhs != rhs:
            return False, {"w": list(w.oneline), "difference": _poly_json(lhs - rhs)}, None
    return True, None, {"dominant_count": count}


def _check_duality(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    gt = family_table(n, "G")
    ht = family_table(n, "H")
    for w in all_perms(n):
        expect = gt[w.inverse()].negate_beta().swap_kinds("x", "y")
        if ht[w] != expect:
            return (
                False,
                {"w": list(w.oneline), "difference": _poly_json(ht[w] - expect)},
                None,
            )
    return True, None, None


def _check_inversion(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    gt = family_table(n, "G")
    ht = family_table(n, "H")
    for w in all_perms(n):
        up = bruhat_upper(w)
        hexp = zero()
        gexp = zero()
        for v in up:
            d = v.length() - w.length()
            hexp = hexp + gt[v] * (beta() ** d)
            gexp = gexp + ht[v] * ((beta() * -1) ** d)
        if ht[w] != hexp:
            return False, {"direction": "H_from_G", "w": list(w.oneline)}, None
        if gt[w] != gexp:
            return False, {"direction": "G_from_H", "w": list(w.oneline)}, None
    return True, None, None


def _check_stability(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    """Embedding into rank n+1 fixes each family up to its identity-member
    normalisation: the quotient P_w / P_id is what embeds on the nose.  The
    normalisation is trivial (so stability is exact) for Schuberts and for
    G at y=0; H_id carries (1 + beta x) factors that survive y=0, so the
    single H goes through the ratio form along with both doubles.
    """
    m = n + 1
    for fam in ("Gx", "Sx", "S"):
        small = family_table(n, fam)
        big = family_table(m, fam)
        for w in all_perms(n):
            if big[w.embed(m)] != small[w]:
                return False, {"family": fam, "w": list(w.oneline), "mode": "exact"}, None
    for fam in ("G", "H", "Hx"):
        small = family_table(n, fam)
        big = family_table(m, fam)
        small_id = small[identity(n)]
        big_id = big[identity(m)]
        for w in all_perms(n):
            if small[w] * big_id != big[w.embed(m)] * small_id:
                return False, {"family": fam, "w": list(w.oneline), "mode": "ratio"}, None
    return True, None, {
        "embedded_into": m,
        "exact": ["Gx", "Sx", "S"],
        "ratio": ["G", "H", "Hx"],
    }


def _check_basis(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    gt = family_table(n, "Gx")
    stair = _staircase_packed(n)
    index = {m: j for j, m in enumerate(stair)}
    rows = []
    for w in by_length(n):
        row = [zero()] * len(stair)
        for part, coeff in gt[w].split_by_kinds(("x",)).items():
            j = index.get(part)
            if j is None:
                return (
                    False,
                    {"w": list(w.oneline), "reason": "support outside staircase"},
                    None,
                )
            row[j] = coeff
        rows.append(row)
    det = det_bareiss(rows)
    if det == one() or det == const(-1):
        return True, None, {"det": det.text()}
    return False, {"det": _poly_json(det)}, None


def _check_free_module(n: int, rng: random.Random) -> tuple[bool, dict | None, dict | None]:
    st = family_table(n, "Sx")
    ctx = NormalFormContext(n, "unsigned")
    stair = _staircase_packed(n)
    index = {m: j for j, m in enumerate(stair)}
    rows = []
    for w in by_length(n):
        reduced = ctx.reduce(st[w])
        row = [0] * len(stair)
        for part, coeff in reduced.split_by_kinds(("x",)).items():
            j = index.get(part)
            if j is None:
                return (
                    False,
                    {"w": list(w.oneline), "reason": "support outside staircase"},
                    None,
                )
            row[j] = coeff.set_zero("y").constant_term()
        rows.append(row)
    det = _int_det(rows)
    if det != 0:
        return True, None, {"det_at_y0": det}
    return False, {"reason": "determinant vanished at y=0"}, None


def _int_det(rows: list[list[int]]) -> int:
    size = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


CLASSICAL_CHECKS = {
    "cauchy": _check_cauchy,
    "orthogonality": _check_orthogonality,
    "pieri_simple": _check_pieri_simple,
    "pieri_double": _check_pieri_double,
    "interpolation": _check_interpolation,
    "involution": _check_involution,
    "moebius": _check_moebius,
    "closed_forms": _check_closed_forms,
    "dominant": _check_dominant,
    "duality": _check_duality,
    "inversion": _check_inversion,
    "stability": _check_stability,
    "basis": _check_basis,
    "free_module": _check_free_module,
}

# ranks above these need force=True; hard caps are never crossed
_DEFAULT_N = {"basis": 3, "free_module": 3}
_HARD_N = {"basis": 4, "free_module": 4}
_DEFAULT_N_ANY = 4
_HARD_N_ANY = 5


def rank_caps(check_id: str) -> tuple[int, int]:
    """(default cap, forced cap) for one checker id."""
    if check_id not in CLASSICAL_CHECKS:
        raise KeyError(f"unknown check {check_id!r}")
    return (
        _DEFAULT_N.get(check_id, _DEFAULT_N_ANY),
        _HARD_N.get(check_id, _HARD_N_ANY),
    )


def verify_classical(check_id: str, n: int, seed: int = 0, force: bool = False) -> VerificationReport:
    if check_id not in CLASSICAL_CHECKS:
        raise KeyError(f"unknown check {check_id!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    soft = _DEFAULT_N.get(check_id, _DEFAULT_N_ANY)
    hard = _HARD_N.get(check_id, _HARD_N_ANY)
    if n > hard:
        raise ValueError(f"{check_id} is capped at n={hard}")
    if n > soft and not force:
        raise ValueError(f"{check_id} above n={soft} needs force=True")
    rng = random.Random(seed)
    start = time.perf_counter()
    ok, counterexample, detail = CLASSICAL_CHECKS[check_id](n, rng)
    ms = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        check_id=check_id,
        n=n,
        status="pass" if ok else "fail",
        counterexample=counterexample,
        ms=ms,
        detail=detail,
    )
