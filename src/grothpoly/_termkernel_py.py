"""Term kernel: the package's only term-map implementation.

The four functions below are the only hot loops in the package; everything
else is orchestration.  A polynomial is a dict mapping packed monomials
(see _packing) to nonzero int coefficients.  Callers reach these functions
through this module object (``from . import _termkernel_py as kernel``).
There is no product here: a product of two maps, or a sum of such
products, is ``poly.dot``, which checks the fields and then makes one
``addmul`` per term of the smaller factor.

All functions treat their inputs as read-only except ``addmul`` and
``addmul_all``, which accumulate into their first argument and may leave
explicit zeros behind (callers prune with ``prune`` once a ladder of
accumulations is done), and ``prune``, which hands back its argument
itself when it holds no zero: most accumulators hold none, and a scan of
the values is cheaper than a copy.  Every caller owns the map it prunes
and drops it after.

``addmul_all`` is the batched ``addmul``: one call sums a whole ladder of
(f, mono, coef) summands.  ``_at_point`` in classical uses it, since a
localized member is the sum of one short rest per x-part (4.4 terms on
average at n = 4), so the cost of a call per summand outweighs the adds.
The 4-argument ``addmul`` stays for the callers that add one summand, or
whose summands come one at a time out of a loop of their own: building a
summand tuple for each costs more there than the call it saves.

``divdiff`` applies any of the five divided-difference operator kinds,
d((1 + s*b*v_j) f) + t*b*f = (1 + s*b*v_i) d(f) + (t - s)*b*f, with one
staircase per term, and returns a pruned map.
"""

from ._packing import FIELD_MASK


def addmul(acc: dict, f: dict, mono: int, coef: int) -> None:
    """acc += coef * x^mono * f, in place.  Zeros may remain."""
    if not coef:
        return
    get = acc.get
    for m, c in f.items():
        k = m + mono
        v = get(k)
        acc[k] = c * coef if v is None else v + c * coef


def addmul_all(acc: dict, summands) -> None:
    """acc += sum of coef * x^mono * f over the (f, mono, coef) summands,
    in place.  Zeros may remain."""
    get = acc.get
    for f, mono, coef in summands:
        if not coef:
            continue
        for m, c in f.items():
            k = m + mono
            v = get(k)
            acc[k] = c * coef if v is None else v + c * coef


def prune(acc: dict) -> dict:
    """Drop explicit zeros left behind by addmul ladders: acc itself if
    no value is 0, else a new map without them.  So the caller must own
    acc and not use it after, since the result may be acc."""
    if 0 not in acc.values():
        return acc
    return {k: v for k, v in acc.items() if v}


def divdiff(f: dict, sh_i: int, sh_j: int, ui: int, uj: int, s: int, t: int, bu: int) -> dict:
    """d((1 + s*b*v_j) * f) + t*b*f at an adjacent pair of variables, where
    d = (1 - s_ij) / (v_i - v_j), s_ij exchanges v_i and v_j (fields at sh_i,
    sh_j, units ui, uj) and b has the packed unit bu.

    Since d(v_j * f) = v_i * d(f) - f, this is (1 + s*b*v_i) * g + (t - s)*b*f
    with g = d(f), so each term of f makes one staircase.  d sends
    v_i^a v_j^e * r to the staircase of v_i^p v_j^(a+e-1-p) * r over
    min(a, e) <= p < max(a, e), signed + when a > e, so nothing is divided;
    v_i * g stays within the fields, since g's v_i exponents are below max(a, e).
    Raises ValueError if (s, t) != (0, 0) and a term holds b^FIELD_MASK.
    """
    if s or t:
        bfull = bu * FIELD_MASK
        for m in f:
            if m & bfull == bfull:
                raise ValueError(f"b would push an exponent past {FIELD_MASK}")
    step = ui - uj  # along a staircase: v_i up one, v_j down one
    g: dict = {}
    get = g.get
    for m, c in f.items():
        d = ((m >> sh_i) & FIELD_MASK) - ((m >> sh_j) & FIELD_MASK)
        if not d:
            continue
        # a staircase of one step, |a - e| = 1, is the one term
        # v_i^min(a, e) v_j^min(a, e) * r, signed by a - e: no loop
        if d == 1:
            k = m - ui
        elif d == -1:
            k, c = m - uj, -c
        else:
            # the staircase of (a, e) starts at m / v_j if a < e, ends there if a > e
            k = m - uj
            if d > 0:
                k -= d * step
            else:
                d, c = -d, -c
            for _ in range(d - 1):
                v = get(k)
                g[k] = c if v is None else v + c
                k += step
        v = get(k)
        g[k] = c if v is None else v + c
    out = g
    if s:
        out = dict(g)
        addmul(out, g, bu + ui, s)
    if t != s:
        addmul(out, f, bu, t - s)
    return prune(out)
