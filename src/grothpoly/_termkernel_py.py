"""Term kernel: the package's only term-map implementation.

The four functions below are the only hot loops in the package; everything
else is orchestration.  A polynomial is a dict mapping packed monomials
(see _packing) to nonzero int coefficients.  Callers reach these functions
through this module object (``from . import _termkernel_py as kernel``).

All functions treat their inputs as read-only except ``addmul``, which
accumulates into its first argument and may leave explicit zeros behind
(callers prune with ``prune`` once a ladder of accumulations is done).
``divdiff`` applies any of the five divided-difference operator kinds,
d((1 + s*b*v_j) f) + t*b*f, in one pass and returns a pruned map.
"""

from ._packing import FIELD_MASK


def mul(fa: dict, fb: dict) -> dict:
    """Product of two term maps."""
    if not fa or not fb:
        return {}
    if len(fa) > len(fb):
        fa, fb = fb, fa
    out: dict = {}
    get = out.get
    for ma, ca in fa.items():
        for mb, cb in fb.items():
            k = ma + mb
            v = get(k)
            out[k] = ca * cb if v is None else v + ca * cb
    return {k: v for k, v in out.items() if v}


def addmul(acc: dict, f: dict, mono: int, coef: int) -> None:
    """acc += coef * x^mono * f, in place.  Zeros may remain."""
    if not coef:
        return
    get = acc.get
    for m, c in f.items():
        k = m + mono
        v = get(k)
        acc[k] = c * coef if v is None else v + c * coef


def prune(acc: dict) -> dict:
    """Drop explicit zeros left behind by addmul ladders."""
    return {k: v for k, v in acc.items() if v}


def divdiff(f: dict, sh_i: int, sh_j: int, ui: int, uj: int, s: int, t: int, bu: int) -> dict:
    """d((1 + s*b*v_j) * f) + t*b*f at an adjacent pair of variables, where
    d = (1 - s_ij) / (v_i - v_j), s_ij exchanges v_i and v_j (fields at sh_i,
    sh_j, units ui, uj) and b has the packed unit bu.

    d sends v_i^a v_j^e * r to the staircase of v_i^p v_j^(a+e-1-p) * r over
    min(a, e) <= p < max(a, e), signed + when a > e, so nothing is divided;
    d(v_j * term) is the staircase of (a, e+1), so v_j * f is never formed.
    Raises ValueError if (s, t) != (0, 0) and a term holds b^FIELD_MASK.
    """
    shifted = s or t
    bfull = bu * FIELD_MASK
    step = ui - uj  # along a staircase: v_i up one, v_j down one
    out: dict = {}
    get = out.get
    for m, c in f.items():
        d = ((m >> sh_i) & FIELD_MASK) - ((m >> sh_j) & FIELD_MASK)
        if d:
            # the staircase of (a, e) starts at m / v_j if a < e, ends there if a > e
            k = m - uj
            if d > 0:
                k -= d * step
                cc = c
            else:
                d, cc = -d, -c
            for _ in range(d):
                v = get(k)
                out[k] = cc if v is None else v + cc
                k += step
        if not shifted:
            continue
        if m & bfull == bfull:
            raise ValueError(f"b would push an exponent past {FIELD_MASK}")
        mb = m + bu
        if t:
            v = get(mb)
            out[mb] = t * c if v is None else v + t * c
        if s:
            # s*b times the staircase of (a, e+1), which starts or ends at b*m
            d = ((m >> sh_i) & FIELD_MASK) - ((m >> sh_j) & FIELD_MASK) - 1
            k = mb
            if d > 0:
                k -= d * step
                cc = s * c
            else:
                d, cc = -d, -s * c
            for _ in range(d):
                v = get(k)
                out[k] = cc if v is None else v + cc
                k += step
    return {k: v for k, v in out.items() if v}
