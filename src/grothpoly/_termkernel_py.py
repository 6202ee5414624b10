"""Term kernel: the package's only term-map implementation.

The four functions below are the only hot loops in the package; everything
else is orchestration.  A polynomial is a dict mapping packed monomials
(see _packing) to nonzero int coefficients.  Callers reach these functions
through this module object (``from . import _termkernel_py as kernel``).

All functions treat their inputs as read-only except ``addmul``, which
accumulates into its first argument and may leave explicit zeros behind
(callers prune with ``prune`` once a ladder of accumulations is done).
"""

FIELD_MASK = (1 << 16) - 1


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


def divdiff(f: dict, sh_i: int, sh_j: int, ui: int, uj: int) -> dict:
    """Divided difference at an adjacent pair of variables.

    For each monomial v_i^a v_j^b * r the image is the staircase sum
      a > b:  + sum_{t=0}^{a-b-1} v_i^(a-1-t) v_j^(b+t) * r
      a < b:  - sum_{t=0}^{b-a-1} v_i^(a+t) v_j^(b-1-t) * r
      a == b: 0
    which is (f - s_ij f) / (v_i - v_j), s_ij exchanging v_i and v_j, computed
    without the division.
    """
    out: dict = {}
    get = out.get
    for m, c in f.items():
        a = (m >> sh_i) & FIELD_MASK
        b = (m >> sh_j) & FIELD_MASK
        if a == b:
            continue
        base = m - a * ui - b * uj
        if a > b:
            for t in range(a - b):
                k = base + (a - 1 - t) * ui + (b + t) * uj
                v = get(k)
                out[k] = c if v is None else v + c
        else:
            for t in range(b - a):
                k = base + (a + t) * ui + (b - 1 - t) * uj
                v = get(k)
                out[k] = -c if v is None else v - c
    return {k: v for k, v in out.items() if v}
