"""Divided differences, their isobaric deformations, and word application.

All operators act on one alphabet (x by default, y on request) and are
exact: the division by v_i - v_{i+1} is performed term by term on the
antisymmetrized input, so no rational arithmetic ever appears.

Every operator kind is one formula in the plain divided difference d_i,

    op_i f = d_i((1 + s*b*v_{i+1}) * f) + t*b*f
           = (1 + s*b*v_i) * d_i(f) + (t - s)*b*f,

with (s, t) = (0, 0) for del, (1, 0) for pi+, (-1, 0) for pi-, (1, 1) for
psi+ and (-1, -1) for psi-.  The kernel builds d_i(f) with one staircase
per term and adds the shifted terms to it.  Conventions, pinned by the
printed rank-3 tables and enforced by tests:

* ``apply_word(kind, [a1, ..., ap], f)`` applies the rightmost letter
  first (operator product order), so the word of a permutation and the
  word of its operator agree.
* ``pi+`` sends 1 to -b and x_1 to 1; the squares obey pi+^2 = -b pi+
  and pi-^2 = +b pi- (measured, and asserted in tests).
* ``psi+`` = pi+ + b and ``psi-`` = pi- - b obey psi+^2 = b psi+ and
  psi-^2 = -b psi-.  Along a reduced word of u their products are the
  Bruhat-interval sums sum_{v<=u} b^(l(u)-l(v)) pi+_v and
  sum_{v<=u} (-b)^(l(u)-l(v)) pi-_v: with T_i = -pi+_i / b idempotent,
  psi+_i = b (1 - T_i), and in the 0-Hecke algebra the product of the
  1 - T_i along a reduced word of u is sum_{v<=u} (-1)^l(v) T_v.

>>> from .poly import xvar, one
>>> print(apply_op(DEL, 1, xvar(1) ** 2))
x1 + x2
>>> print(apply_op(PI_PLUS, 1, one()))
-b
"""

from __future__ import annotations

from collections.abc import Iterable

from . import _termkernel_py as kernel
from ._packing import BETA, adjacent_pair, unit
from .perms import Permutation, first_reduced_word
from .poly import MultiPoly

DEL = "del"
PI_PLUS = "pi+"
PI_MINUS = "pi-"
PSI_PLUS = "psi+"
PSI_MINUS = "psi-"

# kind -> (s, t) of op_i f = d_i((1 + s*b*v_{i+1}) * f) + t*b*f
_SHIFTS = {DEL: (0, 0), PI_PLUS: (1, 0), PI_MINUS: (-1, 0), PSI_PLUS: (1, 1), PSI_MINUS: (-1, -1)}

_B_UNIT = unit(BETA)


def apply_op(kind: str, i: int, f: MultiPoly, alphabet: str = "x") -> MultiPoly:
    """The operator of one kind at the adjacent pair (v_i, v_{i+1}); DEL is
    (f - s_i f) / (v_i - v_{i+1}), computed exactly, where s_i swaps v_i and
    v_{i+1}."""
    try:
        s, t = _SHIFTS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown operator kind {kind!r}") from None
    return MultiPoly._raw(kernel.divdiff(f._t, *adjacent_pair(alphabet, i), s, t, _B_UNIT))


def apply_word(
    kind: str, word: Iterable[int], f: MultiPoly, alphabet: str = "x"
) -> MultiPoly:
    """Compose single-site operators along a word, rightmost letter first.

    Words need not be reduced; non-reduced words simply compose (for the
    plain divided difference the result is then 0).
    """
    for a in reversed(tuple(word)):
        f = apply_op(kind, a, f, alphabet)
    return f


def apply_perm(kind: str, w: Permutation, f: MultiPoly, alphabet: str = "x") -> MultiPoly:
    """Operator indexed by a permutation, via any reduced word."""
    return apply_word(kind, first_reduced_word(w), f, alphabet)

