"""Exact sparse polynomials over the integers.

MultiPoly is an immutable wrapper around a term map {packed monomial: int}
(see _packing for the packing scheme).  Variables come in five kinds:
x1..x8, y1..y8, z1..z8 (alphabets), b (the deformation parameter) and
q1..q7 (deformation coordinates).  Coefficients are arbitrary-precision
ints, never floats.

>>> f = (xvar(1) + yvar(1)) * (xvar(2) + yvar(1))
>>> print(f)
y1^2 + x1*y1 + x2*y1 + x1*x2
>>> f == f + zero()
True
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Mapping
from functools import reduce

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
    NUM_SLOTS,
    TOP_BITS,
    XDEG_SHIFT,
    Var,
    fields_mask,
    kind_degree,
    kind_mask,
    pack,
    shift,
    unit,
    unpack,
)

_B_UNIT = unit(BETA)
_B_SHIFT = shift(BETA)


def or_monomials(t: Iterable[int]) -> int:
    """OR of the packed monomials in t: a field is nonzero in it iff its
    variable occurs in some monomial."""
    return reduce(operator.or_, t, 0)


def _field_maxima(t: dict[int, int]) -> list[int]:
    return [max((m >> (s * FIELD_BITS)) & FIELD_MASK for m in t) for s in range(NUM_SLOTS)]


def _check_product_fields(ta: dict[int, int], tb: dict[int, int]) -> None:
    """Raise ValueError if some product of a term of ta and one of tb would
    carry a field past FIELD_MASK.

    Fields below 1 << (FIELD_BITS - 1) cannot carry when added, so one OR
    over each operand's monomials settles the common case; only if a top
    bit is set are the exact per-field maxima compared.
    """
    if not ta or not tb:
        return
    if not (or_monomials(ta) | or_monomials(tb)) & TOP_BITS:
        return
    for a, b in zip(_field_maxima(ta), _field_maxima(tb)):
        if a + b > FIELD_MASK:
            raise ValueError(f"product would push an exponent past {FIELD_MASK}")


# display groups of a packed monomial, in display order: the deformation
# parameters (b, q), the x alphabet, then (y, z)
_BQ = MASK_B | MASK_Q
_YZ = MASK_Y | MASK_Z


class _GroupStrings(dict):
    """Memo of one output format's display-group strings.

    Maps a packed monomial masked to one display group to that group's
    factors in display order, each prefixed by the one-character sep, so
    the three groups of a monomial concatenate to its whole factor list
    with one leading sep.  The empty group maps to "".  Whole monomials are
    never kept.  The memo is shared by the whole process and is emptied
    when it reaches LIMIT entries, so rendering many unrelated polynomials
    keeps at most LIMIT strings per format; a rank-5 table needs ~250.
    """

    __slots__ = ("factor", "sep")
    LIMIT = 1 << 12

    def __init__(self, factor, sep: str):
        super().__init__()
        self.factor = factor
        self.sep = sep

    def __missing__(self, group: int) -> str:
        if len(self) >= self.LIMIT:
            self.clear()
        s = self[group] = "".join(self.sep + self.factor(v, e) for v, e in unpack(group).items())
        return s

    def factors(self, m: int) -> str:
        """The factors of packed monomial m, each prefixed by sep."""
        return self[m & _BQ] + self[m & MASK_X] + self[m & _YZ]


def _power(name, pre: str, post: str):
    return lambda v, e: name(v) if e == 1 else f"{name(v)}{pre}{e}{post}"


_TEXT_GROUPS = _GroupStrings(_power(Var.name, "^", ""), "*")
_LATEX_GROUPS = _GroupStrings(
    _power(lambda v: r"\beta" if v.kind == "b" else f"{v.kind}_{{{v.index}}}", "^{", "}"), " "
)
_JSON_GROUPS = _GroupStrings(lambda v, e: f'"{v.name()}":{e}', ",")


def _term_renderer(groups: _GroupStrings):
    """A MultiPoly renderer: signed terms in canonical order, each the
    coefficient's magnitude (left out when 1 and the monomial is not 1) and
    the monomial's factors, joined by groups.sep.

    Each monomial is groups.factors(m), the concatenation of its three
    memoised display-group strings, with the leading separator dropped.
    """

    def render(self: "MultiPoly") -> str:
        t = self._t
        if not t:
            return "0"
        chunks: list[str] = []
        append, factors_of = chunks.append, groups.factors
        for m in sorted(t):
            factors = factors_of(m)
            c = t[m]
            sign = " + " if c > 0 else " - "
            mag = c if c > 0 else -c
            if not factors:
                append(f"{sign}{mag}")
            elif mag == 1:
                append(sign + factors[1:])
            else:
                append(f"{sign}{mag}{factors}")
        s = "".join(chunks)
        # the first term carries a bare "-" or no sign at all
        return s[3:] if s[1] == "+" else "-" + s[3:]

    return render


class MultiPoly:
    """Sparse polynomial with int coefficients in the fixed variable pool."""

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[Var, int] | None = None):
        # Public construction is from a {Var: exponent} monomial; use the
        # variable constructors plus arithmetic for anything bigger.
        if terms is None:
            self._t = {}
        else:
            self._t = {pack(dict(terms)): 1}

    # -- raw plumbing -------------------------------------------------

    @classmethod
    def _raw(cls, term_map: dict[int, int]) -> "MultiPoly":
        p = cls.__new__(cls)
        p._t = term_map
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "MultiPoly":
        """c as a polynomial; raises ValueError if c is not an int, a bool
        included."""
        if type(c) is not int:
            raise ValueError(f"a coefficient is an int, not {c!r}")
        return cls._raw({0: c} if c else {})

    @classmethod
    def variable(cls, var: Var) -> "MultiPoly":
        return cls._raw({unit(var): 1})

    @classmethod
    def from_monomials(cls, items: Iterable[tuple[Mapping[Var, int], int]]) -> "MultiPoly":
        """The sum of c * monomial over the items; raises ValueError on a c
        that is not an int, a bool included."""
        acc: dict[int, int] = {}
        for exps, c in items:
            if type(c) is not int:
                raise ValueError(f"a coefficient is an int, not {c!r}")
            k = pack(dict(exps))
            acc[k] = acc.get(k, 0) + c
        return cls._raw({k: v for k, v in acc.items() if v})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __len__(self) -> int:
        return len(self._t)

    def monomials(self) -> Iterator[tuple[dict[Var, int], int]]:
        """Terms in ascending canonical order (graded, constant first)."""
        for m in sorted(self._t):
            yield unpack(m), self._t[m]

    def degree(self, kind: str) -> int:
        """Largest total degree in one alphabet (0 for the zero polynomial)."""
        if not self._t:
            return 0
        return max(kind_degree(m, kind) for m in self._t)

    def max_exponent(self, var: Var) -> int:
        if not self._t:
            return 0
        sh = shift(var)
        return max((m >> sh) & FIELD_MASK for m in self._t)

    def uses_kind(self, kind: str) -> bool:
        return bool(or_monomials(self._t) & kind_mask(kind))

    def constant_term(self) -> int:
        return self._t.get(0, 0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big, small = (self._t, other._t) if len(self._t) >= len(other._t) else (other._t, self._t)
        out = dict(big)
        kernel.addmul(out, small, 0, 1)
        return MultiPoly._raw(kernel.prune(out))

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._t)
        kernel.addmul(out, other._t, 0, -1)
        return MultiPoly._raw(kernel.prune(out))

    def __rsub__(self, other) -> "MultiPoly":
        return _coerce(other).__sub__(self)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({m: -c for m, c in self._t.items()})

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            if not other:
                return MultiPoly._raw({})
            return MultiPoly._raw({m: c * other for m, c in self._t.items()})
        if isinstance(other, MultiPoly):
            _check_product_fields(self._t, other._t)
            return MultiPoly._raw(kernel.mul(self._t, other._t))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MultiPoly":
        if type(e) is not int or e < 0:
            raise ValueError("exponent must be a nonnegative int")
        if e > 1:
            # every field of the result is at most e times the base's largest
            cap = FIELD_MASK // e
            for m in self._t:
                while m:
                    if m & FIELD_MASK > cap:
                        raise ValueError(f"power {e} would push an exponent past {FIELD_MASK}")
                    m >>= FIELD_BITS
        result = MultiPoly.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._t == ({0: other} if other else {})
        if isinstance(other, MultiPoly):
            return self._t == other._t
        return NotImplemented

    __hash__ = None  # mutable-dict backed; compare by value only

    # -- substitutions and reshaping ----------------------------------

    def set_zero(self, kind: str) -> "MultiPoly":
        """Image under sending every variable of one kind to 0."""
        mask = kind_mask(kind)
        return MultiPoly._raw({m: c for m, c in self._t.items() if not m & mask})

    def specialize(self, values: Mapping[Var, int]) -> "MultiPoly":
        """Substitute integers for the listed variables, b and q_i say;
        raises ValueError on a value that is not an int.  A variable sent
        to 0 kills every term that holds it: those terms are dropped by
        one mask test, and only the nonzero values are substituted."""
        bad = [value for value in values.values() if not isinstance(value, int)]
        if bad:
            raise ValueError(f"specialize substitutes ints, not {bad[0]!r}")
        zeros = fields_mask(v for v, value in values.items() if not value)
        fields = [(shift(v), unit(v), value) for v, value in values.items() if value]
        if not fields:
            # the kept terms are unchanged, so no two of them collide
            return MultiPoly._raw({m: c for m, c in self._t.items() if not m & zeros})
        out: dict[int, int] = {}
        for m, c in self._t.items():
            if m & zeros:
                continue
            for sh, u, value in fields:
                e = (m >> sh) & FIELD_MASK
                if e:
                    c *= value**e
                    m -= e * u
            if c:
                out[m] = out.get(m, 0) + c
        return MultiPoly._raw({k: v for k, v in out.items() if v})

    def negate_vars(self, kind: str) -> "MultiPoly":
        """v -> -v for every variable of one kind (sign by total degree)."""
        return MultiPoly._raw(
            {m: (-c if (kind_degree(m, kind) & 1) else c) for m, c in self._t.items()}
        )

    def relabel(self, mapping: Mapping[Var, Var]) -> "MultiPoly":
        """Rename variables along a permutation of the mapping's keys:
        x_i <-> y_i, or a reordering of one alphabet's indices, say."""
        if sorted(mapping.values()) != sorted(mapping):
            raise ValueError("relabelling must be a permutation of its keys")
        return self._moved(relabel_moves(mapping))

    def _moved(self, moves: Iterable[tuple[int, int]]) -> "MultiPoly":
        """relabel along relabel_moves of a permutation of variables,
        which is not checked.  Moves whose source no term holds are
        skipped; an x-degree pushed past its field raises ValueError."""
        t = self._t
        used = or_monomials(t)
        moves = [(sh, step) for sh, step in moves if (used >> sh) & FIELD_MASK]
        out: dict[int, int] = {}
        for m, c in t.items():
            k = m
            for sh, step in moves:
                e = (m >> sh) & FIELD_MASK
                if e:
                    k += e * step
            out[k] = c  # a bijection on monomials: no collisions
        if out and max(out) >> XDEG_SHIFT > FIELD_MASK:
            raise ValueError(f"x-degree {max(out) >> XDEG_SHIFT} would pass {FIELD_MASK}")
        return MultiPoly._raw(out)

    def split_x(self) -> dict[int, "MultiPoly"]:
        """Group terms by their x-part.

        Keys are packed x-monomials; values hold the coefficients in the
        other variables.  Used for coefficient extraction.
        """
        groups: dict[int, dict[int, int]] = {}
        for m, c in self._t.items():
            key = m & MASK_X
            groups.setdefault(key, {})[m - key] = c
        return {k: MultiPoly._raw(t) for k, t in groups.items()}

    def beta_weighted(self, cap: int, kind: str = "y") -> "MultiPoly":
        """Substitute 1/b for each variable of one alphabet and clear with b^cap.

        Writing f = sum_J c_J * y^J, the result is sum_J c_J b^(cap-|J|):
        the b^cap-rescaled image of f at y_i = 1/b, computed without ever
        leaving the polynomial ring.  Requires every |J| <= cap.
        """
        mask = kind_mask(kind)
        out: dict[int, int] = {}
        for m, c in self._t.items():
            d = kind_degree(m, kind)
            if d > cap:
                raise ValueError(f"{kind}-degree {d} exceeds clearing power {cap}")
            rest = m & ~mask
            if ((rest >> _B_SHIFT) & FIELD_MASK) + cap - d > FIELD_MASK:
                raise ValueError(f"clearing power {cap} would push b past {FIELD_MASK}")
            k = rest + (cap - d) * _B_UNIT
            out[k] = out.get(k, 0) + c
        return MultiPoly._raw({k: v for k, v in out.items() if v})

    # -- rendering ----------------------------------------------------

    text = _term_renderer(_TEXT_GROUPS)
    latex = _term_renderer(_LATEX_GROUPS)

    def json_obj(self) -> list[dict]:
        """The terms as [{"coef": str, "monomial": {name: exponent}}], in
        canonical order with each monomial's keys in display order."""
        import json  # not at module level: the CLI writes JSON by dumps()

        return json.loads(self.dumps())

    def dumps(self) -> str:
        """Compact JSON of json_obj(), built from the json display-group
        strings with no per-term dict."""
        t, factors_of = self._t, _JSON_GROUPS.factors
        terms: list[str] = []
        for m in sorted(t):
            terms.append(f'{{"coef":"{t[m]}","monomial":{{{factors_of(m)[1:]}}}}}')
        return "[" + ",".join(terms) + "]"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        t = self.text()
        return f"MultiPoly({t if len(t) <= 60 else t[:57] + '...'})"


def _coerce(v) -> "MultiPoly":
    if isinstance(v, MultiPoly):
        return v
    if isinstance(v, int):
        # int(): a bool operand adds as 0 or 1, as it always has
        return MultiPoly.constant(int(v))
    return NotImplemented


def relabel_moves(mapping: Mapping[Var, Var]) -> tuple[tuple[int, int], ...]:
    """(shift(src), unit(dst) - unit(src)) for each variable the mapping
    moves: an exponent e of src moves by e times the unit difference, which
    keeps the x-degree field right across alphabets.  A renaming applied
    again and again builds these once and hands them to MultiPoly._moved.
    """
    return tuple((shift(src), unit(dst) - unit(src)) for src, dst in mapping.items() if src != dst)


def dot(pairs: Iterable[tuple[MultiPoly, MultiPoly]]) -> MultiPoly:
    """The sum of a * b over the pairs, built in one term map and pruned
    once.  Each pair is field-checked as a * b is."""
    acc: dict[int, int] = {}
    for a, b in pairs:
        fa, fb = a._t, b._t
        _check_product_fields(fa, fb)
        if len(fa) > len(fb):
            fa, fb = fb, fa
        for m, c in fa.items():
            kernel.addmul(acc, fb, m, c)
    return MultiPoly._raw(kernel.prune(acc))


# -- variable shorthands ---------------------------------------------


def xvar(i: int) -> MultiPoly:
    return MultiPoly.variable(Var("x", i))


def yvar(i: int) -> MultiPoly:
    return MultiPoly.variable(Var("y", i))


def zvar(i: int) -> MultiPoly:
    return MultiPoly.variable(Var("z", i))


def qvar(i: int) -> MultiPoly:
    return MultiPoly.variable(Var("q", i))


def beta() -> MultiPoly:
    return MultiPoly.variable(BETA)


def const(c: int) -> MultiPoly:
    return MultiPoly.constant(c)


def one() -> MultiPoly:
    return MultiPoly.constant(1)


def zero() -> MultiPoly:
    return MultiPoly.constant(0)

