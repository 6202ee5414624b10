"""Exact sparse polynomials over the integers.

MultiPoly is an immutable wrapper around a term map {packed monomial: int}
(see _packing for the packing scheme).  Variables come in five kinds:
x1..x8, y1..y8, z1..z8 (alphabets), b (the deformation parameter) and
q1..q7 (deformation coordinates).  Coefficients are arbitrary-precision
ints, never floats.

RatExpr is the small rational layer needed by a handful of identities:
a numerator polynomial over a tracked denominator prod (1 - b*v)^e where
every v is a y or z variable.  Equality is decided by cross-multiplying,
so no gcd machinery is needed.

>>> f = (xvar(1) + yvar(1)) * (xvar(2) + yvar(1))
>>> print(f)
y1^2 + x1*y1 + x2*y1 + x1*x2
>>> f == f + zero()
True
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Mapping

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
    XDEG_SHIFT,
    Var,
    display_sort_key,
    exponent,
    has_kind,
    kind_degree,
    kind_mask,
    pack,
    shift,
    unit,
    unpack,
    var_from_name,
)

_B_UNIT = unit(BETA)
_B_SHIFT = shift(BETA)


class MultiPoly:
    """Sparse polynomial with int coefficients in the fixed variable pool."""

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[Var, int] | None = None):
        # Public construction is from a {Var: exponent} monomial; use the
        # variable constructors plus arithmetic for anything bigger.
        if terms:
            self._t = {pack(dict(terms)): 1}
        else:
            self._t = {}

    # -- raw plumbing -------------------------------------------------

    @classmethod
    def _raw(cls, term_map: dict[int, int]) -> "MultiPoly":
        p = cls.__new__(cls)
        p._t = term_map
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "MultiPoly":
        return cls._raw({0: int(c)} if c else {})

    @classmethod
    def variable(cls, var: Var) -> "MultiPoly":
        return cls._raw({unit(var): 1})

    @classmethod
    def from_monomials(cls, items: Iterable[tuple[Mapping[Var, int], int]]) -> "MultiPoly":
        acc: dict[int, int] = {}
        for exps, c in items:
            k = pack(dict(exps))
            acc[k] = acc.get(k, 0) + int(c)
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
        return any(has_kind(m, kind) for m in self._t)

    def constant_term(self) -> int:
        return self._t.get(0, 0)

    def leading(self) -> tuple[dict[Var, int], int]:
        """(monomial, coefficient) at the maximum of the graded order."""
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._t)
        return unpack(m), self._t[m]

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
            return MultiPoly._raw(kernel.mul(self._t, other._t))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MultiPoly":
        if not isinstance(e, int) or e < 0:
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

    def times_var(self, var: Var, exp: int = 1) -> "MultiPoly":
        """Fast multiply by a single monomial var^exp."""
        if exp == 0:
            return self
        if exp < 0:
            raise ValueError("exponent must be a nonnegative int")
        if var.kind == "x":
            # x_i <= x-degree, and the x-degree field leads the packed order
            top = max(self._t, default=0) >> XDEG_SHIFT
        else:
            sh = shift(var)
            top = max(map((FIELD_MASK << sh).__and__, self._t), default=0) >> sh
        if top + exp > FIELD_MASK:
            raise ValueError(f"{var.name()}^{exp} would push an exponent past {FIELD_MASK}")
        mono = exp * unit(var)
        return MultiPoly._raw({m + mono: c for m, c in self._t.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._t == ({0: other} if other else {})
        if isinstance(other, MultiPoly):
            return self._t == other._t
        return NotImplemented

    __hash__ = None  # mutable-dict backed; compare by value only

    # -- substitutions and reshaping ----------------------------------

    def set_zero(self, kinds: str | Iterable[str]) -> "MultiPoly":
        """Image under sending every variable of the given kinds to 0."""
        if isinstance(kinds, str):
            kinds = (kinds,)
        mask = 0
        for k in kinds:
            mask |= kind_mask(k)
        return MultiPoly._raw({m: c for m, c in self._t.items() if not m & mask})

    def specialize_beta(self, value: int) -> "MultiPoly":
        """Substitute an integer for b."""
        out: dict[int, int] = {}
        for m, c in self._t.items():
            e = (m >> _B_SHIFT) & FIELD_MASK
            if e:
                c *= value**e
                m -= e * _B_UNIT
            if c:
                out[m] = out.get(m, 0) + c
        return MultiPoly._raw({k: v for k, v in out.items() if v})

    def specialize_q(self, values: Mapping[int, int]) -> "MultiPoly":
        """Substitute integers for the listed q variables."""
        units = {i: (shift(Var("q", i)), unit(Var("q", i))) for i in values}
        out: dict[int, int] = {}
        for m, c in self._t.items():
            for i, v in values.items():
                sh, u = units[i]
                e = (m >> sh) & FIELD_MASK
                if e:
                    c *= v**e
                    m -= e * u
                    if not c:
                        break
            if c:
                out[m] = out.get(m, 0) + c
        return MultiPoly._raw({k: v for k, v in out.items() if v})

    def negate_beta(self) -> "MultiPoly":
        """b -> -b."""
        return MultiPoly._raw(
            {m: (-c if ((m >> _B_SHIFT) & 1) else c) for m, c in self._t.items()}
        )

    def negate_vars(self, kind: str) -> "MultiPoly":
        """v -> -v for every variable of one kind (sign by total degree)."""
        return MultiPoly._raw(
            {m: (-c if (kind_degree(m, kind) & 1) else c) for m, c in self._t.items()}
        )

    def permute_indices(self, kind: str, mapping: Mapping[int, int]) -> "MultiPoly":
        """Relabel variables of one kind along a bijection of indices."""
        img = dict(mapping)
        if sorted(img.values()) != sorted(img):
            raise ValueError("index relabelling must be a bijection")
        units = {i: (shift(Var(kind, i)), unit(Var(kind, i))) for i in img}
        out: dict[int, int] = {}
        for m, c in self._t.items():
            shifted = m
            for i, j in img.items():
                if i == j:
                    continue
                sh, _ = units[i]
                e = (m >> sh) & FIELD_MASK
                if e:
                    shifted += e * (units[j][1] - units[i][1])
            out[shifted] = c  # bijection: no collisions
        return MultiPoly._raw(out)

    def swap_kinds(self, k1: str, k2: str) -> "MultiPoly":
        """Exchange two alphabets index-wise (x_i <-> y_i, say)."""
        out: dict[int, int] = {}
        for m, c in self._t.items():
            exps = unpack(m)
            swapped: dict[Var, int] = {}
            for var, e in exps.items():
                if var.kind == k1:
                    swapped[Var(k2, var.index)] = e
                elif var.kind == k2:
                    swapped[Var(k1, var.index)] = e
                else:
                    swapped[var] = e
            out[pack(swapped)] = c  # bijection on monomials
        return MultiPoly._raw(out)

    def split_by_kinds(self, kinds: tuple[str, ...]) -> dict[int, "MultiPoly"]:
        """Group terms by their monomial part in the given alphabets.

        Keys are packed monomials supported on ``kinds`` only; values hold
        the complementary parts.  Used for coefficient extraction.
        """
        mask = 0
        for k in kinds:
            mask |= kind_mask(k)
        if "x" in kinds:
            mask |= FIELD_MASK << XDEG_SHIFT
        groups: dict[int, dict[int, int]] = {}
        for m, c in self._t.items():
            key = m & mask
            groups.setdefault(key, {})[m - key] = c
        return {k: MultiPoly._raw(t) for k, t in groups.items()}

    def substitute(self, bindings: Mapping[Var, "RatExpr | MultiPoly | int"]) -> "RatExpr":
        """Simultaneous substitution; the result is a tracked-denominator ratio."""
        binds: dict[Var, RatExpr] = {v: RatExpr.lift(r) for v, r in bindings.items()}
        bvars = sorted(binds, key=display_sort_key)
        shifts = [shift(v) for v in bvars]
        units = [unit(v) for v in bvars]
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        for m, c in self._t.items():
            key = tuple((m >> sh) & FIELD_MASK for sh in shifts)
            stripped = m - sum(e * u for e, u in zip(key, units))
            groups.setdefault(key, {})[stripped] = c
        total = RatExpr.lift(0)
        pow_cache: dict[tuple[int, int], RatExpr] = {}
        for key, terms in sorted(groups.items()):
            factor = RatExpr.lift(1)
            for idx, e in enumerate(key):
                if not e:
                    continue
                p = pow_cache.get((idx, e))
                if p is None:
                    p = binds[bvars[idx]] ** e
                    pow_cache[(idx, e)] = p
                factor = factor * p
            total = total + factor * MultiPoly._raw(terms)
        return total

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
            k = (m & ~mask) + (cap - d) * _B_UNIT
            out[k] = out.get(k, 0) + c
        return MultiPoly._raw({k: v for k, v in out.items() if v})

    # -- rendering ----------------------------------------------------

    def text(self) -> str:
        if not self._t:
            return "0"
        chunks: list[str] = []
        for exps, c in self.monomials():
            body = "*".join(
                v.name() if e == 1 else f"{v.name()}^{e}"
                for v, e in sorted(exps.items(), key=lambda p: display_sort_key(p[0]))
            )
            mag = abs(c)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not chunks:
                chunks.append(piece if c > 0 else f"-{piece}")
            else:
                chunks.append(f" + {piece}" if c > 0 else f" - {piece}")
        return "".join(chunks)

    def latex(self) -> str:
        if not self._t:
            return "0"

        def vname(v: Var) -> str:
            return r"\beta" if v.kind == "b" else f"{v.kind}_{{{v.index}}}"

        chunks: list[str] = []
        for exps, c in self.monomials():
            body = " ".join(
                vname(v) if e == 1 else f"{vname(v)}^{{{e}}}"
                for v, e in sorted(exps.items(), key=lambda p: display_sort_key(p[0]))
            )
            mag = abs(c)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag} {body}"
            if not chunks:
                chunks.append(piece if c > 0 else f"-{piece}")
            else:
                chunks.append(f" + {piece}" if c > 0 else f" - {piece}")
        return "".join(chunks)

    def json_obj(self) -> list[dict]:
        out = []
        for exps, c in self.monomials():
            mono = {
                v.name(): e
                for v, e in sorted(exps.items(), key=lambda p: display_sort_key(p[0]))
            }
            out.append({"coef": str(c), "monomial": mono})
        return out

    def dumps(self) -> str:
        return json.dumps(self.json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> "MultiPoly":
        acc: dict[int, int] = {}
        for entry in obj:
            c = int(entry["coef"])
            exps = {var_from_name(name): int(e) for name, e in entry["monomial"].items()}
            for e in exps.values():
                if e < 0:
                    raise ValueError("negative exponent in serialized monomial")
            k = pack(exps)
            acc[k] = acc.get(k, 0) + c
        return cls._raw({k: v for k, v in acc.items() if v})

    @classmethod
    def loads(cls, s: str) -> "MultiPoly":
        return cls.from_json_obj(json.loads(s))

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        t = self.text()
        return f"MultiPoly({t if len(t) <= 60 else t[:57] + '...'})"


def _coerce(v) -> "MultiPoly":
    if isinstance(v, MultiPoly):
        return v
    if isinstance(v, int):
        return MultiPoly.constant(v)
    return NotImplemented


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


# -- rational layer ---------------------------------------------------

_DEN_POW_CACHE: dict[tuple[Var, int], MultiPoly] = {}


def _den_factor(var: Var, e: int) -> MultiPoly:
    """(1 - b*var)^e, cached."""
    got = _DEN_POW_CACHE.get((var, e))
    if got is None:
        got = (one() - beta() * MultiPoly.variable(var)) ** e
        _DEN_POW_CACHE[(var, e)] = got
    return got


def den_poly(den: Mapping[Var, int]) -> MultiPoly:
    p = one()
    for var in sorted(den, key=display_sort_key):
        e = den[var]
        if e:
            p = p * _den_factor(var, e)
    return p


class RatExpr:
    """num / prod (1 - b*v)^e, with every v a y or z variable."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: Mapping[Var, int] | None = None):
        self.num = num
        clean: dict[Var, int] = {}
        for var, e in (den or {}).items():
            if e < 0:
                raise ValueError("denominator exponents must be >= 0")
            if var.kind not in ("y", "z"):
                raise ValueError("denominator factors track y/z variables only")
            if e:
                clean[var] = e
        self.den = clean

    @classmethod
    def lift(cls, v: "RatExpr | MultiPoly | int") -> "RatExpr":
        if isinstance(v, RatExpr):
            return v
        if isinstance(v, MultiPoly):
            return cls(v)
        return cls(MultiPoly.constant(v))

    def den_poly(self) -> MultiPoly:
        return den_poly(self.den)

    def is_polynomial(self) -> bool:
        return not self.den

    def as_poly(self) -> MultiPoly:
        if self.den:
            raise ValueError("nontrivial tracked denominator")
        return self.num

    def lifted_num(self, den: Mapping[Var, int]) -> MultiPoly:
        """Numerator after rescaling to a denominator that dominates ours."""
        extra: dict[Var, int] = {}
        for var, e in den.items():
            gap = e - self.den.get(var, 0)
            if gap < 0:
                raise ValueError("target denominator does not dominate")
            if gap:
                extra[var] = gap
        for var in self.den:
            if var not in den:
                raise ValueError("target denominator does not dominate")
        return self.num * den_poly(extra)

    def __add__(self, other) -> "RatExpr":
        other = RatExpr.lift(other)
        den = dict(self.den)
        for var, e in other.den.items():
            den[var] = max(den.get(var, 0), e)
        return RatExpr(self.lifted_num(den) + other.lifted_num(den), den)

    __radd__ = __add__

    def __sub__(self, other) -> "RatExpr":
        return self + (-RatExpr.lift(other))

    def __rsub__(self, other) -> "RatExpr":
        return RatExpr.lift(other) - self

    def __neg__(self) -> "RatExpr":
        return RatExpr(-self.num, self.den)

    def __mul__(self, other) -> "RatExpr":
        other = RatExpr.lift(other)
        den = dict(self.den)
        for var, e in other.den.items():
            den[var] = den.get(var, 0) + e
        return RatExpr(self.num * other.num, den)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "RatExpr":
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative int")
        return RatExpr(self.num**e, {v: k * e for v, k in self.den.items()})

    def __eq__(self, other) -> bool:
        """Cross-multiplied equality; exact, no cancellation attempted."""
        if isinstance(other, (MultiPoly, int)):
            other = RatExpr.lift(other)
        if not isinstance(other, RatExpr):
            return NotImplemented
        return self.num * other.den_poly() == other.num * self.den_poly()

    __hash__ = None

    def __repr__(self) -> str:
        if not self.den:
            return f"RatExpr({self.num.text()})"
        ds = " * ".join(
            f"(1 - b*{v.name()})^{e}" if e != 1 else f"(1 - b*{v.name()})"
            for v, e in sorted(self.den.items(), key=lambda p: display_sort_key(p[0]))
        )
        return f"RatExpr(({self.num.text()}) / ({ds}))"


def ominus(kind: str, i: int) -> RatExpr:
    """-v / (1 - b*v): the formal inverse of v in the b-deformed group law."""
    v = Var(kind, i)
    return RatExpr(-MultiPoly.variable(v), {v: 1})
