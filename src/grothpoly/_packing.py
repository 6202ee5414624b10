"""Bit-packed monomial layout shared by every polynomial in the package.

A monomial is a single Python int made of 33 fields of 8 bits each.  From
the least significant field upwards:

    q1..q7 | b | z1..z8 | y1..y8 | x1..x8 | xdeg

where ``xdeg`` is the redundant total degree in the x alphabet.  Two
consequences drive the whole design:

* multiplying monomials is integer addition (fields are wide enough that
  no exponent reachable here can carry into a neighbour: the largest
  field of any member the CLI reaches is 20, b in the rank-5 bH members,
  and every guard refuses what would pass FIELD_MASK), and
* comparing packed ints compares total x-degree first, then the exponents
  of x8 down to x1, then the remaining fields in a fixed order.  That is
  exactly the graded order the quotient-ring division needs: ``max`` of a
  term map is the leading monomial, and the leading monomial of
  h_k(x1..xi) is xi^k.

The layout is one table, ``_LAYOUT``: kind -> (first slot, first index,
count).  Variable slots (``_slot``), kind masks (``kind_mask``, ``MASK_*``)
and the unpacking plan are all read off it.  The xdeg field takes the slot
after x8 and belongs to the x kind: the x unit and the x mask cover it, so
moving an exponent by a difference of units, or masking out the x part,
keeps it right.

Eight indices per alphabet is deliberate headroom; the verification
routines cap the rank well below that.

A second order, the y-low order, lays the same non-x fields out as

    y1..y8 | b | q1..q7 | z1..z8

from the least significant field, read off ``_LAYOUT`` too, with x and
xdeg where they are.  ``to_ylow`` and ``from_ylow`` move a monomial
between the two.  It is for values at a localization point, which hold
y and b and no x: there a y-b monomial is below 2**72, a third of the
bits it takes in the display order, so the ints that term maps add and
hash are shorter.  Each field keeps its 8 bits, so what cannot carry
in one order cannot carry in the other.  Only equality and zero are
read in this order; nothing is rendered from it.
"""

from collections import namedtuple

FIELD_BITS = 8
FIELD_MASK = (1 << FIELD_BITS) - 1
N_MAX = 8

# kind -> (first slot, first index, count), in display order
_LAYOUT = {
    "b": (7, 0, 1),
    "q": (0, 1, N_MAX - 1),
    "x": (24, 1, N_MAX),
    "y": (16, 1, N_MAX),
    "z": (8, 1, N_MAX),
}
_XDEG_SLOT = _LAYOUT["x"][0] + N_MAX  # the slot after x8
NUM_SLOTS = _XDEG_SLOT + 1

XDEG_SHIFT = _XDEG_SLOT * FIELD_BITS
XDEG_UNIT = 1 << XDEG_SHIFT
# the top bit of every field: a monomial free of them has every exponent
# below 1 << (FIELD_BITS - 1), so adding two such fields cannot carry
TOP_BITS = sum(1 << (s * FIELD_BITS + FIELD_BITS - 1) for s in range(NUM_SLOTS))


class Var(namedtuple("Var", "kind index")):
    """A formal variable: kind in {x,y,z,b,q}, 1-based index (0 for b).
    An index that is not an int, a bool included, raises ValueError."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> "Var":
        if type(index) is not int:
            raise ValueError(f"a variable index is an int, not {index!r}")
        return super().__new__(cls, kind, index)

    def name(self) -> str:
        return "b" if self.kind == "b" else f"{self.kind}{self.index}"


BETA = Var("b", 0)


def _slot(var: Var) -> int:
    kind, i = var
    layout = _LAYOUT.get(kind)
    if layout is None:
        raise ValueError(f"unknown variable kind: {kind!r}")
    slot0, first, count = layout
    if not first <= i < first + count:
        raise ValueError(f"{kind} index out of range: {i}")
    return slot0 + i - first


def shift(var: Var) -> int:
    return _slot(var) * FIELD_BITS


def unit(var: Var) -> int:
    """Packed monomial of the bare variable (x units carry the xdeg field)."""
    u = 1 << shift(var)
    if var.kind == "x":
        u |= XDEG_UNIT
    return u


def fields_mask(variables) -> int:
    """OR of the field masks of the given variables: a monomial ANDs
    nonzero with it iff it holds one of them.  An x variable's mask leaves
    the xdeg field out."""
    mask = 0
    for var in variables:
        mask |= FIELD_MASK << shift(var)
    return mask


def exponent(mono: int, var: Var) -> int:
    return (mono >> shift(var)) & FIELD_MASK


def pack(exps: dict[Var, int]) -> int:
    m = 0
    for var, e in exps.items():
        if type(e) is not int:
            raise ValueError(f"an exponent is an int, not {e!r}")
        if e < 0:
            raise ValueError(f"negative exponent for {var.name()}")
        if e > FIELD_MASK:
            raise ValueError(f"exponent too large for {var.name()}: {e}")
        m += e * unit(var)
    if m >> XDEG_SHIFT > FIELD_MASK:
        raise ValueError(f"x-degree {m >> XDEG_SHIFT} too large")
    return m


def kind_mask(kind: str) -> int:
    """OR of the field masks of every slot holding the given kind; the x
    mask also covers the xdeg field."""
    layout = _LAYOUT.get(kind)
    if layout is None:
        raise ValueError(f"unknown variable kind: {kind!r}")
    slot0, _, count = layout
    if kind == "x":
        count += 1
    return ((1 << count * FIELD_BITS) - 1) << slot0 * FIELD_BITS


_KIND_MASKS = {kind: kind_mask(kind) for kind in _LAYOUT}
MASK_B, MASK_Q, MASK_X, MASK_Y, MASK_Z = (_KIND_MASKS[k] for k in "bqxyz")

# (kind mask, ((var, shift), ...)) per kind, in display order
_UNPACK_PLAN = tuple(
    (
        _KIND_MASKS[kind],
        tuple((Var(kind, i), shift(Var(kind, i))) for i in range(first, first + count)),
    )
    for kind, (_, first, count) in _LAYOUT.items()
)


# the y-low order, kinds from the lowest slot: their fields fill slots
# 0..23, as they fill the same slots in the display order
_YLOW_ORDER = ("y", "b", "q", "z")


def _ylow_fields() -> tuple[tuple[int, int, int], ...]:
    """Per kind of _YLOW_ORDER: (the mask of its fields moved to bit 0,
    its shift in the display order, its shift in the y-low order)."""
    fields, slot = [], 0
    for kind in _YLOW_ORDER:
        slot0, _, count = _LAYOUT[kind]
        fields.append((_KIND_MASKS[kind] >> slot0 * FIELD_BITS, slot0 * FIELD_BITS, slot * FIELD_BITS))
        slot += count
    return tuple(fields)


_YLOW_FIELDS = _ylow_fields()


def to_ylow(mono: int) -> int:
    """The monomial in the y-low order (see the module docstring); x and
    xdeg stay in place."""
    out = mono & MASK_X
    for fields, display, ylow in _YLOW_FIELDS:
        out |= ((mono >> display) & fields) << ylow
    return out


def from_ylow(mono: int) -> int:
    """The inverse of to_ylow: a y-low monomial in the display order."""
    out = mono & MASK_X
    for fields, display, ylow in _YLOW_FIELDS:
        out |= ((mono >> ylow) & fields) << display
    return out


def unpack(mono: int) -> dict[Var, int]:
    """Nonzero exponents, keyed by Var, in display order b, q1..q7, x1..x8,
    y1..y8, z1..z8; a kind with no nonzero exponent is skipped whole."""
    out: dict[Var, int] = {}
    for mask, fields in _UNPACK_PLAN:
        if mono & mask:
            for var, sh in fields:
                e = (mono >> sh) & FIELD_MASK
                if e:
                    out[var] = e
    return out


def kind_degree(mono: int, kind: str) -> int:
    """Total degree of the monomial in one alphabet, the sum of its
    fields (exact for every exponent they hold)."""
    if kind == "x":
        return (mono >> XDEG_SHIFT) & FIELD_MASK
    total, m = 0, (mono & _KIND_MASKS[kind]) >> _LAYOUT[kind][0] * FIELD_BITS
    while m:
        total += m & FIELD_MASK
        m >>= FIELD_BITS
    return total


def _adjacent_pair(kind: str, i: int) -> tuple[int, int, int, int]:
    if kind not in ("x", "y"):
        raise ValueError(f"operators act on x or y, not {kind!r}")
    vi, vj = Var(kind, i), Var(kind, i + 1)
    return shift(vi), shift(vj), unit(vi), unit(vj)


# every transposition site an operator can act on: (kind, i) for i < N_MAX
_ADJACENT = {(kind, i): _adjacent_pair(kind, i) for kind in "xy" for i in range(1, N_MAX)}


def adjacent_pair(kind: str, i: int) -> tuple[int, int, int, int]:
    """(shift_i, shift_{i+1}, unit_i, unit_{i+1}) for a transposition site.

    Only the x and y alphabets are ever acted on by operators.  The 14
    sites are read from a table; any other (kind, i) raises ValueError.
    """
    pair = _ADJACENT.get((kind, i))
    return _adjacent_pair(kind, i) if pair is None else pair


def mono_divides(d: int, m: int) -> bool:
    """Field-wise <= test: does monomial d divide monomial m.

    When no field of either has its top bit set, one subtraction decides
    all 33 fields: setting every top bit of m makes each field of
    (m | TOP_BITS) - d equal to m_i + 2**(FIELD_BITS - 1) - d_i, which is
    positive, so no field borrows from the next, and its top bit survives
    exactly when d_i <= m_i.  Otherwise the fields are compared one by one.
    """
    if not (d | m) & TOP_BITS:
        return ((m | TOP_BITS) - d) & TOP_BITS == TOP_BITS
    for s in range(NUM_SLOTS):
        sh = s * FIELD_BITS
        if (d >> sh) & FIELD_MASK > (m >> sh) & FIELD_MASK:
            return False
    return True
