"""Exact Grothendieck / Schubert polynomial library.

Everything is integer arithmetic on packed monomials: the variables are
x1..x8, y1..y8, z1..z8, the deformation scalar b and the quantum
parameters q1..q7.  The classical families come from divided-difference
towers over a product of linear forms, the quantum ones from towers over
a product of tridiagonal determinants.  All term arithmetic runs through
the four functions of the pure-Python kernel in _termkernel_py; every
checked product of two polynomials is one poly.dot over that kernel.
"""

from . import checks  # registers the 23 checks of the verify catalog, in catalog order
from ._packing import N_MAX, Var
from .classical import (
    NormalFormContext,
    dual_grothendieck,
    dual_grothendieck_double,
    expand_dual_basis,
    grothendieck,
    grothendieck_double,
    localize,
    monk_expansion,
    pairing0,
    schubert,
    schubert_double,
    top_class,
)
from .perms import Permutation, all_perms, from_word, identity, longest
from .poly import MultiPoly, beta, qvar, xvar, yvar, zvar
from .quantum import (
    bold_family,
    quantize,
    quantum_dual_grothendieck,
    quantum_dual_grothendieck_double,
    quantum_grothendieck,
    quantum_grothendieck_double,
    quantum_schubert,
    quantum_schubert_double,
)
from .report import CHECKS, verify

__version__ = "0.1.0"

__all__ = [
    "CHECKS",
    "MultiPoly",
    "N_MAX",
    "NormalFormContext",
    "Permutation",
    "Var",
    "all_perms",
    "beta",
    "bold_family",
    "dual_grothendieck",
    "dual_grothendieck_double",
    "expand_dual_basis",
    "from_word",
    "grothendieck",
    "grothendieck_double",
    "identity",
    "localize",
    "longest",
    "monk_expansion",
    "pairing0",
    "quantize",
    "quantum_dual_grothendieck",
    "quantum_dual_grothendieck_double",
    "quantum_grothendieck",
    "quantum_grothendieck_double",
    "quantum_schubert",
    "quantum_schubert_double",
    "qvar",
    "schubert",
    "schubert_double",
    "top_class",
    "verify",
    "xvar",
    "yvar",
    "zvar",
]
