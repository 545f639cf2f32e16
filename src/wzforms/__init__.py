"""Exact arithmetic for rational Wilf-Zeilberger forms.

Verification, additive decomposition into exact plus uniform parts,
generation from additive representations, orbital residues, and formal
polygamma conjugates, all over arbitrary-precision rationals.
"""

from .abramov import (ReductionResult, abramov_reduce, is_summable,
                      shift_equivalent, solve_step_difference)
from .errors import (DivisionByZero, InvalidInput, NotAWZForm, ParseError,
                     WZFormsError)
from .intlinear import (IntegerLinearType, UnimodularCompletion,
                        complete_unimodular, integer_linear_decompose,
                        integer_linear_type_rf)
from .orbital import orbital_residue
from .parser import parse_expression, parse_polynomial
from .polys import Polynomial, poly_gcd
from .rationals import (RationalFunction, partial_fraction,
                        poly_antidifference, rf_reduce, substitute_linear)
from .shifts import WZForm, apply_shift, cyclic_apply, delta, is_wz_form
from .wzform import (AdditiveRepresentation, PolygammaExpression,
                     PolygammaTerm, RootShift, conjugate_polygamma, decompose,
                     generate, is_exact, random_additive_rep, signed_range_sum)

__version__ = "0.1.0"

__all__ = [
    "AdditiveRepresentation", "DivisionByZero", "IntegerLinearType",
    "InvalidInput", "NotAWZForm", "ParseError",
    "PolygammaExpression", "PolygammaTerm", "Polynomial", "RationalFunction",
    "ReductionResult", "RootShift", "UnimodularCompletion", "WZForm",
    "WZFormsError", "abramov_reduce", "apply_shift", "complete_unimodular",
    "conjugate_polygamma", "cyclic_apply", "decompose", "delta", "generate",
    "integer_linear_decompose", "integer_linear_type_rf", "is_exact",
    "is_summable", "is_wz_form", "orbital_residue", "parse_expression",
    "parse_polynomial", "partial_fraction", "poly_antidifference", "poly_gcd",
    "random_additive_rep", "rf_reduce", "shift_equivalent",
    "signed_range_sum", "solve_step_difference", "substitute_linear",
]
