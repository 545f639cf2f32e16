"""Orbital residues: what is left of a rational function at one shift orbit
of irreducible denominator factors after reduction in one variable."""

from __future__ import annotations

from .abramov import _reduce_structured, shift_equivalent
from .errors import InvalidInput
from .factor import factor_polynomial
from .polys import Polynomial, _check_index
from .rationals import RationalFunction


def _normalize_orbit_query(d, i):
    """Canonical irreducible factor of positive degree in the variable.

    Factors free of the variable are units of the coefficient field and are
    ignored; anything else besides a single simple factor is rejected.
    """
    if not isinstance(d, Polynomial):
        raise InvalidInput("orbit query must be a Polynomial")
    if d.is_zero or d.degree_in(i) <= 0:
        raise InvalidInput("orbit query must involve the reduction variable")
    _, factors = factor_polynomial(d)
    carried = [(b, m) for b, m in factors if b.degree_in(i) > 0]
    if len(carried) != 1 or carried[0][1] != 1:
        raise InvalidInput("orbit query must be irreducible in the variable")
    return carried[0][0]


def orbital_residue(f, d, j, i):
    """Residue of f at the shift orbit of d with multiplicity j, in the i-th
    variable.

    The reduced form of f is a sum of terms A/b**k over pairwise
    shift-inequivalent irreducible b.  When some b is shift-equivalent to d
    and carries multiplicity exactly j, the residue is the combined
    numerator A (all layers of b collected over b**j), shifted so that it is
    reported at d's own position in the orbit; otherwise it is zero.
    Changing d within its orbit therefore changes the result only within the
    result's orbit.
    """
    if not isinstance(f, RationalFunction):
        raise InvalidInput("orbital_residue expects a RationalFunction")
    if type(j) is not int or j < 1:
        raise InvalidInput("multiplicity must be a positive integer")
    _check_index(i, len(f.vars))
    base = _normalize_orbit_query(d, i)
    _, terms = _reduce_structured(f, i)
    for rep, mult, layers in terms:
        m = shift_equivalent(rep, base, i)
        if m is None:
            continue
        if mult != j:
            return RationalFunction.zero(f.vars)
        combined = RationalFunction.zero(f.vars)
        rep_rf = RationalFunction(rep)
        for t, a in layers.items():
            combined = combined + a * rep_rf ** (j - t)
        offsets = [0] * len(f.vars)
        offsets[i] = m
        return combined.shifted(tuple(offsets))
    return RationalFunction.zero(f.vars)
