"""Reduction of rational functions for summation in one variable.

``abramov_reduce`` splits f into an exactly summable part and a remainder
whose denominator factors are pairwise shift-inequivalent in the chosen
variable; on top of it sit the summability decision and the rational solver
for fixed-step difference equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInput
from .polys import Polynomial, _check_index
from .rationals import (RationalFunction, _partial_fraction_full,
                        poly_antidifference, substitute_linear)
from .shifts import _unit_shift, cyclic_apply


def shift_equivalent(b, b2, i):
    """The integer m with ``b(x_i + m) == b2``, or None.

    Inputs are normalized to their integer-primitive positive-leading form
    first; shifting in one variable preserves that normalization, so the
    comparison is exact.  The candidate m is read off the two top
    coefficients and then verified by substitution.
    """
    if not isinstance(b, Polynomial) or not isinstance(b2, Polynomial):
        raise InvalidInput("shift_equivalent expects Polynomial arguments")
    b._check_same_vars(b2)
    _check_index(i, len(b.vars))
    if b.is_zero or b2.is_zero:
        raise InvalidInput("shift_equivalent needs nonzero inputs")
    b = b.primitive()
    b2 = b2.primitive()
    d = b.degree_in(i)
    if d != b2.degree_in(i):
        return None
    if d == 0:
        return 0 if b == b2 else None
    cb = b.coeffs_in(i)
    cb2 = b2.coeffs_in(i)
    if cb[d] != cb2[d]:
        return None
    diff = cb2[d - 1] - cb[d - 1]
    if diff.is_zero:
        m = 0
    else:
        q = diff.divexact(cb[d] * d)
        if q is None or not q.is_constant:
            return None
        val = q.constant_value()
        if val.denominator != 1:
            return None
        m = int(val)
    if m == 0:
        return 0 if b == b2 else None
    return m if b.shift_var(i, m) == b2 else None


def _group_orbits(bases, i):
    """Group polynomials into shift orbits in the i-th variable.

    Returns a list of ``(representative, [(base, offset), ...])`` with the
    representative the member of smallest offset, so merging is always
    rightward and deterministic.
    """
    groups = []
    for b in bases:
        for entry in groups:
            m = shift_equivalent(entry[0], b, i)
            if m is not None:
                entry[1].append((b, m))
                break
        else:
            groups.append((b, [(b, 0)]))
    out = []
    for rep, members in groups:
        low = min(m for _, m in members)
        if low:
            rep = rep.shift_var(i, low)
            members = [(b, m - low) for b, m in members]
        out.append((rep, members))
    return out


@dataclass(frozen=True)
class ReductionResult:
    """``f == delta_i(summed_part) + remainder`` with the remainder free of
    a polynomial part and orbit-reduced in the i-th variable."""

    summed_part: RationalFunction
    remainder: RationalFunction


def _reduce_structured(f, i):
    """Core reduction.  Returns ``(summed, terms)`` where terms is a list of
    ``(representative, multiplicity, {layer: numerator})`` per surviving
    orbit, each layer numerator of smaller degree in the variable than the
    representative, and
    ``f == delta_i(summed) + sum(layers[t]/rep**t)`` exactly.
    """
    if not isinstance(f, RationalFunction):
        raise InvalidInput("abramov_reduce expects a RationalFunction")
    _check_index(i, len(f.vars))
    vars = f.vars
    poly_part, groups = _partial_fraction_full(f, i)
    summed = RationalFunction(poly_antidifference(poly_part.num, i), poly_part.den)
    orbit_map = _group_orbits([b for b, _, _ in groups], i)
    by_base = {b: layers for b, _, layers in groups}
    terms = []
    for rep, members in orbit_map:
        merged = {}
        for b, m in members:
            for t, a in by_base[b].items():
                # with h = moved/rep**t and s the unit shift,
                # a/b**t == s**m(h) == h + delta_i(cyclic_apply(h, i, m))
                moved = _unit_shift(a, i, -m)
                if m:
                    h = moved / RationalFunction(rep) ** t
                    summed = summed + cyclic_apply(h, i, m)
                acc = merged.get(t)
                merged[t] = moved if acc is None else acc + moved
        layers = {t: a for t, a in merged.items() if not a.is_zero}
        if layers:
            terms.append((rep, max(layers), layers))
    return summed, terms


def abramov_reduce(f, i):
    """Write f as an exact difference in the i-th variable plus a minimal
    remainder: the remainder has no polynomial part and its denominator
    factors are pairwise shift-inequivalent in that variable."""
    summed, terms = _reduce_structured(f, i)
    remainder = RationalFunction.zero(f.vars)
    for rep, _, layers in terms:
        rep_rf = RationalFunction(rep)
        for t, a in layers.items():
            remainder = remainder + a / rep_rf ** t
    return ReductionResult(summed, remainder)


def is_summable(f, i):
    """The rational g with ``delta_i(g) == f`` when one exists, else None.
    The remainder is zero exactly when the reduction leaves no term: its
    terms are the partial fractions of distinct irreducible bases, each
    with a nonzero layer, so they cannot cancel."""
    summed, terms = _reduce_structured(f, i)
    return None if terms else summed


def solve_step_difference(rhs, step):
    """A rational y with ``y(z + step) - y(z) == rhs(z)`` or None.

    ``rhs`` is univariate; the equation is rescaled to unit step, solved by
    reduction, and scaled back.  The free additive constant is fixed by
    giving y's polynomial part a zero constant term.  The reduction already
    does so: its summed part is the antidifference of a polynomial, which
    has no constant term, plus range sums of proper fractions, which stay
    proper, and rescaling the variable keeps both properties.
    """
    if type(step) is not int or step == 0:
        raise InvalidInput("step must be a nonzero integer")
    if not isinstance(rhs, RationalFunction) or len(rhs.vars) != 1:
        raise InvalidInput("rhs must be a univariate RationalFunction")
    (name,) = rhs.vars
    z = Polynomial.variable(name, rhs.vars)
    summed, terms = _reduce_structured(substitute_linear(rhs, {name: z * step}), 0)
    if terms:
        return None
    return substitute_linear(summed, {name: z * Fraction(1, step)})
