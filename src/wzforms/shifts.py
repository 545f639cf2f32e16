"""Shift and difference operators, the cyclic operator, and compatibility
checking for tuples of rational functions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInput, NotAWZForm
from .polys import _check_index, _int_eval_at, _int_on_line
from .rationals import RationalFunction


def apply_shift(f, m):
    """``f(x + m)`` for an integer offset vector m."""
    return f.shifted(m)


def _unit_shift(f, i, step=1):
    n = len(f.vars)
    offsets = [0] * n
    offsets[_check_index(i, n)] = step
    return f.shifted(tuple(offsets))


def delta(f, i):
    """Forward difference in the i-th variable: ``f(.., x_i+1, ..) - f``."""
    return _unit_shift(f, i) - f


def cyclic_apply(h, i, m):
    """Geometric sum of shifts in the i-th variable.

    Returns ``h + s(h) + ... + s^(m-1)(h)`` for m > 0, zero for m == 0, and
    ``-(s^m(h) + ... + s^(-1)(h))`` for m < 0, with s the unit shift.
    """
    _check_index(i, len(h.vars))
    if isinstance(m, bool) or not isinstance(m, int):
        raise InvalidInput(f"the number of shifts {m!r} is not an integer")
    total = RationalFunction.zero(h.vars)
    for t in range(min(m, 0), max(m, 0)):
        total = total + _unit_shift(h, i, t)
    return -total if m < 0 else total


# Points of the fixed sequence that the witness tries before a tuple goes to
# decompose.  Of the 67 incompatible twins in perfbench's verify workload the
# first point refutes 63 and the second the other 4, for each of the
# workload's seeds 1 to 10; the third is margin against poles.
WITNESS_POINTS = 3

_REJECTED = "the tuple violates the compatibility conditions"


def witness_points(n):
    """The ``WITNESS_POINTS`` integer points in n variables that the witness
    tries, in order: their coordinates, read point by point, are the primes
    from 7 on with alternating signs (7, -11, 13, -17, ...)."""
    coords = []
    p = 5
    while len(coords) < WITNESS_POINTS * n:
        p += 2
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            coords.append(-p if len(coords) % 2 else p)
    return tuple(tuple(coords[t * n:(t + 1) * n]) for t in range(WITNESS_POINTS))


def _line(ints, x, s):
    """An integer term map with every variable but x_s fixed at the point
    x: its restriction to the line through x along x_s."""
    return _int_on_line(ints, x[:s] + (None,) + x[s + 1:])


def _line_values(f, x, s):
    """``(f(x), f(x + e_s))``, with None at a pole: one line through x along
    x_s for the numerator and one for the denominator, each read twice."""
    (num, nd), (den, dd) = f.num._scaled_ints(), f.den._scaled_ints()
    num, den = _line(num, x, s), _line(den, x, s)
    n = len(x)
    values = []
    for t in (x[s], x[s] + 1):
        dv = _int_eval_at(den, n, s, t).get(0, 0)
        values.append(Fraction(_int_eval_at(num, n, s, t).get(0, 0) * dd, nd * dv)
                      if dv else None)
    return values


def _pole_at_step(f, x, s):
    """True iff the denominator of f vanishes at x + e_s."""
    return not _int_eval_at(_line(f.den._scaled_ints()[0], x, s), len(x), s,
                            x[s] + 1).get(0, 0)


def _witness(components):
    """Exact evidence that the tuple is not compatible, or None.

    At each point x of ``witness_points`` and each pair i < j, in order,
    compare ``delta_i(f_j)(x)`` with ``delta_j(f_i)(x)`` in Fraction
    arithmetic.  The two values lie on two lines: f_j at x and x + e_i on
    the line through x along x_i, f_i at x and x + e_j on the one along
    x_j.  Each line is built when its pair is reached, by fixing the other
    variables of the numerator and the denominator at x, and each line
    serves one pair, so the search stops at the first difference having
    evaluated only what it compared.  A pair is skipped at x when f_i or
    f_j has a pole at x, x + e_i or x + e_j; the poles of f_i at x + e_i
    and of f_j at x + e_j, off those lines, are read only when the two
    values differ.  A difference is returned as ``((i, j), x,
    (delta_i(f_j)(x), delta_j(f_i)(x)))``; None means only that no tried
    point told them apart.
    """
    n = len(components)
    for x in witness_points(n):
        for i in range(n):
            fi = components[i]
            for j in range(i + 1, n):
                fj = components[j]
                fj_x, fj_xi = _line_values(fj, x, i)
                if fj_x is None or fj_xi is None:
                    continue
                fi_x, fi_xj = _line_values(fi, x, j)
                if fi_x is None or fi_xj is None:
                    continue
                di_fj, dj_fi = fj_xi - fj_x, fi_xj - fi_x
                if di_fj != dj_fi and not (_pole_at_step(fi, x, i)
                                           or _pole_at_step(fj, x, j)):
                    return (i, j), x, (di_fj, dj_fi)
    return None


def is_wz_form(components):
    """True iff every pair satisfies the mixed-difference compatibility
    condition exactly, as certified by ``WZForm(...)``."""
    components = tuple(components)
    if not components:
        raise InvalidInput("need at least one component")
    try:
        WZForm(components[0].vars, components)
    except NotAWZForm:
        return False
    return True


@dataclass(frozen=True)
class WZForm:
    """A compatible tuple: one rational function per variable, with
    ``delta_i(f_j) == delta_j(f_i)`` for all pairs.  Construction certifies
    this: a point witness refutes the tuple, or ``decompose`` either refutes
    it or returns the representation that the form keeps.  A refutation is
    raised from its evidence: a ``NotAWZForm`` naming the witness's pair,
    point and both values, or the one that ``decompose`` raised."""

    vars: tuple
    components: tuple

    def __init__(self, vars, components):
        vars = tuple(vars)
        components = tuple(components)
        if len(components) != len(vars):
            raise InvalidInput("need exactly one component per variable")
        for f in components:
            if not isinstance(f, RationalFunction) or f.vars != vars:
                raise InvalidInput("components must share the declared variables")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_rep", None)
        if len(components) < 2:
            return  # no pairs
        witness = _witness(components)
        if witness is not None:
            (i, j), x, (di_fj, dj_fi) = witness
            raise NotAWZForm(_REJECTED) from NotAWZForm(
                f"at {x}, delta_{i}(f_{j}) == {di_fj} but delta_{j}(f_{i}) == {dj_fi}")
        from .wzform import decompose  # wzform imports this module
        try:
            decompose(self)  # keeps the representation on self
        except NotAWZForm as exc:
            raise NotAWZForm(_REJECTED) from exc

    @classmethod
    def _trusted(cls, vars, components):
        """Wrap components whose compatibility is guaranteed by
        construction, skipping certification."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "vars", tuple(vars))
        object.__setattr__(obj, "components", tuple(components))
        object.__setattr__(obj, "_rep", None)
        return obj

    def __iter__(self):
        return iter(self.components)

    @property
    def is_zero(self):
        return all(f.is_zero for f in self.components)

    # delta is linear, so sums and differences of compatible forms are
    # compatible and skip certification
    def __add__(self, other):
        if not isinstance(other, WZForm):
            return NotImplemented
        if other.vars != self.vars:
            raise InvalidInput("forms disagree on variables")
        return WZForm._trusted(self.vars, tuple(a + b for a, b in
                                                zip(self.components, other.components)))

    def __sub__(self, other):
        if not isinstance(other, WZForm):
            return NotImplemented
        if other.vars != self.vars:
            raise InvalidInput("forms disagree on variables")
        return WZForm._trusted(self.vars, tuple(a - b for a, b in
                                                zip(self.components, other.components)))

    def __str__(self):
        return "(" + ", ".join(str(f) for f in self.components) + ")"
