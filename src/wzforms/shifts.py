"""Shift and difference operators, the cyclic operator, and compatibility
checking for tuples of rational functions."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput, NotAWZForm
from .rationals import RationalFunction


def apply_shift(f, m):
    """``f(x + m)`` for an integer offset vector m."""
    if len(m) != len(f.vars):
        raise InvalidInput("offset vector length must match variables")
    return f.shifted(tuple(int(k) for k in m))


def _unit_shift(f, i, step=1):
    offsets = [0] * len(f.vars)
    offsets[i] = step
    return f.shifted(tuple(offsets))


def delta(f, i):
    """Forward difference in the i-th variable: ``f(.., x_i+1, ..) - f``."""
    return _unit_shift(f, i) - f


def cyclic_apply(h, i, m):
    """Geometric sum of shifts in the i-th variable.

    Returns ``h + s(h) + ... + s^(m-1)(h)`` for m > 0, zero for m == 0, and
    ``-(s^m(h) + ... + s^(-1)(h))`` for m < 0, with s the unit shift.
    """
    if m == 0:
        return RationalFunction.zero(h.vars)
    total = RationalFunction.zero(h.vars)
    if m > 0:
        for t in range(m):
            total = total + _unit_shift(h, i, t)
        return total
    for t in range(m, 0):
        total = total + _unit_shift(h, i, t)
    return -total


def is_wz_form(components):
    """True iff every pair satisfies the mixed-difference compatibility
    condition exactly."""
    components = list(components)
    if not components:
        raise InvalidInput("need at least one component")
    vars = components[0].vars
    for f in components:
        if f.vars != vars:
            raise InvalidInput("components disagree on variables")
    n = len(components)
    for i in range(n):
        for j in range(i + 1, n):
            if delta(components[j], i) != delta(components[i], j):
                return False
    return True


@dataclass(frozen=True)
class WZForm:
    """A compatible tuple: one rational function per variable, with
    ``delta_i(f_j) == delta_j(f_i)`` for all pairs (checked on construction)."""

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
        if not is_wz_form(components):
            raise NotAWZForm("the tuple violates the compatibility conditions")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "components", components)

    @classmethod
    def _trusted(cls, vars, components):
        """Wrap components whose compatibility is guaranteed by
        construction, skipping the quadratic pairwise check."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "vars", tuple(vars))
        object.__setattr__(obj, "components", tuple(components))
        return obj

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, k):
        return self.components[k]

    @property
    def is_zero(self):
        return all(f.is_zero for f in self.components)

    # delta is linear, so sums and differences of compatible forms are
    # compatible and skip the pairwise check
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
