"""Shift and difference operators, the cyclic operator, and compatibility
checking for tuples of rational functions."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput, NotAWZForm
from .polys import _check_index
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


# Points of the fixed sequence that the witness tries before a tuple goes to
# decompose.  Of the 67 incompatible twins in perfbench's verify workload the
# first point refutes 63 and the first two refute all; the third is margin
# against poles.
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
        if all(p % q for q in range(3, int(p ** 0.5) + 1, 2)):
            coords.append(-p if len(coords) % 2 else p)
    return tuple(tuple(coords[t * n:(t + 1) * n]) for t in range(WITNESS_POINTS))


def _witness(components):
    """Exact evidence that the tuple is not compatible, or None.

    At each point x of ``witness_points`` and each pair i < j whose
    components have nonzero denominators at x, x + e_i and x + e_j, compare
    ``delta_i(f_j)(x)`` with ``delta_j(f_i)(x)`` in Fraction arithmetic.  A
    difference is returned as ``((i, j), x, (delta_i(f_j)(x),
    delta_j(f_i)(x)))``; None means only that no tried point told them
    apart.
    """
    vars = components[0].vars
    n = len(components)
    for x in witness_points(n):
        # index s < n is the point x + e_s, index n is x itself
        points = [dict(zip(vars, x[:s] + (x[s] + 1,) + x[s + 1:])) for s in range(n)]
        points.append(dict(zip(vars, x)))
        values = []
        for f in components:
            row = []
            for p in points:
                d = f.den.eval_at(p)
                row.append(f.num.eval_at(p) / d if d else None)
            values.append(row)
        for i in range(n):
            for j in range(i + 1, n):
                fi, fj = values[i], values[j]
                if any(fi[s] is None or fj[s] is None for s in (i, j, n)):
                    continue
                di_fj = fj[i] - fj[n]
                dj_fi = fi[j] - fi[n]
                if di_fj != dj_fi:
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
    it or returns the representation that the form keeps."""

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
        if _witness(components) is not None:
            raise NotAWZForm(_REJECTED)
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

    def __len__(self):
        return len(self.components)

    def __getitem__(self, k):
        return self.components[k]

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
