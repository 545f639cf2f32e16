"""Integer-linear structure: deciding when a polynomial or rational function
is a univariate function of one integer linear form, and completing an
integer vector to a matrix of determinant gcd."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_

from .errors import InvalidInput
from .factor import _change_of_variables
from .polys import _MASK, Polynomial, _shift, _substitute, _unit_key
from .rationals import RationalFunction, _fraction_free_solve, _int_entries


@dataclass(frozen=True)
class IntegerLinearType:
    """A primitive nonzero integer direction vector."""

    entries: tuple

    def __init__(self, entries):
        entries = _int_entries(entries, "type")
        if not entries or not any(entries):
            raise InvalidInput("type vector must be nonzero")
        if gcd(*entries) != 1:
            raise InvalidInput("type vector entries must be coprime")
        object.__setattr__(self, "entries", entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, k):
        return self.entries[k]

    def form(self, vars):
        """The linear polynomial ``v . x`` over the given variables."""
        return Polynomial.linear_form(self.entries, vars)

    def __str__(self):
        return "(" + ",".join(str(e) for e in self.entries) + ")"


_ZVARS = ("Z",)


def _univariate_along(p, v):
    """The univariate P with ``p == P(v . x)``, or None when there is none.

    The change of variables that puts y = v . x in slot k is invertible, so
    p is P(v . x) exactly when its image involves slot k alone, and then the
    image is P(y).
    """
    n = len(v)
    k, images = _change_of_variables(v)
    sh, w, z = _shift(n, k), _unit_key(n, k), _unit_key(1, 0)
    ints, den = p._scaled_ints()
    out = {}
    for key, c in _substitute(ints, images, n).items():
        e = key >> sh & _MASK
        if key != e * w:
            return None
        out[e * z] = c
    return Polynomial._from_values(_ZVARS, out, den)


def integer_linear_decompose(p):
    """Write ``p == P(v . x)`` with a univariate P and a primitive integer
    vector v, or return None.

    The candidate direction is read off the top homogeneous part (which must
    be a constant multiple of a power of the linear form) and is confirmed
    by the exact change of variables of ``_univariate_along``, so a non-None
    answer is always sound.  The sign of v makes P's leading coefficient
    positive when the degree is odd and the first nonzero entry of v
    positive otherwise.
    """
    if not isinstance(p, Polynomial):
        raise InvalidInput("integer_linear_decompose expects a Polynomial")
    if p.is_constant:
        raise InvalidInput("constant polynomials have every type")
    d = p.total_degree()
    n = len(p.vars)
    # the integer view's keys and coefficients (their common denominator
    # cancels in the ratios below)
    terms, _ = p._scaled_ints()
    top = reduce(or_, (k for k in terms if k >> 32 * n == d))
    pivot = min(i for i in range(n) if top >> _shift(n, i) & _MASK)
    A = terms.get(d * _unit_key(n, pivot))
    if A is None:
        return None
    ratios = [Fraction(0)] * n
    ratios[pivot] = Fraction(1)
    for j in range(n):
        if j != pivot:
            B = terms.get((d - 1) * _unit_key(n, pivot) + _unit_key(n, j), 0)
            ratios[j] = Fraction(B, d * A)
    scale = lcm(*(r.denominator for r in ratios))
    ints = [int(r * scale) for r in ratios]
    g = gcd(*ints)
    v = tuple(e // g for e in ints)
    # v[pivot] > 0, so P's leading coefficient A / v[pivot]**d has A's sign
    if A < 0 and d % 2 == 1:
        v = tuple(-e for e in v)
    P = _univariate_along(p, v)
    if P is None:
        return None
    return P, IntegerLinearType(v)


def integer_linear_type_rf(f):
    """Write a rational function as ``u(v . x)`` with univariate u, or None.

    The denominator (the numerator when the denominator is 1) fixes v: it
    is P(v . x) exactly when each of its irreducible factors is P_j(v . x)
    with the same v.  The numerator must then follow v too.
    """
    if isinstance(f, Polynomial):
        f = RationalFunction(f)
    if f.is_constant:
        raise InvalidInput("constant rational functions have every type")
    den_is_one = f.den.is_constant
    got = integer_linear_decompose(f.num.primitive() if den_is_one else f.den)
    if got is None:
        return None
    P, vtype = got
    num = _univariate_along(f.num, vtype)
    if num is None:
        return None
    return RationalFunction(num, Polynomial.one(_ZVARS) if den_is_one else P), vtype


# ---------------------------------------------------------------------- #
# unimodular completion


@dataclass(frozen=True)
class UnimodularCompletion:
    """Integer matrix with prescribed first row and determinant equal to the
    gcd of its entries, plus the exact rational inverse."""

    matrix: tuple
    inverse: tuple

    @property
    def first_row(self):
        return self.matrix[0]

    def determinant(self):
        return Fraction(_fraction_free_solve(self.matrix, [()] * len(self.matrix))[1])


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _complete(v):
    n = len(v)
    if n == 1:
        return [[v[0]]]
    head, last = v[:-1], v[-1]
    if not any(head):
        rows = [[0] * (n - 1) + [last]]
        for k in range(n - 1):
            rows.append([1 if j == k else 0 for j in range(n)])
        return rows
    if n == 2:
        g, s, t = _xgcd(v[0], v[1])
        if g < 0:
            g, s, t = -g, -s, -t
        return [[v[0], v[1]], [-t, s]]
    sub = _complete(head)
    g = _fraction_free_solve(sub, [()] * (n - 1))[1]
    if g < 0:
        sub[-1] = [-x for x in sub[-1]]
        g = -g
    _, s, t = _xgcd(g, last)
    rows = [list(head) + [last]]
    for row in sub[1:]:
        rows.append(list(row) + [0])
    rows.append([-t * x // g for x in head] + [s])
    return rows


def complete_unimodular(v):
    """An integer matrix with first row v and determinant ``gcd(v)``,
    deterministic in v.  (For a single negative entry the determinant is
    forced to that entry itself.)"""
    v = _int_entries(v, "vector")
    if not v or not any(v):
        raise InvalidInput("cannot complete the zero vector")
    rows = _complete(v)
    n = len(v)
    if n > 1:
        target = gcd(*v)
        d = _fraction_free_solve(rows, [()] * n)[1]
        if d == -target:
            rows[-1] = [-x for x in rows[-1]]
        elif d != target:
            raise AssertionError(f"completion of {v} has determinant {d}")
    matrix = tuple(tuple(row) for row in rows)
    identity = [[int(r == c) for c in range(n)] for r in range(n)]
    W, det = _fraction_free_solve(matrix, identity)
    return UnimodularCompletion(matrix, tuple(tuple(Fraction(a, det) for a in row)
                                              for row in W))
