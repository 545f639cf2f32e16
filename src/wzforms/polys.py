"""Exact multivariate polynomials over the rationals.

A :class:`Polynomial` is a finite map from exponent tuples to nonzero
``Fraction`` coefficients together with a fixed, ordered tuple of variable
names.  The variable order is immutable and every canonical form (leading
term, printing, sign normalization) is taken with respect to graded
lexicographic order on it.

There is one integer view per polynomial, ``Polynomial._scaled_ints``: an
integer term map and a common denominator in lowest terms.  All arithmetic,
content, gcds, substitution and the inputs of :mod:`wzforms.factor` run on
it.  Every constructor builds the view, and the results of the kernel keep
the view they computed; the public ``terms`` map (exponent tuple to
``Fraction``) is built from it only when it is read.

Packed monomial keys.  The view keys a monomial in n variables by one int::

    key = deg << 32*n | e_0 << 32*(n-1) | ... | e_{n-1}

with the total degree ``deg`` in the unbounded top field and one 32-bit
field per variable below it.  Integer order on keys is graded
lexicographic order, so the leading monomial is ``max(keys)``, and a
monomial product is one int addition.  Every exponent stays below
``EXPONENT_LIMIT`` = 2**31, which keeps bit 31 of each field, its guard
bit, clear.  So a sum of two keys never carries from one field into the
next, and an exponent that reaches the limit shows as a set guard bit:
``InvalidInput`` is raised wherever one would arise (the validating
constructor, a product or power, a substitution).  Whether the monomial
``b`` divides ``a`` is one subtraction: with G the guard bits of all n
fields, ``t = (a + G) - b`` keeps every guard bit of G set exactly when no
field of b exceeds that of a, and then ``t - G`` is the quotient's key.

Shifts, :meth:`Polynomial.compose` and the changes of variables in
:mod:`wzforms.factor` all run on one substitution kernel, ``_substitute``.
Evaluation at a point stays outside it, where it is several times faster.

The kernel owns its boundary with sympy: ``_to_sympy`` and ``_from_sympy``
convert integer term maps to sympy ``Poly`` objects over ZZ and back, for
the gcd's fallback here and the residual factoring in :mod:`wzforms.factor`.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd
from operator import or_
from struct import Struct

import sympy

from .errors import DivisionByZero, InvalidInput

EXPONENT_LIMIT = 1 << 31
_MASK = (1 << 32) - 1


# ---------------------------------------------------------------------- #
# packed monomial keys


def _pack(exps):
    """The key of an exponent tuple."""
    key = sum(exps)
    for e in exps:
        key = key << 32 | e
    return key


@lru_cache(maxsize=None)
def _layout(n):
    """``(guards, size, unpack_from)`` for keys in n variables: the guard
    bits of the n fields, and a struct reader that gives the exponent tuple
    of a key from its ``size`` big-endian bytes at offset 8 (the total
    degree, below n * 2**31, fits in the first 8 bytes)."""
    return (sum(1 << (32 * j + 31) for j in range(n)), 4 * n + 8,
            Struct(f">{n}L").unpack_from)


def _unpacked(items, n):
    """The (exponent tuple, value) pairs of (key, value) pairs in n
    variables, as a list."""
    _, size, unpack_from = _layout(n)
    return [(unpack_from(k.to_bytes(size, "big"), 8), c) for k, c in items]


def _shift(n, i):
    """Bit position of x_i's field."""
    return 32 * (n - 1 - i)


def _unit_key(n, i):
    """The key of x_i, which is also what one more power of x_i adds."""
    return 1 << 32 * n | 1 << _shift(n, i)


def _check_index(i, n):
    """i, when it is an int in 0..n-1; anything else, a bool included, is
    InvalidInput rather than a read of the wrong field of a key."""
    if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < n:
        raise InvalidInput(f"variable index {i!r} is not in 0..{n - 1}")
    return i


def _check_guards(keys, guards):
    """Raise InvalidInput when a key has one of the guard bits set."""
    if reduce(or_, keys, 0) & guards:
        raise InvalidInput(f"an exponent reaches 2**31 = {EXPONENT_LIMIT}")


def _is_rational(c):
    """Whether c is an int, a bool excluded, or a Fraction."""
    return type(c) is int or isinstance(c, Fraction)


def _rational(c, what):
    """c when it is an int or a Fraction.  Anything else raises InvalidInput:
    ``Fraction`` would take a float as its binary fraction, and a string or
    a bool silently."""
    if _is_rational(c):
        return c
    raise InvalidInput(f"{what} must be ints or Fractions, not {c!r}")


def _scaled(values):
    """(integer map, common denominator), in lowest terms, of a map with
    int or Fraction values."""
    den = 1
    for c in values.values():
        if type(c) is not int and c.denominator != 1:
            den = den * c.denominator // gcd(den, c.denominator)
    return {k: c * den if type(c) is int else c.numerator * (den // c.denominator)
            for k, c in values.items()}, den


class Polynomial:
    """Immutable multivariate polynomial with rational coefficients.

    ``terms`` maps exponent tuples (one entry per variable, nonnegative and
    below 2**31) to nonzero coefficients.  Two polynomials are equal iff
    they have the same variable tuple and the same term map.  Every
    constructor builds the integer view; ``_terms`` only caches ``terms``.
    """

    __slots__ = ("vars", "_terms", "_hash", "_ints")

    def __init__(self, vars, terms):
        vars = tuple(vars)
        n = len(vars)
        clean = {}
        for exps, c in terms.items():
            if not _rational(c, "coefficients"):
                continue
            exps = tuple(exps)
            if len(exps) != n or any(type(e) is not int or e < 0 for e in exps):
                raise InvalidInput(f"bad exponent vector {exps} for variables {vars}")
            if n and max(exps) >= EXPONENT_LIMIT:
                raise InvalidInput(f"exponent vector {exps} has an entry of 2**31 or more")
            clean[_pack(exps)] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "_terms", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_ints", _scaled(clean))

    @classmethod
    def _from_view(cls, vars, ints, den=1):
        """Trusted constructor from an integer view in lowest terms: packed
        keys with clear guard bits, nonzero ints, and gcd(content, den) = 1."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "vars", vars)
        object.__setattr__(obj, "_terms", None)
        object.__setattr__(obj, "_hash", None)
        object.__setattr__(obj, "_ints", (ints, den))
        return obj

    @classmethod
    def _from_ints(cls, vars, ints, den=1):
        """The polynomial ``ints / den`` for packed keys with clear guard
        bits and nonzero int values: the view brought to lowest terms."""
        if den != 1:
            g = den
            for c in ints.values():
                g = gcd(g, c)
                if g == 1:
                    break
            else:
                ints = {k: c // g for k, c in ints.items()}
                den //= g
        return cls._from_view(vars, ints, den)

    @classmethod
    def _from_values(cls, vars, values, den=1):
        """As :meth:`_from_ints` for int or Fraction values."""
        ints, d = _scaled(values)
        return cls._from_ints(vars, ints, den * d)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self):
        """The term map, exponent tuple to nonzero Fraction; built from the
        integer view on first use and kept: callers must not change it."""
        terms = self._terms
        if terms is None:
            ints, den = self._ints
            pairs = _unpacked(ints.items(), len(self.vars))
            if den == 1:
                terms = {e: Fraction(c) for e, c in pairs}
            else:
                terms = {e: Fraction(c, den) for e, c in pairs}
            object.__setattr__(self, "_terms", terms)
        return terms

    def _scaled_ints(self):
        """(integer term map on packed keys, common denominator), in lowest
        terms, with terms*1/den == self: callers must not change the map."""
        return self._ints

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def zero(cls, vars):
        return cls._from_view(tuple(vars), {})

    @classmethod
    def one(cls, vars):
        return cls._from_view(tuple(vars), {0: 1})

    @classmethod
    def constant(cls, value, vars):
        value = Fraction(_rational(value, "constants"))
        return cls._from_view(tuple(vars), {0: value.numerator} if value else {},
                              value.denominator)

    @classmethod
    def variable(cls, name, vars):
        vars = tuple(vars)
        if name not in vars:
            raise InvalidInput(f"unknown variable {name!r}")
        return cls._from_view(vars, {_unit_key(len(vars), vars.index(name)): 1})

    @classmethod
    def linear_form(cls, coeffs, vars, shift=0):
        """Build ``sum(coeffs[i]*vars[i]) + shift``."""
        vars = tuple(vars)
        n = len(vars)
        if len(coeffs) != n:
            raise InvalidInput("coefficient vector length must match variables")
        values = {_unit_key(n, i): c for i, c in enumerate(coeffs)
                  if _rational(c, "coefficients")}
        if _rational(shift, "shifts"):
            values[0] = shift
        return cls._from_values(vars, values)

    # ------------------------------------------------------------------ #
    # basic queries

    @property
    def is_zero(self):
        return not self._ints[0]

    @property
    def is_constant(self):
        # the constant monomial's key is 0, and no other key is
        return not any(self._ints[0])

    def constant_value(self):
        if not self.is_constant:
            raise InvalidInput("polynomial is not constant")
        ints, den = self._ints
        return Fraction(ints.get(0, 0), den)

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        ints, _ = self._ints
        return max(ints) >> 32 * len(self.vars) if ints else -1

    def degree_in(self, i):
        """Degree in the i-th variable; -1 for the zero polynomial."""
        ints, _ = self._ints
        n = len(self.vars)
        sh = _shift(n, _check_index(i, n))
        return max(k >> sh & _MASK for k in ints) if ints else -1

    def variables_present(self):
        """Indices of variables occurring with positive exponent."""
        seen = reduce(or_, self._ints[0], 0)
        n = len(self.vars)
        return [i for i in range(n) if seen >> _shift(n, i) & _MASK]

    def sorted_terms(self):
        """Terms in decreasing graded lexicographic order, read from the
        integer view, whose keys sort in that order: printing builds no
        ``terms`` map."""
        ints, den = self._ints
        return [(e, Fraction(c, den))
                for e, c in _unpacked(sorted(ints.items(), reverse=True), len(self.vars))]

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        ints, den = self._ints
        if not ints:
            raise InvalidInput("zero polynomial has no leading term")
        k = max(ints)
        (e, c), = _unpacked(((k, ints[k]),), len(self.vars))
        return e, Fraction(c, den)

    def coeff(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def sort_key(self):
        """Total order key used to sort factor lists deterministically."""
        return (self.total_degree(), len(self), tuple(self.sorted_terms()))

    # ------------------------------------------------------------------ #
    # arithmetic

    def _check_same_vars(self, other):
        if self.vars != other.vars:
            raise InvalidInput(f"variable mismatch: {self.vars} vs {other.vars}")

    def _plus(self, other, sign):
        """``self + sign * other`` on the integer views."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_vars(other)
        ints1, d1 = self._ints
        ints2, d2 = other._ints
        den = d1 * d2 // gcd(d1, d2)
        m1, m2 = den // d1, sign * (den // d2)
        out = dict(ints1) if m1 == 1 else {k: c * m1 for k, c in ints1.items()}
        get = out.get
        for k, c in ints2.items():
            s = get(k, 0) + c * m2
            if s:
                out[k] = s
            else:
                del out[k]
        return Polynomial._from_ints(self.vars, out, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        ints, den = self._ints
        return Polynomial._from_view(self.vars, {k: -c for k, c in ints.items()}, den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not _rational(other, "scalars"):
                return Polynomial.zero(self.vars)
            if other == 1:
                return self  # immutable, so the product by 1 is self
            other = Fraction(other)
            ints, den = self._ints
            a = other.numerator
            return Polynomial._from_ints(
                self.vars, {k: c * a for k, c in ints.items()}, den * other.denominator)
        self._check_same_vars(other)
        ints1, d1 = self._ints
        ints2, d2 = other._ints
        terms = {}
        get = terms.get
        for k1, n1 in ints1.items():
            for k2, n2 in ints2.items():
                k = k1 + k2
                s = get(k, 0) + n1 * n2
                if s:
                    terms[k] = s
                else:
                    del terms[k]
        _check_guards(terms, _layout(len(self.vars))[0])
        return Polynomial._from_ints(self.vars, terms, d1 * d2)

    __rmul__ = __mul__

    def __pow__(self, k):
        if type(k) is not int or k < 0:
            raise InvalidInput("polynomial powers take nonnegative integers")
        if k == 0:
            return Polynomial.one(self.vars)
        # left-to-right binary powering from the base: p ** 1 multiplies nothing
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if _is_rational(other):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        # both views are in lowest terms, so they are equal iff the terms are
        return self.vars == other.vars and self._ints == other._ints

    def __hash__(self):
        if self._hash is None:
            ints, den = self._ints
            h = hash((self.vars, frozenset(ints.items()), den))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def __bool__(self):
        return bool(self._ints[0])

    def __len__(self):
        """The number of terms."""
        return len(self._ints[0])

    # ------------------------------------------------------------------ #
    # content and normalization

    def content(self):
        """Signed rational content: ``self / content`` is integer-primitive
        with positive graded-lex leading coefficient.  Zero for zero."""
        ints, den = self._ints
        if not ints:
            return Fraction(0)
        g = _int_content(ints)
        return Fraction(g if ints[max(ints)] > 0 else -g, den)

    def primitive(self):
        """Integer-primitive associate with positive leading coefficient."""
        ints, den = self._ints
        if not ints:
            return self
        g = _int_content(ints)
        if ints[max(ints)] < 0:
            g = -g
        if g == 1 and den == 1:
            return self
        return Polynomial._from_view(self.vars, {k: c // g for k, c in ints.items()})

    # ------------------------------------------------------------------ #
    # views and substitution

    def coeffs_in(self, i):
        """Coefficients as a polynomial in the i-th variable: a map from
        exponent of that variable to a Polynomial free of it."""
        ints, den = self._ints
        n = len(self.vars)
        sh, w = _shift(n, _check_index(i, n)), _unit_key(n, i)
        out = {}
        for k, c in ints.items():
            e = k >> sh & _MASK
            out.setdefault(e, {})[k - e * w] = c
        return {e: Polynomial._from_ints(self.vars, t, den) for e, t in out.items()}

    @classmethod
    def from_coeffs_in(cls, coeffs, i, vars):
        """Inverse of :meth:`coeffs_in`."""
        vars = tuple(vars)
        n = len(vars)
        w = _unit_key(n, _check_index(i, n))
        if any(not 0 <= e < EXPONENT_LIMIT for e in coeffs):
            raise InvalidInput("exponents must be nonnegative and below 2**31")
        den = 1
        for p in coeffs.values():
            if p.vars != vars:
                raise InvalidInput(f"variable mismatch: {p.vars} vs {vars}")
            d = p._ints[1]
            den = den * d // gcd(den, d)
        out = {}
        get = out.get
        for e, p in coeffs.items():
            ints, d = p._ints
            m, off = den // d, e * w
            for k, c in ints.items():
                k += off
                s = get(k, 0) + c * m
                if s:
                    out[k] = s
                else:
                    del out[k]
        _check_guards(out, _layout(n)[0])
        return cls._from_ints(vars, out, den)

    def shift_var(self, i, m):
        """Substitute ``x_i -> x_i + m`` for an integer or rational m."""
        n = len(self.vars)
        _check_index(i, n)
        return self.shifted(tuple(m if k == i else 0 for k in range(n)))

    def shifted(self, offsets):
        """Substitute ``x_i -> x_i + offsets[i]`` for every variable."""
        n = len(self.vars)
        if len(offsets) != n:
            raise InvalidInput("offset vector length must match variables")
        for m in offsets:
            _rational(m, "offsets")
        if not any(offsets):
            return self
        return self._substituted(
            [{_unit_key(n, i): 1, 0: m} if m else None for i, m in enumerate(offsets)],
            self.vars)

    def compose(self, images, new_vars=None):
        """Substitute each variable by the given image polynomial.

        Every variable occurring in ``self`` must have an image; images must
        all share one variable tuple, which becomes the result's.
        """
        if new_vars is None:
            new_vars = next((img.vars for img in images.values()), None)
            if new_vars is None:
                raise InvalidInput("cannot infer target variables")
        new_vars = tuple(new_vars)
        if any(img.vars != new_vars for img in images.values()):
            raise InvalidInput("substitution images disagree on variables")
        for i in self.variables_present():
            if self.vars[i] not in images:
                raise InvalidInput(f"no image given for variable {self.vars[i]!r}")
        # a variable without an image does not occur: any image will do
        return self._substituted(
            [images[name]._values() if name in images else {} for name in self.vars],
            new_vars)

    def _values(self):
        """The term map on packed keys, with int values when they are all
        integers."""
        ints, den = self._ints
        return ints if den == 1 else {k: Fraction(c, den) for k, c in ints.items()}

    def _substituted(self, images, vars):
        """The kernel on the integer view, as a Polynomial in vars."""
        ints, den = self._ints
        return Polynomial._from_values(vars, _substitute(ints, images, len(vars)), den)

    def eval_at(self, point):
        """Evaluate at a rational point given per variable name.

        Folds ``_int_eval_at`` over the variables that occur, so an integer
        point costs integer products only and one Fraction."""
        ints, den = self._ints
        n = len(self.vars)
        for i in self.variables_present():
            name = self.vars[i]
            if name not in point:
                raise InvalidInput(f"no value given for variable {name!r}")
            v = Fraction(_rational(point[name], "point values"))
            ints = _int_eval_at(ints, n, i, v.numerator if v.denominator == 1 else v)
        return Fraction(ints.get(0, 0), den)

    # ------------------------------------------------------------------ #
    # division

    def divexact(self, other):
        """Exact quotient ``self / other`` or None if the division fails."""
        if isinstance(other, (int, Fraction)):
            if not _rational(other, "divisors"):
                raise DivisionByZero("division of polynomial by zero")
            return self * (Fraction(1) / Fraction(other))
        self._check_same_vars(other)
        io, do = other._ints
        if not io:
            raise DivisionByZero("division of polynomial by zero")
        if not any(io):
            return self * Fraction(do, io[0])
        ip, dp = self._ints
        if not ip:
            return self
        # by Gauss's lemma a primitive divisor leaves an integer quotient
        # whenever there is one over Q, so one integer division decides
        g = _int_content(io)
        got = _int_divexact(ip, {k: c // g for k, c in io.items()} if g > 1 else io,
                            len(self.vars))
        if got is None:
            return None
        if do != 1:
            got = {k: c * do for k, c in got.items()}
        return Polynomial._from_ints(self.vars, got, dp * g)

    # ------------------------------------------------------------------ #
    # printing

    def __str__(self):
        return _text(self, self.vars)

    def __repr__(self):
        return f"Polynomial({str(self)!r}, vars={self.vars})"


def _render_terms(p, names, mul, power, scalar):
    """The terms of p, highest first, joined by ``_join_signed``, read from
    the integer view: ``mul`` joins a coefficient and the factors of a
    monomial, ``power(name, k)`` writes an exponent k > 1 and ``scalar`` a
    coefficient's magnitude, an int, or a Fraction when its reduced
    denominator is not 1."""
    ints, den = p._scaled_ints()
    pieces = []
    for e, c in _unpacked(sorted(ints.items(), reverse=True), len(p.vars)):
        mono = mul.join(power(names[i], k) if k > 1 else names[i]
                        for i, k in enumerate(e) if k)
        mag = abs(c)
        if den != 1:
            g = gcd(mag, den)
            mag = mag // g if g == den else Fraction(mag // g, den // g)
        if not mono:
            body = scalar(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{scalar(mag)}{mul}{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    return _join_signed(pieces)


def _text(p, names):
    """``str(p)`` with the variables written as ``names``."""
    return _render_terms(p, names, "*", lambda name, k: f"{name}^{k}", str)


def _join_signed(pieces):
    """Join ``(sign, body)`` pairs as ``body - body + ...``: the first sign
    is written only when it is a minus.  "0" when there are no pieces."""
    if not pieces:
        return "0"
    (sign, body), rest = pieces[0], pieces[1:]
    head = body if sign == "+" else f"-{body}"
    return head + "".join(f" {s} {b}" for s, b in rest)


# ---------------------------------------------------------------------- #
# substitution


def _substitute(terms, images, n):
    """The one substitution kernel: ``sum(c * prod(images[i] ** e[i]))``
    over the terms, as a term map in n variables.

    ``terms`` is keyed by packed keys in ``len(images)`` variables.
    ``images[i]`` is a map on packed keys in the n result variables, or None
    to keep x_i, which needs n to be the number of input variables.  Values
    may be ints or Fractions; zero sums are dropped as they arise.  Horner's
    rule runs in each substituted variable in turn, and the terms are split
    only down to the last substituted variable: the rest of each key is
    kept.  An exponent of 2**31 or more in the result raises InvalidInput.
    """
    subs = [(i, image) for i, image in enumerate(images) if image is not None]
    # into another space every variable has an image, so the rest is 0
    return _horner(terms, subs, len(images), len(images) != n, _layout(n)[0])


def _horner(terms, subs, n, into, guards):
    if not subs:
        return dict(terms)
    (i, image), rest = subs[0], subs[1:]
    sh, w = _shift(n, i), _unit_key(n, i)
    last = into and not rest
    coeffs = {}
    for k, c in terms.items():
        e = k >> sh & _MASK
        coeffs.setdefault(e, {})[0 if last else k - e * w] = c
    acc = {}
    for e in range(max(coeffs, default=-1), -1, -1):
        prod = coeffs.get(e, {})
        if rest:
            prod = _horner(prod, rest, n, into, guards)
        if acc:
            get = prod.get
            for k1, c1 in acc.items():
                for k2, c2 in image.items():
                    k = k1 + k2
                    s = get(k, 0) + c1 * c2
                    if s:
                        prod[k] = s
                    else:
                        del prod[k]
            _check_guards(prod, guards)
        acc = prod
    return acc


# ---------------------------------------------------------------------- #
# gcd
#
# Main route: evaluation-homomorphism heuristic on integer term maps with
# exact trial-division verification; sympy's gcd over ZZ is the fallback
# when the heuristic gives up.


def _int_eval_at(terms, n, i, xi):
    """Evaluate an integer term map in n variables at ``x_i = xi``; the
    result's keys have x_i's field clear."""
    sh, w = _shift(n, i), _unit_key(n, i)
    powers = [1]
    out = {}
    for k, c in terms.items():
        e = k >> sh & _MASK
        while len(powers) <= e:
            powers.append(powers[-1] * xi)
        rest = k - e * w
        s = out.get(rest, 0) + c * powers[e]
        if s:
            out[rest] = s
        else:
            out.pop(rest, None)
    return out


def _int_on_line(terms, point):
    """An integer term map with x_j fixed at ``point[j]`` for every j where
    that is not None: its restriction to the line along the free slot."""
    n = len(point)
    for j, value in enumerate(point):
        if value is not None:
            terms = _int_eval_at(terms, n, j, value)
    return terms


def _int_content(terms):
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def _int_primitive(terms):
    g = _int_content(terms)
    if g > 1:
        return {e: c // g for e, c in terms.items()}
    return dict(terms)


def _int_divexact(p, q, n):
    """Exact quotient of integer term maps in n variables, p nonzero, or
    None.

    In a monomial order the least term of an exact product is the product
    of the least terms, as the leading term is of the leading terms.  So
    the quotient's trailing key is known before the loop, a division that
    cannot be exact is refused there, and the loop stops at the first
    quotient key below it: x^N / (x - 1) takes no step, not N.
    """
    guards = _layout(n)[0]
    lead = max(q)
    lead_c = q[lead]
    low_p, low_q = min(p), min(q)
    low = low_p + guards - low_q
    if low & guards != guards or p[low_p] % q[low_q]:
        return None
    low -= guards
    if low > max(p) - lead:
        return None
    rem = dict(p)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    quo = {}
    while rem:
        k = -heap[0]
        while k not in rem:
            pop(heap)
            k = -heap[0]
        c = rem[k]
        # lead divides k iff no field of k - lead borrows a guard bit
        t = k + guards - lead
        if t & guards != guards or c % lead_c:
            return None
        t -= guards
        if t < low:
            return None
        qc = c // lead_c
        quo[t] = qc
        for k2, c2 in q.items():
            full = t + k2
            old = rem.get(full)
            if old is None:
                # the monomials of an exact quotient times q stay below
                # p's degrees, so an exponent of 2**31 means no quotient
                if full & guards:
                    return None
                rem[full] = -qc * c2
                push(heap, -full)
            else:
                s = old - qc * c2
                if s:
                    rem[full] = s
                else:
                    del rem[full]
    return quo


def _heu_gcd(p, q, n):
    """Heuristic gcd of integer term maps in n variables over ZZ (content
    included), or None when six evaluation points in a row fail at some
    level.

    Per level: strip integer contents (their gcd is the content of the
    answer), evaluate the last variable present at a large point, recurse,
    reconstruct a candidate from the balanced base-xi digits, and accept
    only after exact trial division of both primitive parts.
    """
    cp = _int_content(p)
    cq = _int_content(q)
    cg = gcd(cp, cq)
    pp = {e: c // cp for e, c in p.items()} if cp > 1 else p
    qq = {e: c // cq for e, c in q.items()} if cq > 1 else q
    if not any(pp) or not any(qq):
        return {0: cg}
    # the lowest nonzero field of all keys is the last variable present
    seen = reduce(or_, pp, 0) | reduce(or_, qq, 0)
    i = n - 1 - ((seen & -seen).bit_length() - 1) // 32
    w = _unit_key(n, i)
    norm = min(max(abs(c) for c in pp.values()), max(abs(c) for c in qq.values()))
    xi = 2 * norm + 29
    for _ in range(6):
        pe = _int_eval_at(pp, n, i, xi)
        qe = _int_eval_at(qq, n, i, xi)
        if pe and qe:
            ge = _heu_gcd(pe, qe, n)
            if ge is None:
                return None
            cand = {}
            level = 0
            while ge:
                nxt = {}
                for k, c in ge.items():
                    r = c % xi
                    if 2 * r > xi:
                        r -= xi
                    if r:
                        cand[k + level * w] = r
                    c = (c - r) // xi
                    if c:
                        nxt[k] = c
                ge = nxt
                level += 1
            cand = _int_primitive(cand)
            # a primitive constant candidate is +-1, which divides everything
            if cand and (len(cand) == 1 and 0 in cand
                         or _int_divexact(pp, cand, n) is not None
                         and _int_divexact(qq, cand, n) is not None):
                if cg > 1:
                    cand = {e: c * cg for e, c in cand.items()}
                return cand
        xi = xi * 73794 // 27011
    return None


def poly_gcd(p, q):
    """Greatest common divisor, integer-primitive with positive graded-lex
    leading coefficient.  Raises InvalidInput when both inputs are zero."""
    if not isinstance(p, Polynomial) or not isinstance(q, Polynomial):
        raise InvalidInput("poly_gcd expects Polynomial arguments")
    p._check_same_vars(q)
    if p.is_zero and q.is_zero:
        raise InvalidInput("gcd(0, 0) is undefined")
    if p.is_zero:
        return q.primitive()
    if q.is_zero:
        return p.primitive()
    if p.is_constant or q.is_constant:
        return Polynomial.one(p.vars)
    return _gcd_cached(p, q)


@lru_cache(maxsize=1 << 15)
def _gcd_cached(p, q):
    pp = p.primitive()
    qq = q.primitive()
    if pp == qq:
        return pp
    return Polynomial._from_view(p.vars, _int_gcd(pp._ints[0], qq._ints[0],
                                                  p.vars)).primitive()


def _to_sympy(terms, vars):
    """sympy Poly over ZZ with the given integer term map on packed keys."""
    return sympy.Poly.from_dict(dict(_unpacked(terms.items(), len(vars))),
                                *map(sympy.Symbol, vars), domain=sympy.ZZ)


def _from_sympy(spoly, vars):
    """Polynomial with the terms of a sympy Poly over ZZ."""
    return Polynomial(vars, {tuple(int(e) for e in exps): Fraction(int(c))
                             for exps, c in spoly.terms()})


def _int_gcd(p, q, vars):
    """The gcd over ZZ of nonzero integer term maps in vars, content
    included, sign unnormalized: the heuristic, or sympy's gcd when it
    gives up."""
    got = _heu_gcd(p, q, len(vars))
    if got is None:
        got = {_pack(e): int(c)
               for e, c in _to_sympy(p, vars).gcd(_to_sympy(q, vars)).terms()}
    return got
