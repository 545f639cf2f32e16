"""Exact multivariate polynomials over the rationals.

A :class:`Polynomial` is a finite map from exponent tuples to nonzero
``Fraction`` coefficients together with a fixed, ordered tuple of variable
names.  The variable order is immutable and every canonical form (leading
term, printing, sign normalization) is taken with respect to graded
lexicographic order on it.

Shifts, :meth:`Polynomial.compose` and the changes of variables in
:mod:`wzforms.factor` all run on one substitution kernel, ``_substitute``.
Evaluation at a point stays outside it, where it is several times faster.

There is one integer view per polynomial, built on first use by
``Polynomial._scaled_ints`` and kept: arithmetic, content, gcds and the
inputs of :mod:`wzforms.factor` all read their integers from it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import DivisionByZero, InvalidInput


def _grlex_key(exps):
    return (sum(exps), exps)


class Polynomial:
    """Immutable multivariate polynomial with rational coefficients.

    ``terms`` maps exponent tuples (one entry per variable, nonnegative) to
    nonzero coefficients.  Two polynomials are equal iff they have the same
    variable tuple and the same term map.
    """

    __slots__ = ("vars", "terms", "_hash", "_ints")

    def __init__(self, vars, terms):
        vars = tuple(vars)
        n = len(vars)
        clean = {}
        for exps, c in terms.items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if not c:
                continue
            exps = tuple(exps)
            if len(exps) != n or any(e < 0 or not isinstance(e, int) for e in exps):
                raise InvalidInput(f"bad exponent vector {exps} for variables {vars}")
            clean[exps] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_ints", None)

    @classmethod
    def _raw(cls, vars, terms):
        """Trusted constructor: terms already canonical (tuple exponents of
        the right length, nonzero Fraction values)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "vars", vars)
        object.__setattr__(obj, "terms", terms)
        object.__setattr__(obj, "_hash", None)
        object.__setattr__(obj, "_ints", None)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def one(cls, vars):
        return cls.constant(1, vars)

    @classmethod
    def constant(cls, value, vars):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): Fraction(value)})

    @classmethod
    def variable(cls, name, vars):
        vars = tuple(vars)
        if name not in vars:
            raise InvalidInput(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {exps: Fraction(1)})

    @classmethod
    def linear_form(cls, coeffs, vars, shift=0):
        """Build ``sum(coeffs[i]*vars[i]) + shift``."""
        vars = tuple(vars)
        if len(coeffs) != len(vars):
            raise InvalidInput("coefficient vector length must match variables")
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = tuple(1 if j == i else 0 for j in range(len(vars)))
                terms[e] = Fraction(c)
        p = cls(vars, terms)
        if shift:
            p = p + cls.constant(shift, vars)
        return p

    # ------------------------------------------------------------------ #
    # basic queries

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise InvalidInput("polynomial is not constant")
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i):
        """Degree in the i-th variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def variables_present(self):
        """Indices of variables occurring with positive exponent."""
        present = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    present.add(i)
        return sorted(present)

    def sorted_terms(self):
        """Terms in decreasing graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise InvalidInput("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def coeff(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def sort_key(self):
        """Total order key used to sort factor lists deterministically."""
        return (self.total_degree(), len(self.terms),
                tuple((e, c) for e, c in self.sorted_terms()))

    # ------------------------------------------------------------------ #
    # arithmetic

    def _check_same_vars(self, other):
        if self.vars != other.vars:
            raise InvalidInput(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_vars(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial._raw(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.vars)
            if other == 1:
                return self  # immutable, so the product by 1 is self
            other = Fraction(other)
            return Polynomial._raw(self.vars,
                                   {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_vars(other)
        # scaled-integer accumulation: one Fraction per result term
        ints1, d1 = self._scaled_ints()
        ints2, d2 = other._scaled_ints()
        terms = {}
        get = terms.get
        for e1, n1 in ints1.items():
            for e2, n2 in ints2.items():
                e = tuple(map(int.__add__, e1, e2))
                s = get(e, 0) + n1 * n2
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        den = d1 * d2
        if den == 1:
            wrapped = {e: Fraction(c) for e, c in terms.items()}
        else:
            wrapped = {}
            for e, c in terms.items():
                f = Fraction(c, den)
                if f:
                    wrapped[e] = f
        return Polynomial._raw(self.vars, wrapped)

    def _scaled_ints(self):
        """(integer term map, common denominator) with terms*1/den == self,
        built on first use and kept: callers must not change the map."""
        view = self._ints
        if view is None:
            den = 1
            for c in self.terms.values():
                den = den * c.denominator // gcd(den, c.denominator)
            view = ({e: c.numerator * (den // c.denominator)
                     for e, c in self.terms.items()}, den)
            object.__setattr__(self, "_ints", view)
        return view

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
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
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            h = hash((self.vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # ------------------------------------------------------------------ #
    # content and normalization

    def content(self):
        """Signed rational content: ``self / content`` is integer-primitive
        with positive graded-lex leading coefficient.  Zero for zero."""
        if not self.terms:
            return Fraction(0)
        ints, den = self._scaled_ints()
        _, lc = self.leading()
        g = _int_content(ints)
        return Fraction(g if lc > 0 else -g, den)

    def primitive(self):
        """Integer-primitive associate with positive leading coefficient."""
        if not self.terms:
            return self
        ints, den = self._scaled_ints()
        g = int(self.content() * den)
        if g == 1 and den == 1:
            return self
        return Polynomial._raw(self.vars, {e: Fraction(c // g) for e, c in ints.items()})

    # ------------------------------------------------------------------ #
    # views and substitution

    def coeffs_in(self, i):
        """Coefficients as a polynomial in the i-th variable: a map from
        exponent of that variable to a Polynomial free of it."""
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            rest = e[:i] + (0,) + e[i + 1:]
            out.setdefault(k, {})[rest] = c
        return {k: Polynomial(self.vars, t) for k, t in out.items()}

    @classmethod
    def from_coeffs_in(cls, coeffs, i, vars):
        """Inverse of :meth:`coeffs_in`."""
        terms = {}
        for k, p in coeffs.items():
            for e, c in p.terms.items():
                full = e[:i] + (e[i] + k,) + e[i + 1:]
                s = terms.get(full, 0) + c
                if s:
                    terms[full] = s
                else:
                    terms.pop(full, None)
        return cls(vars, terms)

    def shift_var(self, i, m):
        """Substitute ``x_i -> x_i + m`` for an integer or rational m."""
        return self.shifted(tuple(m if k == i else 0 for k in range(len(self.vars))))

    def shifted(self, offsets):
        """Substitute ``x_i -> x_i + offsets[i]`` for every variable."""
        n = len(self.vars)
        if len(offsets) != n:
            raise InvalidInput("offset vector length must match variables")
        if not all(isinstance(m, (int, Fraction)) for m in offsets):
            raise InvalidInput("offsets must be integers or Fractions")
        if not any(offsets):
            return self
        zero = (0,) * n
        return self._substituted(
            [{_unit(n, i): 1, zero: m} if m else None for i, m in enumerate(offsets)],
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
        """The term map with int values when they are all integers."""
        ints, den = self._scaled_ints()
        return ints if den == 1 else self.terms

    def _substituted(self, images, vars):
        """The kernel on the scaled integer terms, as a Polynomial in vars."""
        ints, den = self._scaled_ints()
        got = _substitute(ints, images, len(vars)).items()
        return Polynomial._raw(vars, {e: Fraction(c, den) for e, c in got})

    def eval_at(self, point):
        """Evaluate at a rational point given per variable name.

        Sums the scaled integer terms with one power table per variable, so
        an integer point costs integer products only and one Fraction."""
        ints, den = self._scaled_ints()
        tables = {}
        total = 0
        for e, c in ints.items():
            for i, k in enumerate(e):
                if k:
                    table = tables.get(i)
                    if table is None:
                        v = Fraction(point[self.vars[i]])
                        table = tables[i] = [1, v.numerator if v.denominator == 1 else v]
                    while len(table) <= k:
                        table.append(table[-1] * table[1])
                    c *= table[k]
            total += c
        return Fraction(total, den)

    # ------------------------------------------------------------------ #
    # division

    def divexact(self, other):
        """Exact quotient ``self / other`` or None if the division fails."""
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZero("division of polynomial by zero")
            return self * (Fraction(1) / Fraction(other))
        self._check_same_vars(other)
        if other.is_zero:
            raise DivisionByZero("division of polynomial by zero")
        if other.is_constant:
            return self * (1 / other.constant_value())
        if self.is_zero:
            return self
        ip, dp = self._scaled_ints()
        io, do = other._scaled_ints()
        # by Gauss's lemma a primitive divisor leaves an integer quotient
        # whenever there is one over Q, so one integer division decides
        g = _int_content(io)
        got = _int_divexact(ip, {e: c // g for e, c in io.items()} if g > 1 else io)
        if got is None:
            return None
        scale = Fraction(do, dp * g)
        return Polynomial._raw(self.vars, {e: c * scale for e, c in got.items()})

    # ------------------------------------------------------------------ #
    # printing

    def __str__(self):
        return _render_terms(self, self.vars, "*", lambda name, k: f"{name}^{k}", str)

    def __repr__(self):
        return f"Polynomial({str(self)!r}, vars={self.vars})"


def _render_terms(p, names, mul, power, scalar):
    """The terms of p, highest first, joined by ``_join_signed``: ``mul``
    joins a coefficient and the factors of a monomial, ``power(name, k)``
    writes an exponent k > 1 and ``scalar`` a coefficient's magnitude."""
    pieces = []
    for e, c in p.sorted_terms():
        mono = mul.join(power(names[i], k) if k > 1 else names[i]
                        for i, k in enumerate(e) if k)
        mag = abs(c)
        if not mono:
            body = scalar(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{scalar(mag)}{mul}{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    return _join_signed(pieces)


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


def _unit(n, i):
    return tuple(int(k == i) for k in range(n))


def _substitute(terms, images, n):
    """The one substitution kernel: ``sum(c * prod(images[i] ** e[i]))``
    over the terms, as a term map in n variables.

    ``images[i]`` is a term map in the n result variables, or None to keep
    x_i, which needs n to be the number of input variables.  Values may be
    ints or Fractions; zero sums are dropped as they arise.  Horner's rule
    runs in each substituted variable in turn, and the terms are split only
    down to the last substituted variable: the rest of each exponent is
    copied.
    """
    subs = [(i, image) for i, image in enumerate(images) if image is not None]
    # into another space every variable has an image, so the rest is 0
    return _horner(terms, subs, (0,) * n if len(images) != n else None)


def _horner(terms, subs, zero):
    if not subs:
        return dict(terms)
    (i, image), rest = subs[0], subs[1:]
    coeffs = {}
    for e, c in terms.items():
        key = zero if zero is not None and not rest else e[:i] + (0,) + e[i + 1:]
        coeffs.setdefault(e[i], {})[key] = c
    acc = {}
    for k in range(max(coeffs, default=-1), -1, -1):
        prod = coeffs.get(k, {})
        if rest:
            prod = _horner(prod, rest, zero)
        get = prod.get
        for e1, c1 in acc.items():
            for e2, c2 in image.items():
                e = tuple(map(int.__add__, e1, e2))
                s = get(e, 0) + c1 * c2
                if s:
                    prod[e] = s
                else:
                    del prod[e]
        acc = prod
    return acc


# ---------------------------------------------------------------------- #
# gcd
#
# Main route: evaluation-homomorphism heuristic on integer term maps with
# exact trial-division verification; sympy's gcd over ZZ is the fallback
# when the heuristic gives up.


def _int_eval_at(terms, i, xi):
    """Evaluate an integer term map at ``x_i = xi``; result drops x_i."""
    powers = {0: 1}
    out = {}
    for e, c in terms.items():
        k = e[i]
        if k not in powers:
            p = powers[max(powers)]
            for j in range(max(powers) + 1, k + 1):
                p *= xi
                powers[j] = p
        rest = e[:i] + (0,) + e[i + 1:]
        s = out.get(rest, 0) + c * powers[k]
        if s:
            out[rest] = s
        else:
            out.pop(rest, None)
    return out


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


def _int_divexact(p, q):
    """Exact quotient of integer term maps, or None."""
    if not p:
        return {}
    lead_e = max(q, key=_grlex_key)
    lead_c = q[lead_e]
    rem = dict(p)
    heap = [(-sum(e), tuple(-x for x in e)) for e in rem]
    heapq.heapify(heap)
    quo = {}
    while rem:
        while heap:
            _, neg = heap[0]
            e = tuple(-x for x in neg)
            if e in rem:
                break
            heapq.heappop(heap)
        c = rem[e]
        t = tuple(a - b for a, b in zip(e, lead_e))
        if any(x < 0 for x in t) or c % lead_c:
            return None
        qc = c // lead_c
        quo[t] = qc
        for e2, c2 in q.items():
            full = tuple(a + b for a, b in zip(t, e2))
            old = rem.get(full)
            s = (old if old is not None else 0) - qc * c2
            if s:
                if old is None:
                    heapq.heappush(heap, (-sum(full), tuple(-x for x in full)))
                rem[full] = s
            else:
                rem.pop(full, None)
    return quo


def _heu_gcd(p, q):
    """Heuristic gcd of integer term maps over ZZ (content included), or
    None when six evaluation points in a row fail at some level.

    Per level: strip integer contents (their gcd is the content of the
    answer), evaluate one variable at a large point, recurse, reconstruct a
    candidate from the balanced base-xi digits, and accept only after exact
    trial division of both primitive parts.
    """
    cp = _int_content(p)
    cq = _int_content(q)
    cg = gcd(cp, cq)
    pp = {e: c // cp for e, c in p.items()} if cp > 1 else p
    qq = {e: c // cq for e, c in q.items()} if cq > 1 else q
    n = len(next(iter(p)))
    pv = {i for e in pp for i, k in enumerate(e) if k}
    qv = {i for e in qq for i, k in enumerate(e) if k}
    if not pv or not qv:
        return {(0,) * n: cg}
    i = max(pv | qv)
    norm = min(max(abs(c) for c in pp.values()), max(abs(c) for c in qq.values()))
    xi = 2 * norm + 29
    for _ in range(6):
        pe = _int_eval_at(pp, i, xi)
        qe = _int_eval_at(qq, i, xi)
        if pe and qe:
            ge = _heu_gcd(pe, qe)
            if ge is None:
                return None
            cand = {}
            level = 0
            while ge:
                nxt = {}
                for e, c in ge.items():
                    r = c % xi
                    if 2 * r > xi:
                        r -= xi
                    if r:
                        cand[e[:i] + (level,) + e[i + 1:]] = r
                    c = (c - r) // xi
                    if c:
                        nxt[e] = c
                ge = nxt
                level += 1
            cand = _int_primitive(cand)
            # a primitive constant candidate is +-1, which divides everything
            if cand and (len(cand) == 1 and not any(next(iter(cand)))
                         or _int_divexact(pp, cand) is not None
                         and _int_divexact(qq, cand) is not None):
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
    pi, _ = pp._scaled_ints()
    qi, _ = qq._scaled_ints()
    got = _heu_gcd(pi, qi)
    if got is None:
        from .factor import _from_sympy, _to_sympy  # factor imports this module
        return _from_sympy(_to_sympy(pi, p.vars).gcd(_to_sympy(qi, p.vars)),
                           p.vars).primitive()
    return Polynomial(p.vars, {e: Fraction(c) for e, c in got.items()}).primitive()
