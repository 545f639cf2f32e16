"""Rational functions over the rationals, in canonical reduced form.

Canonical form: numerator and denominator are coprime, the denominator is
integer-primitive with positive graded-lex leading coefficient, and the
rational scale factor lives in the numerator's coefficients.  All arithmetic
returns canonical values, so structural equality is mathematical equality.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import DivisionByZero, InvalidInput
from .factor import factor_polynomial
from .polys import (Polynomial, _check_index, _dense, _dense_primitive, _int_on_line,
                    _is_rational, _rational, _unit_key, poly_gcd)


def _int_entries(entries, what):
    """The entries as a tuple of ints.  Anything else, bools included, is
    rejected rather than truncated by ``int``."""
    entries = tuple(entries)
    if not all(isinstance(e, int) and not isinstance(e, bool) for e in entries):
        raise InvalidInput(f"{what} entries must be integers")
    return entries


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Polynomial):
            raise InvalidInput("numerator must be a Polynomial")
        if den is None:
            den = Polynomial.one(num.vars)
        reduced = rf_reduce(num, den)
        object.__setattr__(self, "num", reduced.num)
        object.__setattr__(self, "den", reduced.den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def _trusted(cls, num, den):
        """Wrap an already-canonical numerator/denominator pair."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    @classmethod
    def zero(cls, vars):
        return cls._trusted(Polynomial.zero(vars), Polynomial.one(vars))

    @classmethod
    def one(cls, vars):
        return cls._trusted(Polynomial.one(vars), Polynomial.one(vars))

    @classmethod
    def constant(cls, value, vars):
        return cls._trusted(Polynomial.constant(value, vars), Polynomial.one(vars))

    # ------------------------------------------------------------------ #

    @property
    def vars(self):
        return self.num.vars

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_polynomial(self):
        return self.den.is_constant

    @property
    def is_constant(self):
        return self.num.is_constant and self.den.is_constant

    def constant_value(self):
        if not self.is_constant:
            raise InvalidInput("rational function is not constant")
        return self.num.constant_value()

    def as_polynomial(self):
        """The numerator when the denominator is 1; error otherwise."""
        if not self.is_polynomial:
            raise InvalidInput("rational function has a nontrivial denominator")
        return self.num

    def degree_in(self, i):
        return max(self.num.degree_in(i), self.den.degree_in(i))

    # ------------------------------------------------------------------ #
    # arithmetic

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.vars != self.vars:
                raise InvalidInput(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(other, self.vars)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a, b = self.num, self.den
        c, d = other.num, other.den
        if b == d:
            g, num0, den0 = b, a + c, b
        else:
            g = poly_gcd(b, d)
            b1 = b.divexact(g)
            num0 = a * d.divexact(g) + c * b1
            den0 = b1 * d
        if num0.is_zero:
            return RationalFunction.zero(self.vars)
        if g.is_constant:
            return RationalFunction._trusted(num0, den0)
        h = poly_gcd(num0, g)
        if h.is_constant:
            return RationalFunction._trusted(num0, den0)
        return RationalFunction._trusted(num0.divexact(h), den0.divexact(h))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._trusted(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not _rational(other, "scalars"):
                return RationalFunction.zero(self.vars)
            return RationalFunction._trusted(self.num * other, self.den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RationalFunction.zero(self.vars)
        a, b = self.num, self.den
        c, d = other.num, other.den
        g1 = poly_gcd(a, d) if not (a.is_constant or d.is_constant) else None
        g2 = poly_gcd(c, b) if not (c.is_constant or b.is_constant) else None
        if g1 is not None and not g1.is_constant:
            a = a.divexact(g1)
            d = d.divexact(g1)
        if g2 is not None and not g2.is_constant:
            c = c.divexact(g2)
            b = b.divexact(g2)
        return RationalFunction._trusted(a * c, b * d)

    __rmul__ = __mul__

    def reciprocal(self):
        if self.is_zero:
            raise DivisionByZero("reciprocal of zero")
        cont = self.num.content()
        num = self.den * (1 / cont)
        den = self.num.divexact(cont)
        return RationalFunction._trusted(num, den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, k):
        if type(k) is not int:
            raise InvalidInput("rational function powers take integers")
        if k == 0:
            return RationalFunction.one(self.vars)
        base = self if k > 0 else self.reciprocal()
        k = abs(k)
        return RationalFunction._trusted(base.num ** k, base.den ** k)

    def __eq__(self, other):
        if _is_rational(other):
            return self.is_constant and self.constant_value() == other
        if isinstance(other, Polynomial):
            return self.is_polynomial and self.num == other
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    # ------------------------------------------------------------------ #
    # substitution

    def shifted(self, offsets):
        """Exact substitution ``x_i -> x_i + offsets[i]`` for integer offsets.

        Integer shifts preserve canonical form, so no re-reduction is needed;
        any other offset raises InvalidInput.
        """
        offsets = tuple(offsets)
        if len(offsets) != len(self.vars):
            raise InvalidInput("offset vector length must match variables")
        offsets = _int_entries(offsets, "offset")
        if not any(offsets):
            return self
        return RationalFunction._trusted(self.num.shifted(offsets),
                                         self.den.shifted(offsets))

    def compose(self, images, new_vars=None):
        return substitute_linear(self, images, new_vars)

    # ------------------------------------------------------------------ #

    def __str__(self):
        if self.den.is_constant:
            return str(self.num)
        num_s = str(self.num)
        if len(self.num) > 1:
            num_s = f"({num_s})"
        den_s = str(self.den)
        if not _is_bare_denominator(self.den):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self):
        return f"RationalFunction({str(self)!r}, vars={self.vars})"


def _add_coprime(f, g):
    """``f + g`` for denominators b and d known to be coprime: (a*d + c*b)/(b*d)
    with no gcd.  It is canonical as it stands: a*d + c*b shares no factor
    with b or d, b*d is primitive by Gauss's lemma, and its graded-lex
    leading term is the product of two positive ones."""
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    a, b = f.num, f.den
    c, d = g.num, g.den
    num = a * d + c * b
    if num.is_zero:
        return RationalFunction.zero(f.vars)
    return RationalFunction._trusted(num, b * d)


def _add_dividing(f, g):
    """``f + g`` when g's denominator d may divide f's denominator b; plain
    ``f + g`` when it does not.  With b1 = b/d, the sum is num0/b for
    num0 = a + c*b1, and gcd(num0, b1) == gcd(a, b1) == 1, so the whole gcd
    is gcd(num0, d): d itself when d divides num0, which one exact division
    decides."""
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    a, b = f.num, f.den
    c, d = g.num, g.den
    b1 = b.divexact(d)
    if b1 is None:
        return f + g
    num0 = a + c * b1
    if num0.is_zero:
        return RationalFunction.zero(f.vars)
    q = num0.divexact(d)
    if q is not None:
        return RationalFunction._trusted(q, b1)
    h = poly_gcd(num0, d)
    if h.is_constant:
        return RationalFunction._trusted(num0, b)
    return RationalFunction._trusted(num0.divexact(h), b.divexact(h))


def _is_bare_denominator(p):
    # Safe without parentheses after '/': a single power of one variable.
    if len(p) != 1:
        return False
    exps, c = p.leading()
    return c == 1 and sum(1 for e in exps if e) == 1


def rf_reduce(num, den):
    """Canonical reduced form of ``num/den``; the only way fractions enter
    the system.  Raises DivisionByZero for an identically zero denominator."""
    if not isinstance(num, Polynomial) or not isinstance(den, Polynomial):
        raise InvalidInput("rf_reduce expects Polynomial arguments")
    num._check_same_vars(den)
    if den.is_zero:
        raise DivisionByZero("zero denominator")
    if not den.is_constant and not num.is_constant:
        g = poly_gcd(num, den)
        if not g.is_constant:
            num = num.divexact(g)
            den = den.divexact(g)
    return _from_coprime(num, den)


def _from_coprime(num, den):
    """Canonical ``num/den`` for coprime num and nonzero den: the content
    of den moves into num."""
    if num.is_zero:
        return RationalFunction.zero(num.vars)
    cont = den.content()
    if cont == 1:
        return RationalFunction._trusted(num, den)
    return RationalFunction._trusted(num * (1 / cont), den.divexact(cont))


def substitute_linear(f, images, new_vars=None):
    """Exact composition ``f(images)``; images are Polynomials sharing one
    variable tuple.  Raises DivisionByZero when the substituted denominator
    vanishes identically.

    A univariate f needs no gcd: its coprime numerator and denominator
    satisfy s*num + t*den = 1 for polynomials s and t, and substituting
    keeps that identity.
    """
    if isinstance(f, Polynomial):
        f = RationalFunction(f)
    num = f.num.compose(images, new_vars)
    den = f.den.compose(images, new_vars)
    if den.is_zero:
        raise DivisionByZero("substitution sends the denominator to zero")
    if len(f.vars) == 1:
        return _from_coprime(num, den)
    return rf_reduce(num, den)


# ---------------------------------------------------------------------- #
# partial fractions


def _partial_fraction_full(f, i):
    """Structured partial fraction decomposition of f in x = x_i.

    Returns ``(poly_part, groups)``: poly_part is a RationalFunction that is
    polynomial in x, and groups is a list of ``(base, multiplicity, {layer:
    numerator RF})`` with bases the irreducible denominator factors of
    positive degree in x, in deterministic order, and each layer numerator
    of smaller degree than its base.

    Write f == num/(c*D) with D the product of the x-dependent factor powers
    and c the x-free rest.  One pseudo-division by D, whose leading
    coefficient in x is l, gives ``l**k * num == q*D + r`` with deg r < deg D,
    so ``f == q/(l**k*c) + r/(l**k*c*D)``.  A constant l is divided out of D
    first, so that k == 0.  The polynomial part costs one gcd; the remainder
    goes, as ``R = (r, l**k*c)`` with r a Polynomial, to the layers of each
    base b of multiplicity m.  The fraction-free b-adic peel of
    :func:`_layers_by_inversion` serves every base of a univariate f, a
    simple linear base (m == 1, d == 1), and every base the line route
    below does not answer.  Any other base of a multivariate f, of degree
    d > 1 in x or of multiplicity m > 1, first tries
    :func:`_layers_on_a_line`: when b = P(v . x) is integer-linear, the peel
    runs on one line where the other variables are small integers, the
    layers found there are lifted along v, and one exact division by b**m
    certifies them; it gives up, and the peel answers, when b is not
    integer-linear, no good line is found or the certificate fails.  At a
    multi-layer base each full layer multiplies P by det, a polynomial
    in the other variables, so the line saves most there; at a simple
    linear base the full peel is a 1 x 1 step and costs less than the
    line's search, lift and certificate.  The peel's layers are computed
    on polynomials; its cofactor is inverted on ints when U and b involve
    no variable but x (:func:`_cofactor_inverse`).
    """
    vars = f.vars
    if f.is_zero:
        return f, []
    cont, factors = factor_polynomial(f.den)
    i_factors = [(b, m) for b, m in factors if b.degree_in(i) > 0]
    if not i_factors:
        return f, []
    c = Polynomial.constant(cont, vars)
    D = Polynomial.one(vars)
    for b, m in factors:
        if b.degree_in(i) > 0:
            D = D * b ** m
        else:
            c = c * b ** m
    Dd = D.coeffs_in(i)
    lc = Dd[-1]
    if lc.is_constant:
        # num == q*(D/lc) + r with k == 0: the polynomial part is q/(lc*c)
        Dd = [a * (1 / lc.constant_value()) for a in Dd]
    q, r, k = _pseudo_divmod(f.num.coeffs_in(i), Dd)
    c = c * lc ** k
    poly_part = RationalFunction(Polynomial.from_coeffs_in(q, i, vars),
                                 c * lc if lc.is_constant else c)
    R = (Polynomial.from_coeffs_in(r, i, vars), c)
    groups = []
    for b, m in i_factors:
        U = D.divexact(b ** m)
        linear = b.degree_in(i) == 1
        layers = None
        if len(vars) > 1 and (m > 1 or not linear):
            layers = _layers_on_a_line(R, U, b, m, i)
        if layers is None:
            peel = _layers_at_linear_pole if linear else _layers_by_inversion
            layers = peel(R, U, b, m, i)
        groups.append((b, m, layers))
    return poly_part, groups


def _layers_on_a_line(R, U, b, m, i):
    """The layers of :func:`_layers_by_inversion` at a base b = B(v . x) of
    degree d >= 1 in x = x_i, guessed from one line and certified; None
    when b is not integer-linear, no line in the search is good, or the
    guess fails its certificate.  :func:`_partial_fraction_full` sends it
    every base of a multivariate f but a simple linear one, whose full peel
    is cheaper.  R == P/c is given as there, P a Polynomial, and P is
    restricted to the line once.

    By the structure theorem the layers at such a base are, as a rule,
    alpha_t(v . x) for univariate alpha_t.  On the line where every other
    x_j is a small integer p_j, b is B(v_i*x + s) with s = sum v_j*p_j:
    irreducible, with a constant leading coefficient.  A line is good when
    c does not vanish there and U restricted to it is not divisible by b
    restricted to it; the peel then runs on univariate data, and its layer
    alpha_t(v_i*x + s) gives alpha_t(v . x) by one substitution of
    x -> (v . x - s)/v_i.  The guess stands only if b**m divides
    P - c*U*(a_m + a_{m-1}*b + ... + a_1*b**(m-1)) exactly: the layers are
    the unique b-adic digits of R/U, so a guess that passes is the answer.
    """
    from .intlinear import integer_linear_decompose  # intlinear imports this module

    got = integer_linear_decompose(b)
    if got is None:
        return None
    v = got[1].entries
    P, c = R
    vars = b.vars
    n = len(vars)
    for point in _line_points(n, i):
        c_line = _on_line(c, point)
        if c_line.is_zero:
            continue
        b_line = _on_line(b, point)
        U_line = _on_line(U, point)
        if U_line.divexact(b_line) is not None:
            continue
        line = _layers_by_inversion((_on_line(P, point), c_line), U_line, b_line, m, i)
        break
    else:
        return None
    s = sum(vj * pj for vj, pj in zip(v, point) if pj)
    image = {_unit_key(n, j): Fraction(vj, v[i]) for j, vj in enumerate(v) if vj}
    if s:
        image[0] = Fraction(-s, v[i])
    images = [image if j == i else None for j in range(n)]
    # a line's layer is a polynomial in x, so its canonical denominator is 1
    layers = {t: a.num._substituted(images, vars) for t, a in line.items()}
    zero = Polynomial.zero(vars)
    digits = layers.get(1, zero)
    for t in range(2, m + 1):
        digits = digits * b + layers.get(t, zero)
    if (P - c * U * digits).divexact(b ** m) is None:
        return None
    one = Polynomial.one(vars)
    return {t: RationalFunction._trusted(a, one) for t, a in layers.items()}


def _line_points(n, i):
    """The values of the other variables on the lines that
    :func:`_layers_on_a_line` tries, with None in slot i, in a fixed order:
    the points of {-2..2}**(n-1) by largest entry r = 0, 1, 2, and in lex
    order for each r.  A line is bad where c or the resultant of U and b in
    x vanishes, both nonzero polynomials in the other variables; one of
    degree below 5 in each of them is not zero on the whole grid."""
    for r in range(3):
        for point in product(range(-r, r + 1), repeat=n - 1):
            if r in point or -r in point:
                yield point[:i] + (None,) + point[i:]


def _on_line(p, point):
    """p with x_j = point[j] for every j where point[j] is not None."""
    ints, den = p._scaled_ints()
    return Polynomial._from_ints(p.vars, _int_on_line(ints, point), den)


def _layers_by_inversion(R, U, b, m, i):
    """Layer numerators over b**m for a base b of degree d >= 1 in x = x_i.

    Over K = Q(other variables) the layers a_m, ..., a_1, each of degree
    below d in x, are the b-adic digits of R/U modulo b**m:

        R == U*(a_m + a_{m-1}*b + ... + a_1*b**(m-1))  (mod b**m).

    The cofactor is inverted once, by :func:`_cofactor_inverse`:
    w == det*U**-1 mod b.  When U and b involve no variable but x (every
    univariate f, so every base of ``conjugate_polygamma`` and of the
    reductions in ``solve_step_difference``, and every line that
    :func:`_layers_on_a_line` peels), w and det are ints, from U's integer
    view modulo b's primitive integer associate; other data invert on
    polynomial entries.  Then, from R_m = R down, each layer costs one
    product modulo b and one exact division:

        a_t == (w*R_t mod b)/det,
        R_{t-1} = (R_t - a_t*U)/b,

    the division being exact in Q[all variables] by Gauss's lemma, as b is
    primitive in x.  R is given as ``(P, c)``: a Polynomial P, whose
    coefficient list in x each layer reads once, and a polynomial c free of
    x with R == P/c, so the loop runs on polynomials, whatever the entries
    of w and det.  A leading coefficient l of b that is not constant enters
    through pseudo-remainders, whose powers of l are divided out once per
    layer.  No gcd runs until each layer is made canonical.

    A linear base (d == 1) needs no inversion: the matrix of multiplication
    by U is 1 x 1, its entry, the pseudo-remainder l**e*U mod b, is det,
    and w == l**e.  So every base, linear or not, can take this one route.
    At a multivariate base of degree d > 1 the d x d solve over Q(other
    variables) builds determinants that mostly cancel, and at any base of
    multiplicity m > 1 each layer scales P by det, so
    :func:`_layers_on_a_line` runs it on one line, with constant entries,
    and certifies the lifted layers; this full peel answers whenever that
    route gives up.
    """
    P, c = R
    vars = b.vars
    bd = b.coeffs_in(i)
    if bd[-1].is_constant:
        # reducing modulo the monic associate needs no pseudo-remainders
        inv = 1 / bd[-1].constant_value()
        bd = [a * inv for a in bd]
    lc = bd[-1]
    d = len(bd) - 1
    w, det = _cofactor_inverse(U, b, bd, i)
    layers = {}
    for t in range(m, 0, -1):
        _, r, k = _pseudo_divmod(P.coeffs_in(i), bd)
        # r first: the product's zeros are then polynomials, and an int w
        # enters as scalars
        _, r, k2 = _pseudo_divmod(_series_mul(r, w, 2 * d - 1), bd)
        a = Polynomial.from_coeffs_in(r, i, vars)
        scale = det * lc ** (k + k2) if k + k2 else det
        if not a.is_zero:
            layers[t] = RationalFunction(a, scale * c)
        if t > 1:
            P = _exact_quotient(P * scale - a * U, b)
            c = scale * c
    return layers


def _cofactor_inverse(U, b, bd, i):
    """``(w, det)`` with ``U*w == det (mod b)``, for the peel of
    :func:`_layers_by_inversion`; bd is b's dense coefficient list in x =
    x_i, monic when its leading coefficient is constant.  When U and b
    involve no variable but x, w and det are ints: U == u/den on its
    integer view, and u*w == det modulo b's primitive integer associate,
    which generates the ideal of b, gives U*(den*w) == det.  Otherwise the
    inverse runs on bd's polynomial entries.  Raises InvalidInput when U is
    not invertible modulo b."""
    (ints, den), n = U._scaled_ints(), len(U.vars)
    u, bi = _dense(ints, n, i), _dense(b._scaled_ints()[0], n, i)
    if u is None or bi is None:
        w, det = _inverse_modulo(U.coeffs_in(i), bd)
    else:
        w, det = _inverse_modulo(u, _dense_primitive(bi)[1])
        if w is not None and den != 1:
            w = [den * a for a in w]
    if w is None:
        raise InvalidInput("cofactor is not invertible modulo the base")
    return w, det


def _pseudo_divmod(p, bd):
    """``(q, r, k)`` with ``l**k * p == q*b + r``, deg r < deg b: dense
    coefficient lists of ints or polynomials, lowest first, and l the
    leading coefficient of b.  r has exactly deg b entries; k counts the
    steps that scaled by l != 1.

    This is the one reduction modulo a univariate base: the partial
    fraction split and the peel run it on polynomials in x over
    Q[other variables], the root field's products on ints in Q[R]/(q)."""
    p = list(p)
    d = len(bd) - 1
    lc = bd[-1]
    scaled = lc != 1
    tops = []
    while len(p) > d:
        top = p.pop()
        tops.append(top)
        if not top:
            continue
        if scaled:
            p = [a * lc for a in p]
        s = len(p) - d
        for j in range(d):
            if bd[j]:
                p[s + j] = p[s + j] - top * bd[j]
    # a quotient digit is scaled by l at every later step that scaled p,
    # and later steps find the lower digits
    q, power, k = [], None, 0
    for top in reversed(tops):
        q.append(top * power if power is not None and top else top)
        if scaled and top:
            power = lc if power is None else power * lc
            k += 1
    return q, p + [lc * 0] * (d - len(p)), k


def _inverse_modulo(u, bd):
    """``(w, det)`` with ``u*w == det (mod b)`` and deg w < deg b, or
    ``(None, 0)`` when u is not invertible modulo b: dense coefficient
    lists as for :func:`_pseudo_divmod`, and det nonzero, an int or a
    polynomial free of x.

    M is the d x d matrix of multiplication by u on K[x]/(b): its column j
    is x**j*u mod b, each column one shift and one pseudo-division step
    from the last, so scaled by a power l**e_j of b's leading coefficient.
    :func:`_fraction_free_solve` gives M*W == det*e_0, and w_j ==
    W_j*l**e_j undoes the scales.  This is the one inverse modulo a
    univariate base: the peel inverts its cofactor with it, over
    K = Q(other variables), and the root field inverts in Q[R]/(q)."""
    lc = bd[-1]
    zero = lc * 0
    d = len(bd) - 1
    _, col, e = _pseudo_divmod(u, bd)
    cols, scales = [col], [e]
    for _ in range(d - 1):
        _, col, e = _pseudo_divmod([zero] + col, bd)
        cols.append(col)
        scales.append(scales[-1] + e)
    W, det = _fraction_free_solve([[col[r] for col in cols] for r in range(d)],
                                  [[lc ** 0]] + [[zero]] * (d - 1))
    if W is None:
        return None, 0
    return [row[0] * lc ** e if e else row[0] for row, e in zip(W, scales)], det


def _fraction_free_solve(M, rhs):
    """``(W, det)`` with ``M*W == det*rhs``, or ``(None, 0)`` when M is
    singular: M a square matrix of ints or polynomials, det its determinant
    and rhs a list of rows of any width (of none when only det is wanted).

    Fraction-free (Bareiss, 1968) Gauss-Jordan elimination on [M | rhs]:
    after step k every pivot so far equals a k x k minor, so each update
    divides exactly by the previous pivot, and the last pivot is det up to
    the sign of the row swaps.  This is the one elimination of the package:
    :func:`_inverse_modulo` runs on it for the peel and the root field, and
    unimodular completion takes determinants and inverses."""
    d = len(M)
    A = [list(row) + list(r) for row, r in zip(M, rhs)]
    width = len(A[0]) if A else 0
    sign, prev = 1, 1
    for k in range(d):
        p = next((r for r in range(k, d) if A[r][k]), None)
        if p is None:
            return None, 0
        if p != k:
            A[k], A[p] = A[p], A[k]
            sign = -sign
        pivot_row = A[k]
        pk = pivot_row[k]
        for r in range(d):
            if r == k:
                continue
            row, f = A[r], A[r][k]
            # columns up to k are settled and never read again
            for j in range(k + 1, width):
                v = pk * row[j] if row[j] else row[j]
                if f and pivot_row[j]:
                    v = v - f * pivot_row[j]
                row[j] = v if k == 0 else _exact_quotient(v, prev)
        prev = pk
    W = [row[d:] for row in A]
    if sign < 0:
        W, prev = [[-a for a in row] for row in W], -prev
    return W, prev


def _exact_quotient(p, q):
    """p/q for ints or polynomials; a remainder raises ArithmeticError."""
    if isinstance(p, Polynomial):
        got = p.divexact(q)
    else:
        got, rem = divmod(p, q)
        if rem:
            got = None
    if got is None:
        raise ArithmeticError("an exact division left a remainder")
    return got


def _series_mul(a, b, m):
    """First m coefficients of the product of two power series given as
    coefficient lists, lowest first: a convolution that skips zero
    entries."""
    out = [a[0] - a[0]] * m
    for s, x in enumerate(a[:m]):
        if x:
            for t, y in enumerate(b[:m - s]):
                if y:
                    out[s + t] = out[s + t] + x * y
    return out


# perfbench/tracing.py resolves this name; it goes when ROADMAP item 1 drops
# the rationals.linear_pole boundary
def _layers_at_linear_pole(R, U, b, m, i):
    return _layers_by_inversion(R, U, b, m, i)


def partial_fraction(f, i):
    """Irreducible partial fraction decomposition of f in the i-th variable.

    Returns ``(poly_part, parts)``: poly_part is a RationalFunction that is
    polynomial in the variable, parts is a list of ``(numerator, base,
    multiplicity)`` with irreducible bases and numerators of smaller degree
    than their base; the sum of all pieces reproduces f exactly.
    """
    _check_index(i, len(f.vars))
    poly_part, groups = _partial_fraction_full(f, i)
    parts = []
    for b, _, layers in groups:
        for t in sorted(layers):
            parts.append((layers[t], b, t))
    return poly_part, parts


# ---------------------------------------------------------------------- #
# discrete antidifference of polynomials


def poly_antidifference(p, i):
    """The polynomial q with ``q(x_i + 1) - q(x_i) == p`` and zero constant
    term with respect to the i-th variable."""
    if not isinstance(p, Polynomial):
        raise InvalidInput("poly_antidifference expects a Polynomial")
    _check_index(i, len(p.vars))
    # x_i**l in q(x_i + 1) - q(x_i) has coefficient sum_{j > l} C(j, l) q_j:
    # solve from the top, each q_j taking C(j, l) q_j off every lower
    # equation l, with C(j, l) stepped down from C(j, j - 1) = j
    rhs = p.coeffs_in(i)
    q = [Polynomial.zero(p.vars)] * (len(rhs) + 1)
    for j in range(len(rhs), 0, -1):
        if rhs[j - 1]:
            q[j] = qj = rhs[j - 1] * Fraction(1, j)
            c = j
            for l in range(j - 2, -1, -1):
                c = c * (l + 1) // (j - l)
                rhs[l] -= c * qj
    return Polynomial.from_coeffs_in(q, i, p.vars)
