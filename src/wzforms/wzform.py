"""Additive structure of compatible rational tuples.

A compatible tuple splits into an exact part (differences of one rational
function) plus finitely many uniform parts, each generated by a univariate
rational function evaluated along an integer direction.  This module
decomposes tuples into that shape, rebuilds tuples from it, and rewrites the
uniform data as formal polygamma combinations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

from .abramov import _reduce_structured, solve_step_difference
from .errors import InvalidInput, NotAWZForm
from .intlinear import IntegerLinearType, _univariate_along, integer_linear_decompose
from .parser import _latex_fraction, latex_polynomial, latex_rational
from .polys import Polynomial, _check_index, _join_signed, _text, _unit_key
from .rationals import (RationalFunction, _add_coprime, _add_dividing, _dense_ints,
                        _inverse_modulo, _partial_fraction_full, _pseudo_divmod,
                        _series_mul, poly_antidifference, substitute_linear)
from .shifts import WZForm, cyclic_apply, delta

_ZVARS = ("Z",)
_AVARS = ("A",)
# the packed keys of A**0, ..., A**15, shared by the polynomials of root sums
_A_KEYS = tuple(k * _unit_key(1, 0) for k in range(16))


@dataclass(frozen=True, slots=True)
class AdditiveRepresentation:
    """Exact part plus one univariate rational function per direction.

    ``parts`` is an ordered tuple of ``(IntegerLinearType, nonzero
    RationalFunction in Z)`` with pairwise distinct types.
    """

    vars: tuple
    exact_part: RationalFunction
    parts: tuple

    def __init__(self, vars, exact_part, parts):
        vars = tuple(vars)
        if not isinstance(exact_part, RationalFunction) or exact_part.vars != vars:
            raise InvalidInput("exact part must be a RationalFunction over the "
                               "declared variables")
        norm = []
        seen = set()
        for vtype, r in parts:
            if not isinstance(vtype, IntegerLinearType):
                vtype = IntegerLinearType(vtype)
            if len(vtype) != len(vars):
                raise InvalidInput("type vector length must match variables")
            if vtype.entries in seen:
                raise InvalidInput(f"duplicate type {vtype}")
            seen.add(vtype.entries)
            if not isinstance(r, RationalFunction) or r.vars != _ZVARS:
                raise InvalidInput("uniform data must be univariate in Z")
            if r.is_zero:
                raise InvalidInput("uniform data must be nonzero")
            norm.append((vtype, r))
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "exact_part", exact_part)
        object.__setattr__(self, "parts", tuple(norm))

    @property
    def types(self):
        return [vtype for vtype, _ in self.parts]

    def __str__(self):
        body = ", ".join(f"{vtype}: {r}" for vtype, r in self.parts)
        return f"(exact = {self.exact_part}; uniform = {{{body}}})"


def signed_range_sum(r, v, i, vars):
    """``sum of r(v.x + l)`` over the signed range determined by ``v[i]``:
    l from 0 to v[i]-1 when positive, empty when zero, and minus the sum
    from v[i] to -1 when negative."""
    entries = tuple(v)
    form = Polynomial.linear_form(entries, vars)
    steps = entries[_check_index(i, len(entries))]
    return substitute_linear(cyclic_apply(r, 0, steps), {"Z": form}, vars)


def generate(rep):
    """Build the compatible tuple described by an additive representation:
    component i is ``delta_i(exact)`` plus the signed range sums of every
    uniform part.

    The result satisfies the compatibility conditions by construction
    (differences of one function commute, and range sums along one direction
    telescope), so it is wrapped without certification.
    """
    if not isinstance(rep, AdditiveRepresentation):
        raise InvalidInput("generate expects an AdditiveRepresentation")
    vars = rep.vars
    return WZForm._trusted(vars, [_component(rep.exact_part, rep.parts, i, vars)
                                  for i in range(len(vars))])


def _component(exact, parts, i, vars):
    """``delta_i(exact)`` plus the signed range sums of the uniform parts:
    the small range sums first, the exact part's difference last.  The
    range sums add without a gcd unless two types are opposite: every
    factor of a denominator along v is a polynomial in v.x, so types that
    are not parallel, which distinct primitive types are unless opposite,
    have coprime denominators."""
    types = {vtype.entries for vtype, _ in parts}
    add = (RationalFunction.__add__
           if any(tuple(-e for e in v) in types for v in types) else _add_coprime)
    f = RationalFunction.zero(vars)
    for vtype, r in parts:
        f = add(f, signed_range_sum(r, vtype, i, vars))
    return f + delta(exact, i)


# ---------------------------------------------------------------------- #
# decomposition


def decompose(form):
    """Additive representation of a compatible tuple; raises NotAWZForm
    exactly when the tuple is not compatible.

    Processes the variables in order.  At level k the residual f_k is
    reduced in x_k; every orbit representative of the remainder must be
    integer-linear, its layer numerators must follow the same direction, and
    the collected univariate data must admit a rational solution of the
    matching step-difference equation.  Then f_k is exactly delta_k(g) plus
    signed range sums.  For every later f_j, the j-th component that
    ``generate`` builds from the same terms is subtracted from f_j once,
    which keeps each pair's compatibility.  That subtraction takes no gcd of
    the denominators, as the component's denominator divides the residual's
    (``rationals._add_dividing``, which falls back to ``-`` otherwise).

    The uniform part u along v, with s = v[k], is the signed range sum
    ``r(Z) + ... + r(Z+s-1)`` of one r, found as r = u + w with
    ``w(Z+s) - w(Z) == u(Z+1) - u(Z+s)``.  u and w are proper, so u minus
    the range sum of r is a proper rational fixed by Z -> Z+1: zero, and no
    re-check is needed.  For s == 1 the right-hand side is zero.

    Why the answer is exact: after level k, f_k is fully accounted for, and
    later levels subtract from f_j only terms free of x_k.  So the pair
    (k, j) is compatible exactly when the residual of f_j is free of x_k,
    which the check at the top of level j tests.  Every other raise rests on
    the structure theorem (the additive analogue of Ore-Sato): in a
    compatible tuple the orbit representatives are integer-linear, the
    numerators follow the direction, and the step equation is solvable.  A
    returned representation certifies compatibility, since
    ``generate(decompose(w)) == w`` holds exactly.

    ``WZForm(...)`` certifies through this function and keeps the
    representation, which is returned here without further work.
    """
    if not isinstance(form, WZForm):
        raise InvalidInput("decompose expects a WZForm")
    if form._rep is not None:
        return form._rep
    vars = form.vars
    n = len(vars)
    fs = list(form.components)
    exact = RationalFunction.zero(vars)
    parts = []
    for k in range(n):
        f1 = fs[k]
        if f1.is_zero:
            continue
        if any(f1.degree_in(i) > 0 for i in range(k)):
            # the pair (i, k) is not compatible
            raise NotAWZForm(
                f"residual component still involves {vars[:k]}")
        summed, terms = _reduce_structured(f1, k)
        level = {}
        for rep, _, layers in terms:
            got = integer_linear_decompose(rep)
            if got is None:
                raise NotAWZForm(
                    f"denominator factor {rep} is not integer-linear")
            q, vtype = got
            q_rf = RationalFunction(q)
            for t, a in layers.items():
                if not a.is_polynomial:
                    raise NotAWZForm(
                        f"numerator {a} at {rep} is not polynomial")
                alpha = _univariate_along(a.as_polynomial(), vtype)
                if alpha is None:
                    raise NotAWZForm(
                        f"numerator {a} does not follow the direction {vtype}")
                u = level.get(vtype)
                add = RationalFunction(alpha) / q_rf ** t
                level[vtype] = add if u is None else u + add
        level_parts = []
        for vtype, u in level.items():
            step = vtype[k]
            w = solve_step_difference(u.shifted((1,)) - u.shifted((step,)), step)
            if w is None:
                raise NotAWZForm(
                    f"no rational solution for the uniform part of type {vtype}")
            level_parts.append((vtype, u + w))
        exact = exact + summed
        for j in range(k + 1, n):
            # one subtraction from the large residual per level
            fs[j] = _add_dividing(fs[j], -_component(summed, level_parts, j, vars))
        parts.extend(level_parts)
    rep = AdditiveRepresentation(vars, exact, parts)
    object.__setattr__(form, "_rep", rep)
    return rep


def is_exact(form):
    """The rational g with every component equal to its difference, when the
    tuple is exact; None otherwise."""
    rep = decompose(form)
    return rep.exact_part if not rep.parts else None


# ---------------------------------------------------------------------- #
# polygamma conjugates


@dataclass(frozen=True, slots=True)
class RootShift:
    """Formal sum over the roots ``a`` of an irreducible polynomial, with a
    polynomial weight evaluated at each root."""

    poly: Polynomial
    weight: Polynomial

    def __str__(self):
        return f"RootSum({self.poly}, A -> {self.weight})"


@dataclass(frozen=True, slots=True)
class PolygammaTerm:
    """``coefficient * psi^(order)(v.x + shift)``; a RootShift spreads the
    term over the roots of its polynomial, weight included."""

    coefficient: Fraction
    order: int
    vtype: IntegerLinearType
    shift: object  # Fraction or RootShift


@dataclass(frozen=True, slots=True)
class PolygammaExpression:
    """A rational function plus a finite combination of polygamma values at
    integer linear arguments."""

    rational_part: RationalFunction
    terms: tuple

    def _render(self, rational, poly, root, group, psi, root_sum, coefficient):
        """The one walker behind ``__str__`` and ``latex``, which differ only
        in the format pieces: ``poly(p, var_name)`` writes a polynomial, and
        ``root`` names the summation variable of a root sum.  Each form,
        base and weight is written once per call: the memo is keyed by the
        polynomial object and the name it is written with, not by the
        integer view, which a weight A and a form x can share.  It holds
        each object, so that no id is reused within the call, and hashes
        none, so that an expression kept after printing holds no more."""
        written = {}

        def once(p, var_name=None):
            got = written.get((id(p), var_name))
            if got is None:
                got = written[id(p), var_name] = (p, poly(p, var_name))
            return got[1]

        vars = self.rational_part.vars
        forms = {}
        pieces = []
        if not self.rational_part.is_zero:
            pieces.append(("+", rational(self.rational_part)))
        for term in self.terms:
            form = forms.get(term.vtype)
            if form is None:
                form = forms[term.vtype] = term.vtype.form(vars)
            if isinstance(term.shift, RootShift):
                body = psi(term.order, f"{once(form)} + {root}")
                w = term.shift.weight
                if w != 1:  # a unit weight is omitted, like a unit coefficient
                    body = group(once(w, root), len(w) > 1) + body
                body = root_sum(once(term.shift.poly, root), body)
            else:
                body = psi(term.order, poly(form + term.shift))
            c = term.coefficient
            if abs(c) != 1:
                body = coefficient(abs(c), body)
            pieces.append(("-" if c < 0 else "+", body))
        return _join_signed(pieces)

    def __str__(self):
        # the root is A unless a variable is named A, then the first of A1,
        # A2, ... that no variable is named, so that it captures none; n
        # variables leave one of n + 1 names free
        vars = self.rational_part.vars
        root = next(name for name in ["A"] + [f"A{i}" for i in range(1, len(vars) + 1)]
                    if name not in vars)
        return self._render(
            str, lambda p, var_name=None: str(p) if var_name is None else _text(p, (var_name,)),
            root,
            lambda w, many: f"({w})*" if many else f"{w}*",
            lambda t, arg: f"psi^({t})({arg})",
            lambda q, body: f"RootSum({q}, {root} -> {body})",
            lambda c, body: f"{c}*{body}")

    def latex(self):
        return self._render(
            latex_rational, latex_polynomial, r"\alpha",
            lambda w, many: (rf"\left({w}\right)" if many else w) + r" \, ",
            lambda t, arg: rf"\psi^{{({t})}}\!\left({arg}\right)",
            lambda q, body: rf"\sum_{{{q} = 0}} {body}",
            lambda c, body: f"{_latex_fraction(c)} {body}")


def conjugate_polygamma(rep):
    """Formal conjugate of the term described by an additive representation.

    Simple rational poles of each uniform part map to polygamma values via
    the recurrence ``psi^(t)(z+1) - psi^(t)(z) == (-1)^t t! / z^(t+1)``;
    irreducible pole polynomials of higher degree produce root-sum terms;
    polynomial parts of the uniform data are folded into the rational part.
    """
    if not isinstance(rep, AdditiveRepresentation):
        raise InvalidInput("conjugate_polygamma expects an AdditiveRepresentation")
    vars = rep.vars
    rational = rep.exact_part
    terms = []
    for vtype, r in rep.parts:
        poly_part, groups = _partial_fraction_full(r, 0)
        if not poly_part.is_zero:
            folded = RationalFunction(poly_antidifference(poly_part.num, 0),
                                      poly_part.den)
            form = Polynomial.linear_form(vtype.entries, vars)
            rational = rational + substitute_linear(folded, {"Z": form}, vars)
        for base, _, layers in groups:
            if base.degree_in(0) == 1:
                coeffs = base.coeffs_in(0)
                c1 = coeffs[1].constant_value()
                c0 = coeffs.get(0)
                alpha = (c0.constant_value() if c0 is not None else Fraction(0)) / c1
                for t, a in sorted(layers.items()):
                    beta = a.constant_value() / c1 ** t
                    coeff = beta * Fraction((-1) ** (t - 1), factorial(t - 1))
                    terms.append(PolygammaTerm(coeff, t - 1, vtype, alpha))
            else:
                terms.extend(_root_sum_terms(base, layers, vtype))
    return PolygammaExpression(rational, tuple(terms))


# ---------------------------------------------------------------------- #
# expansion of higher-degree poles over their roots


def _root_sum_terms(base, layers, vtype):
    """Expand layer numerators over one irreducible pole polynomial q of
    degree d > 1 into per-root polygamma terms.

    R generates Q[R]/(q), and q(R + eps) == eps*H(eps) with H(0) == q'(R),
    which is invertible because q is squarefree.  Near Z = R,
    a/q**t == a(R + eps) * H(eps)**-t / eps**t, so the weight of
    1/(Z - R)**s is the eps**(t-s) coefficient of a(R + eps) * H(eps)**-t.

    All of it runs on :class:`_RootField` elements, int lists over one
    denominator.  The Taylor coefficients are closed-form binomial sums: the
    k-th coefficient of p(R + eps) is ``sum_j C(j, k)*p_j*R**(j-k)``, and
    as the layers have degree below d and H's coefficients start at k == 1,
    every power of R stays below d and none is reduced by q.

    H(eps)**-t is taken only for the layers t present, and only to the t
    terms that layer reads, by J. C. P. Miller's recurrence: p_0 == h_0**-t
    and p_k == (1/k)*sum_{j=1..k} ((1 - t)*j - k)*(h_j/h_0)*p_(k-j).  As
    h_j == 0 for j >= d, a layer costs at most about 2*d*t field products,
    and only H(0) is inverted, once per base.
    """
    d = base.degree_in(0)
    qs, qden = _dense_ints(base, 0)
    # the primitive integer associate of q with a positive leading coefficient
    g = gcd(*qs) if qs[-1] > 0 else -gcd(*qs)
    mod = tuple(c // g for c in qs)
    m = max(layers)
    # H has d terms, and a layer t reads the first t of them
    hs = _taylor(qs, qden, mod, 1, min(m, d) + 1)
    inv0 = hs[0] ** -1
    # g_j == h_j/h_0, read by every power of H
    gs = [None] + [h * inv0 if h else h for h in hs[1:]]
    zero = _RootField([0] * d, 1, mod)
    weights = [zero] * (m + 1)
    first = inv0  # p_0 == h_0**-t
    for t in range(1, m + 1):
        if t > 1:
            first = first * inv0
        if t not in layers:
            continue
        a, aden = _dense_ints(layers[t].as_polynomial(), 0)
        if len(a) > d:
            raise InvalidInput("a layer numerator must have degree below "
                               "its pole polynomial's")
        power = [first]
        for k in range(1, t):
            acc = zero
            for j, gj in enumerate(gs[1:k + 1], 1):
                if gj and power[k - j]:
                    acc = acc + (gj * power[k - j]).scaled((1 - t) * j - k)
            power.append(acc.scaled(1, k))
        local = _series_mul(_taylor(a, aden, mod, 0, t), power, t)
        for s in range(1, t + 1):
            weights[s] = weights[s] + local[t - s]
    # move to the "+A" convention: substitute R -> -A in q and the weights
    _, flipped_base = _primitive_in_a([-c if (d - k) % 2 else c
                                       for k, c in enumerate(mod)])
    out = []
    for s in range(1, m + 1):
        w = weights[s]
        if not w:
            continue
        g, weight = _primitive_in_a([c if (k + s) % 2 else -c
                                     for k, c in enumerate(w.c)])
        out.append(PolygammaTerm(Fraction(g, w.den * factorial(s - 1)), s - 1, vtype,
                                 RootShift(flipped_base, weight)))
    return out


def _primitive_in_a(cs):
    """``(g, p)`` with g*p the polynomial in A whose int coefficients,
    lowest first, are cs: p is integer-primitive with a positive leading
    coefficient.  Up to degree 15, p's keys are the shared ints of
    ``_A_KEYS``, so that the root sums an expression keeps hold no copies
    of them."""
    keys = _A_KEYS if len(cs) <= len(_A_KEYS) else [
        k * _unit_key(1, 0) for k in range(len(cs))]
    g = gcd(*cs)
    if cs[max(k for k, c in enumerate(cs) if c)] < 0:
        g = -g
    return g, Polynomial._from_view(_AVARS, {keys[k]: c // g
                                             for k, c in enumerate(cs) if c})


def _taylor(p, den, mod, start, stop):
    """Taylor coefficients k = start, ..., stop - 1 of p(R + eps), for p given
    as int coefficients over den: coefficient k is ``sum_j C(j, k)*p_j*R**(j-k)``.
    Every power of R must stay below deg q: deg p - start < deg q."""
    d = len(mod) - 1
    n = len(p)
    return [_RootField([comb(k + i, k) * p[k + i] if k + i < n else 0
                        for i in range(d)], den, mod)
            for k in range(start, stop)]


class _RootField:
    """An element c/den of Q[R]/(q): c is an int list of length d == deg q,
    lowest power first, and den a positive int, in lowest terms.  ``mod``
    holds q's integer coefficients, lowest first, with a positive leading
    one that need not be 1.  All arithmetic modulo q is the package's one
    arithmetic modulo a univariate base, run on ints: a product is
    ``rationals._series_mul`` and ``_pseudo_divmod``, the inverse
    ``rationals._inverse_modulo``, and ``_series_mul`` also runs on power
    series of these elements."""

    __slots__ = ("c", "den", "mod")

    def __init__(self, c, den, mod):
        g = gcd(den, *c)
        if g != 1:
            c = [a // g for a in c]
            den //= g
        self.c, self.den, self.mod = c, den, mod

    def __bool__(self):
        return any(self.c)

    def __add__(self, other):
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _RootField([a + b for a, b in zip(self.c, other.c)], d1, self.mod)
        return _RootField([a * d2 + b * d1 for a, b in zip(self.c, other.c)],
                          d1 * d2, self.mod)

    def __neg__(self):
        return _RootField([-a for a in self.c], self.den, self.mod)

    def __sub__(self, other):
        return self + -other

    def scaled(self, n, k=1):
        """self*n/k for ints n and k > 0."""
        return _RootField([n * a for a in self.c], self.den * k, self.mod)

    def __mul__(self, other):
        """A convolution and a pseudo-division by q, whose k steps that
        scale by q's leading coefficient go into the denominator."""
        mod = self.mod
        _, r, k = _pseudo_divmod(_series_mul(self.c, other.c, 2 * len(self.c) - 1), mod)
        return _RootField(r, self.den * other.den * mod[-1] ** k, mod)

    def __pow__(self, e):
        """The inverse, for ``e == -1`` only: c*w == det (mod q) gives
        (c/den)**-1 == den*w/det."""
        if e != -1:
            return NotImplemented
        w, det = _inverse_modulo(self.c, self.mod)
        if w is None:
            raise InvalidInput("pole polynomial is not squarefree-irreducible")
        if det < 0:
            w, det = [-a for a in w], -det
        return _RootField([self.den * a for a in w], det, self.mod)


# ---------------------------------------------------------------------- #
# seeded random representations for fuzzing


def random_additive_rep(seed, n=3, max_types=2, max_deg=2, coeff_bound=9):
    """Deterministic pseudo-random additive representation.

    The same seed and parameters always produce the same value, every
    produced value satisfies the representation invariants, and generating
    from it always yields a compatible tuple.
    """
    if n < 1 or max_types < 0 or max_deg < 0 or coeff_bound < 1:
        raise InvalidInput("parameters must be positive")
    rng = random.Random((seed, n, max_types, max_deg, coeff_bound).__repr__())
    names = ("x", "y", "z", "w") if n <= 4 else tuple(f"x{k}" for k in range(1, n + 1))
    vars = names[:n]

    def rand_coeff():
        c = 0
        while not c:
            c = rng.randint(-coeff_bound, coeff_bound)
        return c

    def rand_poly(pvars, max_terms, deg):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = [0] * len(pvars)
            for _ in range(rng.randint(0, deg)):
                e[rng.randrange(len(pvars))] += 1
            terms[tuple(e)] = Fraction(rand_coeff())
        return Polynomial(pvars, terms)

    # exact part: a small polynomial plus at most one simple fraction
    exact = RationalFunction.zero(vars)
    if rng.random() < 0.8:
        exact = exact + RationalFunction(rand_poly(vars, 2, 2))
    if rng.random() < 0.6:
        den = Polynomial.linear_form(
            [rng.randint(-2, 2) for _ in range(n)], vars, shift=rng.randint(-3, 3))
        if den.is_constant:
            den = Polynomial.linear_form([1] * n, vars, shift=1)
        exact = exact + RationalFunction(
            Polynomial.constant(rand_coeff(), vars), den)

    # beyond three variables the fully dense joint extreme is out of reach
    # for exact arithmetic in reasonable time, so shade the shape there
    type_cap = max_types if n <= 3 else min(max_types, 2)
    den_deg = max_deg if n <= 3 else min(max_deg, 2)
    seen = set()
    parts = []
    for _ in range(rng.randint(0, type_cap)):
        for _ in range(40):
            v = [rng.randint(-2, 2) for _ in range(n)]
            if not any(v):
                continue
            g = gcd(*v)
            v = [e // g for e in v]
            first = next(e for e in v if e)
            if first < 0:
                v = [-e for e in v]
            if tuple(v) not in seen:
                seen.add(tuple(v))
                break
        else:
            continue
        # rand_poly puts nonzero coefficients on distinct monomials, so
        # neither polynomial is zero
        r = RationalFunction(rand_poly(_ZVARS, 2, max_deg), rand_poly(_ZVARS, 2, den_deg))
        parts.append((IntegerLinearType(v), r))
    return AdditiveRepresentation(vars, exact, parts)
