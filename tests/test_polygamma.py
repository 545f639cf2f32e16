import random
from fractions import Fraction
from math import factorial, gcd

import pytest
import sympy
from sympy.polys.domains import QQ
from sympy.polys.polyclasses import ANP
from sympy.polys.polyerrors import NotInvertible
from conftest import series_inverse
from test_rationals import _taylor_at

from wzforms import (AdditiveRepresentation, IntegerLinearType, InvalidInput,
                     PolygammaExpression, PolygammaTerm, Polynomial,
                     RationalFunction, RootShift, conjugate_polygamma, delta,
                     generate, parse_expression, random_additive_rep,
                     signed_range_sum)
from wzforms.polys import _dense
from wzforms.rationals import _series_mul
from wzforms.wzform import _AVARS, _primitive_in_a, _root_sum_terms, _RootField, _taylor

V = ("x", "y", "z")
Zv = ("Z",)
Z = Polynomial.variable("Z", Zv)
inv_z = RationalFunction(Polynomial.one(Zv), Z)


def rep_of(parts, vars=V, exact=None):
    exact = exact if exact is not None else RationalFunction.zero(vars)
    return AdditiveRepresentation(
        vars, exact, [(IntegerLinearType(v), r) for v, r in parts])


def test_conjugate_of_two_type_rep_prints_exactly():
    rep = rep_of([((4, 6, 5), inv_z), ((0, 3, 2), inv_z)])
    expr = conjugate_polygamma(rep)
    assert str(expr) == "psi^(0)(4*x + 6*y + 5*z) + psi^(0)(3*y + 2*z)"
    assert expr.rational_part.is_zero


def test_expression_prints_signs_fractions_and_root_sums():
    A = Polynomial.variable("A", ("A",))
    terms = (
        PolygammaTerm(Fraction(-3, 2), 0, IntegerLinearType((4, 6, 5)),
                      Fraction(1, 3)),
        PolygammaTerm(Fraction(1), 1, IntegerLinearType((0, 3, 2)), Fraction(0)),
        PolygammaTerm(Fraction(-2, 7), 2, IntegerLinearType((1, -1, 0)),
                      RootShift(A**2 + A + 1, 2 * A - 3)),
    )
    expr = PolygammaExpression(RationalFunction.zero(V), terms)
    assert str(expr) == (
        "-3/2*psi^(0)(4*x + 6*y + 5*z + 1/3) + psi^(1)(3*y + 2*z)"
        " - 2/7*RootSum(A^2 + A + 1, A -> (2*A - 3)*psi^(2)(x - y + A))")
    assert expr.latex() == (
        r"-\tfrac{3}{2} \psi^{(0)}\!\left(4 x + 6 y + 5 z + \tfrac{1}{3}\right)"
        r" + \psi^{(1)}\!\left(3 y + 2 z\right)"
        r" - \tfrac{2}{7} \sum_{\alpha^{2} + \alpha + 1 = 0}"
        r" \left(2 \alpha - 3\right) \, \psi^{(2)}\!\left(x - y + \alpha\right)")
    mixed = PolygammaExpression(parse_expression("(1 - 2*x)/(y + 1)", V), terms[:1])
    assert str(mixed) == "(-2*x + 1)/(y + 1) - 3/2*psi^(0)(4*x + 6*y + 5*z + 1/3)"
    assert mixed.latex() == (
        r"\frac{-2 x + 1}{y + 1} - \tfrac{3}{2} "
        r"\psi^{(0)}\!\left(4 x + 6 y + 5 z + \tfrac{1}{3}\right)")
    empty = PolygammaExpression(RationalFunction.zero(V), ())
    assert str(empty) == empty.latex() == "0"
    assert str(terms[2].shift) == "RootSum(A^2 + A + 1, A -> 2*A - 3)"


def test_whole_coefficients_print_without_a_denominator():
    # the coefficient -2 is the Fraction -2/1, in text and in LaTeX
    expr = conjugate_polygamma(rep_of(
        [((1, 1), RationalFunction(Polynomial.constant(2, Zv), Z**2))], vars=("x", "y")))
    assert expr.terms[0].coefficient == Fraction(-2)
    assert str(expr) == "-2*psi^(1)(x + y)"
    assert expr.latex() == r"-2 \psi^{(1)}\!\left(x + y\right)"


def test_conjugate_pure_rational():
    a = RationalFunction(Polynomial.variable("x", V))
    expr = conjugate_polygamma(rep_of([], exact=a))
    assert expr.rational_part == a and expr.terms == ()


def test_conjugate_double_pole_coefficient():
    V2 = ("x", "y")
    rep = rep_of([((1, 1), RationalFunction(Polynomial.one(Zv), Z**2))],
                 vars=V2)
    expr = conjugate_polygamma(rep)
    assert len(expr.terms) == 1
    term = expr.terms[0]
    assert term.coefficient == -1
    assert term.order == 1
    assert term.shift == 0
    assert str(expr) == "-psi^(1)(x + y)"


def test_conjugate_shifted_pole_and_scaling():
    V2 = ("x", "y")
    # 1/(2Z+1) = (1/2)/(Z + 1/2)
    rep = rep_of([((1, 1), RationalFunction(Polynomial.one(Zv), 2 * Z + 1))],
                 vars=V2)
    expr = conjugate_polygamma(rep)
    term = expr.terms[0]
    assert term.coefficient == Fraction(1, 2)
    assert term.order == 0 and term.shift == Fraction(1, 2)


def _certificate_from_conjugate(expr, rep, j):
    """Expand every polygamma term through the defining recurrence into the
    j-th certificate; rational shifts only."""
    vars = rep.vars
    total = delta(expr.rational_part, j)
    for term in expr.terms:
        assert not isinstance(term.shift, RootShift)
        t = term.order
        base = Z + term.shift
        step = RationalFunction(
            Polynomial.constant(Fraction((-1) ** t * factorial(t)), Zv),
            base ** (t + 1))
        total = total + signed_range_sum(step, term.vtype, j, vars) \
            * term.coefficient
    return total


def test_conjugate_certificates_reproduce_generated_tuple():
    # rational-linear pole structure, including higher multiplicities and a
    # polynomial part that must fold into the rational part
    r1 = RationalFunction(Z + 3, Z**2 * (Z + 1))
    r2 = RationalFunction(2 * Z**2 + 1, 2 * Z + 1)
    rep = rep_of([((2, -1, 1), r1), ((0, 1, 1), r2)],
                 exact=RationalFunction(Polynomial.variable("y", V)))
    expr = conjugate_polygamma(rep)
    form = generate(rep)
    for j in range(3):
        assert _certificate_from_conjugate(expr, rep, j) == form.components[j]


def test_conjugate_on_random_reps_with_split_poles():
    checked = 0
    for seed in range(30):
        rep = random_additive_rep(seed, n=2, max_types=2, max_deg=2)
        expr = conjugate_polygamma(rep)
        if any(isinstance(t.shift, RootShift) for t in expr.terms):
            continue
        form = generate(rep)
        for j in range(2):
            assert _certificate_from_conjugate(expr, rep, j) == \
                form.components[j]
        checked += 1
    assert checked >= 10


def test_root_sum_term_for_irreducible_quadratic():
    V2 = ("x", "y")
    rep = rep_of([((1, 1), RationalFunction(Polynomial.one(Zv), Z**2 - 2))],
                 vars=V2)
    expr = conjugate_polygamma(rep)
    assert len(expr.terms) == 1
    term = expr.terms[0]
    assert isinstance(term.shift, RootShift)
    A = Polynomial.variable("A", ("A",))
    assert term.shift.poly == A**2 - 2
    # full weight: -A/4 at each root (coefficient carries the sign)
    weight = term.shift.weight * term.coefficient
    assert weight == -A * Fraction(1, 4)


def test_root_sum_certificates_against_algebraic_expansion():
    # independent oracle over Q(sqrt(2)) for simple and double poles
    # (Z^2 + 2)/(Z^2 - 2)^2 is -d/dZ of Z/(Z^2 - 2): no residue, so no
    # psi^(0) root sum
    V2 = ("x", "y")
    for rnum, rden in ((Polynomial.one(Zv), Z**2 - 2),
                       (Z + 1, (Z**2 - 2) ** 2),
                       (Z**2 + 2, (Z**2 - 2) ** 2)):
        r = RationalFunction(rnum, rden)
        rep = rep_of([((1, 1), r)], vars=V2)
        expr = conjugate_polygamma(rep)
        if rnum == Z**2 + 2:
            assert [term.order for term in expr.terms] == [1]
        form = generate(rep)
        xs, ys = sympy.symbols("x y")
        for j in range(2):
            total = sympy.Integer(0)
            for term in expr.terms:
                t = term.order
                coeff = sympy.Rational(term.coefficient)
                arg = xs + ys
                vj = term.vtype[j]
                if isinstance(term.shift, RootShift):
                    Asym = sympy.Symbol("A")
                    qexpr = sum(sympy.Rational(cc) * Asym**e[0]
                                for e, cc in term.shift.poly.terms.items())
                    roots = sympy.solve(qexpr, Asym)
                    weight_poly = term.shift.weight
                    for rho in roots:
                        w = sum(sympy.Rational(cc) * rho**e[0]
                                for e, cc in weight_poly.terms.items())
                        for ell in range(vj):
                            total += coeff * w * (-1) ** t * \
                                sympy.factorial(t) / (arg + ell + rho) ** (t + 1)
                else:
                    for ell in range(vj):
                        total += coeff * (-1) ** t * sympy.factorial(t) / \
                            (arg + ell + sympy.Rational(term.shift)) ** (t + 1)
            comp = form.components[j]
            num = sum(sympy.Rational(cc) * xs**e[0] * ys**e[1]
                      for e, cc in comp.num.terms.items())
            den = sum(sympy.Rational(cc) * xs**e[0] * ys**e[1]
                      for e, cc in comp.den.terms.items())
            assert sympy.simplify(total - num / den) == 0


_ZS = sympy.Symbol("Z")


def _sympy_poly(p, at=_ZS):
    """A univariate Polynomial evaluated at ``at``, as a Poly in Z over QQ."""
    return sympy.Poly(sum((sympy.Rational(c.numerator, c.denominator) * at**e
                           for (e,), c in p.terms.items()), sympy.Integer(0)),
                      _ZS, domain="QQ")


def _irreducible(rng, degree):
    while True:
        coeffs = [rng.randint(-5, 5) for _ in range(degree)]
        coeffs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
        q = Polynomial(Zv, {(k,): c for k, c in enumerate(coeffs)})
        if _sympy_poly(q).is_irreducible:
            return q


def test_root_sums_of_cubic_and_quartic_poles_against_sympy():
    # independent oracle: sum over q(p) = 0 of c(p)/(Z - p) is
    # ((c*q') mod q)/q, and a psi^(t) term adds its t-th derivative;
    # with p = -A a root of q(-Z), a term's weight at p is w(-p)
    rng = random.Random(4)
    V2 = ("x", "y")
    cases = [(degree, mult) for degree in (3, 4) for mult in (1, 2, 3)] * 2
    for k, (degree, mult) in enumerate(cases):
        den = _irreducible(rng, degree) ** mult
        top = mult
        if k >= 6:
            # a second irreducible pole of the other degree
            other = rng.randint(1, 2)
            den = den * _irreducible(rng, 7 - degree) ** other
            top = max(mult, other)
        num = Polynomial(Zv, {(e,): rng.randint(-9, 9)
                              for e in range(den.degree_in(0))})
        r = RationalFunction(num if not num.is_zero else Polynomial.one(Zv), den)
        expr = conjugate_polygamma(rep_of([((1, 1), r)], vars=V2))
        assert expr.rational_part.is_zero
        assert max(term.order for term in expr.terms) + 1 == top
        total_num, total_den = _sympy_poly(Polynomial.zero(Zv)), _sympy_poly(
            Polynomial.one(Zv))
        for term in expr.terms:
            assert isinstance(term.shift, RootShift)
            q = _sympy_poly(term.shift.poly, -_ZS)
            w = _sympy_poly(term.shift.weight * term.coefficient, -_ZS)
            num, den = (w * q.diff(_ZS)).rem(q), q
            for _ in range(term.order):
                num, den = num.diff(_ZS) * den - num * den.diff(_ZS), den * den
            total_num, total_den = total_num * den + num * total_den, total_den * den
        assert total_num * _sympy_poly(r.den) == _sympy_poly(r.num) * total_den


def test_root_sums_of_cubic_and_quartic_poles_print_exactly():
    V2 = ("x", "y")
    cubic = conjugate_polygamma(rep_of(
        [((1, 2), RationalFunction(Z + 1, (Z**3 - Z - 1) ** 2))], vars=V2))
    assert str(cubic) == (
        "1/529*RootSum(A^3 - A + 1, A -> (57*A^2 + 120*A - 38)*psi^(0)(x + 2*y + A))"
        " - 1/23*RootSum(A^3 - A + 1, A -> (3*A^2 + A - 1)*psi^(1)(x + 2*y + A))")
    assert cubic.latex() == (
        r"\tfrac{1}{529} \sum_{\alpha^{3} - \alpha + 1 = 0}"
        r" \left(57 \alpha^{2} + 120 \alpha - 38\right) \,"
        r" \psi^{(0)}\!\left(x + 2 y + \alpha\right)"
        r" - \tfrac{1}{23} \sum_{\alpha^{3} - \alpha + 1 = 0}"
        r" \left(3 \alpha^{2} + \alpha - 1\right) \,"
        r" \psi^{(1)}\!\left(x + 2 y + \alpha\right)")
    quartic = conjugate_polygamma(rep_of(
        [((1, -1), RationalFunction(Polynomial.one(Zv), (Z**4 + 2) ** 3))], vars=V2))
    assert str(quartic) == (
        "21/1024*RootSum(A^4 + 2, A -> A*psi^(0)(x - y + A))"
        " - 9/1024*RootSum(A^4 + 2, A -> A^2*psi^(1)(x - y + A))"
        " + 1/1024*RootSum(A^4 + 2, A -> A^3*psi^(2)(x - y + A))")
    assert quartic.latex() == (
        r"\tfrac{21}{1024} \sum_{\alpha^{4} + 2 = 0} \alpha \,"
        r" \psi^{(0)}\!\left(x - y + \alpha\right)"
        r" - \tfrac{9}{1024} \sum_{\alpha^{4} + 2 = 0} \alpha^{2} \,"
        r" \psi^{(1)}\!\left(x - y + \alpha\right)"
        r" + \tfrac{1}{1024} \sum_{\alpha^{4} + 2 = 0} \alpha^{3} \,"
        r" \psi^{(2)}\!\left(x - y + \alpha\right)")


def _anp_root_sum_terms(base, layers, vtype):
    """Test oracle: the root-sum terms computed in sympy's ``ANP`` field
    Q[R]/(q), with Taylor coefficients by repeated synthetic division."""
    mod = [QQ.convert(c.constant_value()) for c in reversed(base.coeffs_in(0))]

    def field(p):
        return [ANP([QQ.convert(c.constant_value())], mod, QQ)
                for c in p.coeffs_in(0)]

    R = ANP([QQ.one, QQ.zero], mod, QQ)
    m = max(layers)
    try:
        inv = series_inverse(_taylor_at(field(base), R, m + 1)[1:], m)
    except NotInvertible:
        raise InvalidInput("pole polynomial is not squarefree-irreducible") from None
    weights = [R - R] * (m + 1)
    power = inv
    for t in range(1, m + 1):
        if t > 1:
            power = _series_mul(power, inv, m)
        if t in layers:
            local = _series_mul(_taylor_at(field(layers[t].as_polynomial()), R, t),
                                power, t)
            for s in range(1, t + 1):
                weights[s] = weights[s] + local[t - s]
    flipped_base = base.compose(
        {base.vars[0]: -Polynomial.variable(_AVARS[0], _AVARS)}).primitive()
    out = []
    for s in range(1, m + 1):
        if weights[s].is_zero:
            continue
        scale = Fraction((-1) ** (s - 1), factorial(s - 1))
        wpoly = Polynomial(_AVARS, {
            (k,): Fraction(int(c.numerator), int(c.denominator)) * scale * (-1) ** k
            for k, c in enumerate(reversed(weights[s].to_list()))})
        content = wpoly.content()
        out.append(PolygammaTerm(content, s - 1, vtype,
                                 RootShift(flipped_base, wpoly.divexact(content))))
    return out


def test_root_sums_match_the_anp_oracle():
    # 400 seeded cases: irreducible q of degree 2-6 with leading coefficient
    # 1, -1, 2, 3 or -5, some scaled by a fraction, multiplicity 1-5, and
    # layers with fraction coefficients, some of them zero
    rng = random.Random(19)
    pool = []
    for degree in range(2, 7):
        for lead in (1, -1, 2, 3, -5):
            for _ in range(2):
                while True:
                    q = Polynomial(Zv, {(k,): rng.randint(-5, 5) for k in range(degree)}
                                   | {(degree,): lead})
                    if _sympy_poly(q).is_irreducible:
                        break
                pool.append(q)
    vtype = IntegerLinearType((1, 1))
    scaled = zero_coeff = 0
    for _ in range(400):
        q = rng.choice(pool)
        if rng.random() < 0.2:
            q = q * Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(2, 5))
            scaled += 1
        d = q.degree_in(0)
        m = rng.randint(1, 5)
        layers = {}
        for t in range(1, m + 1):
            if t < m and rng.random() < 0.3:
                continue
            coeffs = {(k,): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for k in range(d)}
            zero_coeff += 0 in coeffs.values()
            a = Polynomial(Zv, coeffs)
            layers[t] = RationalFunction(a if not a.is_zero else Polynomial.one(Zv))
        assert _root_sum_terms(q, layers, vtype) == _anp_root_sum_terms(q, layers, vtype)
    assert scaled >= 40 and zero_coeff >= 40
    # past degree 15 the polynomials in A get keys of their own
    q = Z**16 - 2 * Z + 2
    layers = {1: RationalFunction(Z**3 + 1), 2: RationalFunction(3 * Z**15 - Z)}
    assert _root_sum_terms(q, layers, vtype) == _anp_root_sum_terms(q, layers, vtype)


def test_root_sum_rejects_a_pole_that_is_not_squarefree():
    with pytest.raises(InvalidInput, match="squarefree"):
        _root_sum_terms((Z**2 - 2) ** 2, {1: RationalFunction.one(Zv)},
                        IntegerLinearType((1, 1)))


def test_root_sum_rejects_a_layer_of_the_pole_degree():
    # the closed-form Taylor coefficients skip the reduction by q, which
    # holds only for layers of degree below q's
    with pytest.raises(InvalidInput, match="degree below"):
        _root_sum_terms(Z**2 - 2, {1: RationalFunction(Z**2)},
                        IntegerLinearType((1, 1)))


def test_unit_root_sum_weight_is_omitted():
    # a weight of 1 is left out, as a coefficient of 1 is
    expr = conjugate_polygamma(rep_of(
        [((1, 1), RationalFunction(Z, (Z**3 + 2) ** 3))], vars=("x", "y")))
    assert str(expr) == (
        "-1/108*RootSum(A^3 - 2, A -> A^2*psi^(0)(x + y + A))"
        " + 1/54*RootSum(A^3 - 2, A -> psi^(1)(x + y + A))"
        " - 1/216*RootSum(A^3 - 2, A -> A*psi^(2)(x + y + A))")
    assert expr.latex() == (
        r"-\tfrac{1}{108} \sum_{\alpha^{3} - 2 = 0} \alpha^{2} \,"
        r" \psi^{(0)}\!\left(x + y + \alpha\right)"
        r" + \tfrac{1}{54} \sum_{\alpha^{3} - 2 = 0}"
        r" \psi^{(1)}\!\left(x + y + \alpha\right)"
        r" - \tfrac{1}{216} \sum_{\alpha^{3} - 2 = 0} \alpha \,"
        r" \psi^{(2)}\!\left(x + y + \alpha\right)")


def test_root_sum_names_its_root_apart_from_the_variables():
    # a variable named A would be captured by a root named A
    r = RationalFunction(Polynomial.one(Zv), Z**2 + 1)
    expr = conjugate_polygamma(rep_of([((1, 1), r)], vars=("A", "y")))
    assert str(expr) == "1/2*RootSum(A1^2 + 1, A1 -> A1*psi^(0)(A + y + A1))"
    assert expr.latex() == (
        r"\tfrac{1}{2} \sum_{\alpha^{2} + 1 = 0} \alpha \,"
        r" \psi^{(0)}\!\left(A + y + \alpha\right)")
    expr = conjugate_polygamma(rep_of([((1, 1, 0), r)], vars=("A", "A1", "A3")))
    assert str(expr) == "1/2*RootSum(A2^2 + 1, A2 -> A2*psi^(0)(A + A1 + A2))"
    expr = conjugate_polygamma(rep_of([((1, 1), r)], vars=("A1", "y")))
    assert str(expr) == "1/2*RootSum(A^2 + 1, A -> A*psi^(0)(A1 + y + A))"


ONCE_PER_OUTPUT = [
    # over ("x",) the weight A and the form x have the same integer view
    ([((1,), "1/(Z^2+1)")], ("x",),
     "1/2*RootSum(A^2 + 1, A -> A*psi^(0)(x + A))",
     r"\tfrac{1}{2} \sum_{\alpha^{2} + 1 = 0} \alpha \, \psi^{(0)}\!\left(x + \alpha\right)"),
    # over ("A",) they are the same polynomial, written with two names
    ([((1,), "1/(Z^2+1)")], ("A",),
     "1/2*RootSum(A1^2 + 1, A1 -> A1*psi^(0)(A + A1))",
     r"\tfrac{1}{2} \sum_{\alpha^{2} + 1 = 0} \alpha \, \psi^{(0)}\!\left(A + \alpha\right)"),
    # two types share the base Z^2 + 1 and the weight A - 1, beside linear poles
    ([((1, 0), "1/((Z^2+1)*(Z+1))"), ((1, 1), "(Z+3)/((Z^2+1)^2*(Z-2))")], ("x", "y"),
     "1/2*psi^(0)(x + 1) + 1/4*RootSum(A^2 + 1, A -> (A - 1)*psi^(0)(x + A))"
     " + 1/5*psi^(0)(x + y - 2) - 1/20*RootSum(A^2 + 1, A -> (9*A + 2)*psi^(0)(x + y + A))"
     " + 1/4*RootSum(A^2 + 1, A -> (A - 1)*psi^(1)(x + y + A))",
     r"\tfrac{1}{2} \psi^{(0)}\!\left(x + 1\right) + \tfrac{1}{4} \sum_{\alpha^{2} + 1 = 0}"
     r" \left(\alpha - 1\right) \, \psi^{(0)}\!\left(x + \alpha\right) + \tfrac{1}{5}"
     r" \psi^{(0)}\!\left(x + y - 2\right) - \tfrac{1}{20} \sum_{\alpha^{2} + 1 = 0}"
     r" \left(9 \alpha + 2\right) \, \psi^{(0)}\!\left(x + y + \alpha\right) + \tfrac{1}{4}"
     r" \sum_{\alpha^{2} + 1 = 0} \left(\alpha - 1\right) \,"
     r" \psi^{(1)}\!\left(x + y + \alpha\right)"),
]


@pytest.mark.parametrize("parts, vars, text, latex", ONCE_PER_OUTPUT,
                         ids=["form_x", "form_A", "two_types"])
def test_polynomials_written_once_per_output_print_as_before(parts, vars, text, latex):
    # each output writes a polynomial once, keyed by the polynomial and the
    # name it is written with; these outputs repeat forms, bases and weights
    expr = conjugate_polygamma(rep_of(
        [(v, parse_expression(r, Zv)) for v, r in parts], vars=vars))
    assert str(expr) == text
    assert expr.latex() == latex


def _power_loop_root_sum_terms(base, layers, vtype):
    """Test oracle: the root-sum terms with H(eps)**-t taken, for every t up
    to the multiplicity, as t - 1 products of the whole series inverse,
    each truncated to m terms."""
    d = base.degree_in(0)
    qints, qden = base._scaled_ints()
    qs = _dense(qints, 1, 0)
    g = gcd(*qs) if qs[-1] > 0 else -gcd(*qs)
    mod = tuple(c // g for c in qs)
    m = max(layers)
    inv = series_inverse(_taylor(qs, qden, mod, 1, m + 1), m)
    zero = _RootField([0] * d, 1, mod)
    weights = [zero] * (m + 1)
    power = inv
    for t in range(1, m + 1):
        if t > 1:
            power = _series_mul(power, inv, m)
        if t in layers:
            aints, aden = layers[t].as_polynomial()._scaled_ints()
            a = _dense(aints, 1, 0)
            local = _series_mul(_taylor(a, aden, mod, 0, t), power, t)
            for s in range(1, t + 1):
                weights[s] = weights[s] + local[t - s]
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


def _counting_products(monkeypatch):
    """A list that grows by one entry per _RootField product."""
    calls = []
    original = _RootField.__mul__

    def counting(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(_RootField, "__mul__", counting)
    return calls


def test_root_sum_powers_match_the_power_loop(monkeypatch):
    # seeded irreducible q of degree 2-4, some not monic or scaled by a
    # fraction, multiplicity 1-12 and random layer sets; up to m == 3 no
    # case takes more field products than the power loop
    rng = random.Random(20)
    pool = []
    for degree in (2, 3, 4):
        for lead in (1, 2, -3):
            while True:
                q = Polynomial(Zv, {(k,): rng.choice((0, rng.randint(-5, 5)))
                                    for k in range(degree)} | {(degree,): lead})
                if _sympy_poly(q).is_irreducible:
                    break
            pool.append(q)
    calls = _counting_products(monkeypatch)
    vtype = IntegerLinearType((1, 2))
    small = 0
    for _ in range(150):
        q = rng.choice(pool) * rng.choice((1, Fraction(-2, 3)))
        d = q.degree_in(0)
        m = rng.randint(1, 12)
        ts = {m} | {t for t in range(1, m) if rng.random() < 0.4}
        layers = {}
        for t in ts:
            a = Polynomial(Zv, {(k,): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                for k in range(rng.randint(1, d))})
            layers[t] = RationalFunction(a if not a.is_zero else Polynomial.one(Zv))
        calls.clear()
        got = _root_sum_terms(q, layers, vtype)
        ours = len(calls)
        calls.clear()
        assert got == _power_loop_root_sum_terms(q, layers, vtype)
        if m <= 3:
            assert ours <= len(calls)
            small += 1
    assert small >= 25


def test_root_sum_of_a_single_high_layer_takes_quadratically_many_products(monkeypatch):
    # the power loop took 108,148 products for Z**2 + 1 at t == 60
    calls = _counting_products(monkeypatch)
    t = 60
    for q in (Z**2 + 1, Z**4 - 2 * Z + 2):
        calls.clear()
        terms = _root_sum_terms(q, {t: RationalFunction.one(Zv)},
                                IntegerLinearType((1, 2)))
        assert len(terms) == t
        assert len(calls) <= t * t
