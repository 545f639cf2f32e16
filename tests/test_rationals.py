import random
from fractions import Fraction
from math import comb, gcd

import pytest
import sympy
from sympy.polys.domains import QQ
from sympy.polys.polyclasses import ANP

from conftest import random_polynomial, random_rational, series_inverse
from wzforms import (DivisionByZero, InvalidInput, Polynomial, RationalFunction,
                     UnimodularCompletion, complete_unimodular, delta,
                     partial_fraction, poly_antidifference, poly_gcd,
                     rf_reduce, substitute_linear)
from wzforms.rationals import (_add_coprime, _add_dividing, _cofactor_inverse,
                               _exact_quotient, _fraction_free_solve, _inverse_modulo,
                               _layers_at_linear_pole, _layers_by_inversion,
                               _layers_on_a_line, _line_points, _on_line, _pseudo_divmod,
                               _series_mul)
from wzforms.wzform import _RootField

V = ("x", "y")
x = Polynomial.variable("x", V)
y = Polynomial.variable("y", V)


def test_reduce_cancels_gcd():
    assert rf_reduce(x**2 - 1, x - 1) == RationalFunction(x + 1)


def test_reduce_zero_numerator():
    f = rf_reduce(Polynomial.zero(V), x + y)
    assert f.is_zero and f.den == Polynomial.one(V)


def test_reduce_normalizes_content():
    f = rf_reduce(2 * x + 2 * y, Polynomial.constant(4, V))
    assert f == RationalFunction((x + y) * Fraction(1, 2))
    assert str(f) == "1/2*x + 1/2*y"
    assert repr(RationalFunction(x + 1, 2 * y)) == \
        "RationalFunction('(1/2*x + 1/2)/y', vars=('x', 'y'))"


def test_reduce_zero_denominator():
    with pytest.raises(DivisionByZero):
        rf_reduce(x, Polynomial.zero(V))


def test_reduce_is_idempotent():
    rng = random.Random(7)
    for _ in range(60):
        f = random_rational(rng, V)
        again = rf_reduce(f.num, f.den)
        assert again.num == f.num and again.den == f.den


def test_denominator_always_canonical():
    rng = random.Random(11)
    for _ in range(60):
        f = random_rational(rng, V)
        g = random_rational(rng, V)
        for h in (f + g, f - g, f * g):
            if h.is_zero:
                continue
            assert h.den.content() == 1
            assert h.den.leading()[1] > 0
            if not h.num.is_constant and not h.den.is_constant:
                assert poly_gcd(h.num, h.den).is_constant


def test_field_axioms_on_random_samples():
    # distributivity, associativity and inverses, exactly
    rng = random.Random(13)
    for _ in range(350):
        a = random_rational(rng, V)
        b = random_rational(rng, V)
        c = random_rational(rng, V)
        assert (a + b) * c == a * c + b * c
        assert (a + b) + c == a + (b + c)
        assert a - a == 0
        if not b.is_zero:
            assert (a / b) * b == a


def test_division_by_zero_function():
    f = RationalFunction(x)
    with pytest.raises(DivisionByZero):
        f / RationalFunction.zero(V)


def test_rational_functions_are_immutable():
    f = RationalFunction(x, y)
    with pytest.raises(AttributeError) as info:
        f.num = y
    assert str(info.value) == "RationalFunction is immutable"
    assert (f.num, f.den) == (x, y)


def test_equal_rational_functions_hash_alike():
    f = RationalFunction(x**2 - y**2, 2 * x - 2 * y)
    g = RationalFunction((x + y) * Fraction(1, 2))
    assert f == g and f is not g and hash(f) == hash(g)
    assert {f: 1}[g] == 1 and len({f, g, RationalFunction(x + y)}) == 2


def test_mixed_operands_coerce_to_rational_functions():
    f = RationalFunction(x + y, x - y)
    assert 2 / f == RationalFunction(2 * x - 2 * y, x + y)
    assert Fraction(1, 3) / f == RationalFunction(x - y, 3 * x + 3 * y)
    assert (x * y) / f == RationalFunction(x**2 * y - x * y**2, x + y)
    assert f + x * y == RationalFunction(x**2 * y - x * y**2 + x + y, x - y)
    assert x * y + f == f + RationalFunction(x * y)
    # equality with a polynomial holds only for a polynomial value
    assert RationalFunction(x**2 - y**2, x - y) == x + y
    assert f != x + y and RationalFunction(x + y) != x - y
    for zero in (0, Fraction(0)):
        assert (f * zero).is_zero and (zero * f).is_zero
        assert f * zero == RationalFunction.zero(V)


def test_substitute_linear_examples():
    Zv = ("Z",)
    Z = Polynomial.variable("Z", Zv)
    V3 = ("x", "y", "z")
    b = Polynomial.linear_form((4, 6, 5), V3)
    f = RationalFunction(Polynomial.one(V3), b)
    images = {"x": Z * Fraction(1, 4),
              "y": Polynomial.zero(Zv), "z": Polynomial.zero(Zv)}
    assert substitute_linear(f, images) == RationalFunction(Polynomial.one(Zv), Z)

    g = RationalFunction(x + y)
    shifted = substitute_linear(g, {"x": x + 1, "y": y})
    assert shifted == RationalFunction(x + y + 1)
    # a Polynomial is taken as the rational function it is
    assert substitute_linear(x + y, {"x": x + 1, "y": y}) == shifted

    h = RationalFunction(Polynomial.one(V3),
                         Polynomial.linear_form((-1, 1, 1), V3, shift=-1))
    images = {"x": -Z, "y": Polynomial.zero(Zv), "z": Polynomial.zero(Zv)}
    assert substitute_linear(h, images) == \
        RationalFunction(Polynomial.one(Zv), Z - 1)


def test_substitute_linear_denominator_collapse():
    f = RationalFunction(Polynomial.one(V), x - y)
    with pytest.raises(DivisionByZero):
        substitute_linear(f, {"x": x, "y": x})


def test_partial_fraction_simple_poles():
    f = RationalFunction(Polynomial.one(V), x * (x + 1))
    poly_part, parts = partial_fraction(f, 0)
    assert poly_part.is_zero
    assert parts == [(RationalFunction.constant(1, V), x, 1),
                     (RationalFunction.constant(-1, V), x + 1, 1)]


def test_partial_fraction_polynomial_quotient():
    f = RationalFunction(x**2, x - y)
    poly_part, parts = partial_fraction(f, 0)
    assert poly_part == RationalFunction(x + y)
    assert parts == [(RationalFunction(y**2), x - y, 1)]


def test_partial_fraction_of_polynomial_input():
    f = RationalFunction(x + 1)
    poly_part, parts = partial_fraction(f, 0)
    assert poly_part == f and parts == []


def _pseudo_division_case(f, i, poly_part):
    """A nonzero polynomial part of f in x_i, where f's denominator has a
    nonconstant factor c free of x_i and the rest a leading coefficient in
    x_i that is not constant."""
    coeffs = f.den.coeffs_in(i)
    c = f.den
    for a in coeffs:
        c = poly_gcd(c, a)
    lead = coeffs[-1].divexact(c)
    return not (poly_part.is_zero or c.is_constant or lead.is_constant)


def test_partial_fraction_numerator_degrees_and_recombination():
    # numerators of higher degree than the denominator in both variables,
    # and a denominator factor free of one of them
    rng = random.Random(17)
    free = [Polynomial.one(V), y + 2, x - 3]
    seen_pseudo = 0
    for _ in range(40):
        den = random_polynomial(rng, V, max_terms=3, max_deg=2, bound=4, nonzero=True)
        num = random_polynomial(rng, V, max_terms=3, max_deg=2, bound=4) \
            + random_polynomial(rng, V, max_terms=2, max_deg=2, bound=4, nonzero=True) \
            * (x * y) ** (den.total_degree() + rng.randint(0, 1))
        f = RationalFunction(num, den * rng.choice(free))
        for i in range(2):
            poly_part, parts = partial_fraction(f, i)
            total = poly_part
            assert poly_part.den.degree_in(i) <= 0
            for a, b, t in parts:
                assert a.degree_in(i) < b.degree_in(i)
                assert a.den.degree_in(i) <= 0
                total = total + a / RationalFunction(b) ** t
            assert total == f
            seen_pseudo += _pseudo_division_case(f, i, poly_part)
    assert seen_pseudo


def test_partial_fraction_higher_multiplicities():
    f = RationalFunction(Polynomial.one(V), x**3 * (x + 1) ** 2)
    poly_part, parts = partial_fraction(f, 0)
    total = poly_part
    for a, b, t in parts:
        total = total + a / RationalFunction(b) ** t
    assert total == f
    assert {(str(b), t) for _, b, t in parts} == \
        {("x", 1), ("x", 2), ("x", 3), ("x + 1", 1), ("x + 1", 2)}


def test_partial_fraction_at_poles_with_non_constant_leading_coefficients():
    # irreducible bases of degree 2-4 in x, most with a leading coefficient
    # in y, and a denominator factor free of x: the general inversion route
    rng = random.Random(23)
    bases = [y * x**2 + 1, (y - 2) * x**3 + x + 1, x**2 + y,
             (y + 1) * x**4 - x + 2, 3 * x**3 + y * x - 1]
    free = [Polynomial.one(V), y + 2, 2 * y - 3]
    seen_general = seen_pseudo = 0
    for _ in range(12):
        den = rng.choice(free)
        for b in rng.sample(bases, rng.randint(1, 2)):
            den = den * b ** rng.randint(1, 3)
        # numerators of higher degree in x than the denominator
        num = random_polynomial(rng, V, max_terms=4, max_deg=5) \
            + random_polynomial(rng, V, max_terms=2, max_deg=1, nonzero=True) \
            * x ** (den.degree_in(0) + rng.randint(0, 2))
        f = RationalFunction(num, den)
        poly_part, parts = partial_fraction(f, 0)
        seen_pseudo += _pseudo_division_case(f, 0, poly_part)
        total = poly_part
        assert poly_part.den.degree_in(0) <= 0
        for a, b, t in parts:
            assert b in bases
            assert a.degree_in(0) < b.degree_in(0)
            assert a.den.degree_in(0) <= 0
            seen_general += not b.coeffs_in(0)[b.degree_in(0)].is_constant
            total = total + a / RationalFunction(b) ** t
        assert total == f
    assert seen_general and seen_pseudo


def _taylor_at(coeffs, rho, m):
    """First m Taylor coefficients at ``x = rho`` by repeated synthetic
    division.  Coefficients and rho are elements of one ring."""
    cs = list(coeffs)
    zero = rho - rho
    out = []
    for _ in range(m):
        if not cs:
            out.append(zero)
            continue
        acc = cs[-1]
        quo = [zero] * (len(cs) - 1)
        for j in range(len(cs) - 2, -1, -1):
            quo[j] = acc
            acc = cs[j] + rho * acc
        out.append(acc)
        cs = quo
        while cs and cs[-1].is_zero:
            cs.pop()
    return out


def _taylor_layers(R, U, b, m, i):
    """Test oracle: the layers of R/U over b**m at a base b = c1*x + c0
    linear in x = x_i, from the local expansion at its root rho = -c0/c1 in
    rational-function arithmetic.  If R/U == sum_k s_k*(x - rho)**k near
    rho, then b**t == c1**t*(x - rho)**t makes the layer of order t equal
    to s_(m-t)/c1**(m-t)."""
    P, c = R
    bc = b.coeffs_in(i)
    c1 = RationalFunction(bc[1])
    rho = -(RationalFunction(bc[0]) / c1)
    rser = _taylor_at([RationalFunction(a) for a in P.coeffs_in(i)], rho, m)
    user = _taylor_at([RationalFunction(a) for a in U.coeffs_in(i)], rho, m)
    local = _series_mul(rser, series_inverse(user, m), m)
    c = RationalFunction(c)
    return {t: local[m - t] / (c * c1 ** (m - t))
            for t in range(1, m + 1) if not local[m - t].is_zero}


def test_linear_pole_layers_match_the_taylor_route():
    # seeded linear bases in x, y or z with multiplicity 1-3, many of them
    # with a leading coefficient that is not constant
    V3 = ("x", "y", "z")
    rng = random.Random(15)
    seen = set()
    for _ in range(60):
        i = rng.randrange(3)
        u, v, w = (Polynomial.variable(V3[(i + k) % 3], V3) for k in range(3))
        linear = [u, u + v, 2 * u - w + 1, (v + 2) * u + w**2 - 1,
                  (w - 1) * u + v, v * u + w, 3 * u + 2 * v * w - 5]
        b = rng.choice(linear)
        m = rng.randint(1, 3)
        U = Polynomial.one(V3)
        for q in rng.sample([q for q in linear if q != b] + [u**2 + v + 1],
                            rng.randint(0, 2)):
            U = U * q ** rng.randint(1, 2)
        # R == P/c with deg P < deg(b**m*U) in the variable and c free of it
        top = m + U.degree_in(i)
        P = Polynomial.from_coeffs_in(
            random_polynomial(rng, V3, max_terms=6, max_deg=top + 1,
                              nonzero=True).coeffs_in(i)[:top], i, V3)
        c = rng.choice([Polynomial.one(V3), v + 2, 2 * w - 3, v * w + 1])
        layers = _layers_at_linear_pole((P, c), U, b, m, i)
        assert layers == _taylor_layers((P, c), U, b, m, i)
        seen.add((m, b.coeffs_in(i)[1].is_constant))
    assert seen == {(m, const) for m in (1, 2, 3) for const in (True, False)}


# irreducible univariate P of degree 2-4, as coefficient lists lowest first
_IRREDUCIBLE = [[1, 0, 1], [-2, 0, 3], [1, 1, 1], [-2, 0, 0, 1], [1, 1, 0, 2],
                [1, 0, 0, 0, 1], [1, 1, 0, 0, 1]]


def _along(coeffs, form):
    """sum(coeffs[k] * form**k) for a univariate coefficient list."""
    out = Polynomial.zero(form.vars)
    for a in reversed(coeffs):
        out = out * form + a
    return out


def _direction(rng, n, i):
    while True:
        v = [rng.randint(-2, 2) for _ in range(n)]
        if v[i] and gcd(*v) == 1:
            return v


def _line_case(rng, kind):
    """(R, U, b, m, i, layers): R/U over b**m with known layers a_t, for
    a base b = P(v . x) or, for kind "not integer-linear", x_i**2 + x_j**2 + 1.
    The layers are alpha_t(v . x) except for kind "across", where x_j is
    added to each.  Kind "trap" puts into U a P(v' . x + k) that equals
    b = P(v . x + k) on the line through the origin, and kind "c at origin"
    gives c a factor x_j.
    """
    n = rng.randint(2, 4)
    vs = ("x", "y", "z", "w")[:n]
    xs = [Polynomial.variable(name, vs) for name in vs]
    i = rng.randrange(n)
    j = rng.choice([k for k in range(n) if k != i])
    v = _direction(rng, n, i)
    form = Polynomial.linear_form(v, vs)
    coeffs = rng.choice(_IRREDUCIBLE)
    d = len(coeffs) - 1
    k = rng.randint(-2, 2)
    b = _along(coeffs, form + k).primitive()
    if kind == "not integer-linear":
        b = xs[i] ** 2 + xs[j] ** 2 + 1
        d = 2
    m = rng.randint(1, 3)
    U = Polynomial.one(vs)
    for _ in range(rng.randint(0, 1)):
        U = U * rng.choice([xs[j] + 2 * xs[i] - 1, xs[i] ** 2 + xs[j] + 3,
                            xs[i] - xs[j] ** 2])
    if kind == "trap":
        w = list(v)
        w[j] += rng.choice([-1, 1])
        U = U * _along(coeffs, Polynomial.linear_form(w, vs, k))
    c = rng.choice([Polynomial.one(vs), 2 * xs[j] - 3, xs[j] * xs[j] + 1])
    if kind == "c at origin":
        c = c * xs[j]
    layers = {}
    for t in range(1, m + 1):
        a = _along([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)],
                   form)
        if kind == "across":
            a = a + xs[j]
        if t == m and a.is_zero:
            a = Polynomial.one(vs)
        layers[t] = a
    digits = Polynomial.zero(vs)
    for t in range(1, m + 1):
        digits = digits * b + layers[t]
    W = random_polynomial(rng, vs, max_terms=2, max_deg=2)
    P = c * (U * digits + b ** m * W)
    want = {t: RationalFunction(a) for t, a in layers.items() if not a.is_zero}
    return (P, c), U, b, m, i, want


def test_line_route_matches_the_peel():
    # seeded bases of degree 2-4 in 2-4 variables, multiplicity 1-3: the
    # line route answers exactly when the layers follow v and b is
    # integer-linear, and then agrees with the peel
    rng = random.Random(16)
    seen, moved = set(), 0
    for kind in ("along", "across", "not integer-linear", "trap", "c at origin"):
        for _ in range(8):
            R, U, b, m, i, want = _line_case(rng, kind)
            peel = _layers_by_inversion(R, U, b, m, i)
            assert peel == want
            got = _layers_on_a_line(R, U, b, m, i)
            if kind in ("across", "not integer-linear"):
                assert got is None
                continue
            assert got == peel
            seen.add((b.degree_in(i), len(b.vars), m))
            # the search passed over the line through the origin
            origin = next(_line_points(len(b.vars), i))
            U0, b0 = _on_line(U, origin), _on_line(b, origin)
            bad = _on_line(R[1], origin).is_zero or U0.divexact(b0) is not None
            moved += bad
            assert bad == (kind != "along")
    assert {d for d, _, _ in seen} == {2, 3, 4}
    assert {n for _, n, _ in seen} == {2, 3, 4}
    assert {m for _, _, m in seen} == {1, 2, 3}
    assert moved == 16


def test_line_route_gives_up_on_layers_across_the_direction():
    # y/((x + y)**2 + 1) in x: the layer y is not a function of x + y, so
    # the certificate fails and partial_fraction takes the peel's answer
    f = RationalFunction(y, (x + y) ** 2 + 1)
    b = (x + y) ** 2 + 1
    R = (y, Polynomial.one(V))
    assert _layers_on_a_line(R, Polynomial.one(V), b, 1, 0) is None
    assert partial_fraction(f, 0) == (RationalFunction.zero(V),
                                      [(RationalFunction(y), b, 1)])
    # and x**2 + y**2 + 1 is not integer-linear at all
    g = RationalFunction(x, x**2 + y**2 + 1)
    assert _layers_on_a_line((x, Polynomial.one(V)),
                             Polynomial.one(V), x**2 + y**2 + 1, 1, 0) is None
    assert partial_fraction(g, 0)[1] == [(RationalFunction(x), x**2 + y**2 + 1, 1)]


def test_line_route_finds_no_line_where_c_vanishes_on_the_grid(monkeypatch):
    # 1/((y-2)*(y-1)*y*(y+1)*(y+2)*((x+y)^2+1)) in x: c vanishes at every
    # y in {-2..2}, so no line is peeled and the full peel answers
    b = (x + y) ** 2 + 1
    c = (y - 2) * (y - 1) * y * (y + 1) * (y + 2)
    R, U = (Polynomial.one(V), c), Polynomial.one(V)
    assert all(_on_line(c, point).is_zero for point in _line_points(2, 0))
    with monkeypatch.context() as patch:
        peeled = []
        patch.setattr("wzforms.rationals._layers_by_inversion",
                      lambda *args: peeled.append(args))
        assert _layers_on_a_line(R, U, b, 1, 0) is None and peeled == []
    assert _layers_by_inversion(R, U, b, 1, 0) == _polynomial_peel(R, U, b, 1, 0)
    f = RationalFunction(Polynomial.one(V), c * b)
    poly_part, parts = partial_fraction(f, 0)
    assert poly_part.is_zero and [(base, t) for _, base, t in parts] == [(b, 1)]
    assert parts[0][0] == _polynomial_peel(R, U, b, 1, 0)[1]
    assert parts[0][0] / RationalFunction(b) == f


def test_antidifference_examples():
    V3 = ("x", "y", "z")
    x3 = Polynomial.variable("x", V3)
    y3 = Polynomial.variable("y", V3)
    z3 = Polynomial.variable("z", V3)
    assert poly_antidifference(Polynomial.one(V3), 0) == x3
    assert poly_antidifference(2 * x3 + 1, 0) == x3**2
    assert poly_antidifference(y3 * z3, 0) == x3 * y3 * z3


def _antidiff_basis(k_max):
    """Oracle: for each k <= k_max, the coefficients (indexed by power) of
    the Q_k with Q_k(x+1) - Q_k(x) = x**k and zero constant term, each built
    from every lower one through (x+1)**(k+1) - x**(k+1) = sum C(k+1, j) x**j."""
    bases = []
    for k in range(k_max + 1):
        coeffs = [Fraction(0)] * (k + 2)
        coeffs[k + 1] = Fraction(1)
        for j in range(k):
            c = comb(k + 1, j)
            for idx, val in enumerate(bases[j]):
                coeffs[idx] -= c * val
        bases.append([c / (k + 1) for c in coeffs])
    return bases


def test_antidifference_matches_the_basis_recursion():
    V3 = ("x", "y", "z")
    bases = _antidiff_basis(60)
    for i in range(3):
        for k, basis in enumerate(bases):
            # x_i**k times a monomial in the other variables
            rest = [k % 3, k % 2, (k + 1) % 4]
            rest[i] = 0
            scale = Fraction(-3, 7) if k % 2 else Fraction(5)

            def times_rest(e, c):
                return {tuple(e if v == i else rest[v] for v in range(3)): c * scale}
            p = Polynomial(V3, times_rest(k, 1))
            expected = {}
            for e, c in enumerate(basis):
                if c:
                    expected.update(times_rest(e, c))
            assert poly_antidifference(p, i) == Polynomial(V3, expected), (i, k)


def test_antidifference_inverts_difference():
    V3 = ("x", "y", "z")
    x3, y3, z3 = (Polynomial.variable(v, V3) for v in V3)
    rng = random.Random(19)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = [0, 0, 0]
            for _ in range(rng.randint(0, 12)):
                e[rng.randrange(3)] += 1
            terms[tuple(e)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        p = Polynomial(V3, terms)
        for i in range(3):
            q = poly_antidifference(p, i)
            assert q.shift_var(i, 1) - q == p
            # zero constant term in the chosen variable
            assert all(a.is_zero for a in q.coeffs_in(i)[:1])
            # the polynomial part of a partial fraction result, whose
            # denominator is free of x_i, antidifferenced as the library does
            f = RationalFunction(p * x3 * y3 * z3 + 1, y3 * x3 - 2 * z3 + 3)
            poly_part, _ = partial_fraction(f, i)
            summed = RationalFunction(poly_antidifference(poly_part.num, i),
                                      poly_part.den)
            assert delta(summed, i) == poly_part


@pytest.mark.parametrize("seed", range(12))
def test_substitute_linear_univariate_matches_gcd_route(seed):
    rng = random.Random(f"substitute-{seed}")
    Zv = ("Z",)
    Z = Polynomial.variable("Z", Zv)
    f = random_rational(rng, Zv, max_terms=3, max_deg=3)
    if f.is_zero:
        f = RationalFunction(Z + 1, Z**2 - 2)
    images = [x * rng.randint(-3, 3) + y * rng.randint(-3, 3) + rng.randint(-2, 2),
              x**2 - y * rng.randint(1, 3) + 1,
              Polynomial.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), V)]
    for image in images:
        num = f.num.compose({"Z": image})
        den = f.den.compose({"Z": image})
        if den.is_zero:
            with pytest.raises(DivisionByZero):
                substitute_linear(f, {"Z": image})
            continue
        got = substitute_linear(f, {"Z": image})
        want = rf_reduce(num, den)
        assert (got.num, got.den) == (want.num, want.den)


def _to_sympy(p):
    return sympy.Poly.from_dict(
        {e: sympy.QQ(c.numerator, c.denominator) for e, c in p.terms.items()},
        *sympy.symbols(p.vars), domain=sympy.QQ)


def _sum_pairs(rng):
    """20 seeded pairs of each kind: equal, coprime, partly shared and
    constant denominators, and a second form of -f, so that f + g is 0."""
    factors = [x + 1, x - y, 2 * x + 3 * y - 1, y**2 + 1, x * y + 2,
               x**2 - 3 * y, y + 4]

    def num():
        return random_polynomial(rng, V, max_terms=3, max_deg=3, nonzero=True)

    def power_product(chosen):
        d = Polynomial.one(V)
        for p in chosen:
            d = d * p ** rng.randint(1, 2)
        return d

    pairs = []
    for _ in range(20):
        d = power_product(rng.sample(factors, 2))
        pairs.append((RationalFunction(num(), d), RationalFunction(num(), d)))
    for _ in range(20):
        chosen = rng.sample(factors, 4)
        pairs.append((RationalFunction(num(), power_product(chosen[:2])),
                      RationalFunction(num(), power_product(chosen[2:]))))
    for _ in range(20):
        shared, a, b = rng.sample(factors, 3)
        pairs.append((RationalFunction(num(), power_product([shared, a])),
                      RationalFunction(num(), power_product([shared, b]))))
    for _ in range(20):
        other = rng.choice([Polynomial.constant(rng.randint(1, 9), V),
                            power_product(rng.sample(factors, 1))])
        pairs.append((RationalFunction(num(), Polynomial.constant(rng.randint(-9, 9) or 1, V)),
                      RationalFunction(num(), other)))
    for _ in range(20):
        f = RationalFunction(num(), power_product(rng.sample(factors, 2)))
        s = num()
        pairs.append((f, RationalFunction(-f.num * s, f.den * s)))
    return pairs


def test_sum_and_difference_match_sympy():
    # the oracle is sympy's cancel of the cross-multiplied sum
    kinds = {"equal": 0, "coprime": 0, "shared": 0, "constant": 0, "zero": 0}
    for f, g in _sum_pairs(random.Random(2024)):
        fd, gd = f.den, g.den
        if fd.is_constant or gd.is_constant:
            kinds["constant"] += 1
        elif fd == gd:
            kinds["equal"] += 1
        elif poly_gcd(fd, gd).is_constant:
            kinds["coprime"] += 1
        else:
            kinds["shared"] += 1
        fn, fd, gn, gd = map(_to_sympy, (f.num, f.den, g.num, g.den))
        for h, cross in ((f + g, fn * gd + gn * fd), (f - g, fn * gd - gn * fd),
                         (g - f, gn * fd - fn * gd)):
            kinds["zero"] += h.is_zero
            wn, wd = cross.cancel(fd * gd, include=True)
            hn, hd = _to_sympy(h.num), _to_sympy(h.den)
            assert (hn * wd - wn * hd).is_zero
            coeffs = hd.coeffs()
            assert all(c.denominator == 1 for c in coeffs)
            assert gcd(*(int(c.numerator) for c in coeffs)) == 1
            assert hd.LC(order="grlex") > 0
            if h.is_zero:
                assert h.den == Polynomial.one(V)
            else:
                assert hn.gcd(hd).is_ground
    assert min(kinds.values()) >= 15, kinds


def test_sums_without_gcd_equal_the_plain_sum():
    # values are canonical, so == also checks the canonical form
    coprime = 0
    for f, g in _sum_pairs(random.Random(2024)):
        for p, q in ((f, g), (g, f), (f, -g)):
            assert _add_dividing(p, q) == p + q
        if poly_gcd(f.den, g.den).is_constant:
            coprime += 1
            assert _add_coprime(f, g) == f + g
            assert _add_coprime(g, f) == g + f
    assert coprime >= 40
    # polynomials have coprime denominators, and opposite ones sum to zero
    f = RationalFunction(x * y - 3)
    assert _add_coprime(f, -f) == RationalFunction.zero(V)


def test_dividing_sum_branches():
    p, q, b1 = x + 1, y + 2, x - y
    g = RationalFunction(Polynomial.one(V), p * q)
    # d does not divide b: the plain sum
    f = RationalFunction(x * y, (x + y) * q)
    assert _add_dividing(f, g) == f + g == RationalFunction(x**2 * y + x * y + x + y,
                                                             (x + y) * p * q)
    # num0 = (y + 1) + b1 = p: gcd(num0, d) is p, a proper factor of d
    f = RationalFunction(y + 1, p * q * b1)
    got = _add_dividing(f, g)
    assert got == f + g == RationalFunction(Polynomial.one(V), q * b1)
    assert (got.num, got.den) == (Polynomial.one(V), q * b1)
    # num0 = (y - 1) + b1 = x - 1: coprime to d, nothing cancels
    f = RationalFunction(y - 1, p * q * b1)
    assert _add_dividing(f, g) == f + g == RationalFunction(x - 1, p * q * b1)
    # num0 = (3*p*q - b1) + b1: d divides num0 outright; then a zero sum
    f = RationalFunction((x + 1) * (y + 2) * 3 - b1, p * q * b1)
    assert _add_dividing(f, g) == f + g == RationalFunction(Polynomial.constant(3, V), b1)
    assert _add_dividing(-g, g).is_zero


# ---------------------------------------------------------------------- #
# the shared fraction-free elimination, against sympy's Matrix


def _int_matrix(rng, n, kind):
    """A random n x n int matrix: "swap" has a zero (0, 0) entry, so the
    first step swaps rows unless the column is zero; "singular" has a last
    row that is a combination of the others."""
    M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    if kind == "swap":
        M[0][0] = 0
    elif kind == "singular":
        coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
        M[-1] = [sum(c * row[j] for c, row in zip(coeffs, M)) for j in range(n)]
    return M


def test_fraction_free_solve_on_ints_matches_sympy():
    rng = random.Random(23)
    seen = {"swapped": 0, "singular": 0}
    for n in range(1, 7):
        for kind in ("plain", "swap", "singular") * 10:
            M = _int_matrix(rng, n, kind)
            width = rng.randint(1, 3)
            rhs = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(n)]
            W, det = _fraction_free_solve(M, rhs)
            want = sympy.Matrix(M).det()
            if want == 0:
                assert (W, det) == (None, 0)
                seen["singular"] += 1
                continue
            assert det == want and isinstance(det, int)
            assert all(isinstance(a, int) for row in W for a in row)
            assert sympy.Matrix(M) * sympy.Matrix(W) == det * sympy.Matrix(rhs)
            seen["swapped"] += M[0][0] == 0
    assert seen["swapped"] >= 30 and seen["singular"] >= 60


def test_fraction_free_solve_gives_the_determinant_alone():
    rng = random.Random(24)
    for n in range(1, 7):
        for kind in ("plain", "swap", "singular"):
            M = _int_matrix(rng, n, kind)
            W, det = _fraction_free_solve(M, [()] * n)
            want = sympy.Matrix(M).det()
            assert det == want
            assert W == (None if want == 0 else [[]] * n)


def test_fraction_free_solve_on_polynomials_matches_sympy():
    rng = random.Random(25)
    one, zero = Polynomial.one(V), Polynomial.zero(V)
    seen = {"swapped": 0, "singular": 0}
    for n in range(1, 4):
        for trial in range(8):
            M = [[random_polynomial(rng, V, max_terms=2, max_deg=2) for _ in range(n)]
                 for _ in range(n)]
            if trial == 0:
                M[0][0] = zero
            if trial == 1:
                M[-1] = [a * (x + 1) for a in M[0]]
            rhs = [[one if r == c else zero for c in range(n)] for r in range(n)]
            W, det = _fraction_free_solve(M, rhs)
            sym = sympy.Matrix([[_to_sympy(a).as_expr() for a in row] for row in M])
            want = sympy.expand(sym.det())
            if want == 0:
                assert (W, det) == (None, 0)
                seen["singular"] += 1
                continue
            seen["swapped"] += M[0][0].is_zero
            assert sympy.expand(_to_sympy(det).as_expr() - want) == 0
            MW = sym * sympy.Matrix([[_to_sympy(a).as_expr() for a in row] for row in W])
            assert sympy.expand(MW - want * sympy.eye(n)) == sympy.zeros(n, n)
    assert seen["swapped"] >= 2 and seen["singular"] >= 3


def test_exact_quotient_refuses_a_remainder():
    assert _exact_quotient(12, -4) == -3
    with pytest.raises(ArithmeticError):
        _exact_quotient(7, 2)
    assert _exact_quotient(x * y + x, x) == y + 1
    with pytest.raises(ArithmeticError):
        _exact_quotient(x * y + 1, x)


def test_unimodular_completion_keeps_fraction_types():
    for v in ((4, 6, 5), (0, -3), (2, 4), (-5,), (6, 10, 15, 0)):
        got = complete_unimodular(v)
        det = got.determinant()
        assert type(det) is Fraction and det == (v[0] if len(v) == 1 else gcd(*v))
        assert all(type(a) is Fraction for row in got.inverse for a in row)
        assert sympy.Matrix(got.matrix) * sympy.Matrix(got.inverse) == sympy.eye(len(v))
    singular = UnimodularCompletion(((1, 2), (2, 4)), ())
    assert type(singular.determinant()) is Fraction and singular.determinant() == 0


# ---------------------------------------------------------------------- #
# the shared arithmetic modulo a univariate base, against sympy

T = sympy.Symbol("t")


def _expr_in_t(coeffs):
    """sum(coeffs[j]*t**j) as a sympy expression, for int or Polynomial
    coefficients."""
    return sum((_to_sympy(c).as_expr() if isinstance(c, Polynomial) else c) * T**j
               for j, c in enumerate(coeffs))


def _int_list(rng, length, lead=None):
    out = [rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(length)]
    if lead is not None:
        out[-1] = lead
    return out


def _poly_list(rng, length, lead_nonzero=True):
    out = [random_polynomial(rng, V, max_terms=2, max_deg=2) for _ in range(length)]
    if lead_nonzero and out[-1].is_zero:
        out[-1] = y + 2
    return out


def _check_pseudo_divmod(p, bd):
    q, r, k = _pseudo_divmod(p, bd)
    d = len(bd) - 1
    assert len(r) == d and len(q) == max(len(p) - d, 0)
    P, B, Q, R = (_expr_in_t(c) for c in (p, bd, q, r))
    lc = _expr_in_t(bd[-1:])
    assert sympy.expand(lc**k * P - Q * B - R) == 0
    if sympy.expand(P) == 0:
        return k
    n = max(sympy.degree(P, T) - d + 1, 0)
    assert k <= n
    assert sympy.expand(R * lc ** (n - k) - sympy.prem(P, B, T)) == 0
    return k


def test_pseudo_divmod_on_ints_matches_sympy_prem():
    rng = random.Random(31)
    scaled = 0
    for _ in range(150):
        d = rng.randint(1, 4)
        bd = _int_list(rng, d + 1, lead=rng.choice([1, -1, 2, -3, 5]))
        p = _int_list(rng, rng.randint(0, 9))
        scaled += _check_pseudo_divmod(p, bd) > 0
    assert scaled >= 50


def test_pseudo_divmod_on_polynomials_matches_sympy_prem():
    rng = random.Random(32)
    scaled = 0
    for _ in range(30):
        d = rng.randint(1, 3)
        bd = _poly_list(rng, d + 1)
        p = _poly_list(rng, rng.randint(0, 6), lead_nonzero=False)
        scaled += _check_pseudo_divmod(p, bd) > 0
    assert scaled >= 10


def test_inverse_modulo_on_ints_matches_sympy_invert():
    rng = random.Random(33)
    seen = {"inverted": 0, "not invertible": 0}
    for _ in range(150):
        d = rng.randint(1, 5)
        bd = _int_list(rng, d + 1, lead=rng.choice([1, 2, -3, 4]))
        u = _int_list(rng, rng.randint(1, 7))
        if rng.random() < 0.2:
            # u shares the factor t - 1 or t**2 + 1 with b
            f = rng.choice([[-1, 1], [1, 0, 1]])
            bd = sympy.Poly(list(reversed(f)), T).mul(
                sympy.Poly(list(reversed(bd)), T)).all_coeffs()[::-1]
            u = sympy.Poly(list(reversed(f)), T).mul(
                sympy.Poly(list(reversed(u)), T)).all_coeffs()[::-1]
            bd, u = [int(c) for c in bd], [int(c) for c in u]
        w, det = _inverse_modulo(u, bd)
        U = sympy.Poly(list(reversed(u)), T, domain=QQ)
        B = sympy.Poly(list(reversed(bd)), T, domain=QQ)
        if sympy.gcd(U, B).degree() != 0:
            assert (w, det) == (None, 0)
            seen["not invertible"] += 1
            continue
        assert isinstance(det, int) and det != 0 and len(w) == len(bd) - 1
        want = sympy.invert(U, B)
        got = sympy.Poly(list(reversed(w)), T, domain=QQ).quo_ground(det)
        assert got == want
        seen["inverted"] += 1
    assert seen["inverted"] >= 50 and seen["not invertible"] >= 20


def test_inverse_modulo_on_polynomials_is_an_inverse_times_det():
    rng = random.Random(34)
    inverted = 0
    for _ in range(25):
        d = rng.randint(1, 3)
        bd = _poly_list(rng, d + 1)
        u = _poly_list(rng, rng.randint(1, d + 2))
        w, det = _inverse_modulo(u, bd)
        U, B = _expr_in_t(u), _expr_in_t(bd)
        if sympy.expand(sympy.resultant(U, B, T)) == 0:
            assert (w, det) == (None, 0)
            continue
        assert not det.is_zero and len(w) == d
        assert sympy.prem(sympy.expand(U * _expr_in_t(w) - _expr_in_t([det])), B, T) == 0
        inverted += 1
    assert inverted >= 15
    # u sharing the factor x*t + y with b is not invertible modulo b
    f = [y, x]
    shared = [f[0] * (x + 1), f[0] + f[1] * (x + 1), f[1]]
    assert _inverse_modulo([f[0] * 3, f[1] * 3], shared) == (None, 0)


def _irreducible_ints(rng, d):
    """Int coefficients, lowest first, of an irreducible polynomial of
    degree d with a leading coefficient of 2..4 and content 1."""
    while True:
        cs = [rng.randint(-5, 5) for _ in range(d)] + [rng.randint(2, 4)]
        poly = sympy.Poly(list(reversed(cs)), T)
        if poly.is_irreducible and gcd(*cs) == 1:
            return tuple(cs)


def _anp(element):
    mod = [QQ(c) for c in reversed(element.mod)]
    return ANP([QQ(c, element.den) for c in reversed(element.c)], mod, QQ)


def test_root_field_matches_sympy_anp():
    rng = random.Random(35)
    for d in range(2, 7):
        mod = _irreducible_ints(rng, d)
        for _ in range(12):
            a = _RootField(_int_list(rng, d), rng.randint(1, 12), mod)
            b = _RootField(_int_list(rng, d), rng.randint(1, 12), mod)
            product = a * b
            assert _anp(product) == _anp(a) * _anp(b)
            assert product.den > 0 and gcd(product.den, *product.c) == 1
            if a:
                inverse = a ** -1
                assert _anp(inverse) == _anp(a) ** -1
                assert inverse.den > 0 and gcd(inverse.den, *inverse.c) == 1
            else:
                with pytest.raises(InvalidInput, match="squarefree-irreducible"):
                    a ** -1
    # only the inverse is a power
    with pytest.raises(TypeError) as info:
        a ** 2
    assert str(info.value) == \
        "unsupported operand type(s) for ** or pow(): '_RootField' and 'int'"


def _polynomial_peel(R, U, b, m, i):
    """Test oracle: the peel of :func:`_layers_by_inversion` with the
    cofactor inverted on polynomial entries for every input."""
    P, c = R
    P = P.coeffs_in(i)
    vars = b.vars
    bd = b.coeffs_in(i)
    if bd[-1].is_constant:
        inv = 1 / bd[-1].constant_value()
        bd = [a * inv for a in bd]
    lc = bd[-1]
    d = len(bd) - 1
    w, det = _inverse_modulo(U.coeffs_in(i), bd)
    if w is None:
        raise InvalidInput("cofactor is not invertible modulo the base")
    layers = {}
    for t in range(m, 0, -1):
        _, r, k = _pseudo_divmod(P, bd)
        _, r, k2 = _pseudo_divmod(_series_mul(w, r, 2 * d - 1), bd)
        a = Polynomial.from_coeffs_in(r, i, vars)
        scale = det * lc ** (k + k2) if k + k2 else det
        if not a.is_zero:
            layers[t] = RationalFunction(a, scale * c)
        if t > 1:
            P = Polynomial.from_coeffs_in(P, i, vars)
            P = _exact_quotient(P * scale - a * U, b).coeffs_in(i)
            c = scale * c
    return layers


def _fractions(rng, length):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(length)]


def test_cofactor_inverse_on_ints_is_the_polynomial_entry_inverse():
    # seeded U with fraction coefficients and b with a leading coefficient
    # other than 1, of degree 1-6, in one variable or on a line of 2-3
    rng = random.Random(36)
    seen = {"inverted": 0, "not invertible": 0}
    for _ in range(150):
        n = rng.randint(1, 3)
        vs = ("x", "y", "z")[:n]
        i = rng.randrange(n)
        xi = Polynomial.variable(vs[i], vs)
        d = rng.randint(1, 6)
        b = _along(_int_list(rng, d + 1, lead=rng.choice([2, -3, 4, 6])), xi)
        U = _along(_fractions(rng, rng.randint(1, 6)), xi)
        if U.is_zero:
            U = xi * Fraction(2, 3) - 1
        if rng.random() < 0.15:
            shared = rng.choice([xi - 1, xi**2 + 1])
            b, U = b * shared, U * shared
        bd = b.coeffs_in(i)
        bd = [a * (1 / bd[-1].constant_value()) for a in bd]
        want, want_det = _inverse_modulo(U.coeffs_in(i), bd)
        if want is None:
            with pytest.raises(InvalidInput, match="not invertible modulo the base"):
                _cofactor_inverse(U, b, bd, i)
            seen["not invertible"] += 1
            continue
        w, det = _cofactor_inverse(U, b, bd, i)
        assert all(type(a) is int for a in w) and type(det) is int and det
        assert len(w) == d
        # U*w == det (mod b), and the inverse w/det modulo b is unique
        assert (U * _along(w, xi) - det).divexact(b) is not None
        assert (_along(w, xi) * Fraction(1, det)
                == _along(want, xi) * (1 / want_det.constant_value()))
        seen["inverted"] += 1
    assert seen["inverted"] >= 100 and seen["not invertible"] >= 15


def test_peel_with_the_int_inverse_matches_the_polynomial_entry_peel():
    # seeded univariate inputs and lines in 2-3 variables, multiplicity
    # 1-4, with bases of degree 1-4 whose leading coefficient is not 1;
    # on lines, P and c either are constants or involve the other variables
    rng = random.Random(37)
    seen = set()
    for _ in range(80):
        n = rng.randint(1, 3)
        vs = ("x", "y", "z")[:n]
        xs = [Polynomial.variable(name, vs) for name in vs]
        i = rng.randrange(n)
        coeffs = rng.choice(_IRREDUCIBLE + [[3, 2], [-1, 5]])
        # P(k*x + s) is irreducible with P, and its leading coefficient is k**d
        b = _along(coeffs, rng.choice([1, 2, 3]) * xs[i] + rng.randint(-2, 2)).primitive()
        m = rng.randint(1, 4)
        U = Polynomial.constant(Fraction(rng.randint(1, 7), rng.randint(1, 5)), vs)
        for q in rng.sample([xs[i] + 2, 2 * xs[i] - 1, xs[i]**2 + xs[i] + 5],
                            rng.randint(0, 2)):
            U = U * q ** rng.randint(1, 2)
        top = m * b.degree_in(i) + U.degree_in(i)
        others = [v for k, v in enumerate(xs) if k != i]
        if others and rng.random() < 0.5:
            # each entry the part of a random polynomial free of x_i
            P = [next(iter(random_polynomial(rng, vs, max_terms=2, max_deg=2).coeffs_in(i)),
                      Polynomial.zero(vs)) for _ in range(top)]
            c = rng.choice(others) + 2
        else:
            P = [Polynomial.constant(a, vs) for a in _fractions(rng, top)]
            c = Polynomial.constant(rng.randint(1, 9), vs)
        P = Polynomial.from_coeffs_in(P, i, vs)
        layers = _layers_by_inversion((P, c), U, b, m, i)
        assert layers == _polynomial_peel((P, c), U, b, m, i)
        seen.add((n, m))
    assert seen == {(n, m) for n in (1, 2, 3) for m in (1, 2, 3, 4)}


def test_peel_with_the_int_inverse_refuses_a_cofactor_sharing_the_base():
    for vs in (("x",), ("x", "y")):
        x1 = Polynomial.variable("x", vs)
        b = 2 * x1**2 + 1
        P = Polynomial.from_coeffs_in([Polynomial.one(vs)] * 5, 0, vs)
        with pytest.raises(InvalidInput, match="cofactor is not invertible modulo the base"):
            _layers_by_inversion((P, Polynomial.one(vs)), (x1 + 3) * b * Fraction(1, 2),
                                 b, 1, 0)
