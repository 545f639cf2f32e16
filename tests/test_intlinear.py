import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from wzforms import (InvalidInput, IntegerLinearType, Polynomial,
                     RationalFunction, apply_shift, complete_unimodular,
                     integer_linear_decompose, integer_linear_type_rf,
                     substitute_linear)
from wzforms.factor import factor_polynomial
from wzforms.intlinear import _univariate_along

V = ("x", "y", "z")
x = Polynomial.variable("x", V)
y = Polynomial.variable("y", V)
z = Polynomial.variable("z", V)
Zv = ("Z",)
Z = Polynomial.variable("Z", Zv)


def test_type_vector_invariants():
    with pytest.raises(InvalidInput):
        IntegerLinearType((0, 0, 0))
    with pytest.raises(InvalidInput):
        IntegerLinearType((2, 4))
    assert IntegerLinearType((4, 6, 5)).entries == (4, 6, 5)


def test_decompose_linear_form():
    P, v = integer_linear_decompose(4 * x + 6 * y + 5 * z)
    assert P == Z and v.entries == (4, 6, 5)


def test_decompose_quadratic():
    V2 = ("x", "y")
    x2 = Polynomial.variable("x", V2)
    y2 = Polynomial.variable("y", V2)
    P, v = integer_linear_decompose(x2**2 + 2 * x2 * y2 + y2**2 + x2 + y2)
    assert P == Z**2 + Z and v.entries == (1, 1)


def test_decompose_rejects_mixed_directions():
    assert integer_linear_decompose(x**2 + y) is None
    assert integer_linear_decompose(x * y) is None


def test_decompose_rejects_constant():
    with pytest.raises(InvalidInput):
        integer_linear_decompose(Polynomial.one(V))


def test_decompose_sign_rule():
    # odd degree: positive leading coefficient of the univariate image wins
    P, v = integer_linear_decompose(-(x + y + z))
    assert v.entries == (-1, -1, -1) and P == Z
    # canonical factors keep a positive first nonzero entry
    P, v = integer_linear_decompose(x - y - z + 1)
    assert v.entries == (1, -1, -1) and P == Z + 1


def test_decompose_soundness_random():
    rng = random.Random(59)
    for _ in range(60):
        vraw = [rng.randint(-3, 3) for _ in range(3)]
        if not any(vraw):
            vraw[0] = 1
        g = gcd(*vraw)
        vraw = [e // g for e in vraw]
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
        if not any(coeffs):
            coeffs = [Fraction(1)]
        P = Polynomial(Zv, {(k,): c for k, c in enumerate(coeffs, start=1)})
        p = P.compose({"Z": Polynomial.linear_form(vraw, V)}, V)
        if p.is_constant:
            continue
        got = integer_linear_decompose(p)
        assert got is not None
        Pg, vg = got
        assert Pg.compose({"Z": Polynomial.linear_form(vg.entries, V)}, V) == p
        assert gcd(*vg.entries) == 1
        assert vg.entries in (tuple(vraw), tuple(-e for e in vraw))


def test_rf_type_single_pole():
    f = RationalFunction(Polynomial.one(V),
                         Polynomial.linear_form((-1, 1, 1), V, shift=-1))
    got = integer_linear_type_rf(f)
    assert got is not None
    u, v = got
    assert substitute_linear(u, {"Z": v.form(V)}, V) == f
    assert v.entries in ((1, -1, -1), (-1, 1, 1))


def test_rf_type_range_sum():
    b = 4 * x + 6 * y + 5 * z
    f = sum((RationalFunction(Polynomial.one(V), b + l) for l in range(4)),
            RationalFunction.zero(V))
    u, v = integer_linear_type_rf(f)
    assert v.entries == (4, 6, 5)
    expect = sum((RationalFunction(Polynomial.one(Zv), Z + l) for l in range(4)),
                 RationalFunction.zero(Zv))
    assert u == expect


def test_rf_type_mixed_directions_rejected():
    V2 = ("x", "y")
    x2 = Polynomial.variable("x", V2)
    y2 = Polynomial.variable("y", V2)
    f = RationalFunction(Polynomial.one(V2), (x2 + y2) * (x2 - y2))
    assert integer_linear_type_rf(f) is None


def test_rf_type_constant_rejected():
    with pytest.raises(InvalidInput):
        integer_linear_type_rf(RationalFunction.constant(3, V))


def test_rf_type_pairwise_shift_invariance():
    # any function of one linear form satisfies the cross-shift identity
    rng = random.Random(61)
    for _ in range(20):
        vraw = [rng.randint(-2, 2) for _ in range(3)]
        if not any(vraw):
            vraw[0] = 1
        g = gcd(*vraw)
        v = [e // g for e in vraw]
        form = Polynomial.linear_form(v, V)
        f = RationalFunction(Polynomial.one(V), form + rng.randint(-2, 2))
        got = integer_linear_type_rf(f)
        assert got is not None
        _, vtype = got
        for i in range(3):
            for j in range(i + 1, 3):
                if vtype[i] and vtype[j]:
                    ei = [0, 0, 0]
                    ej = [0, 0, 0]
                    ei[i] = vtype[j]
                    ej[j] = vtype[i]
                    assert apply_shift(f, tuple(ei)) == apply_shift(f, tuple(ej))


def _type_rf_by_factors(f):
    """Oracle: the factor-by-factor algorithm.  Every irreducible factor of
    the numerator and denominator must be integer-linear of one type."""
    if f.is_constant:
        raise InvalidInput("constant rational functions have every type")
    vtype = None
    parts = []
    for poly in (f.num, f.den):
        cont, factors = factor_polynomial(poly) if not poly.is_constant \
            else (poly.constant_value(), ())
        u = Polynomial.constant(cont, Zv)
        for base, mult in factors:
            got = integer_linear_decompose(base)
            if got is None:
                return None
            P, v = got
            if vtype is None:
                vtype = v
            elif v.entries != vtype.entries:
                return None
            u = u * P ** mult
        parts.append(u)
    return RationalFunction(*parts), vtype


_NO_UNIT_DIRECTIONS = ((2, 3), (3, -2), (2, 0, 3), (3, -2, 0), (2, 3, -3, 0),
                       (2, 0, 3, -5))


def _random_type_input(rng):
    """A rational function in 1-4 variables built from factors P(v . x)
    along one or two directions (entries -3..3), signed fractional
    contents, sometimes a factor that is not integer-linear, and sometimes
    no factor at all."""
    n = rng.randint(1, 4)
    vars = ("x", "y", "z", "w")[:n]
    directions = []
    wanted = rng.randint(1, 2)
    while len(directions) < wanted:
        pool = [d for d in _NO_UNIT_DIRECTIONS if len(d) == n]
        if pool and rng.random() < 0.3:
            v = rng.choice(pool)
        else:
            v = tuple(rng.randint(-3, 3) for _ in range(n))
        if not any(v):
            continue
        g = gcd(*v)
        directions.append(tuple(e // g for e in v))
    bare = rng.random() < 0.1
    parts = []
    for _ in range(2):
        content = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
        p = Polynomial.constant(content, vars)
        for _ in range(0 if bare else rng.choice((0, 1, 1, 2))):
            coeffs = {(k,): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for k in range(rng.randint(1, 2) + 1)}
            coeffs[(len(coeffs) - 1,)] = Fraction(rng.choice((-2, -1, 1, 3)))
            P = Polynomial(Zv, coeffs)
            p = p * P.compose({"Z": Polynomial.linear_form(rng.choice(directions), vars)},
                              vars)
        parts.append(p)
    if n > 1 and not bare and rng.random() < 0.15:
        a, b = (Polynomial.variable(name, vars) for name in vars[:2])
        parts[rng.randrange(2)] *= a * b + 1
    return RationalFunction(*parts)


def test_rf_type_agrees_with_factor_by_factor_oracle():
    rng = random.Random(71)
    seen = {"typed": 0, "none": 0, "invalid": 0}
    for _ in range(320):
        f = _random_type_input(rng)
        try:
            expect = _type_rf_by_factors(f)
        except InvalidInput:
            with pytest.raises(InvalidInput):
                integer_linear_type_rf(f)
            seen["invalid"] += 1
            continue
        got = integer_linear_type_rf(f)
        if expect is None:
            assert got is None, f
            seen["none"] += 1
        else:
            assert got is not None, f
            assert got[0] == expect[0] and got[1].entries == expect[1].entries, f
            seen["typed"] += 1
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("v", [(2, 3), (3, -2, 0), (2, 0, 3, -5)])
def test_univariate_along_directions_without_unit_entry(v):
    # the change of variables divides by an entry of magnitude 2 or 3
    n = len(v)
    vars = ("x", "y", "z", "w")[:n]
    syms = sympy.symbols(vars)
    zs = sympy.Symbol("Z")
    form = sum(a * s for a, s in zip(v, syms))
    rng = random.Random(73)
    for _ in range(8):
        coeffs = {(k,): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for k in range(rng.randint(0, 3) + 1)}
        P = Polynomial(Zv, coeffs)
        Psym = sum((sympy.Rational(c.numerator, c.denominator) * zs ** k
                    for (k,), c in coeffs.items()), sympy.Integer(0))
        expanded = sympy.Poly(sympy.expand(Psym.subs(zs, form)), *syms)
        p = Polynomial(vars, {tuple(map(int, e)): Fraction(int(c.p), int(c.q))
                              for e, c in expanded.terms()})
        assert _univariate_along(p, v) == P
        x0, x1 = Polynomial.variable(vars[0], vars), Polynomial.variable(vars[1], vars)
        assert _univariate_along(p + x0 * x1, v) is None


# ---------------------------------------------------------------------- #
# unimodular completion


def test_completion_identity_direction():
    got = complete_unimodular((1, 0, 0))
    assert got.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_completion_three_dim():
    got = complete_unimodular((4, 6, 5))
    assert got.first_row == (4, 6, 5)
    assert got.determinant() == 1


def test_completion_common_factor():
    got = complete_unimodular((2, 4))
    assert got.first_row == (2, 4)
    assert got.determinant() == 2


def test_completion_inverse_and_random():
    rng = random.Random(67)
    for _ in range(120):
        n = rng.randint(2, 5)
        v = tuple(rng.randint(-20, 20) for _ in range(n))
        if not any(v):
            continue
        got = complete_unimodular(v)
        assert got.first_row == v
        assert got.determinant() == gcd(*v)
        for i in range(n):
            for j in range(n):
                s = sum(Fraction(got.matrix[i][k]) * got.inverse[k][j]
                        for k in range(n))
                assert s == (1 if i == j else 0)


def test_completion_rejects_zero():
    with pytest.raises(InvalidInput):
        complete_unimodular((0, 0))


def test_integer_vectors_reject_what_int_would_truncate():
    f = RationalFunction(Polynomial.one(V), x + y)
    for m in ((Fraction(1, 2), 0, 0), (0.9, 0, 0), (True, 0, 0), (Fraction(2), 0, 0)):
        with pytest.raises(InvalidInput, match="integers"):
            apply_shift(f, m)
        # a rational offset would leave a non-canonical value behind
        with pytest.raises(InvalidInput, match="integers"):
            f.shifted(m)
    for v in ((1.5, 1), (True, 1), (Fraction(3, 2), 1)):
        with pytest.raises(InvalidInput, match="integers"):
            IntegerLinearType(v)
    for v in ((Fraction(5, 2), 1), (2.0, 1), (1, False)):
        with pytest.raises(InvalidInput, match="integers"):
            complete_unimodular(v)
