import random
from fractions import Fraction
from math import gcd

import pytest

from wzforms import (InvalidInput, IntegerLinearType, Polynomial,
                     RationalFunction, apply_shift, complete_unimodular,
                     integer_linear_decompose, integer_linear_type_rf,
                     substitute_linear)

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
