import random
from fractions import Fraction

import pytest

from conftest import random_rational
from wzforms import (InvalidInput, Polynomial, RationalFunction,
                     abramov_reduce, cyclic_apply, delta, is_summable,
                     partial_fraction, shift_equivalent, solve_step_difference)
from wzforms.factor import factor_polynomial

V = ("x", "y", "z")
x = Polynomial.variable("x", V)
y = Polynomial.variable("y", V)
z = Polynomial.variable("z", V)
b = 4 * x + 6 * y + 5 * z
Zv = ("Z",)
Z = Polynomial.variable("Z", Zv)


def inv(p, vars=V):
    return RationalFunction(Polynomial.one(vars), p)


# ---------------------------------------------------------------------- #
# shift equivalence


def test_shift_equivalent_linear_form():
    assert shift_equivalent(b - 3, b + 1, 0) == 1


def test_shift_equivalent_univariate():
    assert shift_equivalent(x, x + 3, 0) == 3


def test_shift_equivalent_nondivisible_offset():
    assert shift_equivalent(b, b + 3, 0) is None
    # exhaustive confirmation for small offsets
    for m in range(-3, 4):
        assert b.shift_var(0, m) != b + 3


def test_shift_equivalent_other_variables():
    assert shift_equivalent(b, b + 6, 1) == 1
    assert shift_equivalent(b, b + 5, 2) == 1
    assert shift_equivalent(b, b + 7, 0) is None
    # free of the variable: every shift fixes them, so only equal ones match
    assert shift_equivalent(2 * y + 4 * z, y + 2 * z, 0) == 0
    assert shift_equivalent(y + 2 * z, y + 2 * z + 1, 0) is None


def test_shift_equivalent_higher_degree():
    p = x**2 + y
    assert shift_equivalent(p, p.shift_var(0, 4), 0) == 4
    assert shift_equivalent(p, p.shift_var(0, 4) + 1, 0) is None


def test_shift_equivalent_rejects_zero():
    with pytest.raises(InvalidInput):
        shift_equivalent(Polynomial.zero(V), x, 0)


# ---------------------------------------------------------------------- #
# reduction


def test_reduce_telescoping_product():
    f = inv(x * (x + 1))
    result = abramov_reduce(f, 0)
    assert result.remainder.is_zero
    assert result.summed_part == -inv(x)


def test_reduce_single_pole_is_irreducible():
    f = inv(x)
    result = abramov_reduce(f, 0)
    assert result.summed_part.is_zero
    assert result.remainder == f


def test_reduce_merges_shifted_quadratic_denominator():
    # two poles in one orbit, multiplicity mix
    f = inv(x**2) + inv((x + 3) ** 2) + inv(x + 3)
    result = abramov_reduce(f, 0)
    assert delta(result.summed_part, 0) + result.remainder == f
    _, factors = factor_polynomial(result.remainder.den)
    assert [(str(p), m) for p, m in factors] == [("x", 2)]


def test_reduce_identity_and_minimality_on_random_inputs():
    rng = random.Random(41)
    for _ in range(60):
        f = random_rational(rng, V, max_terms=2, max_deg=2, bound=4)
        i = rng.randrange(3)
        result = abramov_reduce(f, i)
        assert delta(result.summed_part, i) + result.remainder == f
        if result.remainder.is_zero:
            continue
        poly_part, parts = partial_fraction(result.remainder, i)
        assert poly_part.is_zero
        bases = []
        for _, base, _ in parts:
            if base not in bases:
                bases.append(base)
        for k, b1 in enumerate(bases):
            for b2 in bases[k + 1:]:
                assert shift_equivalent(b1, b2, i) is None


def test_reduce_is_idempotent_on_remainders():
    rng = random.Random(43)
    for _ in range(25):
        f = random_rational(rng, V, max_terms=2, max_deg=2, bound=4)
        i = rng.randrange(3)
        rem = abramov_reduce(f, i).remainder
        again = abramov_reduce(rem, i)
        assert again.summed_part.is_zero
        assert again.remainder == rem


def test_is_summable_examples():
    assert is_summable(inv(x * (x + 1)), 0) == -inv(x)
    assert is_summable(inv(x), 0) is None
    assert is_summable(RationalFunction.zero(V), 0) == RationalFunction.zero(V)


def test_is_summable_soundness():
    rng = random.Random(47)
    hits = 0
    for _ in range(40):
        g = random_rational(rng, V, max_terms=2, max_deg=1, bound=3)
        i = rng.randrange(3)
        f = delta(g, i)
        got = is_summable(f, i)
        assert got is not None
        assert delta(got, i) == f
        hits += 1
    assert hits == 40


# ---------------------------------------------------------------------- #
# fixed-step difference equations


def test_solve_step_four():
    rhs = inv(Z + 4, Zv) - inv(Z, Zv)
    assert solve_step_difference(rhs, 4) == inv(Z, Zv)


def test_solve_step_three():
    rhs = inv(Z + 3, Zv) - inv(Z, Zv)
    assert solve_step_difference(rhs, 3) == inv(Z, Zv)


def test_solve_step_zero_rhs():
    assert solve_step_difference(RationalFunction.zero(Zv), 2) == \
        RationalFunction.zero(Zv)


def test_solve_step_polynomial_rhs():
    # y(z+2) - y(z) = 2z + 1 has the polynomial solution (z^2)/2 - ... check
    rhs = RationalFunction(2 * Z + 1)
    got = solve_step_difference(rhs, 2)
    assert got is not None
    shifted = got.compose({"Z": Z + 2})
    assert shifted - got == rhs


def test_solve_step_negative():
    rhs = inv(Z - 2, Zv) - inv(Z, Zv)
    got = solve_step_difference(rhs, -2)
    assert got is not None
    assert got.compose({"Z": Z - 2}) - got == rhs


def test_solve_step_unsolvable():
    # y(z+2) - y(z) = 1/z has no rational solution
    assert solve_step_difference(inv(Z, Zv), 2) is None


def test_solve_step_soundness_random():
    rng = random.Random(53)
    for _ in range(25):
        num = Polynomial(Zv, {(k,): Fraction(rng.randint(-4, 4))
                              for k in range(rng.randint(1, 3))})
        den = Z + rng.randint(-3, 3)
        yy = RationalFunction(num, den)
        p = rng.choice([1, 2, 3, -1, -2])
        rhs = yy.compose({"Z": Z + p}) - yy
        got = solve_step_difference(rhs, p)
        assert got is not None
        assert got.compose({"Z": Z + p}) - got == rhs


def test_solve_step_solution_has_no_constant_term():
    # the free constant of y is fixed by a zero constant term in its
    # polynomial part; right-hand sides with a polynomial part exercise it
    rng = random.Random(59)
    for _ in range(25):
        top = rng.randint(1, 3)
        poly = Polynomial(Zv, {(k,): Fraction(rng.randint(-4, 4) or 1)
                               for k in range(top + 1)})
        den = rng.choice([Z + rng.randint(-3, 3), Z**2 + rng.randint(1, 3)])
        yy = RationalFunction(poly) + RationalFunction(
            Polynomial.constant(rng.randint(1, 5), Zv), den)
        p = rng.choice([1, 2, 3, -1, -2])
        rhs = yy.compose({"Z": Z + p}) - yy
        assert not partial_fraction(rhs, 0)[0].is_zero
        got = solve_step_difference(rhs, p)
        assert got is not None
        assert got.compose({"Z": Z + p}) - got == rhs
        assert partial_fraction(got, 0)[0].num.coeff((0,)) == 0
        assert got == yy - poly.coeff((0,))


def test_solve_step_rejects_zero_step():
    with pytest.raises(InvalidInput):
        solve_step_difference(RationalFunction.zero(Zv), 0)


def random_proper(rng):
    """A proper fraction in Z over (Z+a)**m factors and, at times, an
    irreducible quadratic."""
    den = Polynomial.one(Zv)
    for _ in range(rng.randint(1, 2)):
        den = den * (Z + rng.randint(-3, 3)) ** rng.randint(1, 2)
    if rng.random() < 0.5:
        den = den * (Z**2 + rng.randint(1, 3))
    num = Polynomial(Zv, {(k,): Fraction(rng.randint(-4, 4))
                          for k in range(den.degree_in(0))})
    return RationalFunction(num if not num.is_zero else Polynomial.one(Zv), den)


def test_range_sum_equation_matches_the_difference_equation():
    # decompose solves C_s r == u, with C_s the range sum of s unit shifts,
    # as r = u + w with w(Z+s) - w(Z) == u(Z+1) - u(Z+s); the oracle is
    # the solution of r(Z+s) - r(Z) == u(Z+1) - u(Z)
    rng = random.Random(61)
    cases = [(inv(Z, Zv), 2)]
    for k in range(60):
        s = (-2, -1, 1, 2, 3)[k % 5]
        # half are range sums, so that a solution exists
        u = random_proper(rng)
        cases.append((cyclic_apply(u, 0, s) if k % 2 else u, s))
    solved = 0
    for u, s in cases:
        oracle = solve_step_difference(u.shifted((1,)) - u, s)
        w = solve_step_difference(u.shifted((1,)) - u.shifted((s,)), s)
        assert (oracle is None) == (w is None), (u, s)
        if oracle is not None:
            solved += 1
            assert oracle == u + w
            assert (u - cyclic_apply(oracle, 0, s)).is_zero
    assert 30 <= solved < len(cases)
