"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All checks are exact; there are no tolerances anywhere.
"""

import random
from fractions import Fraction
from math import gcd

from conftest import pairwise_compatible, random_rational
from wzforms import (AdditiveRepresentation, IntegerLinearType, NotAWZForm,
                     Polynomial, RationalFunction, WZForm, apply_shift,
                     complete_unimodular, conjugate_polygamma, cyclic_apply,
                     decompose, delta, generate, is_wz_form, orbital_residue,
                     partial_fraction, random_additive_rep, shift_equivalent)
from wzforms.abramov import abramov_reduce

V = ("x", "y", "z")
x = Polynomial.variable("x", V)
y = Polynomial.variable("y", V)
z = Polynomial.variable("z", V)
b = 4 * x + 6 * y + 5 * z
Zv = ("Z",)
Z = Polynomial.variable("Z", Zv)
inv_z = RationalFunction(Polynomial.one(Zv), Z)


def inv(p, vars=V):
    return RationalFunction(Polynomial.one(vars), p)


def quadratic_pole_fixture():
    return (RationalFunction(x, b**2)
            + RationalFunction(x + y, (b + 1) ** 2)
            + RationalFunction(2 * x, (b - 3) ** 2)
            + RationalFunction(2 * x + 3, (b + 3) ** 2))


def range_sum_triple():
    c = 3 * y + 2 * z
    f = sum((inv(b + l) for l in range(4)), RationalFunction.zero(V))
    g = sum((inv(b + l) for l in range(6)), RationalFunction.zero(V)) \
        + sum((inv(c + l) for l in range(3)), RationalFunction.zero(V))
    h = sum((inv(b + l) for l in range(5)), RationalFunction.zero(V)) \
        + sum((inv(c + l) for l in range(2)), RationalFunction.zero(V))
    return WZForm(V, (f, g, h))


def corrected_product_triple():
    f = RationalFunction(x * y * z - y**2 * z - y * z**2 + y * z + 1,
                         x - y - z + 1)
    g = RationalFunction(
        x**2 * z - x * y * z - x * z**2 + x * y - y**2 - y * z - 1,
        x - y - z)
    h = RationalFunction(
        x**2 * y - x * y**2 - x * y * z + x * z - y * z - z**2 - 1,
        x - y - z)
    return WZForm(V, (f, g, h))


def same_orbit(f, g, i, span=16):
    if f.is_zero or g.is_zero:
        return f == g
    offs = [0] * len(f.vars)
    for m in range(-span, span + 1):
        offs[i] = m
        if f.shifted(tuple(offs)) == g:
            return True
    return False


def test_criterion_1_orbital_residues_at_quadratic_poles():
    f = quadratic_pole_fixture()
    assert same_orbit(orbital_residue(f, b, 2, 0), RationalFunction(x), 0)
    assert same_orbit(orbital_residue(f, b - 3, 2, 0),
                      RationalFunction(3 * x + y - 1), 0)
    assert same_orbit(orbital_residue(f, b + 3, 2, 0),
                      RationalFunction(2 * x + 3), 0)
    print("\nCRITERION 1: PASS — residues at the three quadratic-pole orbits")


def test_criterion_2_reduction_route_residues():
    f = quadratic_pole_fixture()
    r0 = orbital_residue(f, b, 2, 0)
    r5 = orbital_residue(f, b + 5, 2, 0)        # shift of b by one step in z
    r15 = orbital_residue(f, b + 15, 2, 0)      # three steps in z
    assert same_orbit(r0, RationalFunction(x), 0)
    assert same_orbit(r5, RationalFunction(3 * x + y + 5), 0)
    assert same_orbit(r15, RationalFunction(2 * x + 9), 0)
    # where orbits coincide, the values agree with criterion 1 up to a shift
    assert same_orbit(r5, orbital_residue(f, b - 3, 2, 0), 0)
    assert same_orbit(r15, orbital_residue(f, b + 3, 2, 0), 0)
    print("CRITERION 2: PASS — reduction-route residues and orbit matches")


def test_criterion_3_two_type_triple_decomposition():
    form = range_sum_triple()
    rep = decompose(form)
    assert rep.exact_part.is_zero
    types = {t.entries for t in rep.types}
    assert types == {(4, 6, 5), (0, 3, 2)} or \
        types == {(-4, -6, -5), (0, -3, -2)}
    assert all(len(rep.parts) == 2 for _ in (0,))
    for vtype, r in rep.parts:
        if vtype.entries in ((4, 6, 5), (0, 3, 2)):
            assert r == inv_z
    assert generate(rep).components == form.components
    print("CRITERION 3: PASS — two uniform types, both 1/Z, exact part zero")


def test_criterion_4_corrected_triple_decomposition():
    form = corrected_product_triple()
    rep = decompose(form)
    assert len(rep.parts) == 1
    vtype, r = rep.parts[0]
    assert vtype.entries in ((-1, 1, 1), (1, -1, -1))
    assert r.num.is_constant and abs(r.num.constant_value()) == 1
    assert r.den.degree_in(0) == 1 and r.den.coeffs_in(0)[1].constant_value() == 1
    assert generate(rep).components == form.components
    print("CRITERION 4: PASS — single type ±(-1,1,1), unit-fraction r, "
          "exact round trip")


def test_criterion_5_two_hundred_round_trips():
    failures = []
    for seed in range(200):
        rep = random_additive_rep(seed, n=2 + seed % 3, max_types=3,
                                  max_deg=3, coeff_bound=9)
        first = generate(rep)
        second = generate(decompose(first))
        if second.components != first.components:
            failures.append(seed)
    assert failures == []
    print("CRITERION 5: PASS — 200 seeded generate/decompose round trips")


def test_criterion_6_negative_detection():
    rng = random.Random(83)
    rejected = 0
    trials = 0
    while rejected < 50:
        trials += 1
        assert trials < 500
        components = [random_rational(rng, V, max_terms=2, max_deg=2, bound=4)
                      for _ in range(3)]
        if pairwise_compatible(components):
            continue  # astronomically rare; skip accidental compatibility
        rejected += 1
        assert not is_wz_form(components)
        try:
            WZForm(V, tuple(components))
            raised = False
        except NotAWZForm:
            raised = True
        assert raised
    print("CRITERION 6: PASS — 50 incompatible tuples, zero false acceptances")


def test_criterion_7_operator_identities():
    rng = random.Random(89)
    for _ in range(500):
        h = random_rational(rng, V, max_terms=2, max_deg=1, bound=3)
        i = rng.randrange(3)
        m = rng.randint(-5, 5)
        s = cyclic_apply(h, i, m)
        offs = [0, 0, 0]
        offs[i] = m
        assert delta(s, i) == apply_shift(h, tuple(offs)) - h
    for _ in range(500):
        f = random_rational(rng, V, max_terms=2, max_deg=2, bound=3)
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
    print("CRITERION 7: PASS — 500 cyclic telescopings, 500 reductions")


def test_criterion_8_polygamma_conjugate_print():
    rep = AdditiveRepresentation(
        V, RationalFunction.zero(V),
        [(IntegerLinearType((4, 6, 5)), inv_z),
         (IntegerLinearType((0, 3, 2)), inv_z)])
    expr = conjugate_polygamma(rep)
    assert str(expr) == "psi^(0)(4*x + 6*y + 5*z) + psi^(0)(3*y + 2*z)"
    print("CRITERION 8: PASS — conjugate prints the two digamma terms exactly")


def test_criterion_9_unimodular_completions():
    rng = random.Random(97)
    done = 0
    while done < 500:
        n = rng.randint(2, 6)
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
        done += 1
    print("CRITERION 9: PASS — 500 completions with det equal to the gcd")
