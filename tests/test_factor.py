"""Differential test of factor_polynomial against sympy's factor_list.

The reference factors the whole input with sympy and normalizes the result
the way the package does: integer-primitive factors with positive
graded-lex leading coefficient, sorted by ``sort_key``, the rest in the
content.  Inputs are seeded products of integer-linear factors P(v.x) and a
few factors that are not integer-linear.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from wzforms import Polynomial, parse_polynomial
from wzforms.factor import factor_polynomial

VARS = ("x", "y", "z", "w")
NOT_INTEGER_LINEAR = (
    "x^2 + y^2 + 1",
    "x^2 - y^2 + x",          # top part (x - y)(x + y), no linear factor
    "(x - y)*(x + y) + x + 1",
    "x*y - 3",
    "x^2*y + y + 2",
)


def reference(p):
    """sympy's factor_list of p, normalized as the package normalizes."""
    cont = p.content()
    prim = p.divexact(cont)
    gens = sympy.symbols(p.vars)
    spoly = sympy.Poly.from_dict({e: int(c) for e, c in prim.terms.items()},
                                 *gens, domain=sympy.ZZ)
    coeff, sfactors = spoly.factor_list()
    factors = []
    for fac, mult in sfactors:
        q = Polynomial(p.vars, {tuple(int(k) for k in e): Fraction(int(c))
                                for e, c in fac.terms()})
        qc = q.content()
        cont *= qc ** mult
        factors.append((q.divexact(qc), mult))
    cont *= int(coeff)
    factors.sort(key=lambda fm: fm[0].sort_key())
    return cont, tuple(factors)


def integer_linear(rng, v, vars):
    """P(v.x) for a random univariate P of degree 1 or 2."""
    t = Polynomial.linear_form(v, vars)
    coeffs = [rng.randint(-4, 4) for _ in range(rng.choice((1, 1, 2)))]
    coeffs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
    return sum((c * t ** k for k, c in enumerate(coeffs)), Polynomial.zero(vars))


def direction(rng, n):
    while True:
        v = tuple(rng.choice((-3, -2, -1, 0, 0, 1, 2, 3)) for _ in range(n))
        if any(v) and gcd(*v) == 1:
            return v


def random_product(seed):
    rng = random.Random(f"factor-{seed}")
    n = 1 + seed % 4
    vars = VARS[:n]
    # two directions for up to three factors, so that directions repeat
    pool = [direction(rng, n) for _ in range(2)]
    p = Polynomial.constant(Fraction(rng.choice((-6, -1, 1, 3)),
                                     rng.choice((1, 2, 5))), vars)
    for _ in range(rng.randint(1, 3)):
        p = p * integer_linear(rng, rng.choice(pool), vars) ** rng.randint(1, 3)
    if n > 1:
        for _ in range(rng.randint(0, 2)):
            p = p * parse_polynomial(rng.choice(NOT_INTEGER_LINEAR), vars)
    return p


@pytest.mark.parametrize("seed", range(48))
def test_factor_matches_sympy_on_random_products(seed):
    p = random_product(seed)
    assert factor_polynomial(p) == reference(p)


CASES = [
    # a shared direction with different P
    (("x", "y"), "(x + 2*y)*(x + 2*y + 1)^2*((x + 2*y)^2 + 1)"),
    # zero and negative entries
    (("x", "y", "z"), "(x - 2*z + 1)^2*(-y + z)*(3*x - y - 2*z)"),
    # directions with no entry of absolute value one
    (("x", "y", "z"), "(2*x + 3*y + 1)*(2*x + 3*y)^2*(x + z)"),
    (("x", "y"), "-3/4*(3*x - 2*y + 5)^3*(3*x - 2*y)"),
    (("x", "y", "z", "w"), "(2*x + 3*z - 5*w)*((2*x + 3*z - 5*w)^2 - 7)"),
    # variables that do not occur
    (("x", "y", "z", "w"), "(x + y + 1)*(x - y)^2"),
    (("x", "y", "z"), "(z + 2)^3*(z^2 + 1)"),
    # linear factors of the top part that belong to no integer-linear factor
    (("x", "y"), "(x^2 - y^2 + x)*(x - y + 2)"),
    (("x", "y"), "((x - y)*(x + y) + x + 1)*(x + y)^2"),
    (("x", "y", "z"), "(x*y - 3)*(x^2*y + y + 2)*(x + y - z)"),
    # univariate and irreducible inputs
    (("x",), "(2*x + 1)^2*(x^2 + 1)*x"),
    (("x", "y"), "x^2 + y^2 + 1"),
    (("x", "y", "z"), "7*x - 3*y + 2*z - 1"),
]


@pytest.mark.parametrize("vars,text", CASES)
def test_factor_matches_sympy_on_chosen_products(vars, text):
    p = parse_polynomial(text, vars)
    assert factor_polynomial(p) == reference(p)
