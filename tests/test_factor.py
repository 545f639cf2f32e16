"""Differential test of factor_polynomial against sympy's factor_list.

The reference factors the whole input with sympy and normalizes the result
the way the package does: integer-primitive factors with positive
graded-lex leading coefficient, sorted by ``sort_key``, the rest in the
content.  Inputs are seeded products of integer-linear factors P(v.x) and a
few factors that are not integer-linear.

The directions found by lifting the linear factors of the top part's binary
restrictions are checked against an oracle that factors the dehomogenized
top part as a multivariate polynomial.

The univariate route that both use, with its certificates of
irreducibility, is checked against sympy's ``dup_factor_list`` on seeded
products of known irreducible polynomials, on inputs that no prime
certifies, and on products of a polynomial with its own unit shifts, which
split before Zassenhaus.
"""

import random
from fractions import Fraction
from math import gcd, prod

import pytest
import sympy
from sympy.polys.densearith import dup_add_ground, dup_mul
from sympy.polys.densetools import dup_shift
from sympy.polys.domains import ZZ
from sympy.polys import factortools, galoistools, sqfreetools
from sympy.polys.euclidtools import dup_discriminant
from sympy.polys.factortools import dup_factor_list

from wzforms import Polynomial, factor, parse_polynomial, polys
from wzforms.factor import (_PRIMES, _certified, _directions, _factor_dense,
                            _quartic_discriminant, factor_polynomial)
from wzforms.polys import _unit_key, _unpacked

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


def directions_by_factoring(terms, vars):
    """The directions of the linear factors of the top homogeneous part of
    a packed integer term map, from sympy's multivariate factor_list of
    that part dehomogenized in its variable x_j of largest degree; x_j
    itself, which dehomogenizing loses, is added when it divides."""
    n = len(vars)
    d = max(terms) >> 32 * n
    top = dict(_unpacked(((k, c) for k, c in terms.items() if k >> 32 * n == d), n))
    j = max(range(n), key=lambda i: max(e[i] for e in top))
    found = {tuple(int(i == j) for i in range(n))} if all(e[j] for e in top) else set()
    others = [i for i in range(n) if i != j]
    dehom = sympy.Poly.from_dict({e[:j] + e[j + 1:]: c for e, c in top.items()},
                                 *sympy.symbols([vars[i] for i in others]),
                                 domain=sympy.ZZ)
    for fac, _ in dehom.factor_list()[1]:
        if fac.total_degree() == 1:
            v = [0] * n
            for exps, c in fac.terms():
                v[others[exps.index(1)] if any(exps) else j] = int(c)
            sign = 1 if next(a for a in v if a) > 0 else -1
            found.add(tuple(sign * a for a in v))
    return found


def directions(p):
    """The lifted directions of p, as a set, with no repeats."""
    got = _directions(p.primitive()._scaled_ints()[0], p.vars)
    assert len(got) == len(set(got))
    return set(got)


NOT_LINEAR = NOT_INTEGER_LINEAR + ("x^2 + y*z", "x*z - y^2 + 1")


def random_linear_product(seed):
    """A product of linear forms in 2-4 variables with entries -3..3, some
    zero, some forms repeated, times 0-2 forms that are not linear."""
    rng = random.Random(f"directions-{seed}")
    n = 2 + seed % 3
    vars = VARS[:n]
    pool = []
    while len(pool) < rng.randint(1, 4):
        form = [rng.choice((-3, -2, -1, 0, 0, 1, 2, 3)) for _ in range(n + 1)]
        if any(form[:n]):
            pool.append(form)
    p = Polynomial.one(vars)
    for _ in range(rng.randint(1, 5)):
        form = rng.choice(pool)
        p = p * Polynomial.linear_form(form[:n], vars, form[n])
    for _ in range(rng.randint(0, 2)):
        text = rng.choice([t for t in NOT_LINEAR if n > 2 or "z" not in t])
        p = p * parse_polynomial(text, vars)
    return p


@pytest.mark.parametrize("seed", range(60))
def test_directions_match_multivariate_factoring(seed):
    p = random_linear_product(seed)
    assert directions(p) == directions_by_factoring(p.primitive()._scaled_ints()[0],
                                                    p.vars)


DIRECTION_CASES = [
    # tops with no pure power of any variable: the change of variables runs
    (("x", "y"), "(x + 1)*(y + 1)"),
    (("x", "y", "z"), "(x + y + 1)*(z + 2)*(x - z)"),
    (("x", "y", "z"), "x*y*z + 1"),
    # the (x, z) plane splits and is lifted first; the lift to y prunes both
    (("x", "z", "y"), "x^2 + y^2 - z^2"),
    # both planes split, and no lift of the two ratios divides
    (("x", "y", "z"), "x^2 - y^2 - z^2"),
    # five distinct forms that agree on the coordinate plane z = 0: the one
    # ratio of the first level lifts to five at the next
    (("x", "y", "z"),
     "(x + y - 2*z)*(x + y - z + 1)*(x + y)*(x + y + z - 1)*(x + y + 2*z + 3)"),
]


@pytest.mark.parametrize("vars,text", DIRECTION_CASES)
def test_directions_on_chosen_tops(vars, text):
    p = parse_polynomial(text, vars)
    assert directions(p) == directions_by_factoring(p._scaled_ints()[0], vars)
    assert factor_polynomial(p) == reference(p)


def test_lifting_through_a_shared_plane_keeps_all_five():
    vars, text = DIRECTION_CASES[-1]
    assert directions(parse_polynomial(text, vars)) == {
        (1, 1, -2), (1, 1, -1), (1, 1, 0), (1, 1, 1), (1, 1, 2)}


def test_sympy_gcd_fallback_gives_the_same_factors(monkeypatch):
    inputs = [random_product(seed) for seed in range(1, 48, 3)]
    inputs += [parse_polynomial(text, vars) for vars, text in CASES + DIRECTION_CASES]
    polys._gcd_cached.cache_clear()
    expected = [factor_polynomial(p) for p in inputs]
    gave_up = []

    def give_up(p, q, n):
        gave_up.append(n)

    monkeypatch.setattr(polys, "_heu_gcd", give_up)
    polys._gcd_cached.cache_clear()
    try:
        assert [factor_polynomial(p) for p in inputs] == expected
    finally:
        polys._gcd_cached.cache_clear()
    # the blocks' gcds run in one variable y
    assert 1 in gave_up


# ---------------------------------------------------------------------- #
# the univariate route


def dense(result):
    """A univariate factorization with plain int coefficients."""
    cont, factors = result
    return int(cont), [([int(c) for c in f], int(m)) for f, m in factors]


def factored(u):
    """``_factor_dense`` on a list u in sympy's order, highest coefficient
    first, with its factors put back in that order: the route takes and
    gives lists lowest first."""
    cont, factors = _factor_dense(u[::-1])
    return dense((cont, [(f[::-1], m) for f, m in factors]))


def known_irreducible(rng, degree):
    """A primitive irreducible dense list of the given degree over ZZ."""
    t = sympy.Symbol("t")
    while True:
        f = [rng.randint(1, 4)] + [rng.randint(-6, 6) for _ in range(degree)]
        if gcd(*f) == 1 and sympy.Poly(f, t, domain=sympy.ZZ).is_irreducible:
            return f


def random_dense_product(seed):
    """A content times 1-3 distinct irreducibles of degree 1-6 to powers
    1-3, often all to the same power, of degree at most 24."""
    rng = random.Random(f"dense-{seed}")
    same = rng.randint(1, 3) if rng.random() < 0.4 else None
    u, seen = [rng.choice((-12, -6, -2, -1, 1, 1, 3, 10))], []
    for _ in range(rng.randint(1, 3)):
        f = known_irreducible(rng, rng.randint(1, 6))
        m = same or rng.randint(1, 3)
        if f in seen or len(u) - 1 + m * (len(f) - 1) > 24:
            continue
        seen.append(f)
        for _ in range(m):
            u = dup_mul(u, f, ZZ)
    return u


@pytest.mark.parametrize("seed", range(80))
def test_dense_route_matches_sympy_on_known_products(seed):
    u = random_dense_product(seed)
    got = factored(u)
    assert got == dense(dup_factor_list(u, ZZ))
    # _directions reads a linear factor a*y_j + b*y_l with a > 0
    assert all(f[0] > 0 for f, _ in got[1])


# the cases below are written in sympy's order, highest coefficient first
LEAD = prod(_PRIMES)
# no prime of _PRIMES certifies these: reducible mod every prime, a
# reducible squarefree piece, or a leading coefficient that every prime
# divides
UNCERTIFIED = [
    [1, 0, 0, 0, 1],                      # x^4 + 1
    [1, 0, -10, 0, 1],                    # x^4 - 10x^2 + 1
    [1, 0, -5, 0, 6],                     # (x^2 - 2)(x^2 - 3)
    [1, 0, 3, 0, 1],                      # (x^2 + x + 1)^2 mod 2
    [LEAD, 0, 1, 1],
    [LEAD, 0, 0, 1, 1],
    [-3 * LEAD, 0, 0, -3, -3],
]
# of degree <= 2 once x^k is split off: settled without a squarefree
# decomposition
AT_MOST_QUADRATIC = [[4, 0, -9], [1, 2, 1], [-2, -4, -2], [3, 0, 0], [5, -1, 7], [6, 0, 0, 0]]


@pytest.mark.parametrize("u", UNCERTIFIED + AT_MOST_QUADRATIC)
def test_dense_route_on_hard_cases(u, monkeypatch):
    # the factor module imports sympy's routines when it calls them, so
    # the spies go on sympy's own modules, after the oracle has run
    expected = dense(dup_factor_list(u, ZZ))
    fallbacks = []
    sympy_sqf = factortools.dup_zz_factor_sqf

    def counted(g, K):
        fallbacks.append(list(g))
        return sympy_sqf(g, K)

    monkeypatch.setattr(factortools, "dup_zz_factor_sqf", counted)
    if u in AT_MOST_QUADRATIC:
        monkeypatch.setattr(sqfreetools, "dup_sqf_list", None)
    assert factored(u) == expected
    assert len(fallbacks) == (u in UNCERTIFIED)


CERTIFIED = [
    [1, 0, 0, 2],                         # x^3 + 2: no root mod 7
    [1, 0, 0, 1, 1],                      # x^4 + x + 1: irreducible mod 2
    # (x^2 + x + 1)(x^2 - x + 1): no root mod 2, but (x^2 + x + 1)^2 there,
    # and uncertified; the shift gcd splits it
    [1, 0, 1, 0, 1],
    [2, -1, -5, -7, 4],
    [-4, 0, 6, -2, -10, 0],               # -2x(2x^4 - 3x^2 + x + 5)
    dup_mul(dup_mul([1, 0, 0, 2], [1, 0, 0, 2], ZZ), [1, 0, 0, 1, 1], ZZ),
    dup_mul([1, 3, -5, 7, 11], dup_mul([2, 0, -3], [2, 0, -3], ZZ), ZZ),
]


@pytest.mark.parametrize("u", CERTIFIED)
def test_certified_factors_reach_no_sympy_factoring(u, monkeypatch):
    expected = dense(dup_factor_list(u, ZZ))

    def refuse(g, *args):
        raise AssertionError(f"sympy factoring called on {g}")

    monkeypatch.setattr(factortools, "dup_zz_factor_sqf", refuse)
    monkeypatch.setattr(galoistools, "gf_irreducible_p", refuse)
    assert factored(u) == expected


def zassenhaus_calls(u, monkeypatch):
    """``factored(u)`` and the lists that reach sympy's Zassenhaus
    factoring on the way."""
    calls = []
    sympy_sqf = factortools.dup_zz_factor_sqf

    def counted(g, K):
        calls.append(list(g))
        return sympy_sqf(g, K)

    with monkeypatch.context() as patch:
        patch.setattr(factortools, "dup_zz_factor_sqf", counted)
        got = factored(u)
    return got, calls


def shifted_product(q, shifts):
    """q(Z + s) multiplied over the shifts, highest coefficient first."""
    u = [ZZ(1)]
    for s in shifts:
        u = dup_mul(u, dup_shift(q, ZZ(s), ZZ), ZZ)
    return u


def shift_case(seed):
    """(q, u): an irreducible q of degree 1-3 and u = q(Z)*q(Z + 1), or
    q(Z)*q(Z + 1)*q(Z + 2), times a content."""
    rng = random.Random(f"shift-{seed}")
    q = known_irreducible(rng, 1 + seed % 3)
    u = shifted_product(q, range(2 + seed // 3 % 2))
    content = rng.choice((1, -2, 3))
    return q, [content * c for c in u]


@pytest.mark.parametrize("seed", range(30))
def test_products_with_a_unit_shift_split_before_zassenhaus(seed, monkeypatch):
    q, u = shift_case(seed)
    expected = dense(dup_factor_list(u, ZZ))
    got, calls = zassenhaus_calls(u, monkeypatch)
    assert got == expected
    # every piece is a shift of q, so only an uncertified cubic q may
    # reach Zassenhaus, once per shift
    if len(q) <= 3:
        assert calls == []
    else:
        assert all(len(g) == 4 for g in calls)


# (2Z + 1)(2Z + 3)(12Z^2 + 12Z + 1)(12Z^2 + 36Z + 25): the degree-6 block of
# a criterion-5 round trip, h(Z)*h(Z + 1) with h = (2Z + 1)(12Z^2 + 12Z + 1)
CORPUS_SHIFT_PIECE = dup_mul(dup_mul([2, 1], [2, 3], ZZ),
                             dup_mul([12, 12, 1], [12, 36, 25], ZZ), ZZ)
SHIFT_NEAR_MISSES = [
    shifted_product([1, 0, 3], (0, 2)),                 # q(Z)*q(Z + 2)
    shifted_product([2, 1, 0, 5], (0, 2)),
    dup_add_ground(shifted_product([1, 0, 3], (0, 1)), ZZ(1), ZZ),
    dup_add_ground(shifted_product([2, -1, 1], (0, 1)), ZZ(1), ZZ),
    dup_add_ground(shifted_product([1, 1, 0, 5], (0, 1)), ZZ(1), ZZ),
]


def test_corpus_shift_piece_splits_into_its_halves(monkeypatch):
    expected = dense(dup_factor_list(CORPUS_SHIFT_PIECE, ZZ))
    got, calls = zassenhaus_calls(CORPUS_SHIFT_PIECE, monkeypatch)
    assert got == expected
    assert [f for f, _ in got[1]] == [[2, 1], [2, 3], [12, 12, 1], [12, 36, 25]]
    # the two cubic halves have a rational root, so no prime certifies
    # them, and they are not products with their own shifts: they alone
    # still reach Zassenhaus, where the whole sextic did
    assert sorted(calls) == [[24, 36, 14, 1], [24, 108, 158, 75]]


@pytest.mark.parametrize("u", SHIFT_NEAR_MISSES)
def test_near_shift_products_match_sympy(u, monkeypatch):
    expected = dense(dup_factor_list(u, ZZ))
    got, _ = zassenhaus_calls(u, monkeypatch)
    assert got == expected


def test_shift_gcd_that_does_not_divide_raises(monkeypatch):
    # the split divides by the gcd exactly; a wrong gcd, here Z + 5, must
    # raise rather than give factors, also under python -O
    monkeypatch.setattr(factor, "_int_gcd", lambda p, q, vars: {_unit_key(1, 0): 1, 0: 5})
    with pytest.raises(ArithmeticError, match="does not divide"):
        factored(shifted_product([1, 0, 3], (0, 1)))


@pytest.mark.parametrize("seed", range(20))
def test_quartic_discriminant_matches_sympy(seed):
    rng = random.Random(f"discriminant-{seed}")
    g = [rng.choice((-7, -1, 1, 2, 9))] + [rng.randint(-30, 30) for _ in range(4)]
    assert _quartic_discriminant(g[::-1]) == dup_discriminant(g, ZZ)


def irreducible_mod_some_prime(g):
    """The oracle for ``_certified``: whether sympy's test finds the list
    g, lowest coefficient first, irreducible mod some p of _PRIMES that
    does not divide its leading coefficient."""
    return any(g[-1] % p and galoistools.gf_irreducible_p(
        [ZZ(c % p) for c in reversed(g)], p, ZZ) for p in _PRIMES)


@pytest.mark.parametrize("seed", range(8))
def test_certified_matches_irreducibility_mod_each_prime(seed):
    # small coefficients, so that every residue list mod 2 occurs, the
    # reducible x^4 + x^2 + 1 included
    rng = random.Random(f"certified-{seed}")
    decisions = []
    while len(decisions) < 50:
        u = [rng.choice((-6, -2, -1, 1, 3, 4))] + [rng.randint(-9, 9)
                                                   for _ in range(rng.choice((3, 4)))]
        if not dup_discriminant(u, ZZ):
            continue
        g = u[::-1]
        decisions.append(_certified(g))
        assert decisions[-1] == irreducible_mod_some_prime(g)
        if decisions[-1]:
            assert len(dup_factor_list(u, ZZ)[1]) == 1
    assert True in decisions and False in decisions
