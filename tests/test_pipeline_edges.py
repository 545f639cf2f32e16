"""Round trips through deliberately awkward structures: irreducible
quadratic pole polynomials, exact/uniform overlap, one and five variables,
and concurrent use."""

import concurrent.futures

from wzforms import (AdditiveRepresentation, IntegerLinearType, Polynomial,
                     RationalFunction, decompose, generate, random_additive_rep)

Zv = ("Z",)
Z = Polynomial.variable("Z", Zv)


def rep_of(vars, parts, exact=None):
    exact = exact if exact is not None else RationalFunction.zero(vars)
    return AdditiveRepresentation(
        vars, exact, [(IntegerLinearType(v), r) for v, r in parts])


def round_trips(rep):
    first = generate(rep)
    second = generate(decompose(first))
    return second.components == first.components


def test_irreducible_quadratic_pole_round_trip():
    V = ("x", "y")
    r = RationalFunction(Polynomial.one(Zv), Z**2 - 2)
    assert round_trips(rep_of(V, [((1, 1), r)]))


def test_negative_leading_numerator_round_trip():
    V = ("x", "y")
    r = RationalFunction(-Z, Z**2 + 1)
    assert round_trips(rep_of(V, [((2, -1), r)]))


def test_quadratic_pole_with_multiplicity_round_trip():
    V = ("x", "y", "z")
    r = RationalFunction(Z + 1, (Z**2 + Z + 1) ** 2)
    assert round_trips(rep_of(V, [((1, 0, -1), r)]))


def test_exact_and_uniform_overlap_round_trip():
    # the exact part shares its pole orbit with the uniform part; the
    # decomposition must still reproduce the tuple exactly
    V = ("x", "y")
    x = Polynomial.variable("x", V)
    y = Polynomial.variable("y", V)
    exact = RationalFunction(Polynomial.one(V), x + y)
    r = RationalFunction(Polynomial.one(Zv), Z)
    rep = rep_of(V, [((1, 1), r)], exact=exact)
    assert round_trips(rep)


def test_univariate_round_trip():
    V = ("x",)
    x = Polynomial.variable("x", V)
    f = RationalFunction(Polynomial.one(V), x) + RationalFunction(x)
    from wzforms import WZForm
    form = WZForm(V, (f,))
    rep = decompose(form)
    assert generate(rep).components == form.components
    assert [t.entries for t in rep.types] == [(1,)]


def test_five_variable_round_trip():
    for seed in (2, 11):
        rep = random_additive_rep(seed, n=5, max_types=2, max_deg=1,
                                  coeff_bound=4)
        assert round_trips(rep)


def test_mixed_direction_levels_round_trip():
    V = ("x", "y", "z")
    r1 = RationalFunction(Polynomial.one(Zv), Z)
    r2 = RationalFunction(Polynomial.one(Zv), Z**2)
    r3 = RationalFunction(Z, Z**2 - 3)
    rep = rep_of(V, [((1, -2, 1), r1), ((0, 1, -1), r2), ((0, 0, 1), r3)])
    assert round_trips(rep)


def test_constant_component_absorbs_into_exact_part():
    V = ("x", "y")
    from wzforms import WZForm
    form = WZForm(V, (RationalFunction.constant(1, V),
                      RationalFunction.zero(V)))
    rep = decompose(form)
    assert rep.parts == ()
    assert rep.exact_part == RationalFunction(Polynomial.variable("x", V))
    assert generate(rep).components == form.components


def test_concurrent_decompositions():
    reps = [random_additive_rep(seed, n=2 + seed % 2, max_types=2, max_deg=2)
            for seed in range(8)]
    forms = [generate(rep) for rep in reps]

    def work(form):
        return generate(decompose(form)).components == form.components

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        assert all(pool.map(work, forms))
