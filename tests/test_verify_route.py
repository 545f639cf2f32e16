"""The verifier's route, a point witness for "no" and then ``decompose``,
pinned to the symbolic pairwise oracle on seeded tuples."""

import random

import pytest

from conftest import pairwise_compatible, random_rational
from wzforms import (AdditiveRepresentation, IntegerLinearType, InvalidInput,
                     NotAWZForm, Polynomial, RationalFunction, WZForm,
                     decompose, delta, generate, is_wz_form, parse_expression,
                     random_additive_rep)
from wzforms.shifts import WITNESS_POINTS, _witness, witness_points

REJECTED = "^the tuple violates the compatibility conditions$"


def value_at(f, point):
    """f at an integer point, or None at a pole: the constant terms of the
    shifted numerator and denominator, without ``eval_at``."""
    g = f.shifted(point)
    den = g.den.coeff((0,) * len(point))
    return g.num.coeff((0,) * len(point)) / den if den else None


def check_witness(components, witness):
    (i, j), x, (di_fj, dj_fi) = witness
    n = len(components)
    assert 0 <= i < j < n and x in witness_points(n)
    assert di_fj != dj_fi
    at = [x] + [tuple(c + (s == k) for s, c in enumerate(x)) for k in (i, j)]
    values = {(m, p): value_at(components[m], p) for m in (i, j) for p in at}
    assert None not in values.values()  # every denominator is defined
    assert di_fj == values[j, at[1]] - values[j, x]
    assert dj_fi == values[i, at[2]] - values[i, x]


def check_route(components):
    """Pin is_wz_form, WZForm(...), the witness and decompose to the
    oracle; returns the oracle's verdict and the witness."""
    components = tuple(components)
    vars = components[0].vars
    expected = pairwise_compatible(components)
    assert is_wz_form(components) is expected
    witness = _witness(components)
    if witness is not None:
        assert not expected
        check_witness(components, witness)
    if expected:
        form = WZForm(vars, components)
        assert generate(decompose(form)).components == components
    else:
        with pytest.raises(NotAWZForm, match=REJECTED):
            WZForm(vars, components)
        # anything but NotAWZForm escapes pytest.raises and fails the test
        with pytest.raises(NotAWZForm):
            decompose(WZForm._trusted(vars, components))
    return expected, witness


def pole_term(vars, j, c, a):
    """``c/(x_j + a)``: its j-difference is nonzero wherever defined."""
    return RationalFunction(Polynomial.constant(c, vars),
                            Polynomial.variable(vars[j], vars) + a)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_route_matches_oracle_on_seeded_tuples(n):
    rng = random.Random(f"route-{n}")
    seeds = range(6) if n <= 3 else range(3)
    refuted = 0
    for seed in seeds:
        rep = random_additive_rep(seed, n=n, max_types=2, max_deg=2, coeff_bound=5)
        comps = list(generate(rep).components)
        vars = rep.vars
        assert check_route(comps) == (True, None)
        # twin: one pole term whose difference breaks the pair (j, k)
        k = rng.randrange(n)
        j = rng.choice([q for q in range(n) if q != k] or [k])
        twin = list(comps)
        twin[k] = twin[k] + pole_term(vars, j, rng.choice([-3, -1, 2, 5]),
                                      rng.randint(-5, 5))
        expected, witness = check_route(twin)
        assert expected is (n == 1)
        refuted += witness is not None
        # a generic perturbation of one component
        k = rng.randrange(n)
        noisy = list(comps)
        noisy[k] = noisy[k] + random_rational(rng, vars, max_terms=2, max_deg=2, bound=4)
        check_route(noisy)
    if n > 1:
        assert refuted == len(seeds)


def test_route_on_zero_and_constant_components():
    vars = ("x", "y", "z")

    def parse(*texts):
        return [parse_expression(t, vars) for t in texts]

    cases = [
        (parse("0", "0", "0"), True),
        (parse("3", "-1/2", "0"), True),
        (parse("0", "5", "z"), True),
        (parse("7", "y", "0"), True),
        (parse("7", "x", "0"), False),
        (parse("0", "1/x", "0"), False),
        (parse("1/y", "0", "0"), False),
        (parse("0", "0", "1/(x+y+z)"), False),
        (parse("2", "3", "z^2"), True),
        (parse("2", "3", "y*z"), False),
    ]
    for comps, expected in cases:
        assert check_route(comps)[0] is expected, [str(f) for f in comps]


def test_route_on_non_integer_linear_exact_parts():
    rng = random.Random(97)
    cases = [(("x", "y"), "1/(x^2+y^2+1)"),
             (("x", "y", "z"), "1/(x^2+y^2+1)"),
             (("x", "y", "z"), "(x*y-z)/(x^2+y*z+3)")]
    for vars, text in cases:
        exact = parse_expression(text, vars)
        n = len(vars)
        uniform = [(IntegerLinearType((1,) + (-1,) * (n - 1)),
                    parse_expression("1/(Z^2+2)", ("Z",)))]
        for parts in ([], uniform):
            comps = list(generate(AdditiveRepresentation(vars, exact, parts)).components)
            assert check_route(comps) == (True, None)
            k = rng.randrange(n)
            twin = list(comps)
            twin[k] = twin[k] + pole_term(vars, (k + 1) % n, 2, rng.randint(-5, 5))
            expected, witness = check_route(twin)
            assert not expected and witness is not None


def test_route_when_only_a_later_pair_is_broken():
    rng = random.Random(101)
    for seed, n in ((3, 3), (7, 3), (11, 4)):
        rep = random_additive_rep(seed, n=n, max_types=2, max_deg=2, coeff_bound=5)
        comps = list(generate(rep).components)
        vars = rep.vars
        for i in range(1, n):
            for j in range(1, n):
                if i == j:
                    continue
                # free of x_0 and x_i: only the pair (i, j) is broken
                bad = list(comps)
                bad[i] = bad[i] + pole_term(vars, j, rng.choice([-2, 3]),
                                            rng.randint(-5, 5))
                expected, witness = check_route(bad)
                assert not expected and witness[0] == (min(i, j), max(i, j))


def test_decompose_rejects_what_the_witness_misses():
    # h = x_2 * prod_t (x_1 - c_t), with c_t the x_1 coordinate of witness
    # point t: delta_2(h) vanishes at every witness point, delta_0(h) == 0,
    # so f_1 + h breaks only the pair (1, 2) and no tried point shows it
    vars = ("x", "y", "z")
    x1 = Polynomial.variable("y", vars)
    h = Polynomial.variable("z", vars)
    for point in witness_points(3):
        h = h * (x1 - point[1])
    for seed in (0, 4):
        comps = list(generate(random_additive_rep(seed, n=3, max_types=2, max_deg=2,
                                                  coeff_bound=5)).components)
        comps[1] = comps[1] + RationalFunction(h)
        expected, witness = check_route(comps)
        assert not expected and witness is None
        with pytest.raises(NotAWZForm, match=REJECTED) as info:
            WZForm(vars, comps)
        assert isinstance(info.value.__cause__, NotAWZForm)


def test_witness_skips_a_pair_at_a_pole():
    # 1/(x + y - s) has a pole at the first witness point x but none at
    # x + e_0 or x + e_1
    vars = ("x", "y", "z")
    first, second, _ = witness_points(3)
    s = first[0] + first[1]
    g = parse_expression(f"1/(x + y - {s})", vars)
    comps = [delta(g, i) for i in range(3)]
    assert check_route(comps) == (True, None)
    comps[2] = comps[2] + 2 * g
    expected, witness = check_route(comps)
    assert not expected and witness[:2] == ((0, 2), second)


def test_witness_points_are_fixed_small_and_distinct():
    for n in range(1, 7):
        points = witness_points(n)
        assert len(points) == WITNESS_POINTS
        assert all(len(p) == n for p in points)
        assert len(set(points)) == WITNESS_POINTS
        assert all(5 < abs(c) < 200 for p in points for c in p)
    assert witness_points(3) == ((7, -11, 13), (-17, 19, -23), (29, -31, 37))


def test_one_component_needs_no_decompose(monkeypatch):
    def refuse(form):
        raise AssertionError("decompose ran on a single component")

    monkeypatch.setattr("wzforms.wzform.decompose", refuse)
    f = parse_expression("1/(x^2+1)", ("x",))
    assert is_wz_form([f])
    assert WZForm(("x",), [f]).components == (f,)


def test_wzform_keeps_its_representation(monkeypatch):
    vars = ("x", "y")
    comps = generate(random_additive_rep(5, n=2, max_types=2, max_deg=2)).components
    form = WZForm(vars, comps)
    rep = decompose(form)
    assert decompose(form) is rep

    def refuse(*args):
        raise AssertionError("the representation was computed again")

    monkeypatch.setattr("wzforms.wzform._reduce_structured", refuse)
    assert decompose(form) is rep


def test_is_wz_form_needs_one_component_per_variable():
    f = parse_expression("x*y", ("x", "y", "z"))
    for comps in ([f], [f, f], [f] * 4):
        with pytest.raises(InvalidInput, match="one component per variable"):
            is_wz_form(comps)
