import random
from fractions import Fraction
from hashlib import sha256

import pytest

from wzforms import (AdditiveRepresentation, IntegerLinearType, InvalidInput,
                     NotAWZForm, Polynomial, RationalFunction, WZForm,
                     conjugate_polygamma, decompose, delta, generate,
                     integer_linear_type_rf, is_exact, is_wz_form,
                     random_additive_rep, signed_range_sum, wzform)

V = ("x", "y", "z")
x = Polynomial.variable("x", V)
y = Polynomial.variable("y", V)
z = Polynomial.variable("z", V)
b = 4 * x + 6 * y + 5 * z
c = 3 * y + 2 * z
Zv = ("Z",)
Z = Polynomial.variable("Z", Zv)
inv_z = RationalFunction(Polynomial.one(Zv), Z)
V2 = ("x", "y")
x2 = Polynomial.variable("x", V2)
y2 = Polynomial.variable("y", V2)


def inv(p, vars=V):
    return RationalFunction(Polynomial.one(vars), p)


def two_type_rep():
    return AdditiveRepresentation(
        V, RationalFunction.zero(V),
        [(IntegerLinearType((4, 6, 5)), inv_z),
         (IntegerLinearType((0, 3, 2)), inv_z)])


def range_sum_triple():
    f = sum((inv(b + l) for l in range(4)), RationalFunction.zero(V))
    g = sum((inv(b + l) for l in range(6)), RationalFunction.zero(V)) \
        + sum((inv(c + l) for l in range(3)), RationalFunction.zero(V))
    h = sum((inv(b + l) for l in range(5)), RationalFunction.zero(V)) \
        + sum((inv(c + l) for l in range(2)), RationalFunction.zero(V))
    return WZForm(V, (f, g, h))


def corrected_product_triple():
    # the variant with numerator constant -1 in the first component fails
    # the compatibility conditions; +1 is the consistent choice
    f = RationalFunction(x * y * z - y**2 * z - y * z**2 + y * z + 1,
                         x - y - z + 1)
    g = RationalFunction(
        x**2 * z - x * y * z - x * z**2 + x * y - y**2 - y * z - 1,
        x - y - z)
    h = RationalFunction(
        x**2 * y - x * y**2 - x * y * z + x * z - y * z - z**2 - 1,
        x - y - z)
    return WZForm(V, (f, g, h))


# ---------------------------------------------------------------------- #
# signed range sums


def test_range_sum_positive_entry():
    got = signed_range_sum(inv_z, (4, 6, 5), 0, V)
    assert got == sum((inv(b + l) for l in range(4)), RationalFunction.zero(V))


def test_range_sum_zero_entry():
    assert signed_range_sum(inv_z, (0, 3, 2), 0, V).is_zero


def test_range_sum_negative_entry():
    got = signed_range_sum(inv_z, (-1, 1, 1), 0, V)
    assert got == -inv(-x + y + z - 1)


# ---------------------------------------------------------------------- #
# generation


def test_generate_two_type_rep_matches_range_sums():
    assert generate(two_type_rep()).components == range_sum_triple().components


def test_generate_pure_exact_rep():
    g = inv(x + y + 1)
    rep = AdditiveRepresentation(V, g, [])
    assert generate(rep).components == tuple(delta(g, i) for i in range(3))


def test_generate_zero_rep():
    rep = AdditiveRepresentation(V, RationalFunction.zero(V), [])
    assert generate(rep).is_zero


def test_generate_output_is_compatible():
    for seed in range(6):
        rep = random_additive_rep(seed, n=3, max_types=2, max_deg=2)
        assert is_wz_form(generate(rep).components)


@pytest.mark.parametrize("vars, expected", [
    (("x",), "-1/(x^2 + 1)"), (V2, "-1/(x^2 + 2*x*y + y^2 + 1)")])
def test_generate_keeps_opposite_types_canonical(vars, expected):
    # the range sums of v and -v share their denominator, so they need the
    # sum with a gcd
    one = (1,) * len(vars)
    rep = AdditiveRepresentation(vars, RationalFunction.zero(vars), [
        (one, inv(Z**2 + 1, Zv)),
        (tuple(-e for e in one), RationalFunction(Polynomial.constant(2, Zv),
                                                  (Z + 1)**2 + 1))])
    form = generate(rep)
    assert [str(f) for f in form.components] == [expected] * len(vars)
    assert form.components == tuple(_plain_component(rep.exact_part, rep.parts, i, vars)
                                    for i in range(len(vars)))


def _plain_component(exact, parts, i, vars):
    """``wzform._component`` with every sum a plain ``+``."""
    f = RationalFunction.zero(vars)
    for vtype, r in parts:
        f = f + signed_range_sum(r, vtype, i, vars)
    return f + delta(exact, i)


@pytest.mark.parametrize("n, seeds", [(None, range(200)), (4, range(100))],
                         ids=["criterion_5", "four_variables"])
def test_sums_without_gcd_match_the_plain_sums(n, seeds, monkeypatch):
    """Every component equals the fold with ``+``, and every residual
    update of ``decompose`` equals ``fs[j] - component``; values are
    canonical, so == checks the canonical form too."""
    seen = {"component": 0, "coprime": 0, "update": 0}

    def component(exact, parts, i, vars):
        got = plain(exact, parts, i, vars)
        assert got == _plain_component(exact, parts, i, vars)
        seen["component"] += 1
        return got

    def coprime(f, g):
        seen["coprime"] += 1
        return add_coprime(f, g)

    def update(f, g):
        got = add_dividing(f, g)
        assert got == f + g
        seen["update"] += 1
        return got

    plain, add_coprime, add_dividing = (wzform._component, wzform._add_coprime,
                                        wzform._add_dividing)
    monkeypatch.setattr(wzform, "_component", component)
    monkeypatch.setattr(wzform, "_add_coprime", coprime)
    monkeypatch.setattr(wzform, "_add_dividing", update)
    for seed in seeds:
        rep = random_additive_rep(seed, n=2 + seed % 3 if n is None else n,
                                  max_types=3, max_deg=3, coeff_bound=9)
        decompose(generate(rep))
    assert min(seen.values()) > 100, seen


# ---------------------------------------------------------------------- #
# decomposition


def test_decompose_two_type_triple():
    rep = decompose(range_sum_triple())
    assert rep.exact_part.is_zero
    assert [t.entries for t in rep.types] == [(4, 6, 5), (0, 3, 2)]
    assert all(r == inv_z for _, r in rep.parts)


def test_decompose_corrected_product_triple():
    form = corrected_product_triple()
    rep = decompose(form)
    assert len(rep.parts) == 1
    vtype, r = rep.parts[0]
    assert vtype.entries in ((1, -1, -1), (-1, 1, 1))
    # r stays in the simple-fraction family with unit numerator
    assert r.num.is_constant and abs(r.num.constant_value()) == 1
    assert r.den.degree_in(0) == 1
    assert generate(rep).components == form.components
    half = Fraction(1, 2)
    assert rep.exact_part == RationalFunction(
        x * y * z + half * y**2 - half * y + half * z**2 - half * z)


def test_decompose_takes_only_a_wz_form():
    # neither a representation nor a list that carries vars is certified
    class Components(list):
        vars = V2

    for value in (random_additive_rep(3), Components([inv(x2, V2), inv(x2, V2)])):
        with pytest.raises(InvalidInput) as info:
            decompose(value)
        assert str(info.value) == "decompose expects a WZForm"


def test_decompose_zero_form():
    rep = decompose(WZForm(V, (RationalFunction.zero(V),) * 3))
    assert rep.exact_part.is_zero and rep.parts == ()


def test_decompose_rejects_incompatible_tuple():
    with pytest.raises(NotAWZForm):
        WZForm(("x", "y"),
               (RationalFunction(Polynomial.one(("x", "y")),
                                 Polynomial.variable("x", ("x", "y"))),) * 2)


def test_decompose_detects_violation_behind_trusted_wrapper():
    # not integer-linear in the remainder: certifies incompatibility
    bad = WZForm._trusted(
        V2, (RationalFunction(Polynomial.one(V2), x2**2 + y2),
             RationalFunction.zero(V2)))
    with pytest.raises(NotAWZForm):
        decompose(bad)
    # residual depending on a processed variable
    bad2 = WZForm._trusted(
        V2, (RationalFunction(Polynomial.one(V2), x2),
             RationalFunction(Polynomial.one(V2), x2**2)))
    with pytest.raises(NotAWZForm):
        decompose(bad2)


@pytest.mark.parametrize("f, message", [
    pytest.param(inv(2 * x2 + y2, V2),
                 r"^no rational solution for the uniform part of type \(2,1\)$",
                 id="unsolvable"),
    pytest.param(inv(y2 * (x2 + y2), V2),
                 r"^numerator 1/y at x \+ y is not polynomial$",
                 id="not-polynomial"),
    pytest.param(RationalFunction(y2, (x2 + y2)**2),
                 r"^numerator y does not follow the direction \(1,1\)$",
                 id="off-direction"),
    pytest.param(inv(x2**2 + y2**2 + 1, V2),
                 r"^denominator factor x\^2 \+ y\^2 \+ 1 is not integer-linear$",
                 id="not-integer-linear"),
    pytest.param(inv(2 * x2 + y2, V2) + inv(2 * x2 + y2 + 1, V2),
                 r"^residual component still involves \('x',\)$",
                 id="residual-involves-x"),
])
def test_decompose_names_the_violated_structure(f, message):
    # each pair (f, 0) is incompatible; the raise names the first part of
    # the structure theorem that the first component breaks
    with pytest.raises(NotAWZForm, match=message):
        decompose(WZForm._trusted(V2, (f, RationalFunction.zero(V2))))


HAND_BUILT = [
    # poles 3 apart in one Z-orbit merge into the exact part, and a step of 2
    (AdditiveRepresentation(V2, RationalFunction.zero(V2), [
        (IntegerLinearType((2, 1)), inv(Z, Zv) + inv(Z + 3, Zv)),
        (IntegerLinearType((1, -2)), inv(Z**2 + 1, Zv))]),
     "(exact = (12*x^2 + 12*x*y + 3*y^2 + 12*x + 6*y + 2)/(8*x^3 + 12*x^2*y"
     " + 6*x*y^2 + y^3 + 12*x^2 + 12*x*y + 3*y^2 + 4*x + 2*y);"
     " uniform = {(2,1): 2/Z, (1,-2): 1/(Z^2 + 1)})"),
    # a step of 3, and a squared quadratic pole along a step of 2
    (AdditiveRepresentation(V, RationalFunction.zero(V), [
        (IntegerLinearType((3, 1, 0)), inv(Z, Zv) + inv(Z + 1, Zv)),
        (IntegerLinearType((2, -1, 1)), RationalFunction(Z + 2, (Z**2 + 2)**2))]),
     "(exact = 1/(3*x + y); uniform = {(3,1,0): 2/Z,"
     " (2,-1,1): (Z + 2)/(Z^4 + 4*Z^2 + 4)})"),
]


@pytest.mark.parametrize("rep, decomposed", HAND_BUILT,
                         ids=["steps-2-1", "steps-3-2"])
def test_decompose_prints_exactly_on_hand_built_representations(rep, decomposed):
    form = generate(rep)
    back = decompose(form)
    assert str(back) == decomposed
    assert generate(back).components == form.components


def test_round_trip_on_seeded_representations():
    for seed in range(40):
        rep = random_additive_rep(seed, n=2 + seed % 3, max_types=3,
                                  max_deg=3, coeff_bound=9)
        first = generate(rep)
        again = generate(decompose(first))
        assert again.components == first.components, f"seed {seed}"


DECOMPOSED = {
    # criterion-5 seeds whose partial fractions peel poles of degree 2 and 3,
    # and (18, 43) linear poles only, of multiplicity 3, along directions
    # with an entry 2; the tail seeds 104, 178 and 187 peel multivariate
    # bases of degree 2 and 3, whose layers come from one line
    18: "(exact = -7*x; uniform = {(1,-1): (-9*Z - 2)/Z^3, (2,1): -2/Z^3})",
    43: "(exact = -1/(2*x + z + 2); uniform = {(2,0,-1): (3*Z - 1)/Z^3,"
        " (2,1,2): 4/(3*Z + 4)})",
    104: "(exact = (-12*x^3 + 36*x^2*y + 6*x^2*z + 36*x^2*w - 36*x*y^2"
         " - 12*x*y*z - 72*x*y*w + 3*x*z^2 - 12*x*z*w - 36*x*w^2 + 12*y^3"
         " + 6*y^2*z + 36*y^2*w - 3*y*z^2 + 12*y*z*w + 36*y*w^2 - 3/2*z^3"
         " - 3*z^2*w + 6*z*w^2 + 12*w^3 - 137/4*x^2 + 273/4*x*y + 3/8*x*z"
         " + 64*x*w - 34*y^2 - 1/2*y*z - 255/4*y*w + 11/4*z^2 - 21/8*z*w"
         " - 119/4*w^2 - 113/8*x + 14*y + 17/4*z + 95/8*w - 5)"
         "/(2*x - 2*y + z - 2*w + 1); uniform = {(2,-2,-1,-2):"
         " (-64*Z - 8)/(3*Z^2 - 8*Z), (1,0,2,1): -81/8/(8*Z^2 - 9)})",
    130: "(exact = (5/6*x*y - 5/6*x*z - 5/3*y*z + 5/3*z^2 - 5/2*y + 5/2*z - 9)"
         "/(x - 2*z - 3); uniform = {(1,1,1): 7/9/Z^2, (2,0,1): 6*Z/(6*Z^2 - 7),"
         " (0,1,-1): -3/2/Z})",
    142: "(exact = (1/16*x^3 + 1/4*x^2*z - 3/16*x*y^2 + 1/4*x*y*z + 1/4*x*z^2"
         " + 1/8*y^3 - 1/2*y^2*z + 1/2*y*z^2 - 33/16*x^2 - 193/16*x*y - 1/8*x*z"
         " - 127/8*y^2 - 1/4*y*z - 7)/(x + 2*y); uniform = {(1,1,-1): -9/4/Z^3,"
         " (1,-1,2): -1/8*Z/(4*Z^2 + 1)})",
    178: "(exact = 1/2*x^2 + x*y + 1/2*x*z + 1/2*y^2 + 1/2*y*z + 1/8*z^2"
         " - 65/48*x - 89/48*y - 65/96*z; uniform = {(1,0,0): -1/Z^3,"
         " (2,2,1): 69/32/(8*Z + 3), (2,-1,1): 1/6/(3*Z^3 - 1)})",
    187: "(exact = (8*x^2*y + 4*x*y^2 - 8*x*y*z - 3/2*x*z^2 - 3/4*y*z^2"
         " + 3/2*z^3 + 4/3*x^2 + 10/3*x*y + 17/6*x*z - 2/3*y^2 + 41/12*y*z"
         " - 59/12*z^2 + 2/3*x - 2/3*y + 25/12*z + 4)/(2*x + y - 2*z + 1);"
         " uniform = {(2,-2,1): (2/3*Z + 5/2)/(3*Z^3 - 2*Z),"
         " (1,-2,-1): Z/(Z^3 + 9)})",
    193: "(exact = 8*x^2 - 8/7*x - 8/7*y - 4/7*z; uniform = {(2,2,1): 9/7/(Z + 1),"
         " (1,0,2): -6*Z^2/(3*Z^3 + 5)})",
    198: "(exact = -4*x*y; uniform = {(1,-1): -1/Z^3,"
         " (2,1): (-4*Z - 3/2)/(4*Z^3 - 1), (0,1): -7/8/Z})",
}


@pytest.mark.parametrize("seed", sorted(DECOMPOSED))
def test_decompose_prints_exactly_on_inversion_seeds(seed):
    rep = random_additive_rep(seed, n=2 + seed % 3, max_types=3,
                              max_deg=3, coeff_bound=9)
    assert str(decompose(generate(rep))) == DECOMPOSED[seed]


# (seed, variables) -> (sha256 of each generated component's str, str of its
# decomposition): the slow criterion-5 tail seeds 104 and 178, whose
# residual updates are the largest sums, and a four-variable seed
TAIL_ROUND_TRIPS = {
    (104, 4): (
        ("fd60880ea1fb9ef2c10b2507cd197d70bccab02b3fb16f4a8b30b7b4a7938b33",
         "bde0cb8116af1eb31447d9c05d655688649957b26e8227c70f286260c90e7c5c",
         "93c3b17ff65ff23d4901be71e3b4061de1b9635e43371b2bdc1d947b2357af53",
         "11fcb8bf6cd78595b7483830761097c931f7caf0bf1fc916371df19645f7faa7"),
        "(exact = (-12*x^3 + 36*x^2*y + 6*x^2*z + 36*x^2*w - 36*x*y^2"
        " - 12*x*y*z - 72*x*y*w + 3*x*z^2 - 12*x*z*w - 36*x*w^2 + 12*y^3"
        " + 6*y^2*z + 36*y^2*w - 3*y*z^2 + 12*y*z*w + 36*y*w^2 - 3/2*z^3"
        " - 3*z^2*w + 6*z*w^2 + 12*w^3 - 137/4*x^2 + 273/4*x*y + 3/8*x*z"
        " + 64*x*w - 34*y^2 - 1/2*y*z - 255/4*y*w + 11/4*z^2 - 21/8*z*w"
        " - 119/4*w^2 - 113/8*x + 14*y + 17/4*z + 95/8*w - 5)"
        "/(2*x - 2*y + z - 2*w + 1); uniform = {(2,-2,-1,-2):"
        " (-64*Z - 8)/(3*Z^2 - 8*Z), (1,0,2,1): -81/8/(8*Z^2 - 9)})"),
    (178, 3): (
        ("866ddeb0be224b39b52702e89a85ac4594a7146bf6358fc355c5985e2b0e6bf1",
         "70feafeef3ad94da7fab1e1bf77dd64857da7b2154e1b519147d96cb8c916c90",
         "3a9ffc408ab5131e2d64112a088620f2f6a4c5e68101ead2624c6b67a373e8c3"),
        "(exact = 1/2*x^2 + x*y + 1/2*x*z + 1/2*y^2 + 1/2*y*z + 1/8*z^2"
        " - 65/48*x - 89/48*y - 65/96*z; uniform = {(1,0,0): -1/Z^3,"
        " (2,2,1): 69/32/(8*Z + 3), (2,-1,1): 1/6/(3*Z^3 - 1)})"),
    (77, 4): (
        ("0a39cd5b2aeed91422d5429b179d0eeb6958f92ae27a045411c810bff7a1c6cf",
         "0c22e10ded67e29381e0a48c42ecd14f9dcb4213b1db19010c7ad4c017a15d84",
         "b4acef80c6d204511bee6a8fb2f3ab732ca6579cef026536ec32981eccc07887",
         "d72ebf82e5f0df1310d38838b7232a236326135ac057267038dac3803f059fb8"),
        "(exact = (9/16*x^3 + 27/16*x^2*z + 9/8*x^2*w + 9/2*x*z*w - 9/4*z^3"
        " + 9/2*z^2*w + 9/16*x^2 + 63/16*x*z - 9/8*x*w + 45/8*z^2 - 9/4*z*w"
        " - 9/8*x - 9/4*z - 1)/(x - z + 2*w + 2); uniform = {(1,0,2,0):"
        " -27/8*Z/(4*Z^2 + 3), (0,1,0,0): -4/7/Z^2})"),
}


@pytest.mark.parametrize("seed, n", sorted(TAIL_ROUND_TRIPS))
def test_round_trip_prints_exactly_on_tail_seeds(seed, n):
    digests, decomposed = TAIL_ROUND_TRIPS[seed, n]
    rep = random_additive_rep(seed, n=n, max_types=3, max_deg=3, coeff_bound=9)
    form = generate(rep)
    assert tuple(sha256(str(f).encode()).hexdigest()
                 for f in form.components) == digests
    assert str(decompose(form)) == decomposed


def test_round_trip_b_on_fixtures():
    for form in (range_sum_triple(), corrected_product_triple()):
        assert generate(decompose(form)).components == form.components


def residual_rep(seed):
    """Seeded representation whose exact part has a denominator with no
    integer-linear factor, plus 0-2 uniform parts."""
    rng = random.Random(f"residual-{seed}")
    num, den = ((Polynomial.one(V), x**2 + y**2 + 1),
                (x * y - z, x**2 + y * z + 3))[seed % 2]
    exact = RationalFunction(num * rng.choice((1, -2, Fraction(3, 5))), den)
    parts = []
    for v in rng.sample([(1, 0, 0), (0, 1, -1), (1, 2, 1), (2, -1, 3)],
                        rng.randint(0, 2)):
        pole = Z + rng.randint(-2, 2) if rng.random() < 0.5 \
            else Z**2 + rng.randint(1, 3)
        parts.append((IntegerLinearType(v), RationalFunction(
            Polynomial.constant(rng.randint(1, 5), Zv), pole)))
    return AdditiveRepresentation(V, exact, parts)


@pytest.mark.parametrize("seed", range(16))
def test_round_trip_through_non_integer_linear_exact_part(seed):
    first = generate(residual_rep(seed))
    assert generate(decompose(first)).components == first.components


RESIDUAL_DECOMPOSED = {
    11: "(exact = (-2*x*y + 2*z)/(x^2 + y*z + 3); uniform = {(2,-1,3): 1/(Z - 1),"
        " (0,1,-1): 3/Z})",
    14: "(exact = 1/(x^2 + y^2 + 1); uniform = {(1,0,0): 2/(Z^2 + 2),"
        " (1,2,1): 4/(Z^2 + 3)})",
}


@pytest.mark.parametrize("seed", sorted(RESIDUAL_DECOMPOSED))
def test_decompose_prints_exactly_with_non_integer_linear_exact_part(seed):
    assert str(decompose(generate(residual_rep(seed)))) == \
        RESIDUAL_DECOMPOSED[seed]


def test_uniform_components_are_compatible_and_typed():
    rep = decompose(range_sum_triple())
    for vtype, r in rep.parts:
        parts = [signed_range_sum(r, vtype, i, V) for i in range(3)]
        assert is_wz_form(parts)
        for comp in parts:
            if comp.is_zero or comp.is_constant:
                continue
            got = integer_linear_type_rf(comp)
            assert got is not None
            assert got[1].entries in (vtype.entries,
                                      tuple(-e for e in vtype.entries))


def test_bivariate_uniform_parts_are_cyclic_pairs():
    for seed in (3, 9, 21, 33):
        rep = random_additive_rep(seed, n=2, max_types=2, max_deg=2)
        got = decompose(generate(rep))
        for vtype, r in got.parts:
            fpart = signed_range_sum(r, vtype, 0, V2)
            gpart = signed_range_sum(r, vtype, 1, V2)
            assert delta(fpart, 1) == delta(gpart, 0)
            types = set()
            for comp in (fpart, gpart):
                if not comp.is_zero and not comp.is_constant:
                    t = integer_linear_type_rf(comp)
                    assert t is not None
                    types.add(tuple(sorted((t[1].entries,
                                            tuple(-e for e in t[1].entries)))))
            assert len(types) <= 1


# ---------------------------------------------------------------------- #
# exactness


def test_is_exact_recognizes_difference_tuples():
    g = inv(x + y)
    form = WZForm(V, tuple(delta(g, i) for i in range(3)))
    assert is_exact(form) == g


def test_is_exact_rejects_uniform_content():
    assert is_exact(range_sum_triple()) is None


def test_is_exact_zero_form():
    assert is_exact(WZForm(V, (RationalFunction.zero(V),) * 3)) == \
        RationalFunction.zero(V)


# ---------------------------------------------------------------------- #
# seeded random representations


def test_random_rep_deterministic():
    a = random_additive_rep(1, n=2)
    bb = random_additive_rep(1, n=2)
    assert a.exact_part == bb.exact_part
    assert [(t.entries, r) for t, r in a.parts] == \
        [(t.entries, r) for t, r in bb.parts]


def test_random_rep_no_types_is_pure_exact():
    rep = random_additive_rep(2, n=3, max_types=0)
    assert rep.parts == ()


def test_random_rep_invariants():
    for seed in range(25):
        rep = random_additive_rep(seed, n=2 + seed % 3, max_types=3, max_deg=3)
        seen = set()
        for vtype, r in rep.parts:
            assert vtype.entries not in seen
            seen.add(vtype.entries)
            assert not r.is_zero
