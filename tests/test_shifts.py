import random
from fractions import Fraction

import pytest

from conftest import random_rational
from wzforms import (AdditiveRepresentation, DivisionByZero, InvalidInput,
                     NotAWZForm, Polynomial, RationalFunction, WZForm,
                     abramov_reduce, apply_shift, conjugate_polygamma,
                     cyclic_apply, delta, generate, integer_linear_decompose,
                     is_summable, is_wz_form, orbital_residue, parse_expression,
                     parse_polynomial, partial_fraction, poly_antidifference,
                     poly_gcd, random_additive_rep, rf_reduce, shift_equivalent,
                     signed_range_sum, solve_step_difference)
from wzforms.factor import factor_polynomial

V = ("x", "y", "z")
x = Polynomial.variable("x", V)
y = Polynomial.variable("y", V)
z = Polynomial.variable("z", V)
b = 4 * x + 6 * y + 5 * z


def inv(p):
    return RationalFunction(Polynomial.one(V), p)


def test_apply_shift_examples():
    f = RationalFunction(Polynomial.one(V), x + y)
    assert apply_shift(f, (1, 0, 0)) == inv(x + y + 1)
    assert apply_shift(inv(b - 3), (1, 0, 0)) == inv(b + 1)
    assert apply_shift(f, (0, 0, 0)) == f


def test_shift_refuses_offset_vector_of_wrong_length():
    f = RationalFunction(x + 2 * z, x + y)
    for m in ((0,), (0, 0), (0, 0, 0, 0), (1,), (1, 0)):
        with pytest.raises(InvalidInput, match="length"):
            f.shifted(m)
        with pytest.raises(InvalidInput, match="length"):
            apply_shift(f, m)
        with pytest.raises(InvalidInput, match="length"):
            f.num.shifted(m)


def test_unit_shift_refuses_variable_index_out_of_range():
    f = RationalFunction(x + 2 * z, x + y)
    for i in (3, 5, -1, -3):
        with pytest.raises(InvalidInput, match="not in 0..2"):
            delta(f, i)
        with pytest.raises(InvalidInput, match="not in 0..2"):
            cyclic_apply(f, i, 2)
    assert delta(f, 2) == RationalFunction(Polynomial.constant(2, V), x + y)


# entry points that take a variable index, over (x, y); an unchecked -1 reads
# the total-degree field of a packed key, where partial fractions run out of
# memory
V2 = ("x", "y")
P2 = parse_polynomial("x^2*y + 3*x", V2)
F2 = parse_expression("1/(x+y) + x^2*y", V2)
D2 = parse_polynomial("x + y", V2)
INDEXED = {
    "degree_in": lambda i: P2.degree_in(i),
    "coeffs_in": lambda i: P2.coeffs_in(i),
    "from_coeffs_in": lambda i: Polynomial.from_coeffs_in([Polynomial.zero(V2), P2], i, V2),
    "shift_var": lambda i: P2.shift_var(i, 1),
    "poly_antidifference": lambda i: poly_antidifference(P2, i),
    "partial_fraction": lambda i: partial_fraction(F2, i),
    "orbital_residue": lambda i: orbital_residue(F2, D2, 1, i),
    "abramov_reduce": lambda i: abramov_reduce(F2, i),
    "is_summable": lambda i: is_summable(F2, i),
    "shift_equivalent": lambda i: shift_equivalent(D2, D2, i),
    "cyclic_apply": lambda i: cyclic_apply(F2, i, 2),
    "delta": lambda i: delta(F2, i),
    "signed_range_sum": lambda i: signed_range_sum(
        parse_expression("1/Z", ("Z",)), (1, 1), i, V2),
}


@pytest.mark.parametrize("entry", sorted(INDEXED))
@pytest.mark.parametrize("i", [-1, 2, True, 1.0], ids=["-1", "n", "True", "1.0"])
def test_variable_index_outside_0_to_n_minus_1_is_invalid_input(entry, i):
    with pytest.raises(InvalidInput, match=r"not in 0\.\.1"):
        INDEXED[entry](i)
    INDEXED[entry](1)


# entry points that take an integer count other than a variable index
COUNTED = {
    "orbital_residue": lambda k: orbital_residue(F2, D2, k, 0),
    "solve_step_difference": lambda k: solve_step_difference(
        RationalFunction.one(("Z",)), k),
    "Polynomial.__pow__": lambda k: D2 ** k,
    "RationalFunction.__pow__": lambda k: F2 ** k,
    "Polynomial": lambda k: Polynomial(V2, {(k, 0): 1}),
}


@pytest.mark.parametrize("entry", sorted(COUNTED))
def test_integer_counts_refuse_bools(entry):
    with pytest.raises(InvalidInput):
        COUNTED[entry](True)
    COUNTED[entry](1)


# guards on a wrong argument type or value, over (x, y), with the exact
# error each raises; an operand of the wrong type gets Python's own TypeError
W2 = generate(random_additive_rep(1, n=2))
R1 = parse_expression("1/Z", ("Z",))


def _rep(parts, exact=F2):
    return AdditiveRepresentation(V2, exact, parts)


GUARDED = {
    "shift_equivalent": (lambda: shift_equivalent(D2, 1, 0), InvalidInput,
                         "shift_equivalent expects Polynomial arguments"),
    "abramov_reduce": (lambda: abramov_reduce(P2, 0), InvalidInput,
                       "abramov_reduce expects a RationalFunction"),
    "solve_step_difference": (lambda: solve_step_difference(F2, 1), InvalidInput,
                              "rhs must be a univariate RationalFunction"),
    "factor_polynomial": (lambda: factor_polynomial(Polynomial.zero(V2)), InvalidInput,
                          "cannot factor the zero polynomial"),
    "integer_linear_decompose": (lambda: integer_linear_decompose(F2), InvalidInput,
                                 "integer_linear_decompose expects a Polynomial"),
    "orbital_residue f": (lambda: orbital_residue(P2, D2, 1, 0), InvalidInput,
                          "orbital_residue expects a RationalFunction"),
    "orbital_residue d": (lambda: orbital_residue(F2, F2, 1, 0), InvalidInput,
                          "orbit query must be a Polynomial"),
    "Polynomial.variable": (lambda: Polynomial.variable("q", V2), InvalidInput,
                            "unknown variable 'q'"),
    "Polynomial.linear_form": (lambda: Polynomial.linear_form((1,), V2), InvalidInput,
                               "coefficient vector length must match variables"),
    "Polynomial.constant_value": (lambda: P2.constant_value(), InvalidInput,
                                  "polynomial is not constant"),
    "Polynomial.leading": (lambda: Polynomial.zero(V2).leading(), InvalidInput,
                           "zero polynomial has no leading term"),
    "from_coeffs_in variables": (
        lambda: Polynomial.from_coeffs_in([P2, Polynomial.one(V)], 0, V2), InvalidInput,
        "variable mismatch: ('x', 'y', 'z') vs ('x', 'y')"),
    "compose without images": (lambda: P2.compose({}), InvalidInput,
                               "cannot infer target variables"),
    "compose images": (lambda: P2.compose({"x": x, "y": D2}), InvalidInput,
                       "substitution images disagree on variables"),
    "divexact by 0": (lambda: P2.divexact(0), DivisionByZero,
                      "division of polynomial by zero"),
    "divexact by the zero polynomial": (lambda: P2.divexact(Polynomial.zero(V2)),
                                        DivisionByZero, "division of polynomial by zero"),
    "poly_gcd": (lambda: poly_gcd(F2, P2), InvalidInput,
                 "poly_gcd expects Polynomial arguments"),
    "Polynomial + None": (lambda: P2 + None, TypeError,
                          "unsupported operand type(s) for +: 'Polynomial' and 'NoneType'"),
    "Polynomial * None": (lambda: P2 * None, TypeError,
                          "unsupported operand type(s) for *: 'Polynomial' and 'NoneType'"),
    "RationalFunction numerator": (lambda: RationalFunction("x"), InvalidInput,
                                   "numerator must be a Polynomial"),
    "RationalFunction of a RationalFunction": (lambda: RationalFunction(F2), InvalidInput,
                                               "numerator must be a Polynomial"),
    "RationalFunction int denominator": (lambda: RationalFunction(P2, 2), InvalidInput,
                                         "rf_reduce expects Polynomial arguments"),
    "RationalFunction.constant_value": (lambda: F2.constant_value(), InvalidInput,
                                        "rational function is not constant"),
    "RationalFunction variables": (
        lambda: F2 + RationalFunction.one(V), InvalidInput,
        "variable mismatch: ('x', 'y') vs ('x', 'y', 'z')"),
    "RationalFunction + None": (
        lambda: F2 + None, TypeError,
        "unsupported operand type(s) for +: 'RationalFunction' and 'NoneType'"),
    "RationalFunction - None": (
        lambda: F2 - None, TypeError,
        "unsupported operand type(s) for -: 'RationalFunction' and 'NoneType'"),
    "RationalFunction * None": (
        lambda: F2 * None, TypeError,
        "unsupported operand type(s) for *: 'RationalFunction' and 'NoneType'"),
    "RationalFunction / None": (
        lambda: F2 / None, TypeError,
        "unsupported operand type(s) for /: 'RationalFunction' and 'NoneType'"),
    "None / RationalFunction": (
        lambda: None / F2, TypeError,
        "unsupported operand type(s) for /: 'NoneType' and 'RationalFunction'"),
    "rf_reduce": (lambda: rf_reduce(P2, 1), InvalidInput,
                  "rf_reduce expects Polynomial arguments"),
    "poly_antidifference": (lambda: poly_antidifference(F2, 0), InvalidInput,
                            "poly_antidifference expects a Polynomial"),
    "is_wz_form": (lambda: is_wz_form([]), InvalidInput, "need at least one component"),
    "WZForm": (lambda: WZForm(V2, (F2, P2)), InvalidInput,
               "components must share the declared variables"),
    "WZForm + None": (lambda: W2 + None, TypeError,
                      "unsupported operand type(s) for +: 'WZForm' and 'NoneType'"),
    "WZForm - None": (lambda: W2 - None, TypeError,
                      "unsupported operand type(s) for -: 'WZForm' and 'NoneType'"),
    "AdditiveRepresentation exact part": (
        lambda: _rep((), exact=P2), InvalidInput,
        "exact part must be a RationalFunction over the declared variables"),
    "AdditiveRepresentation type length": (lambda: _rep([((1, 0, 0), R1)]), InvalidInput,
                                           "type vector length must match variables"),
    "AdditiveRepresentation duplicate type": (
        lambda: _rep([((1, 1), R1), ((1, 1), -R1)]), InvalidInput, "duplicate type (1,1)"),
    "AdditiveRepresentation uniform variables": (
        lambda: _rep([((1, 1), F2)]), InvalidInput, "uniform data must be univariate in Z"),
    "AdditiveRepresentation zero uniform": (
        lambda: _rep([((1, 1), R1 - R1)]), InvalidInput, "uniform data must be nonzero"),
    "generate": (lambda: generate(W2), InvalidInput,
                 "generate expects an AdditiveRepresentation"),
    "conjugate_polygamma": (lambda: conjugate_polygamma(W2), InvalidInput,
                            "conjugate_polygamma expects an AdditiveRepresentation"),
    "random_additive_rep": (lambda: random_additive_rep(1, n=0), InvalidInput,
                            "parameters must be positive"),
}


@pytest.mark.parametrize("entry", sorted(GUARDED))
def test_guards_name_what_is_wrong(entry):
    call, error, message = GUARDED[entry]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_cyclic_apply_and_eval_at_refuse_malformed_arguments():
    for m in (1.5, True, Fraction(2)):
        with pytest.raises(InvalidInput, match="not an integer"):
            cyclic_apply(F2, 0, m)
    with pytest.raises(InvalidInput, match="no value given for variable 'y'"):
        P2.eval_at({"x": 1})
    assert P2.eval_at({"x": 1, "y": 2}) == 5


def test_shift_composition():
    rng = random.Random(23)
    for _ in range(40):
        f = random_rational(rng, V)
        a = tuple(rng.randint(-2, 2) for _ in range(3))
        c = tuple(rng.randint(-2, 2) for _ in range(3))
        both = tuple(u + v for u, v in zip(a, c))
        assert apply_shift(apply_shift(f, a), c) == apply_shift(f, both)


def test_delta_examples():
    assert delta(RationalFunction(x**2), 0) == RationalFunction(2 * x + 1)
    assert delta(RationalFunction(x * y * z), 0) == RationalFunction(y * z)
    assert delta(RationalFunction.constant(7, V), 1).is_zero


def test_delta_commutes():
    rng = random.Random(29)
    for _ in range(40):
        f = random_rational(rng, V)
        assert delta(delta(f, 0), 1) == delta(delta(f, 1), 0)


def test_cyclic_apply_positive():
    h = inv(b)
    assert cyclic_apply(h, 1, 2) == inv(b) + inv(b + 6)


def test_cyclic_apply_zero():
    assert cyclic_apply(inv(b), 0, 0).is_zero


def test_cyclic_apply_negative():
    h = RationalFunction(Polynomial.one(V), x)
    assert cyclic_apply(h, 0, -1) == -inv(x - 1)


def test_cyclic_telescoping_identity():
    rng = random.Random(31)
    for _ in range(25):
        h = random_rational(rng, V)
        i = rng.randrange(3)
        for m in range(-5, 6):
            s = cyclic_apply(h, i, m)
            offset = [0, 0, 0]
            offset[i] = m
            assert delta(s, i) == apply_shift(h, tuple(offset)) - h


def test_is_wz_form_range_sum_triple():
    c = 3 * y + 2 * z
    f = sum((inv(b + l) for l in range(4)), RationalFunction.zero(V))
    g = sum((inv(b + l) for l in range(6)), RationalFunction.zero(V)) \
        + sum((inv(c + l) for l in range(3)), RationalFunction.zero(V))
    h = sum((inv(b + l) for l in range(5)), RationalFunction.zero(V)) \
        + sum((inv(c + l) for l in range(2)), RationalFunction.zero(V))
    assert is_wz_form([f, g, h])


def test_is_wz_form_rejects_asymmetric_pair():
    V2 = ("x", "y")
    f = RationalFunction(Polynomial.one(V2), Polynomial.variable("x", V2))
    assert not is_wz_form([f, f])


def test_exact_tuples_are_wz_forms():
    rng = random.Random(37)
    for _ in range(25):
        g = random_rational(rng, V)
        assert is_wz_form([delta(g, i) for i in range(3)])


def test_wzform_constructor_validates():
    with pytest.raises(NotAWZForm):
        WZForm(("x", "y"),
               (RationalFunction(Polynomial.one(("x", "y")),
                                 Polynomial.variable("x", ("x", "y"))),) * 2)


def test_wzform_prints_its_components_in_order():
    g = RationalFunction(x, y + 1)
    form = WZForm(V, [delta(g, i) for i in range(3)])
    assert str(form) == "(1/(y + 1), -x/(y^2 + 3*y + 2), 0)"


def test_wzform_sum_and_difference_skip_the_pairwise_check(monkeypatch):
    rng = random.Random(41)
    forms = [WZForm(V, [delta(g, i) for i in range(3)])
             for g in (random_rational(rng, V), random_rational(rng, V))]
    other = WZForm(("x", "y", "w"), [RationalFunction.zero(("x", "y", "w"))] * 3)

    def refuse(components):
        raise AssertionError("certification ran on a sum of forms")

    monkeypatch.setattr("wzforms.shifts._witness", refuse)
    a, b = forms
    assert (a + b).components == tuple(f + g for f, g in zip(a, b))
    assert (a - b).components == tuple(f - g for f, g in zip(a, b))
    with pytest.raises(InvalidInput):
        a + other
    with pytest.raises(InvalidInput):
        a - other
