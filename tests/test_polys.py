import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy

import wzforms.polys as polys
from conftest import random_polynomial, reference_latex, reference_str
from wzforms import InvalidInput, Polynomial, RationalFunction, poly_gcd
from wzforms.factor import factor_polynomial
from wzforms.parser import latex_polynomial

V = ("x", "y", "z")
x = Polynomial.variable("x", V)
y = Polynomial.variable("y", V)
z = Polynomial.variable("z", V)


def test_zero_coefficients_dropped():
    p = Polynomial(V, {(1, 0, 0): 1, (0, 1, 0): 0})
    assert p == x
    assert (x - x).is_zero


@pytest.mark.parametrize("bad", [0.1, 2.0, "1/3", True, None, 1j])
def test_coefficients_and_points_take_only_ints_and_fractions(bad):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, and
    # Fraction("1/3") and Fraction(True) would pass unnoticed
    entry_points = (
        lambda: Polynomial.constant(bad, V),
        lambda: Polynomial(V, {(1, 0, 0): bad}),
        lambda: Polynomial.linear_form([1, bad, 0], V),
        lambda: Polynomial.linear_form([1, 2, 0], V, shift=bad),
        lambda: (x + y).eval_at({"x": 1, "y": bad}),
        lambda: x.shifted((bad, 0, 0)),
    )
    for build in entry_points:
        with pytest.raises(InvalidInput, match="ints or Fractions"):
            build()


@pytest.mark.parametrize("flag", [True, False])
def test_bools_are_refused_by_every_operator(flag):
    # a bool is an int to isinstance, so x*True gave x, rf*False gave 0
    # and Polynomial.one(V) == True held, while x + True raised
    one = Polynomial.one(V)
    for value in (x, one, RationalFunction(one, x + 1), RationalFunction(one)):
        operations = [lambda: value + flag, lambda: flag + value,
                      lambda: value - flag, lambda: flag - value,
                      lambda: value * flag, lambda: flag * value]
        if isinstance(value, RationalFunction):
            operations += [lambda: value / flag, lambda: flag / value]
        else:
            operations.append(lambda: value.divexact(flag))
        for operation in operations:
            with pytest.raises(InvalidInput, match="ints or Fractions"):
                operation()
        assert (value == flag) is False and (flag == value) is False
        assert value != flag
    assert one == 1 and RationalFunction(one) == 1 and x * 1 == x


def test_coefficients_and_points_keep_ints_and_fractions():
    half = Fraction(1, 2)
    assert Polynomial.constant(half, V) == Polynomial(V, {(0, 0, 0): half})
    assert Polynomial(V, {(1, 0, 0): 3, (0, 0, 0): half}) == 3 * x + half
    assert Polynomial.linear_form([1, half, 0], V, shift=-3) == x + half * y - 3
    assert (x * y).eval_at({"x": 4, "y": half}) == 2
    assert x.shifted((half, 0, 0)) == x + half


def test_structural_equality_is_functional_equality():
    assert x * (y + z) == x * y + x * z
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2


def test_polynomials_are_immutable():
    p = x + 1
    with pytest.raises(AttributeError) as info:
        p.vars = ("y",)
    assert str(info.value) == "Polynomial is immutable"
    assert p.vars == V and p == x + 1


def test_grlex_leading_term():
    p = x + y**2
    exps, c = p.leading()
    assert exps == (0, 2, 0) and c == 1
    assert (x * y - z**3).leading()[0] == (0, 0, 3)
    # same degree: earlier variable wins
    assert (y + x).leading()[0] == (1, 0, 0)


def test_string_form_is_sorted_and_signed():
    assert str(4 * x + 6 * y + 5 * z - 3) == "4*x + 6*y + 5*z - 3"
    assert str(-x + y) == "-x + y"
    assert str(x * Fraction(1, 2)) == "1/2*x"
    assert str(Polynomial.zero(V)) == "0"
    assert repr(x * Fraction(1, 2) - y**2) == \
        "Polynomial('-y^2 + 1/2*x', vars=('x', 'y', 'z'))"


def test_printers_match_a_fraction_printer():
    # the printers read the integer view, one gcd per term; the oracle
    # reads Fraction coefficients.  Over a common denominator above 1, a
    # term's reduced denominator may be 1 or not, and both must occur
    rng = random.Random(20)
    names = ("x", "y", "z", "w")
    seen = set()
    for k in range(240):
        vars = names[:1 + k % 4]
        terms = {}
        for _ in range(rng.choice((0, 1, 1, 2, 3, 5))):
            e = tuple(rng.randint(0, 3) for _ in vars) if rng.random() < 0.85 \
                else (0,) * len(vars)
            terms[e] = rng.choice((1, -1, Fraction(rng.randint(-30, 30), rng.randint(1, 12))))
        p = Polynomial(vars, terms)
        ints, den = p._scaled_ints()
        seen.update(("den 1" if den == 1 else "den > 1",
                     "zero" if p.is_zero else "constant" if p.is_constant else "terms"))
        if den > 1:
            seen.update("reduced 1" if c % den == 0 else "reduced > 1" for c in ints.values())
        seen.update("unit" for c in ints.values() if abs(c) == den)
        assert str(p) == reference_str(p), p
        assert latex_polynomial(p) == reference_latex(p), p
        if len(vars) == 1:
            assert latex_polynomial(p, r"\alpha") == reference_latex(p, (r"\alpha",))
            assert polys._text(p, ("A",)) == reference_str(p, ("A",))
    assert seen == {"den 1", "den > 1", "zero", "constant", "terms",
                    "reduced 1", "reduced > 1", "unit"}


def gcd_routes(monkeypatch):
    """Loop twice: first through the heuristic gcd, then with the heuristic
    giving up so that the sympy fallback answers.  The gcd cache is cleared
    before each pass and after the last."""
    for route in ("heuristic", "sympy"):
        polys._gcd_cached.cache_clear()
        if route == "sympy":
            monkeypatch.setattr(polys, "_heu_gcd", lambda p, q, n: None)
        yield route
    polys._gcd_cached.cache_clear()


def test_gcd_difference_of_squares(monkeypatch):
    for _ in gcd_routes(monkeypatch):
        assert poly_gcd(x**2 - y**2, x - y) == x - y


def test_gcd_coprime(monkeypatch):
    for _ in gcd_routes(monkeypatch):
        assert poly_gcd(x + 1, x + 2) == Polynomial.one(V)


def test_gcd_shared_linear_form_verified_by_division(monkeypatch):
    b = 4 * x + 6 * y + 5 * z
    for _ in gcd_routes(monkeypatch):
        g = poly_gcd(b**2 * x, b * y)
        assert g == b
        assert (b**2 * x).divexact(g) is not None
        assert (b * y).divexact(g) is not None


def test_gcd_factor_free_of_one_variable(monkeypatch):
    for _ in gcd_routes(monkeypatch):
        assert poly_gcd((y**2 + 1) * x, (y**2 + 1) * (x + 1)) == y**2 + 1
        assert poly_gcd((x**2 + 1) * y, (x**2 + 1) * (y + 1)) == x**2 + 1


def test_gcd_rejects_two_zeros(monkeypatch):
    for _ in gcd_routes(monkeypatch):
        with pytest.raises(InvalidInput):
            poly_gcd(Polynomial.zero(V), Polynomial.zero(V))


def test_gcd_with_zero_is_the_primitive_other_argument():
    p = 6 * x * y - 4 * z
    zero = Polynomial.zero(V)
    assert poly_gcd(p, zero) == poly_gcd(zero, p) == 3 * x * y - 2 * z
    assert poly_gcd(-p, zero) == 3 * x * y - 2 * z


def test_gcd_of_random_products_divides_and_contains_common_factor(monkeypatch):
    rng = random.Random(101)
    cases = [tuple(random_polynomial(rng, V, nonzero=True) for _ in range(3))
             for _ in range(150)]
    answers = {}
    for route in gcd_routes(monkeypatch):
        answers[route] = [poly_gcd(g * a, g * b) for g, a, b in cases]
        for (g, a, b), got in zip(cases, answers[route]):
            assert (g * a).divexact(got) is not None
            assert (g * b).divexact(got) is not None
            assert got.divexact(g.primitive()) is not None
    assert answers["sympy"] == answers["heuristic"]


def test_heuristic_gcd_trial_divides_only_non_unit_candidates(monkeypatch):
    # a candidate that is constant after its content is stripped is +-1 and
    # divides everything; only a non-constant one needs the trial divisions
    divisors = []
    original = polys._int_divexact

    def counting(p, q, n):
        divisors.append(q)
        return original(p, q, n)

    monkeypatch.setattr(polys, "_int_divexact", counting)
    rng = random.Random(17)

    def linear():
        while True:
            coeffs = [rng.randint(-4, 4) for _ in range(3)]
            if any(coeffs):
                return Polynomial.linear_form(coeffs, V, rng.randint(-5, 5))

    unit_divisions = 0
    for _ in range(40):
        forms = []
        while len(forms) < 5:
            f = linear()
            if all(f.primitive() != g.primitive() for g in forms):
                forms.append(f)
        a, b, c, d, e = forms
        polys._gcd_cached.cache_clear()
        divisors.clear()
        assert poly_gcd(a * b, c * d * e) == Polynomial.one(V)
        # the constant monomial's packed key is 0
        unit_divisions += sum(len(q) == 1 and 0 in q for q in divisors)
        divisors.clear()
        got = poly_gcd(a * b, a * c)
        assert got == a.primitive()
        assert any(len(q) > 1 for q in divisors)
    polys._gcd_cached.cache_clear()
    assert unit_divisions == 0


def test_divexact_detects_failure():
    assert (x**2 - y**2).divexact(x + 1) is None
    assert (x**2 + 1).divexact(x) is None


def test_divexact_fractional_quotient():
    q = ((x + 1) ** 2).divexact(2 * x + 2)
    assert q == (x + 1) * Fraction(1, 2)


def test_content_and_primitive():
    p = 2 * x + 2 * y
    assert p.content() == 2
    assert p.primitive() == x + y
    assert (-x + y).content() == -1
    assert (-x + y).primitive() == x - y
    half = (x + y) * Fraction(1, 2)
    assert half.content() == Fraction(1, 2)
    assert half.primitive() == x + y


def test_content_and_primitive_match_the_fraction_formula():
    """Content and primitive part, read off the integer view, against
    gcd(numerators) / lcm(denominators) signed by the leading coefficient."""
    rng = random.Random(29)
    for _ in range(200):
        shape = random_polynomial(rng, V, max_terms=5, max_deg=3)
        p = Polynomial(V, {e: Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 9, 35)))
                           for e in shape.terms})
        if p.is_zero:
            assert p.content() == 0 and p.primitive() is p
            continue
        num, den = 0, 1
        for c in p.terms.values():
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
        expected = Fraction(num, den) if p.leading()[1] > 0 else Fraction(-num, den)
        assert p.content() == expected
        prim = p.primitive()
        assert prim.terms == {e: c / expected for e, c in p.terms.items()}
        assert all(isinstance(c, Fraction) for c in prim.terms.values())


def test_operands_keep_their_terms_and_integer_view(monkeypatch):
    """The integer view is built once, kept, and never changed by the
    operations that read it."""
    a = (x + Fraction(2, 3) * y - 1) * (x - z) * Fraction(3, 4)
    b = 6 * (x - z) * (y + 2)
    c = x**2 - 2 * z
    ops = (
        lambda: a * b, lambda: b * a, lambda: a * a,
        lambda: a.divexact(b), lambda: b.divexact(a), lambda: (a * b).divexact(b),
        lambda: a.compose({"x": b, "y": c, "z": a}),
        lambda: c.compose({"x": a, "y": b, "z": x}),
        lambda: a.shifted((1, -2, 3)), lambda: b.shift_var(1, Fraction(1, 2)),
        lambda: a.eval_at({"x": 2, "y": Fraction(1, 3), "z": -1}),
        lambda: b.eval_at({"x": 5, "y": 7, "z": 11}),
        lambda: factor_polynomial(a),
        lambda: factor_polynomial(b),
        lambda: (a.content(), a.primitive(), b.content(), b.primitive()),
    )
    for p in (a, b, c):
        assert p._scaled_ints() is p._scaled_ints()
    before = {id(p): (dict(p.terms), dict(p._scaled_ints()[0]), p._scaled_ints()[1])
              for p in (a, b, c)}
    for _ in gcd_routes(monkeypatch):
        for op in ops + (lambda: poly_gcd(a, b), lambda: poly_gcd(b, c)):
            op()
        for p in (a, b, c):
            ints, den = p._scaled_ints()
            assert (p.terms, ints, den) == before[id(p)]


def test_shifts_expand_binomially():
    b = 4 * x + 6 * y + 5 * z
    assert b.shift_var(0, 1) == b + 4
    assert (x**2).shift_var(0, 1) == x**2 + 2 * x + 1
    assert b.shifted((1, -1, 0)) == b - 2
    with pytest.raises(InvalidInput, match="Fractions"):
        b.shifted((0.5, 0, 0))


def test_compose_into_new_variables():
    Z = Polynomial.variable("Z", ("Z",))
    images = {"x": Z * Fraction(1, 4),
              "y": Polynomial.zero(("Z",)),
              "z": Polynomial.zero(("Z",))}
    assert (4 * x + 6 * y + 5 * z).compose(images) == Z


def _sym(p):
    """p as a sympy expression in symbols named after its variables."""
    gens = sympy.symbols(p.vars)
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(g**k for g, k in zip(gens, e)))
                for e, c in p.terms.items()), sympy.Integer(0))


def _from_sym(expr, vars):
    poly = sympy.Poly(expr, *sympy.symbols(vars), domain=sympy.QQ)
    return Polynomial(vars, {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()})


def test_substitution_matches_sympy():
    """compose, shifted and shift_var against sympy's expand(subs(...))."""
    rng = random.Random(71)
    W = ("Z",)
    U = ("u", "v")
    gens = sympy.symbols(V)

    def rational():
        return Fraction(rng.randint(-7, 7), rng.randint(1, 4))

    def poly(vars, **kw):
        return random_polynomial(rng, vars, **kw) * Fraction(rng.randint(1, 5), rng.randint(1, 5))

    def subs(p, images):
        return sympy.expand(_sym(p).subs(images, simultaneous=True))

    for _ in range(40):
        p = poly(V, max_terms=5, max_deg=4)
        offsets = tuple(rational() if rng.random() < 0.7 else 0 for _ in V)
        expected = subs(p, {g: g + sympy.Rational(m.numerator, m.denominator) if m else g
                            for g, m in zip(gens, map(Fraction, offsets))})
        assert p.shifted(offsets) == _from_sym(expected, V)
        i, m = rng.randrange(3), rational()
        expected = subs(p, {gens[i]: gens[i] + sympy.Rational(m.numerator, m.denominator)})
        assert p.shift_var(i, m) == _from_sym(expected, V)
        # Z -> v.x + c into new variables
        P = poly(W, max_terms=4, max_deg=5)
        form = Polynomial.linear_form([rng.randint(-4, 4) for _ in V], V, rational())
        assert P.compose({"Z": form}) == _from_sym(subs(P, {sympy.Symbol("Z"): _sym(form)}), V)
        # non-linear images, into the same variables and into others
        for target in (V, U):
            images = {name: poly(target, max_terms=3, max_deg=2) for name in V}
            expected = subs(p, {g: _sym(images[name]) for g, name in zip(gens, V)})
            assert p.compose(images, target) == _from_sym(expected, target)
        # a variable that does not occur needs no image
        q = poly(V, max_terms=4, max_deg=3).compose(
            {"x": x, "y": y, "z": Polynomial.zero(V)})
        images = {"x": poly(U), "y": poly(U)}
        expected = subs(q, {gens[0]: _sym(images["x"]), gens[1]: _sym(images["y"])})
        assert q.compose(images, U) == _from_sym(expected, U)

    zero = Polynomial.zero(V)
    assert zero.shifted((1, Fraction(1, 2), 0)).is_zero
    assert zero.shift_var(1, 3).is_zero
    assert zero.compose({}, U) == Polynomial.zero(U)
    with pytest.raises(InvalidInput, match="no image"):
        (x * y).compose({"x": Polynomial.variable("u", U)}, U)
    with pytest.raises(InvalidInput, match="length"):
        x.shifted((1, 2))


def test_coeffs_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        p = random_polynomial(rng, V, max_terms=4, max_deg=3)
        for i in range(3):
            back = Polynomial.from_coeffs_in(p.coeffs_in(i), i, V)
            assert back == p


@pytest.mark.parametrize("n, i", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_coeffs_in_is_a_dense_list_with_zeros_in_the_gaps(n, i):
    vs = V[:n]
    zero = Polynomial.zero(vs)
    assert zero.coeffs_in(i) == []
    assert Polynomial.from_coeffs_in([], i, vs) == zero
    xi = Polynomial.variable(vs[i], vs)
    rest = Polynomial.one(vs) + sum((Polynomial.variable(v, vs) for v in vs if v != vs[i]),
                                    zero)
    # x_i**3*rest + 2 has gaps at x_i and x_i**2
    assert (xi**3 * rest + 2).coeffs_in(i) == [2 * Polynomial.one(vs), zero, zero, rest]
    rng = random.Random(6)
    for _ in range(30):
        p = random_polynomial(rng, vs, max_terms=4, max_deg=4)
        cs = p.coeffs_in(i)
        assert len(cs) == p.degree_in(i) + 1
        assert all(c.degree_in(i) <= 0 for c in cs)
        assert [c.is_zero for c in cs] == [all(e[i] != k for e in p.terms)
                                           for k in range(len(cs))]
        # trailing zeros add nothing
        assert Polynomial.from_coeffs_in(cs + [zero, zero], i, vs) == p


def test_from_coeffs_in_sums_coefficients_that_involve_the_variable():
    # sum of c_e * x**e, also when c_e itself involves x and terms cancel
    coeffs = [x * y + 1, -y, Fraction(1, 2) * y]
    assert Polynomial.from_coeffs_in(coeffs, 0, V) == Fraction(1, 2) * x**2 * y + 1
    assert Polynomial.from_coeffs_in([x, -Polynomial.one(V)], 0, V).is_zero


@pytest.mark.parametrize("n, i", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_dense_reads_one_variable_and_refuses_another(n, i):
    unit = polys._unit_key(n, i)
    assert polys._dense({3 * unit: 5, 0: -1}, n, i) == [-1, 0, 0, 5]
    for j in range(n):
        if j != i:
            # a higher power of x_i does not hide x_j, in any slot
            assert polys._dense({3 * unit: 5, polys._unit_key(n, j): 1}, n, i) is None
            assert polys._dense({unit + polys._unit_key(n, j): 1}, n, i) is None


def test_dense_passes_fractions_through_at_length_degree_plus_one():
    half = Fraction(1, 2)
    got = polys._dense({4 * polys._unit_key(2, 1): half, polys._unit_key(2, 1): 3}, 2, 1)
    assert got == [0, 3, 0, 0, half] and got[4] is half
    assert polys._dense({}, 1, 0) == []


def test_from_dense_round_trips_and_shares_keys_below_degree_16():
    rng = random.Random(33)
    for length in (1, 2, 5, 16, 17, 24):
        cs = [rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 7)))
              for _ in range(length - 1)] + [rng.randint(1, 9)]
        assert polys._dense(polys._from_dense(cs), 1, 0) == cs
    # the polynomials that conjugate_polygamma keeps hold these keys, so
    # two of them share their key objects instead of each holding copies
    first = sorted(polys._from_dense(list(range(1, 17))))
    second = sorted(polys._from_dense([-1] * 16))
    assert all(a is b for a, b in zip(first, second, strict=True))


def test_dense_primitive_signs_by_the_highest_nonzero_entry():
    assert polys._dense_primitive([6, -4, 0, 0]) == (-2, [-3, 2, 0, 0])
    assert polys._dense_primitive([0, -6, 9, 0]) == (3, [0, -2, 3, 0])
    assert polys._dense_primitive([-5]) == (-5, [1])


def test_variable_mismatch_rejected():
    w = Polynomial.variable("x", ("x", "y"))
    with pytest.raises(InvalidInput):
        _ = w + x


def test_eval_at_matches_shift_and_fraction_powers():
    rng = random.Random(53)
    for _ in range(60):
        p = random_polynomial(rng, V, max_terms=5, max_deg=4, bound=9) * \
            Fraction(rng.randint(1, 6), rng.randint(1, 6))
        point = tuple(rng.randint(-20, 20) for _ in V)
        # at an integer point: the constant term after shifting there
        assert p.eval_at(dict(zip(V, point))) == p.shifted(point).coeff((0, 0, 0))
        rational = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in V}
        expected = sum((c * rational["x"] ** e[0] * rational["y"] ** e[1]
                        * rational["z"] ** e[2] for e, c in p.terms.items()), Fraction(0))
        assert p.eval_at(rational) == expected
    # only the variables that occur are looked up
    assert (3 * y**2 - 1).eval_at({"y": 2}) == 11
    assert Polynomial.zero(V).eval_at({}) == 0
    assert isinstance(x.eval_at({"x": 4}), Fraction)


# ---------------------------------------------------------------------- #
# The kernel against its tuple-keyed form.  These are the product, exact
# division, substitution and heuristic gcd as they were written on exponent
# tuples, kept as the oracle for the kernel on packed keys.


def _tuple_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(int.__add__, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _grlex(e):
    return (sum(e), e)


def _tuple_divexact(p, q):
    if not p:
        return {}
    lead_e = max(q, key=_grlex)
    lead_c = q[lead_e]
    rem = dict(p)
    quo = {}
    while rem:
        e = max(rem, key=_grlex)
        c = rem[e]
        t = tuple(a - b for a, b in zip(e, lead_e))
        if any(x < 0 for x in t) or c % lead_c:
            return None
        qc = c // lead_c
        quo[t] = qc
        for e2, c2 in q.items():
            full = tuple(a + b for a, b in zip(t, e2))
            s = rem.get(full, 0) - qc * c2
            if s:
                rem[full] = s
            else:
                rem.pop(full, None)
    return quo


def _tuple_substitute(terms, images, n):
    """sum(c * prod(images[i] ** e[i])); a None image keeps x_i."""
    out = {}
    for e, c in terms.items():
        acc = {tuple(k if images[i] is None else 0 for i, k in enumerate(e))
               if len(images) == n else (0,) * n: c}
        for i, k in enumerate(e):
            if images[i] is not None:
                for _ in range(k):
                    acc = _tuple_mul(acc, images[i])
        for e2, c2 in acc.items():
            s = out.get(e2, 0) + c2
            if s:
                out[e2] = s
            else:
                out.pop(e2, None)
    return out


def _tuple_eval_at(terms, i, xi):
    out = {}
    for e, c in terms.items():
        rest = e[:i] + (0,) + e[i + 1:]
        s = out.get(rest, 0) + c * xi ** e[i]
        if s:
            out[rest] = s
        else:
            out.pop(rest, None)
    return out


def _tuple_content(terms):
    g = 0
    for c in terms.values():
        g = gcd(g, c)
    return g


def _tuple_heu_gcd(p, q):
    cp, cq = _tuple_content(p), _tuple_content(q)
    cg = gcd(cp, cq)
    pp = {e: c // cp for e, c in p.items()}
    qq = {e: c // cq for e, c in q.items()}
    n = len(next(iter(p)))
    pv = {i for e in pp for i, k in enumerate(e) if k}
    qv = {i for e in qq for i, k in enumerate(e) if k}
    if not pv or not qv:
        return {(0,) * n: cg}
    i = max(pv | qv)
    norm = min(max(abs(c) for c in pp.values()), max(abs(c) for c in qq.values()))
    xi = 2 * norm + 29
    for _ in range(6):
        pe, qe = _tuple_eval_at(pp, i, xi), _tuple_eval_at(qq, i, xi)
        if pe and qe:
            ge = _tuple_heu_gcd(pe, qe)
            if ge is None:
                return None
            cand, level = {}, 0
            while ge:
                nxt = {}
                for e, c in ge.items():
                    r = c % xi
                    if 2 * r > xi:
                        r -= xi
                    if r:
                        cand[e[:i] + (level,) + e[i + 1:]] = r
                    c = (c - r) // xi
                    if c:
                        nxt[e] = c
                ge = nxt
                level += 1
            g = _tuple_content(cand) if cand else 0
            cand = {e: c // g for e, c in cand.items()} if g > 1 else cand
            if cand and (len(cand) == 1 and not any(next(iter(cand)))
                         or _tuple_divexact(pp, cand) is not None
                         and _tuple_divexact(qq, cand) is not None):
                return {e: c * cg for e, c in cand.items()}
        xi = xi * 73794 // 27011
    return None


def _int_map(rng, n, top=9, max_terms=5, bound=20):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, top) if rng.random() < 0.6 else 0 for _ in range(n))
        terms[e] = rng.choice([c for c in range(-bound, bound + 1) if c])
    return terms


def _poly(vars, terms):
    return Polynomial(vars, {e: Fraction(c) for e, c in terms.items()})


def _as_ints(p):
    return {e: int(c) for e, c in p.terms.items()}


LIMIT = 2**31


def test_kernel_matches_tuple_oracle():
    """Products, exact divisions, substitutions and gcds in 1-6 variables
    agree with the tuple-keyed oracle on 360 seeded integer term maps."""
    rng = random.Random(2031)
    gcds = 0
    for case in range(360):
        n = 1 + case % 6
        vars = tuple(f"v{i}" for i in range(n))
        a, b = _int_map(rng, n), _int_map(rng, n)
        # a primitive divisor leaves an integer quotient when there is one
        b = {e: c // _tuple_content(b) for e, c in b.items()}
        pa, pb = _poly(vars, a), _poly(vars, b)
        ab = _tuple_mul(a, b)
        assert _as_ints(pa * pb) == ab
        # exact division of a product, and of a product plus a stray term
        assert _as_ints((pa * pb).divexact(pb)) == _tuple_divexact(ab, b) == a
        stray = dict(ab)
        e = tuple(rng.randint(0, 9) for _ in range(n))
        stray[e] = stray.get(e, 0) + 1 or 1
        got = _poly(vars, stray).divexact(pb)
        expected = _tuple_divexact(stray, b)
        assert (got is None) == (expected is None)
        if got is not None:
            assert _as_ints(got) == expected
        # a shift in at most two variables, and a substitution by small
        # images into the same variables
        moved = rng.sample(range(n), min(n, 2))
        offsets = tuple(rng.randint(-3, 3) if i in moved else 0 for i in range(n))
        shift_images = [{tuple(int(j == i) for j in range(n)): 1, (0,) * n: m} if m
                        else None for i, m in enumerate(offsets)]
        assert _as_ints(pa.shifted(offsets)) == _tuple_substitute(a, shift_images, n)
        if case % 3 == 0:
            small = _int_map(rng, n, top=3, max_terms=3)
            images = [_int_map(rng, n, top=1, max_terms=2, bound=3) for _ in range(n)]
            got = _poly(vars, small).compose(
                {name: _poly(vars, img) for name, img in zip(vars, images)})
            assert _as_ints(got) == _tuple_substitute(small, images, n)
        # gcds of products with a common factor, when the oracle answers
        g = _int_map(rng, n, top=3, max_terms=3, bound=5)
        x1, x2 = _tuple_mul(g, _int_map(rng, n, top=3)), _tuple_mul(g, b)
        if x1 and x2 and any(map(any, x1)) and any(map(any, x2)):
            expected = _tuple_heu_gcd(x1, x2)
            if expected is not None:
                polys._gcd_cached.cache_clear()
                assert poly_gcd(_poly(vars, x1), _poly(vars, x2)) == \
                    _poly(vars, expected).primitive()
                gcds += 1
    polys._gcd_cached.cache_clear()
    assert gcds >= 200


def test_kernel_near_the_exponent_ceiling():
    """Exponents near 2**31 - 1 multiply, divide and keep their variables
    through a shift exactly as the tuple-keyed oracle says."""
    rng = random.Random(2147)
    for case in range(60):
        n = 1 + case % 4
        vars = tuple(f"v{i}" for i in range(n))
        high = tuple(LIMIT - 1 - rng.randint(0, 20) if rng.random() < 0.5 else 0
                     for _ in range(n))
        room = tuple(LIMIT - 1 - h for h in high)
        a = {tuple(h + rng.randint(0, min(r, 9) // 2) for h, r in zip(high, room)):
             rng.randint(1, 9) for _ in range(3)}
        b = {tuple(rng.randint(0, min(r, 9) // 2) for r in room): rng.choice((-2, 1, 3))
             for _ in range(3)}
        pa, pb = _poly(vars, a), _poly(vars, b)
        ab = _tuple_mul(a, b)
        assert _as_ints(pa * pb) == ab
        assert _as_ints((pa * pb).divexact(pb)) == a
        # shift only the variables whose exponents are small
        offsets = tuple(0 if h else rng.randint(1, 3) for h in high)
        images = [{tuple(int(j == i) for j in range(n)): 1, (0,) * n: m} if m else None
                  for i, m in enumerate(offsets)]
        assert _as_ints(pa.shifted(offsets)) == _tuple_substitute(a, images, n)
        assert pa.total_degree() == max(map(sum, a))
        assert pa.leading()[0] == max(a, key=_grlex)


def test_division_fails_on_a_negative_quotient_exponent():
    """The leading coefficient divides and the degrees allow it, but one
    exponent of the quotient's monomial would be negative."""
    assert (x * y**2).divexact(x**2 * y) is None
    rng = random.Random(5)
    for case in range(100):
        n = 2 + case % 5
        vars = tuple(f"v{i}" for i in range(n))
        e = [rng.randint(1, 9) for _ in range(n)]
        j, k = rng.sample(range(n), 2)
        moved = list(e)
        moved[j] += 1
        moved[k] -= 1
        c = rng.randint(1, 9)
        p = {tuple(e): 2 * c}
        q = {tuple(moved): c}
        if rng.random() < 0.5:  # a cofactor keeps both leading terms
            co = {(0,) * n: 1, tuple(int(i == k) for i in range(n)): -3}
            p = _tuple_mul(p, co)
        assert _tuple_divexact(p, q) is None
        assert _poly(vars, p).divexact(_poly(vars, q)) is None


def test_division_refused_where_the_remainder_would_pass_the_ceiling():
    """(x^2 + 1)*y^(2**31 - 2) / (x^2 + y^2): the first quotient term
    y^(2**31 - 2) times y^2 needs the exponent 2**31, so the division fails
    there, as the tuple-keyed oracle's does one step later."""
    p = {(2, LIMIT - 2): 1, (0, LIMIT - 2): 1}
    q = {(2, 0): 1, (0, 2): 1}
    assert _tuple_divexact(p, q) is None
    assert _poly(("x", "y"), p).divexact(_poly(("x", "y"), q)) is None


@pytest.mark.parametrize("root", [3, 1])
def test_division_that_cannot_be_exact_stops_before_the_loop(root):
    """x^(2**31 - 2) / (x - root): the trailing coefficient -3 does not
    divide 1, and for x - 1 the quotient's trailing monomial x^(2**31 - 2)
    lies above its leading one.  One step per quotient term would take
    2**31 - 2 steps."""
    big = {polys._pack((LIMIT - 2,)): 1}
    start = time.perf_counter()
    assert polys._int_divexact(big, {polys._pack((1,)): 1, 0: -root}, 1) is None
    assert time.perf_counter() - start < 1.0


def test_exponent_ceiling():
    top = Polynomial(V, {(LIMIT - 1, 0, 0): 1})
    assert str(top) == f"x^{LIMIT - 1}"
    assert str(top * y) == f"x^{LIMIT - 1}*y"
    assert (top * y).divexact(y) == top
    with pytest.raises(InvalidInput, match="2\\*\\*31"):
        Polynomial(("x",), {(LIMIT,): 1})
    half = Polynomial(V, {(LIMIT // 2, 0, 0): 1})
    with pytest.raises(InvalidInput, match="2\\*\\*31"):
        half * half
    with pytest.raises(InvalidInput, match="2\\*\\*31"):
        half ** 2
    with pytest.raises(InvalidInput, match="2\\*\\*31"):
        (x**2 + 1).compose({"x": half + y, "y": y, "z": z})
    with pytest.raises(InvalidInput, match="2\\*\\*31"):
        Polynomial.from_coeffs_in([Polynomial.zero(V), top], 0, V)
