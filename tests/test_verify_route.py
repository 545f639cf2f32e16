"""The verifier's route, a point witness for "no" and then ``decompose``,
pinned to the symbolic pairwise oracle on seeded tuples; the witness's
lines pinned to a full evaluation at every point."""

import io
import random

import pytest

from conftest import pairwise_compatible, random_rational
from wzforms import cli, shifts
from wzforms import (AdditiveRepresentation, IntegerLinearType, InvalidInput,
                     NotAWZForm, Polynomial, RationalFunction, WZForm,
                     decompose, delta, generate, is_wz_form, parse_expression,
                     random_additive_rep)
from wzforms.shifts import WITNESS_POINTS, _witness, witness_points

REJECTED = "^the tuple violates the compatibility conditions$"


def oracle_witness(components):
    """The witness by full evaluation: every component at x and at every
    x + e_s with ``eval_at``, before any pair is compared."""
    vars = components[0].vars
    n = len(components)
    for x in witness_points(n):
        # index s < n is the point x + e_s, index n is x itself
        points = [dict(zip(vars, x[:s] + (x[s] + 1,) + x[s + 1:])) for s in range(n)]
        points.append(dict(zip(vars, x)))
        values = []
        for f in components:
            row = []
            for p in points:
                d = f.den.eval_at(p)
                row.append(f.num.eval_at(p) / d if d else None)
            values.append(row)
        for i in range(n):
            for j in range(i + 1, n):
                fi, fj = values[i], values[j]
                if any(fi[s] is None or fj[s] is None for s in (i, j, n)):
                    continue
                di_fj = fj[i] - fj[n]
                dj_fi = fi[j] - fi[n]
                if di_fj != dj_fi:
                    return (i, j), x, (di_fj, dj_fi)
    return None


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
    assert witness == oracle_witness(components)
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
        # the witness path keeps its evidence as the cause too
        comps[2] = comps[2] + pole_term(vars, 0, 2, 3)
        (i, j), x, (di_fj, dj_fi) = _witness(comps)
        with pytest.raises(NotAWZForm, match=REJECTED) as info:
            WZForm(vars, comps)
        cause = info.value.__cause__
        assert isinstance(cause, NotAWZForm)
        assert str(cause) == (f"at {x}, delta_{i}(f_{j}) == {di_fj} "
                              f"but delta_{j}(f_{i}) == {dj_fi}")


def test_cli_output_on_a_witness_rejection(tmp_path):
    vars = ("x", "y", "z")
    comps = list(generate(random_additive_rep(0, n=3, max_types=2, max_deg=2,
                                              coeff_bound=5)).components)
    comps[2] = comps[2] + pole_term(vars, 0, 2, 3)
    assert _witness(comps) is not None
    paths = []
    for k, f in enumerate(comps):
        path = tmp_path / f"f{k}.txt"
        path.write_text(str(f) + "\n", encoding="utf-8")
        paths.append(str(path))

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        return cli.run_command(argv, out=out, err=err), out.getvalue(), err.getvalue()

    assert run(["verify", "--vars", "x,y,z", *paths]) == (1, "WZ-form: no\n", "")
    assert run(["decompose", "--vars", "x,y,z", "--out", str(tmp_path / "rep.json"),
                *paths]) == (2, "", "not a WZ-form: the tuple violates the "
                                    "compatibility conditions\n")


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
    assert [witness_points(n) for n in range(1, 5)] == [
        ((7,), (-11,), (13,)),
        ((7, -11), (13, -17), (19, -23)),
        ((7, -11, 13), (-17, 19, -23), (29, -31, 37)),
        ((7, -11, 13, -17), (19, -23, 29, -31), (37, -41, 43, -47))]


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


def pole_offsets(n, j):
    """Values of a that put the pole of ``c/(x_j + a)`` at some witness
    point x, and so at every x + e_s with s != j, or at x + e_j alone."""
    return [-x[j] - step for x in witness_points(n) for step in (0, 1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_witness_matches_the_full_evaluation_oracle(n):
    rng = random.Random(f"parity-{n}")
    found = set()
    for seed in range(4 if n <= 3 else 2):
        rep = random_additive_rep(seed, n=n, max_types=2, max_deg=2, coeff_bound=5)
        comps = list(generate(rep).components)
        vars = rep.vars
        corpus = [comps]
        for j in range(n):
            for a in pole_offsets(n, j) + [rng.randint(-5, 5)]:
                c = rng.choice([-3, -1, 2, 5])
                k = rng.choice([q for q in range(n) if q != j])
                # breaks the pair (j, k); its poles lie on f_k's lines
                twin = list(comps)
                twin[k] = twin[k] + pole_term(vars, j, c, a)
                corpus.append(twin)
                # a term in x_j alone keeps f_j compatible, and puts its
                # pole at f_j's own-axis point x + e_j, off its lines
                own = list(twin)
                own[j] = own[j] + pole_term(vars, j, -c, a)
                corpus.append(own)
        for _ in range(3):
            k = rng.randrange(n)
            noisy = list(comps)
            noisy[k] = noisy[k] + random_rational(rng, vars, max_terms=2, max_deg=2,
                                                  bound=4)
            corpus.append(noisy)
        for tuple_ in corpus:
            witness = _witness(tuple_)
            assert witness == oracle_witness(tuple_)
            found.add(None if witness is None else witness[1])
    # refutations at more than one point, and tuples that no point refutes
    assert None in found and len(found) >= 3


def test_a_differing_pair_with_a_pole_off_its_lines_is_skipped():
    vars = ("x", "y", "z")
    first, second, _ = witness_points(3)
    comps = list(generate(random_additive_rep(2, n=3, max_types=2, max_deg=2,
                                              coeff_bound=5)).components)
    # a term in x alone: f_0 stays compatible, with a pole at first + e_0
    # and nowhere else on the witness's points
    comps[0] = comps[0] + pole_term(vars, 0, 1, -first[0] - 1)
    assert check_route(comps) == (True, None)
    # a term in x added to f_1 breaks only the pair (0, 1)
    comps[1] = comps[1] + pole_term(vars, 0, 3, 2)
    step = [tuple(c + (s == k) for s, c in enumerate(first)) for k in (0, 1)]
    assert value_at(comps[0], step[0]) is None
    d0_f1 = value_at(comps[1], step[0]) - value_at(comps[1], first)
    d1_f0 = value_at(comps[0], step[1]) - value_at(comps[0], first)
    assert d0_f1 != d1_f0  # the pair's values differ at the first point
    expected, witness = check_route(comps)
    assert not expected and witness[:2] == ((0, 1), second)


def built_lines(monkeypatch, components):
    """Run the witness; returns its result and the lines it built, each as
    (component, "num" or "den", point)."""
    owners = {}
    for c, f in enumerate(components):
        owners[id(f.num._scaled_ints()[0])] = (c, "num")
        owners[id(f.den._scaled_ints()[0])] = (c, "den")
    assert len(owners) == 2 * len(components)  # every line has one owner
    built = []
    line = shifts._line

    def counted(ints, x, s):
        built.append(owners[id(ints)] + (x,))
        return line(ints, x, s)

    with monkeypatch.context() as patch:
        patch.setattr(shifts, "_line", counted)
        witness = _witness(components)
    return witness, built


def test_a_pair_broken_first_builds_lines_for_its_own_components(monkeypatch):
    for seed, n in ((2, 3), (4, 3), (3, 4), (7, 4)):
        rep = random_additive_rep(seed, n=n, max_types=2, max_deg=2, coeff_bound=5)
        comps = list(generate(rep).components)
        # a term in x_0 added to f_1 breaks the pair (0, 1)
        comps[1] = comps[1] + pole_term(rep.vars, 0, 3, 2)
        witness, built = built_lines(monkeypatch, comps)
        assert witness[:2] == ((0, 1), witness_points(n)[0])
        assert {c for c, _, _ in built} == {0, 1}


def test_a_compatible_tuple_builds_one_numerator_line_per_other_axis(monkeypatch):
    for seed, n in ((0, 2), (3, 3), (6, 3), (1, 4), (2, 5)):
        rep = random_additive_rep(seed, n=n, max_types=2, max_deg=2, coeff_bound=5)
        witness, built = built_lines(monkeypatch, list(generate(rep).components))
        assert witness is None
        for c in range(n):
            for x in witness_points(n):
                assert built.count((c, "num", x)) <= n - 1
                # the denominator off the compared lines is never read
                assert built.count((c, "den", x)) == built.count((c, "num", x))


def test_the_witness_makes_no_eval_at_call(monkeypatch):
    rng = random.Random(59)
    corpus = []
    for seed, n in ((0, 2), (4, 3), (1, 4)):
        rep = random_additive_rep(seed, n=n, max_types=2, max_deg=2, coeff_bound=5)
        comps = list(generate(rep).components)
        twin = list(comps)
        twin[n - 1] = twin[n - 1] + pole_term(rep.vars, 0, 2, rng.randint(-5, 5))
        corpus += [comps, twin]
    expected = [oracle_witness(t) for t in corpus]

    def refuse(self, point):
        raise AssertionError("the witness called eval_at")

    monkeypatch.setattr(Polynomial, "eval_at", refuse)
    assert [_witness(t) for t in corpus] == expected
    assert sum(w is not None for w in expected) == 3
