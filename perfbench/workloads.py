"""The benchmark's four workloads: how their inputs are built from a seed,
what one item runs, and how its output is checked.

This module imports only the standard library at import time.  ``setup``
imports ``wzforms`` (and with it sympy) itself, so that set-up time can be
measured from before that import.

Each workload is a fixed list of items.  ``run`` executes one item and
returns the seconds spent in each of its stages plus its raw output;
``check`` decides afterwards, outside the timed phase, whether the output is
right.  Checks are exact.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path
from time import perf_counter

ZVARS = ("Z",)
ROUNDTRIP_SEEDS = range(200)
# The first half of the criterion-5 corpus, in 2 and 3 variables.  The
# pairwise check is slower than decompose: the whole corpus with its twins
# took about 80 s (seed 104 alone 33 s), more than one run can spend.
VERIFY_SEEDS = [s for s in range(100) if 2 + s % 3 <= 3]
# Four variables: random_additive_rep keeps at most two types and
# denominators of degree at most two above three variables.
WIDE_SEEDS = range(100)
WIDE_NVARS = 4
CONJUGATE_ITEMS = 130


def criterion5_rep(wz, seed, n=None):
    """The representation behind one seed of acceptance criterion 5, or one
    of the same shape in ``n`` variables."""
    return wz.random_additive_rep(seed, n=2 + seed % 3 if n is None else n,
                                  max_types=3, max_deg=3, coeff_bound=9)


class RoundtripWorkload:
    """``generate``, ``decompose``, ``generate`` on one representation; the
    item passes when both generated tuples are equal."""

    stages = ("generate", "decompose", "check")

    def __init__(self, wz, seeds, rng, make_rep):
        self.wz = wz
        order = list(seeds)
        rng.shuffle(order)
        self.items = [(f"seed {s}", make_rep(s)) for s in order]

    def run(self, rep):
        wz = self.wz
        t0 = perf_counter()
        first = wz.generate(rep)
        t1 = perf_counter()
        back = wz.decompose(first)
        t2 = perf_counter()
        same = wz.generate(back).components == first.components
        t3 = perf_counter()
        return (t1 - t0, t2 - t1, t3 - t2), same

    def check(self, rep, same):
        return same is True


class VerifyWorkload:
    """CLI ``verify`` in-process on component files written at set-up.

    Every tuple is generated from a criterion-5 representation and written
    in canonical ``str`` form; its twin adds ``c/(x_j + a)`` to one
    component f_k with j != k, which makes the pair (j, k) fail because the
    j-difference of the added term is nonzero.  Tuples must give exit 0 and
    ``WZ-form: yes``, twins exit 1 and ``WZ-form: no``.
    """

    stages = ("verify",)

    def __init__(self, wz, seeds, rng, workdir):
        self.wz = wz
        Polynomial, RationalFunction = wz.Polynomial, wz.RationalFunction
        self.items = []
        for s in seeds:
            form = wz.generate(criterion5_rep(wz, s))
            vars = form.vars
            comps = list(form.components)
            # the failing pair, and so the cost of the twin, is fixed per tuple
            pair = random.Random(f"twin-{s}")
            k = pair.randrange(len(vars))
            j = pair.choice([q for q in range(len(vars)) if q != k])
            c = rng.choice([q for q in range(-9, 10) if q])
            a = rng.randint(-5, 5)
            twin = list(comps)
            twin[k] = twin[k] + RationalFunction(
                Polynomial.constant(c, vars),
                Polynomial.variable(vars[j], vars) + a)
            for label, tuple_, expected in ((f"seed {s}", comps, True),
                                            (f"seed {s} twin", twin, False)):
                paths = []
                for idx, f in enumerate(tuple_):
                    path = Path(workdir) / f"{s}-{int(expected)}-{idx}.txt"
                    path.write_text(str(f) + "\n", encoding="utf-8")
                    paths.append(str(path))
                argv = ["verify", "--vars", ",".join(vars), *paths]
                self.items.append((label, (argv, expected)))
        rng.shuffle(self.items)

    def run(self, item):
        argv, _ = item
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        code = self.wz.cli.run_command(argv, out=out, err=err)
        return (perf_counter() - t0,), (code, out.getvalue())

    def check(self, item, result):
        _, expected = item
        return result == ((0, "WZ-form: yes\n") if expected
                          else (1, "WZ-form: no\n"))


class ConjugateWorkload:
    """``conjugate_polygamma`` plus ``str`` and ``.latex()`` on
    representations with uniform parts only, whose Z-denominators are
    products of irreducible polynomials of degree 2-4 with multiplicity 1-3.

    The check expands each polygamma term back into certificates without
    the library's root-sum or partial-fraction code: a rational shift
    through the psi recurrence, a root sum through
    sum_{q(p)=0} c(p)/(Z-p) = ((c*q') mod q)/q, differentiated for higher
    orders.  Component j of ``generate(rep)`` is delta_j(exact) plus the
    signed range sums S_j(r_v) of each part; S_j is linear, so the
    expansion reproduces it exactly when, for every type v, the terms' s(Z)
    add up to the proper part of r_v (a univariate identity, checked in
    sympy), and delta_j(rational part) == delta_j(exact) + S_j(P_v) summed
    over the polynomial parts P_v that the conjugate folds into it.
    """

    stages = ("conjugate", "print")

    def __init__(self, wz, count, rng):
        import sympy

        self.wz = wz
        self.sympy = sympy
        self.Z = sympy.Symbol("Z")
        # one fixed corpus, shuffled by the seed: the cost of a random
        # corpus of this size still varied by half from seed to seed
        corpus = random.Random("conjugate-corpus")
        self.items = [(f"item {k}", self._random_rep(corpus)) for k in range(count)]
        rng.shuffle(self.items)

    def _irreducible(self, rng, degree):
        sympy, Z = self.sympy, self.Z
        while True:
            coeffs = [rng.randint(-5, 5) for _ in range(degree)]
            coeffs.append(rng.choice([q for q in range(-3, 4) if q]))
            poly = sympy.Poly(list(reversed(coeffs)), Z, domain=sympy.ZZ)
            if poly.is_irreducible:
                return coeffs

    def _random_rep(self, rng):
        wz = self.wz
        n = rng.choice((2, 3))
        vars = ("x", "y", "z")[:n]
        parts, seen = [], set()
        wanted = rng.randint(1, 3)
        while len(parts) < wanted:
            v = [rng.randint(-2, 2) for _ in range(n)]
            if not any(v):
                continue
            g = gcd(*v)
            v = tuple(e // g for e in v)
            if next(e for e in v if e) < 0:
                v = tuple(-e for e in v)
            if v in seen:
                continue
            seen.add(v)
            den = wz.Polynomial.one(ZVARS)
            bases = set()
            for _ in range(rng.randint(1, 2)):
                coeffs = self._irreducible(rng, rng.randint(2, 4))
                base = wz.Polynomial(ZVARS, {(k,): c for k, c in enumerate(coeffs)})
                if base.primitive() in bases:
                    continue
                bases.add(base.primitive())
                den = den * base ** rng.randint(1, 3)
            degree = den.degree_in(0)
            num = wz.Polynomial(ZVARS, {(k,): rng.randint(-9, 9)
                                        for k in range(rng.randint(0, degree) + 1)})
            if num.is_zero:
                num = wz.Polynomial.one(ZVARS)
            parts.append((v, wz.RationalFunction(num, den)))
        return wz.AdditiveRepresentation(vars, wz.RationalFunction.zero(vars), parts)

    def run(self, rep):
        t0 = perf_counter()
        expr = self.wz.conjugate_polygamma(rep)
        t1 = perf_counter()
        text, latex = str(expr), expr.latex()
        return (t1 - t0, perf_counter() - t1), (expr, text, latex)

    def check(self, rep, result):
        wz = self.wz
        expr, text, latex = result
        if not (isinstance(text, str) and text and isinstance(latex, str) and latex):
            return False
        steps = {}
        for term in expr.terms:
            num, den = self._step(term)
            key = term.vtype.entries
            if key in steps:
                n0, d0 = steps[key]
                num, den = n0 * den + num * d0, d0 * den
            steps[key] = (num, den)
        folded = [wz.delta(rep.exact_part, j) for j in range(len(rep.vars))]
        for vtype, r in rep.parts:
            den = self._sympy_poly(r.den)
            quo, rem = self._sympy_poly(r.num).div(den)
            num_s, den_s = steps.pop(vtype.entries, (rem * 0, den))
            if num_s * den != rem * den_s:
                return False
            poly_part = wz.RationalFunction(self._poly(quo))
            for j in range(len(rep.vars)):
                folded[j] = folded[j] + wz.signed_range_sum(poly_part, vtype, j, rep.vars)
        return not steps and all(
            wz.delta(expr.rational_part, j) == folded[j] for j in range(len(rep.vars)))

    def _step(self, term):
        """Numerator and denominator of the univariate s(Z) whose signed
        range sums along the term's direction are the term's differences."""
        sympy, Z = self.sympy, self.Z
        c, t = sympy.Rational(term.coefficient), term.order
        if isinstance(term.shift, Fraction):
            # psi^(t)(z+1) - psi^(t)(z) = (-1)^t t! / z^(t+1)
            den = sympy.Poly(Z + sympy.Rational(term.shift), Z, domain=sympy.QQ) ** (t + 1)
            return den * 0 + c * (-1) ** t * factorial(t), den
        # sum over q(A)=0 of w(A) psi^(t)(Z + A): with p = -A a root of
        # q(-Z), the t-th derivative of ((w(-Z) q(-Z)') mod q(-Z)) / q(-Z)
        q = self._sympy_poly(term.shift.poly, flip=True)
        w = self._sympy_poly(term.shift.weight, flip=True)
        num, den = (w * q.diff(Z)).rem(q), q
        for _ in range(t):
            num, den = num.diff(Z) * den - num * den.diff(Z), den * den
        return num * c, den

    def _sympy_poly(self, p, flip=False):
        sympy, Z = self.sympy, self.Z
        sign = -1 if flip else 1
        return sympy.Poly(sum((sympy.Rational(v) * (sign * Z) ** e
                               for (e,), v in p.terms.items()), sympy.Integer(0)),
                          Z, domain=sympy.QQ)

    def _poly(self, poly):
        return self.wz.Polynomial(ZVARS, {
            (e,): Fraction(int(v.p), int(v.q)) for (e,), v in poly.terms()})


WORKLOADS = ("roundtrip", "verify", "wide", "conjugate")


def setup(name, seed, workdir):
    """Import the library and build one workload's inputs from ``seed``."""
    import wzforms
    import wzforms.cli  # noqa: F401  (verify and the tracer use wzforms.cli)

    rng = random.Random(f"{name}-{seed}")
    if name == "roundtrip":
        return RoundtripWorkload(wzforms, ROUNDTRIP_SEEDS, rng,
                                 lambda s: criterion5_rep(wzforms, s))
    if name == "verify":
        return VerifyWorkload(wzforms, VERIFY_SEEDS, rng, workdir)
    if name == "wide":
        return RoundtripWorkload(wzforms, WIDE_SEEDS, rng, lambda s: criterion5_rep(
            wzforms, s, WIDE_NVARS))
    if name == "conjugate":
        return ConjugateWorkload(wzforms, CONJUGATE_ITEMS, rng)
    raise ValueError(f"unknown workload {name!r}")
