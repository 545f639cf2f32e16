import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wzforms import Polynomial, RationalFunction, delta, parse_expression  # noqa: E402


@pytest.fixture
def xyz():
    """Variables (x, y, z) plus a parse shortcut bound to them."""
    vars = ("x", "y", "z")
    return vars, (lambda text: parse_expression(text, vars))


def random_polynomial(rng, vars, max_terms=3, max_deg=2, bound=5, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * len(vars)
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(len(vars))] += 1
        terms[tuple(e)] = Fraction(rng.randint(-bound, bound))
    p = Polynomial(vars, terms)
    if nonzero and p.is_zero:
        return Polynomial.one(vars)
    return p


def random_rational(rng, vars, max_terms=3, max_deg=2, bound=5):
    num = random_polynomial(rng, vars, max_terms, max_deg, bound)
    den = random_polynomial(rng, vars, max_terms, max_deg, bound, nonzero=True)
    return RationalFunction(num, den)


def pairwise_compatible(components):
    """Test oracle: ``delta_i(f_j) == delta_j(f_i)`` for every pair, checked
    symbolically.  Independent of the library's witness-then-decompose
    route, and quadratic in the number of components."""
    components = list(components)
    n = len(components)
    return all(delta(components[j], i) == delta(components[i], j)
               for i in range(n) for j in range(i + 1, n))


def series_inverse(u, m):
    """Test oracle: first m coefficients of ``1/u`` for a power series u
    over a field whose elements invert with ``** -1``, term by term."""
    inv0 = u[0] ** -1
    out = [inv0]
    for k in range(1, m):
        acc = None
        for t in range(1, k + 1):
            if t < len(u) and u[t]:
                term = u[t] * out[k - t]
                acc = term if acc is None else acc + term
        out.append(-(inv0 * acc) if acc is not None else inv0 - inv0)
    return out


def reference_render(p, names, mul, power, scalar):
    """Test oracle: the term printer on the ``Fraction`` coefficients of
    ``sorted_terms``, whose magnitudes ``Fraction`` itself reduces;
    ``scalar`` gets every magnitude as a ``Fraction``."""
    pieces = []
    for e, c in p.sorted_terms():
        mono = mul.join(power(names[i], k) if k > 1 else names[i]
                        for i, k in enumerate(e) if k)
        mag = abs(c)
        if not mono:
            body = scalar(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{scalar(mag)}{mul}{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    if not pieces:
        return "0"
    (sign, body), rest = pieces[0], pieces[1:]
    head = body if sign == "+" else f"-{body}"
    return head + "".join(f" {s} {b}" for s, b in rest)


def reference_str(p, names=None):
    return reference_render(p, names or p.vars, "*", lambda name, k: f"{name}^{k}", str)


def reference_latex(p, names=None):
    return reference_render(
        p, names or p.vars, " ", lambda name, k: f"{name}^{{{k}}}",
        lambda q: str(q.numerator) if q.denominator == 1
        else rf"\tfrac{{{q.numerator}}}{{{q.denominator}}}")
