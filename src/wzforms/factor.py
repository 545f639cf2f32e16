"""Irreducible factorization over the rationals, integer-linear factors first.

The denominators of rational WZ-forms are mostly products of integer-linear
polynomials P(v.x): a univariate P at a primitive integer linear form v.x
(the additive analogue of the Ore-Sato theorem).  Such factors are split
off with univariate algebra, and only what is left goes to sympy's
multivariate factoring (Wang's algorithm with Hensel lifting):

1. Directions.  A factor P(v.x) of degree d contributes c*(v.x)^d to the
   top homogeneous part T of the input, so v is a linear factor of T.  T is
   dehomogenized in its variable x_j of largest degree and factored; each
   linear factor a_0 + sum a_k x_k gives a candidate v with a_0 in slot j,
   and x_j itself, the one linear factor that dehomogenizing loses, is a
   candidate when it divides T.
2. Blocks.  A linear change of variables over Q puts y = v.x in one slot.
   The content of the input over Q[y], the gcd of its coefficients in the
   other variables, is exactly the product of the factors that depend on
   v.x alone.  An irreducible univariate factor P of it gives an
   irreducible P(v.x), because the change of variables is an automorphism
   of Q[x].  P(v.x) is primitive over Z when P is, because v is primitive,
   so each is divided out exactly over the integers.
3. Residual.  What is left, for example x^2 + y^2 + 1 from an exact part,
   has no integer-linear factor and goes to sympy's ``factor_list``.

Every step is exact, so no factor is missed.  All factors are re-normalized
to this package's canonical form (integer-primitive, positive graded-lex
leading coefficient, deterministic order) and verified by recombination.
The conversion to sympy also carries the gcd fallback of
:mod:`wzforms.polys`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import sympy

from .errors import InvalidInput
from .polys import (_MASK, Polynomial, _int_divexact, _pack, _shift, _substitute,
                    _unit_key, _unpacked)

_symbol_cache: dict[str, sympy.Symbol] = {}
_YVARS = ("y",)


def _symbols(names):
    out = []
    for name in names:
        s = _symbol_cache.get(name)
        if s is None:
            s = sympy.Symbol(name)
            _symbol_cache[name] = s
        out.append(s)
    return out


def _to_sympy(terms, vars):
    """sympy Poly over ZZ with the given integer term map on packed keys."""
    n = len(vars)
    return sympy.Poly.from_dict(dict(_unpacked(terms.items(), n)),
                                *_symbols(vars), domain=sympy.ZZ)


def _from_sympy(spoly, vars):
    """Polynomial with the terms of a sympy Poly over ZZ."""
    return Polynomial(vars, {tuple(int(e) for e in exps): Fraction(int(c))
                             for exps, c in spoly.terms()})


# ---------------------------------------------------------------------- #
# integer term maps under linear changes of variables


def _change_of_variables(v):
    """``(k, images)``: the kernel's images (None keeps a variable) that
    turn ``v . x`` into y in slot k, by x_k = (y - sum of v_l x_l over
    l != k) / v_k at the first entry of least nonzero magnitude."""
    n = len(v)
    k = min((i for i, a in enumerate(v) if a), key=lambda i: abs(v[i]))
    image = {}
    for l, a in enumerate(v):
        if a:
            c = Fraction(1 if l == k else -a, v[k])
            image[_unit_key(n, l)] = c.numerator if c.denominator == 1 else c
    return k, [image if i == k and image != {_unit_key(n, k): 1} else None for i in range(n)]


# ---------------------------------------------------------------------- #
# the three steps


def _directions(terms, vars):
    """The directions v of the linear factors of the top homogeneous part,
    each primitive with its first nonzero entry positive."""
    n = len(vars)
    d = max(terms) >> 32 * n
    top = dict(_unpacked(((k, c) for k, c in terms.items() if k >> 32 * n == d), n))
    j = max(range(n), key=lambda i: max(e[i] for e in top))
    found = [tuple(int(i == j) for i in range(n))] if all(e[j] for e in top) else []
    if n == 1:
        return found
    # T is homogeneous, so dropping x_j's exponent loses no term
    others = [i for i in range(n) if i != j]
    dehom = _to_sympy({_pack(e[:j] + e[j + 1:]): c for e, c in top.items()},
                      [vars[i] for i in others])
    for fac, _ in dehom.factor_list()[1]:
        if fac.total_degree() == 1:
            v = [0] * n
            for exps, c in fac.terms():
                v[others[exps.index(1)] if any(exps) else j] = int(c)
            sign = 1 if next(a for a in v if a) > 0 else -1
            found.append(tuple(sign * a for a in v))
    return found


def _block(terms, v):
    """The content of the term map over Q[v . x] as a primitive sympy Poly
    in y, or None when it is constant."""
    n = len(v)
    slot, images = _change_of_variables(v)
    sh, w, y = _shift(n, slot), _unit_key(n, slot), _unit_key(1, 0)
    # x_k's image divides by v_k: v_k ** deg clears every denominator but
    # may leave an integer content, which the gcd keeps and primitive drops
    scale = abs(v[slot]) ** max(k >> sh & _MASK for k in terms)
    coeffs = {}
    for k, c in _substitute(terms, images, n).items():
        e = k >> sh & _MASK
        coeffs.setdefault(k - e * w, {})[e * y] = int(c * scale)
    block = None
    for cs in sorted(coeffs.values(), key=len):
        u = _to_sympy(cs, _YVARS)
        block = u if block is None else block.gcd(u)
        if block.degree() < 1:
            return None
    return block.primitive()[1]


def _along(u, v):
    """The integer term map of u(v . x) for a univariate sympy Poly u."""
    n = len(v)
    images = [{_unit_key(n, k): a for k, a in enumerate(v) if a}]
    return _substitute({_pack(e): int(c) for e, c in u.terms()}, images, n)


@lru_cache(maxsize=8192)
def factor_polynomial(p):
    """Factor a nonzero Polynomial over Q.

    Returns ``(content, factors)`` where factors is a tuple of
    ``(irreducible Polynomial, multiplicity)`` in a deterministic order,
    each factor integer-primitive with positive leading coefficient, and
    ``p == content * prod(f**m)`` exactly.

    Integer-linear factors P(v . x) are found first: the directions v are
    the linear factors of the top homogeneous part, and for each v the
    factors are those of the gcd of the coefficients over Q[v . x].  Only
    the rest is factored as a multivariate polynomial (see the module
    docstring for why this misses nothing).
    """
    if p.is_zero:
        raise InvalidInput("cannot factor the zero polynomial")
    if p.is_constant:
        return p.constant_value(), ()
    cont = p.content()
    rest, _ = p.primitive()._scaled_ints()
    found = []
    n = len(p.vars)
    for v in _directions(rest, p.vars):
        block = _block(rest, v)
        if block is None:
            continue
        found.extend((Polynomial._from_view(p.vars, _along(fac, v)), mult)
                     for fac, mult in block.factor_list()[1])
        # rest and the block are primitive with positive leading
        # coefficients, so a block of full degree leaves 1
        if block.degree() == max(rest) >> 32 * n:
            rest = {0: 1}
        else:
            rest = _int_divexact(rest, _along(block, v), n)
            if rest is None:
                raise AssertionError("integer-linear block does not divide")
    if any(rest):
        scoeff, sfactors = _to_sympy(rest, p.vars).factor_list()
        cont *= int(scoeff)
        found.extend((_from_sympy(fac, p.vars), mult) for fac, mult in sfactors)
    factors = []
    for q, mult in found:
        cont *= q.content() ** mult
        factors.append((q.primitive(), int(mult)))
    factors.sort(key=lambda fm: fm[0].sort_key())
    check = Polynomial.constant(cont, p.vars)
    for q, mult in factors:
        check = check * q ** mult
    if check != p:
        raise AssertionError("factorization recombination failed")
    return cont, tuple(factors)
