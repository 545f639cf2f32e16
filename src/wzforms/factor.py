"""Irreducible factorization over the rationals.

The heavy lifting (Zassenhaus / Wang) is delegated to sympy; everything in
and out is converted through exact integer term maps, re-normalized to this
package's canonical factor form (integer-primitive, positive graded-lex
leading coefficient, deterministic order) and verified by recombination.
The same conversion carries the gcd fallback of :mod:`wzforms.polys`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import sympy

from .errors import InvalidInput
from .polys import Polynomial

_symbol_cache: dict[str, sympy.Symbol] = {}


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
    """sympy Poly over ZZ with the given integer term map."""
    return sympy.Poly.from_dict(terms, *_symbols(vars), domain=sympy.ZZ)


def _from_sympy(spoly, vars):
    """Polynomial with the terms of a sympy Poly over ZZ."""
    return Polynomial(vars, {tuple(int(e) for e in exps): Fraction(int(c))
                             for exps, c in spoly.terms()})


@lru_cache(maxsize=8192)
def factor_polynomial(p):
    """Factor a nonzero Polynomial over Q.

    Returns ``(content, factors)`` where factors is a tuple of
    ``(irreducible Polynomial, multiplicity)`` in a deterministic order,
    each factor integer-primitive with positive leading coefficient, and
    ``p == content * prod(f**m)`` exactly.
    """
    if p.is_zero:
        raise InvalidInput("cannot factor the zero polynomial")
    if p.is_constant:
        return p.constant_value(), ()
    cont = p.content()
    prim = p.divexact(cont)
    spoly = _to_sympy({e: int(c) for e, c in prim.terms.items()}, prim.vars)
    scoeff, sfactors = spoly.factor_list()
    factors = []
    for fac, mult in sfactors:
        q = _from_sympy(fac, prim.vars)
        qc = q.content()
        if qc != 1:
            cont *= qc ** mult
            q = q.divexact(qc)
        factors.append((q, int(mult)))
    cont *= Fraction(int(scoeff.p), int(scoeff.q)) if scoeff != 1 else 1
    factors.sort(key=lambda fm: fm[0].sort_key())
    check = Polynomial.constant(cont, p.vars)
    for q, mult in factors:
        check = check * q ** mult
    if check != p:
        raise AssertionError("factorization recombination failed")
    return cont, tuple(factors)
