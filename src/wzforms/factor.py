"""Irreducible factorization over the rationals, integer-linear factors first.

The denominators of rational WZ-forms are mostly products of integer-linear
polynomials P(v.x): a univariate P at a primitive integer linear form v.x
(the additive analogue of the Ore-Sato theorem).  Such factors are split
off with univariate algebra, and only what is left goes to sympy's
multivariate factoring (Wang's algorithm with Hensel lifting):

1. Directions.  A factor P(v.x) of degree d contributes c*(v.x)^d to the
   top homogeneous part T of the input, so v is a linear factor of T.  The
   linear factors of T are lifted one variable at a time from univariate
   factorizations, with exact divisions on the integer kernel and no
   multivariate factoring.  Let d = deg T and x_j its variable of largest
   degree.  T(x_j = 1) is nonzero of degree at most d in each variable, so
   it does not vanish on all of the grid {0..d}^(n-1) (the combinatorial
   Nullstellensatz): take the first point s there, s_j = 1, with
   T(s) != 0.  When s != e_j, x_l = y_l + s_l*y_j moves s to e_j; every
   linear factor L then has y_j-coefficient L(s) != 0, and T holds y_j^d.
   So for each other variable y_l the binary form T|{y_j, y_l} is nonzero,
   and the rational roots of its univariate factorization are the only
   ratios b_l/a that a factor a*y_j + ... + b_l*y_l can have.  Each partial
   form that survives is extended by each ratio, and kept only if it
   divides T restricted to the variables seen so far.  Every restriction
   of a factor of T survives, and at most d distinct linear forms divide a
   form of degree d, so a level keeps at most d forms; the survivors of
   the last level are the linear factors of T, mapped back by
   v_l = b_l, v_j = a - sum s_l*b_l.
2. Blocks.  A linear change of variables over Q puts y = v.x in one slot.
   The content of the input over Q[y], the gcd of its coefficients in the
   other variables, is exactly the product of the factors that depend on
   v.x alone.  An irreducible univariate factor P of it gives an
   irreducible P(v.x), because the change of variables is an automorphism
   of Q[x].  P(v.x) is primitive over Z when P is, because v is primitive,
   so each is divided out exactly over the integers.
3. Residual.  What is left, for example x^2 + y^2 + 1 from an exact part,
   has no integer-linear factor and goes to sympy's ``factor_list``.
4. Univariate factors.  The binary forms of step 1 and the blocks of step
   2 are factored over Z by one route, ``_factor_dense``, on the package's
   dense lists of ints, lowest coefficient first.  A quadratic is
   settled by its discriminant: a non-square one proves it irreducible, and
   a square one splits it by formula.  Anything larger is split into
   squarefree pieces (sympy's ``dup_sqf_list``), and a piece of degree 3 or
   4 is proved irreducible by a prime p that does not divide its leading
   coefficient: a cubic with no root mod p, or a quartic irreducible mod p.
   That is a proof, not a probable answer: a factorization over Z reduces
   mod p to one with the same degrees, because p divides neither leading
   coefficient, so a cubic with a factor over Z has a linear one and so a
   root mod p, and a reducible quartic stays reducible mod p.  Only the
   pieces that no prime settles go to sympy's Zassenhaus factoring.

Every step is exact, so no factor is missed.  All factors are re-normalized
to this package's canonical form (integer-primitive, positive graded-lex
leading coefficient, deterministic order) and verified by recombination.
The blocks' gcds run on the kernel's one integer gcd, ``polys._int_gcd``,
and the residual reaches sympy through the kernel's conversions,
``polys._to_sympy`` and ``polys._from_sympy``, which also carry that gcd's
fallback.

sympy is imported where it is called, not when this module loads: the
univariate route works on lists of Python ints, and each of its three
sympy calls (``dup_sqf_list``, ``dup_zz_factor_sqf``, ``gf_irreducible_p``)
converts to sympy's ZZ, highest coefficient first, at the call and back to
int, lowest first, on return, so an install with gmpy2 still hands sympy
its own integers.  Elsewhere sympy's order appears only in the sort key
that keeps its order of factors.  A process that factors nothing never
loads sympy; the first call that reaches it pays the import.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import InvalidInput
from .polys import (_MASK, Polynomial, _dense, _dense_primitive, _from_dense, _from_sympy,
                    _int_divexact, _int_eval_at, _int_gcd, _primitive_direction, _shift,
                    _substitute, _to_sympy, _unit_key)

_YVARS = ("y",)


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
# univariate factoring over Z, small factors certified without Zassenhaus

# the primes that may prove a cubic or quartic irreducible (step 4)
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _factor_dense(u):
    """What ``dup_factor_list(u, ZZ)`` returns, in ints and with every list
    lowest coefficient first, for a nonzero dense list u of ints: the
    content, with the sign of the leading coefficient, and the irreducible
    (factor, multiplicity) pairs in sympy's order, each factor primitive
    with a positive leading coefficient (module docstring, step 4).
    Sympy's highest-first lists appear only at its three calls and in the
    sort key."""
    k = next(e for e, c in enumerate(u) if c)
    cont, f = _dense_primitive(u[k:])
    factors = [([0, 1], k)] if k else []
    pieces = [(f, 1)]
    if len(f) > 3:
        from sympy.polys.domains import ZZ
        from sympy.polys.sqfreetools import dup_sqf_list
        pieces = [([int(c) for c in reversed(g)], m)
                  for g, m in dup_sqf_list(list(map(ZZ, reversed(f))), ZZ)[1]]
    for g, m in pieces:
        factors.extend((h, m * e) for h, e in _split(_dense_primitive(g)[1]))
    factors.sort(key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))
    return cont, factors


def _split(g):
    """The irreducible (factor, multiplicity) pairs of a primitive g with a
    positive leading coefficient that is squarefree or of degree <= 2."""
    d = len(g) - 1
    if d <= 1:
        return [(g, 1)] if d else []
    if d == 2:
        c, b, a = g
        disc = b * b - 4 * a * c
        s = isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return [(g, 1)]
        if not s:
            return [(_dense_primitive([b, 2 * a])[1], 2)]
        return [(_dense_primitive([b - s, 2 * a])[1], 1),
                (_dense_primitive([b + s, 2 * a])[1], 1)]
    if d <= 4 and _certified(g):
        return [(g, 1)]
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_zz_factor_sqf
    return [(_dense_primitive([int(c) for c in reversed(h)])[1], 1)
            for h in dup_zz_factor_sqf(list(map(ZZ, reversed(g))), ZZ)[1]]


def _certified(g):
    """Whether some p in _PRIMES that does not divide the leading
    coefficient proves the squarefree cubic or quartic g irreducible: g has
    no root mod p, and a quartic is also irreducible mod p."""
    if len(g) == 5:
        disc = _quartic_discriminant(g)
    for p in _PRIMES:
        if g[-1] % p:
            r = [c % p for c in g]
            values = [0] * p
            for c in reversed(r):
                values = [(v * x + c) % p for x, v in enumerate(values)]
            if not all(values):
                continue
            # a quartic with no root mod an odd p is a product of two
            # quadratics there when disc is a nonzero square mod p
            # (Stickelberger), and has a repeated factor when p divides
            # disc, so only a nonresidue is worth the test; p = 2 always is
            if len(g) == 4:
                return True
            if pow(disc, (p - 1) // 2, p) == p - 1:
                from sympy.polys.domains import ZZ
                from sympy.polys.galoistools import gf_irreducible_p
                if gf_irreducible_p(list(map(ZZ, reversed(r))), p, ZZ):
                    return True
    return False


def _quartic_discriminant(g):
    """The discriminant of the quartic with coefficient list g, lowest
    first, from the invariants I and J: 27 disc = 4 I^3 - J^2."""
    e, d, c, b, a = g
    i = 12 * a * e - 3 * b * d + c * c
    j = 72 * a * c * e + 9 * b * c * d - 27 * (a * d * d + b * b * e) - 2 * c ** 3
    return (4 * i ** 3 - j * j) // 27


# ---------------------------------------------------------------------- #
# steps 1 to 3


def _directions(terms, vars):
    """The directions v of the linear factors of the top homogeneous part,
    each primitive with its first nonzero entry positive, lifted from the
    linear factors of its binary restrictions (module docstring, step 1)."""
    n = len(vars)
    d = max(terms) >> 32 * n
    top = {k: c for k, c in terms.items() if k >> 32 * n == d}
    degrees = [max(k >> _shift(n, i) & _MASK for k in top) for i in range(n)]
    j = degrees.index(max(degrees))
    if n == 1:
        return [(1,)]
    others = [i for i in range(n) if i != j]
    s = _point(top, n, j, d)
    if any(s[l] for l in others):
        # x_l = y_l + s_l*y_j moves s to e_j: each factor's y_j-coefficient
        # becomes its value at s, which is nonzero because T(s) is
        top = _substitute(top, [{_unit_key(n, l): 1, _unit_key(n, j): s[l]}
                                if l != j and s[l] else None for l in range(n)], n)
    fields = [_MASK << _shift(n, i) for i in range(n)]
    unseen = off_j = sum(fields) - fields[j]
    forms = [[int(i == j) for i in range(n)]]
    for l in others:
        # the binary form T|{y_j, y_l} holds y_j^d, so it is nonzero and
        # each of its linear factors a*y_j + b*y_l has a > 0; at y_l = 1
        # it is a dense list in y_j
        binary = _dense(_int_eval_at({k: c for k, c in top.items()
                                      if not k & (off_j - fields[l])}, n, l, 1), n, j)
        unseen -= fields[l]
        part = {k: c for k, c in top.items() if not k & unseen}
        lifted = []
        for fac, _ in _factor_dense(binary)[1]:
            if len(fac) != 2:
                continue
            b, a = fac
            for form in forms:
                w = [a * c for c in form]
                w[l] = b * form[j]
                w = _primitive_direction(w)
                # at most d forms divide T restricted to the variables seen
                if _int_divexact(part, {_unit_key(n, i): c for i, c in enumerate(w) if c},
                                 n) is not None:
                    lifted.append(w)
        forms = lifted
    found = []
    for w in forms:
        v = list(w)
        v[j] = w[j] - sum(s[l] * w[l] for l in others)
        found.append(_primitive_direction(v))
    return found


def _point(top, n, j, d):
    """The first point s of the grid {0..d}^(n-1) with s_j = 1, in lex
    order, at which the top part T does not vanish.  Entry by entry, s_i is
    the least value that leaves T, at the entries fixed so far, a nonzero
    polynomial: one of degree at most d in x_i has such a value in 0..d,
    and it is zero on the whole subgrid when it is zero as a polynomial."""
    s = [int(i == j) for i in range(n)]
    if d * _unit_key(n, j) in top:  # T(e_j) is the coefficient of x_j^d
        return s
    rest = _int_eval_at(top, n, j, 1)
    for i in range(n):
        if i != j:
            s[i] = next(a for a in range(d + 1) if _int_eval_at(rest, n, i, a))
            rest = _int_eval_at(rest, n, i, s[i])
    return s


def _block(terms, v):
    """The content of the term map over Q[v . x] as a dense univariate list
    of ints, lowest coefficient first, primitive with a positive leading
    coefficient; None when it is constant."""
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
        block = cs if block is None else _int_gcd(block, cs, _YVARS)
        if not any(block):
            return None
    return _dense_primitive(_dense(block, 1, 0))[1]


def _along(u, v):
    """The integer term map of u(v . x) for a dense univariate list u of
    ints, lowest coefficient first."""
    n = len(v)
    return _substitute(_from_dense(u), [{_unit_key(n, k): a for k, a in enumerate(v) if a}], n)


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
                     for fac, mult in _factor_dense(block)[1])
        # rest and the block are primitive with positive leading
        # coefficients, so a block of full degree leaves 1
        if len(block) - 1 == max(rest) >> 32 * n:
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
