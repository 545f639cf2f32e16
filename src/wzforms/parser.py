"""Infix expression parsing and LaTeX rendering.

Grammar: ``+ - * / ^`` with integer literals, declared variable names and
parentheses; ``^`` binds tightest (right-associative, integer exponents
only), then unary minus, then ``* /``, then ``+ -``.

Tokens, read by the one regular expression ``_TOKEN``: an integer literal
is a run of decimal digits (``str.isdecimal``); a name starts with a letter
(``str.isalpha``) or ``_`` and goes on with ``str.isalnum`` characters or
``_``; whitespace (``str.isspace``) separates tokens.  Any other character,
a digit that is not decimal such as ``²`` included, is an unexpected
character.  A ParseError's line and column are worked out from its token's
offset, and only ``"\n"`` starts a new line.

Evaluation is eager, but a polynomial subexpression stays a Polynomial: the
polynomial summands of one sum go into a single term map on the packed keys
of :mod:`wzforms.polys`, products run on its kernel, and ``/`` by a nonzero
constant scales.  Text in the shape that ``RationalFunction.__str__``
writes, a sum or a quotient ``(S)/(S)``, ``T/(S)``, ``(S)/N`` or ``T/N``
of sums S, one signed term T and one power of one name N, is read first
and without tokens by ``_read_printed``: one ``findall`` per sum into one
term map on packed keys, and a quotient reduced once, by ``rf_reduce``.
That reader never raises.  It gives None for any other text and for text
with an undeclared name, a literal, exponent or key out of bounds, or a
zero divisor, and the recursive descent then reads the whole text and
raises each error with its position.  Stripped before its ``fullmatch``,
text costs it linear time, long runs of whitespace included.
A value is lifted to a canonical RationalFunction only at ``/`` by a
non-constant divisor or at a negative power, so canonical reduction (and
its gcd) happens once, at the lift, or when ``parse_expression`` returns.
Printing a parsed expression therefore canonicalizes it, and parsing a
printed canonical form is the identity.

Hostile input is refused with a ParseError at the offending token: nesting
of parentheses, unary minuses and exponents deeper than MAX_DEPTH, any
exponent, tower values included, larger than MAX_EXPONENT in magnitude, a
power k > 1 of a single term that takes one of its exponents past
MAX_EXPONENT (so nested powers cannot multiply the bound), an integer
literal of more than MAX_LITERAL_DIGITS digits, any product of two
multi-term polynomials, each step of a power included, whose term counts
multiply past MAX_TERMS.  Each is checked before the value is computed.  A
product that makes an exponent reach the kernel's EXPONENT_LIMIT of 2**31,
which the kernel refuses with InvalidInput, is a ParseError at its token.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DivisionByZero, InvalidInput, ParseError
from .polys import Polynomial, _layout, _render_terms, _unit_key
from .rationals import RationalFunction, rf_reduce

# Five parser frames per parenthesis level keep MAX_DEPTH well inside the
# interpreter's default recursion limit of 1000.
MAX_DEPTH = 100
MAX_EXPONENT = 1000
# Bounds the work and the size of one product; (x+1)^MAX_EXPONENT, whose
# largest step multiplies 489 by 513 terms, stays inside it.
MAX_TERMS = 300_000
# The interpreter's default integer-string limit.  The parser keeps it as its
# own bound, so it holds where the CLI lifts that limit to print exact results.
MAX_LITERAL_DIGITS = 4300

# \d is str.isdecimal, \w is str.isalnum or "_" and \s is str.isspace; a
# "name" that starts with neither a letter nor "_" is refused by _tokens.
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>\w+)|[-+*/^()]|(?P<bad>\S)")


def _tokens(text):
    """The tokens of text as ``(kind, text, offset)`` triples, ending with
    ``("end", "", len(text))``; the kind of an operator is its character.
    A character that starts no token is a ParseError at its position."""
    tokens = []
    for m in _TOKEN.finditer(text):
        word = m[0]
        kind = m.lastgroup or word
        if kind == "bad" or kind == "name" and not (word[0].isalpha() or word[0] == "_"):
            raise ParseError(f"unexpected character {word[0]!r}", *_position(text, m.start()))
        tokens.append((kind, word, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _position(text, offset):
    """The 1-based (line, column) of an offset; only "\\n" ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    def __init__(self, text, vars):
        self.text = text
        self.tokens = _tokens(text)
        self.at = 0
        self.vars = vars = tuple(vars)
        n = len(vars)
        self.monomials = {v: _unit_key(n, i) for i, v in enumerate(vars)}
        self.depth = 0

    def fail(self, message, tok):
        raise ParseError(message, *_position(self.text, tok[2]))

    def enter(self, tok):
        """Count one level of parentheses, unary minus or exponent nesting,
        which ``leave`` undoes; past MAX_DEPTH deep input is a ParseError
        rather than a RecursionError."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels", tok)

    def leave(self):
        self.depth -= 1

    def parse(self):
        value = self.expr()
        tok = self.tokens[self.at]
        if tok[0] != "end":
            self.fail(f"unexpected {tok[1]!r}", tok)
        return _lift(value)

    def expr(self):
        # one term map for the polynomial summands, so a long sum costs one
        # pass; other summands add as rational functions
        terms = {}
        rational = None
        negate = False
        while True:
            value = self.term()
            if isinstance(value, Polynomial):
                ints, den = value._scaled_ints()
                for k, c in ints.items():
                    c = c if den == 1 else Fraction(c, den)
                    old = terms.get(k)
                    if negate:
                        terms[k] = -c if old is None else old - c
                    else:
                        terms[k] = c if old is None else old + c
            else:
                if negate:
                    value = -value
                rational = value if rational is None else rational + value
            tok = self.tokens[self.at]
            if tok[0] not in ("+", "-"):
                break
            self.at += 1
            negate = tok[0] == "-"
        poly = Polynomial._from_values(self.vars, {k: c for k, c in terms.items() if c})
        if rational is None:
            return poly
        return rational + _lift(poly) if poly else rational

    def term(self):
        value = self.factor()
        while True:
            tok = self.tokens[self.at]
            if tok[0] == "*":
                self.at += 1
                other = self.factor()
                if isinstance(value, Polynomial) and isinstance(other, Polynomial):
                    value = self.times(value, other, tok)
                else:
                    value, other = _lift(value), _lift(other)
                    self.bound(value.num, other.num, tok)
                    self.bound(value.den, other.den, tok)
                    value = value * other
            elif tok[0] == "/":
                self.at += 1
                other = self.factor()
                if other.is_zero:
                    raise DivisionByZero("division by zero in expression")
                if isinstance(value, Polynomial) and other.is_constant:
                    value = value * (1 / other.constant_value())
                else:
                    value, other = _lift(value), _lift(other)
                    self.bound(value.num, other.den, tok)
                    self.bound(value.den, other.num, tok)
                    value = value / other
                    if value.den.is_constant:
                        value = value.num
            else:
                return value

    def factor(self):
        tok = self.tokens[self.at]
        if tok[0] == "-":
            self.at += 1
            self.enter(tok)
            value = -self.factor()
            self.leave()
            return value
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.tokens[self.at]
        if tok[0] != "^":
            return base
        self.at += 1
        k = self.exponent()
        if base.is_zero and k <= 0:
            raise DivisionByZero("zero raised to a nonpositive power")
        if isinstance(base, Polynomial) and k >= 0:
            return self.raise_to(base, k, tok)
        base = _lift(base)
        if k < 0:
            base, k = base.reciprocal(), -k
        return RationalFunction._trusted(self.raise_to(base.num, k, tok),
                                         self.raise_to(base.den, k, tok))

    def bound(self, p, q, tok):
        """Refuse ``p*q`` before it is computed when both polynomials have
        several terms and their term counts multiply past MAX_TERMS."""
        n, m = len(p), len(q)
        if n > 1 and m > 1 and n * m > MAX_TERMS:
            self.fail(f"product of {n} and {m} terms exceeds {MAX_TERMS}", tok)

    def times(self, p, q, tok):
        """``p*q``, bounded as ``bound`` says; an exponent that reaches the
        kernel's EXPONENT_LIMIT is a ParseError at tok."""
        self.bound(p, q, tok)
        try:
            return p * q
        except InvalidInput as exc:
            self.fail(str(exc), tok)

    def raise_to(self, p, k, tok):
        """``p^k`` for k >= 0 by right-to-left binary powering, each
        product bounded like a product in the source: the low bits of k
        come first, and p is squared as they go.  ``Polynomial.__pow__``
        powers left to right instead, so the products differ (p^2 * p^4
        here against p^3 * p^3 there for k = 6), not the value.  A power
        k > 1 of a single term is refused before it is computed when it
        would take an exponent past MAX_EXPONENT."""
        if len(p) == 1:
            if k > 1 and max(p.leading()[0], default=0) * k > MAX_EXPONENT:
                self.fail(f"power of a single term exceeds exponent {MAX_EXPONENT}", tok)
            return p ** k
        result = Polynomial.one(p.vars)
        while k:
            if k & 1:
                result = self.times(result, p, tok)
            if k > 1:
                p = self.times(p, p, tok)
            k >>= 1
        return result

    def exponent(self):
        """A signed integer, a parenthesized exponent or a right-associative
        tower ``a^b^...``, bounded by MAX_EXPONENT before any power of it is
        computed."""
        sign = 1
        tok = self.tokens[self.at]
        if tok[0] == "-":
            self.at += 1
            sign = -1
            tok = self.tokens[self.at]
        if tok[0] == "(":
            self.at += 1
            self.enter(tok)
            k = self.exponent()
            self.leave()
            close = self.tokens[self.at]
            self.at += 1
            if close[0] != ")":
                self.fail("expected ')'", close)
        elif tok[0] == "int":
            self.at += 1
            k = self.integer(tok)
            if abs(k) > MAX_EXPONENT:
                self.fail(f"exponent exceeds {MAX_EXPONENT} in magnitude", tok)
            nxt = self.tokens[self.at]
            if nxt[0] == "^":
                self.at += 1
                self.enter(nxt)
                k = self.tower(k, self.exponent(), tok)
                self.leave()
        else:
            self.fail("exponents must be integers", tok)
        return sign * k

    def tower(self, k, e, tok):
        """``k^e`` inside an exponent, refused before it is computed when
        it would leave the integers or exceed MAX_EXPONENT."""
        if e < 0:
            if k == 0:
                raise DivisionByZero("zero raised to a nonpositive power")
            if abs(k) != 1:
                self.fail("exponents must be integers", tok)
            e = -e
        # |k| >= 2 and 2^e > MAX_EXPONENT already put k^e out of range
        if abs(k) > 1 and e >= MAX_EXPONENT.bit_length():
            self.fail(f"exponent exceeds {MAX_EXPONENT} in magnitude", tok)
        k = k ** e
        if abs(k) > MAX_EXPONENT:
            self.fail(f"exponent exceeds {MAX_EXPONENT} in magnitude", tok)
        return k

    def integer(self, tok):
        if len(tok[1]) > MAX_LITERAL_DIGITS:
            self.fail("integer literal too long", tok)
        return int(tok[1])

    def atom(self):
        tok = self.tokens[self.at]
        self.at += 1
        if tok[0] == "int":
            k = self.integer(tok)
            return Polynomial._from_view(self.vars, {0: k} if k else {})
        if tok[0] == "name":
            key = self.monomials.get(tok[1])
            if key is None:
                self.fail(f"undeclared identifier {tok[1]!r}", tok)
            return Polynomial._from_view(self.vars, {key: 1})
        if tok[0] == "(":
            self.enter(tok)
            value = self.expr()
            self.leave()
            close = self.tokens[self.at]
            self.at += 1
            if close[0] != ")":
                self.fail("expected ')'", close)
            return value
        self.fail(f"unexpected {tok[1] or 'end of input'!r}", tok)


def _lift(value):
    """A polynomial value as a (canonical) RationalFunction."""
    if isinstance(value, Polynomial):
        return RationalFunction._trusted(value, Polynomial.one(value.vars))
    return value


# The reader of printed text.  _TERM reads one term of a sum with the
# separator before it, which only the first term goes without, and a
# character that starts no term alone as "bad", so that the terms of a text
# cover it exactly.  _PRINTED splits a quotient; a sum holds no parentheses.
_POWER = r"[^\W\d]\w*(?:\^\d+)?"
_MONOMIAL = rf"{_POWER}(?:\*{_POWER})*"
_TERM = re.compile(rf"(^-?|(?<=.) [-+] )"
                   rf"(?:(\d+)(?:/(\d+))?(?:\*({_MONOMIAL}))?|({_MONOMIAL}))|(.)", re.S)
_PRINTED = re.compile(rf"(?:\(([^()]*)\)(?=/)|([^()]*?))"
                      rf"(?:/(?:\(([^()]*)\)|({_POWER})))?")


def _read_printed(text, vars):
    """The value of text written as ``RationalFunction.__str__`` writes,
    from one ``findall`` per sum, with no tokens.  None for any other text,
    and for text with an undeclared name, a literal of more than
    MAX_LITERAL_DIGITS digits, an exponent above MAX_EXPONENT, a key whose
    guard bit a factor sets, a zero literal divisor or a zero denominator,
    which the recursive descent refuses with its own error.  It never
    raises."""
    # a \s* around the lazy group would be cubic on blank lines then ")"
    m = _PRINTED.fullmatch(text.strip())
    if m is None:
        return None
    num_sum, num_term, den_sum, den_power = m.groups()
    den_text = den_sum if den_power is None else den_power
    # the numerator of a quotient outside parentheses is a single term
    if den_text is not None and num_term is not None and " " in num_term:
        return None
    n = len(vars)
    units = {v: _unit_key(n, i) for i, v in enumerate(vars)}
    guards = _layout(n)[0]
    keys = {"": 0}
    num = _read_sum(num_term if num_sum is None else num_sum, units, guards, keys)
    if num is None:
        return None
    num = Polynomial._from_values(vars, num)
    if den_text is None:
        return _lift(num)
    den = _read_sum(den_text, units, guards, keys)
    if not den:  # refused, or a zero denominator
        return None
    return rf_reduce(num, Polynomial._from_values(vars, den))


def _read_sum(text, units, guards, keys):
    """The term map, packed key to nonzero int or Fraction, of a sum in the
    shape ``polys._render_terms`` writes over the names of ``units`` (name
    to the key of one more power), or None.  ``keys`` holds the key of every
    monomial text read so far, "" for 1."""
    terms = {}
    found = _TERM.findall(text)
    for sign, c, d, scaled, bare, bad in found:
        if bad or len(c) > MAX_LITERAL_DIGITS or len(d) > MAX_LITERAL_DIGITS:
            return None
        coefficient = int(c) if c else 1
        if d:
            d = int(d)
            if not d:
                return None
            coefficient = Fraction(coefficient, d)
        if "-" in sign:
            coefficient = -coefficient
        monomial = scaled or bare
        key = keys.get(monomial)
        if key is None:
            key = 0
            for power in monomial.split("*"):
                name, _, k = power.partition("^")
                unit = units.get(name)
                if unit is None or len(k) > MAX_LITERAL_DIGITS:
                    return None
                if k:
                    k = int(k)
                    if k > MAX_EXPONENT:
                        return None
                    unit *= k
                # a field grows by at most MAX_EXPONENT per factor, so it
                # cannot carry past its guard bit between two checks
                key += unit
                if key & guards:
                    return None
            keys[monomial] = key
        old = terms.get(key)
        terms[key] = coefficient if old is None else old + coefficient
    return {k: c for k, c in terms.items() if c} if found else None


def variable_names(vars):
    """The declared variables as a tuple, when each is a string that the
    parser reads as exactly one name token and no two are alike; otherwise
    InvalidInput, so that nothing printed over them fails to parse back."""
    vars = tuple(vars)
    for name in vars:
        tokens = None
        if isinstance(name, str):
            try:
                tokens = [tok[:2] for tok in _tokens(name)]
            except ParseError:
                pass
        if tokens != [("name", name), ("end", "")]:
            raise InvalidInput(f"{name!r} is not a variable name")
    if len(set(vars)) != len(vars):
        raise InvalidInput(f"duplicate variable names in {', '.join(vars)}")
    return vars


def parse_expression(text, vars):
    """Parse infix text into a canonical RationalFunction over the declared
    variables, which :func:`variable_names` checks.  Raises ParseError with
    position info, InvalidInput, or DivisionByZero."""
    vars = variable_names(vars)
    value = _read_printed(text, vars)
    return _Parser(text, vars).parse() if value is None else value


def parse_polynomial(text, vars):
    """Parse text that must denote a polynomial."""
    value = parse_expression(text, vars)
    return value.as_polynomial()


# ---------------------------------------------------------------------- #
# LaTeX rendering


def latex_polynomial(p, var_name=None):
    """LaTeX form of a polynomial; ``var_name`` renames a univariate
    polynomial's variable."""
    names = list(p.vars)
    if var_name is not None and len(names) == 1:
        names[0] = var_name
    return _render_terms(p, names, " ", lambda name, k: f"{name}^{{{k}}}", _latex_fraction)


def _latex_fraction(q):
    """LaTeX of a nonnegative int or Fraction."""
    if type(q) is int:
        return str(q)
    if q.denominator == 1:
        return str(q.numerator)
    return rf"\tfrac{{{q.numerator}}}{{{q.denominator}}}"


def latex_rational(f):
    if f.den.is_constant:
        return latex_polynomial(f.num)
    return rf"\frac{{{latex_polynomial(f.num)}}}{{{latex_polynomial(f.den)}}}"
