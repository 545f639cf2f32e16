"""Infix expression parsing and LaTeX rendering.

Grammar: ``+ - * / ^`` with integer literals, declared variable names and
parentheses; ``^`` binds tightest (right-associative, integer exponents
only), then unary minus, then ``* /``, then ``+ -``.  Parsing evaluates
eagerly into a canonical RationalFunction, so printing a parsed expression
canonicalizes it and parsing a printed canonical form is the identity.
"""

from __future__ import annotations

from .errors import DivisionByZero, ParseError
from .polys import _join_signed
from .rationals import RationalFunction


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens = []
        self._scan()
        self.at = 0

    def _scan(self):
        text = self.text
        i = 0
        line, col = 1, 1
        n = len(text)
        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if c.isspace():
                i += 1
                col += 1
                continue
            start = (line, col)
            if c.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", text[i:j], start))
                col += j - i
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], start))
                col += j - i
                i = j
                continue
            if c in "+-*/^()":
                self.tokens.append((c, c, start))
                i += 1
                col += 1
                continue
            raise ParseError(f"unexpected character {c!r}", line, col)
        self.tokens.append(("end", "", (line, col)))

    def peek(self):
        return self.tokens[self.at]

    def next(self):
        tok = self.tokens[self.at]
        self.at += 1
        return tok


class _Parser:
    def __init__(self, text, vars):
        self.toks = _Tokenizer(text)
        self.vars = tuple(vars)

    def fail(self, message, tok):
        raise ParseError(message, tok[2][0], tok[2][1])

    def parse(self):
        value = self.expr()
        tok = self.toks.peek()
        if tok[0] != "end":
            self.fail(f"unexpected {tok[1]!r}", tok)
        return value

    def expr(self):
        value = self.term()
        while True:
            tok = self.toks.peek()
            if tok[0] == "+":
                self.toks.next()
                value = value + self.term()
            elif tok[0] == "-":
                self.toks.next()
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.toks.peek()
            if tok[0] == "*":
                self.toks.next()
                value = value * self.factor()
            elif tok[0] == "/":
                self.toks.next()
                other = self.factor()
                if other.is_zero:
                    raise DivisionByZero("division by zero in expression")
                value = value / other
            else:
                return value

    def factor(self):
        tok = self.toks.peek()
        if tok[0] == "-":
            self.toks.next()
            return -self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.toks.peek()
        if tok[0] != "^":
            return base
        self.toks.next()
        k = self.exponent()
        if base.is_zero and k <= 0:
            raise DivisionByZero("zero raised to a nonpositive power")
        return base ** k

    def exponent(self):
        sign = 1
        tok = self.toks.peek()
        if tok[0] == "-":
            self.toks.next()
            sign = -1
            tok = self.toks.peek()
        if tok[0] == "(":
            self.toks.next()
            k = self.exponent()
            close = self.toks.next()
            if close[0] != ")":
                self.fail("expected ')'", close)
        elif tok[0] == "int":
            self.toks.next()
            k = int(tok[1])
            nxt = self.toks.peek()
            if nxt[0] == "^":
                self.toks.next()
                k = k ** self.exponent()
        else:
            self.fail("exponents must be integers", tok)
        return sign * k

    def atom(self):
        tok = self.toks.next()
        if tok[0] == "int":
            return RationalFunction.constant(int(tok[1]), self.vars)
        if tok[0] == "name":
            if tok[1] not in self.vars:
                self.fail(f"undeclared identifier {tok[1]!r}", tok)
            return RationalFunction.variable(tok[1], self.vars)
        if tok[0] == "(":
            value = self.expr()
            close = self.toks.next()
            if close[0] != ")":
                self.fail("expected ')'", close)
            return value
        self.fail(f"unexpected {tok[1] or 'end of input'!r}", tok)


def parse_expression(text, vars):
    """Parse infix text into a canonical RationalFunction over the declared
    variables.  Raises ParseError with position info, or DivisionByZero."""
    return _Parser(text, vars).parse()


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
    pieces = []
    for e, c in p.sorted_terms():
        mono = " ".join(
            f"{names[i]}^{{{k}}}" if k > 1 else names[i]
            for i, k in enumerate(e) if k
        )
        mag = abs(c)
        if not mono:
            body = _latex_fraction(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_latex_fraction(mag)} {mono}"
        pieces.append(("-" if c < 0 else "+", body))
    return _join_signed(pieces)


def _latex_fraction(q):
    if q.denominator == 1:
        return str(q.numerator)
    return rf"\tfrac{{{q.numerator}}}{{{q.denominator}}}"


def latex_rational(f):
    if f.den.is_constant:
        return latex_polynomial(f.num)
    return rf"\frac{{{latex_polynomial(f.num)}}}{{{latex_polynomial(f.den)}}}"
