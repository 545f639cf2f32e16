import io
import json
import random
from fractions import Fraction

import pytest
import sympy
from sympy.parsing.sympy_parser import parse_expr

from conftest import random_rational
from wzforms import (DivisionByZero, InvalidInput, ParseError, Polynomial,
                     RationalFunction, decompose, generate, parse_expression,
                     parse_polynomial, random_additive_rep)
from wzforms import parser as parser_module
from wzforms.cli import rep_from_json, rep_to_json, run_command
from wzforms.parser import (MAX_DEPTH, MAX_EXPONENT, _Parser, _position, _read_printed,
                            _read_sum, _tokens, latex_polynomial, latex_rational,
                            variable_names)
from wzforms.polys import _layout, _pack

V = ("x", "y", "z")


def test_parse_linear_denominator():
    f = parse_expression("1/(4*x+6*y+5*z)", V)
    assert str(f) == "1/(4*x + 6*y + 5*z)"


def test_parse_canonicalizes():
    assert str(parse_expression("(x^2-1)/(x-1)", V)) == "x + 1"
    assert parse_expression("2/4", V) == RationalFunction.constant(
        __import__("fractions").Fraction(1, 2), V)


def test_parse_zero_denominator():
    with pytest.raises(DivisionByZero):
        parse_expression("1/(x-x)", V)


def test_parse_undeclared_identifier_has_position():
    with pytest.raises(ParseError) as err:
        parse_expression("1/(4*x + 6*q)", V)
    assert err.value.line == 1 and err.value.column == 12


def test_parse_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x +\n* y", V)
    assert err.value.line == 2 and err.value.column == 1


def test_parse_refuses_variables_it_could_not_read_back():
    # a name that is not one name token prints text that no parse reads
    # back, so the declared variables are refused before any text is read
    for vars in (("a b", "c"), ("x+1", "y"), ("1x",), ("x", "x"), ("x", 1)):
        with pytest.raises(InvalidInput):
            parse_expression("1", vars)
    assert parse_expression("a_1 + b2", ("a_1", "b2")) == parse_expression(
        "b2 + a_1", ["a_1", "b2"])


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse_expression("x + 1)", V)


def test_precedence_and_associativity():
    xv = parse_expression("x", V)
    assert parse_expression("-x^2", V) == -(xv**2)
    assert parse_expression("2^3^2", V) == 512
    assert parse_expression("6/3/2", V) == 1
    assert parse_expression("1 - 2 - 3", V) == -4
    assert parse_expression("x^-2", V) == xv**-2


def test_exponent_must_be_integer():
    with pytest.raises(ParseError):
        parse_expression("x^y", V)
    with pytest.raises(ParseError):
        parse_expression("x^(1/2)", V)


def test_parse_print_round_trip_random():
    rng = random.Random(79)
    for _ in range(60):
        f = random_rational(rng, V)
        assert parse_expression(str(f), V) == f


def test_parse_polynomial_rejects_fractions():
    assert parse_polynomial("x^2 + 1/2", V) is not None
    with pytest.raises(Exception):
        parse_polynomial("1/x", V)


def test_latex_forms():
    p = parse_polynomial("4*x + 6*y + 5*z - 3", V)
    assert latex_polynomial(p) == "4 x + 6 y + 5 z - 3"
    f = parse_expression("(x+1)/(2*y-1)", V)
    assert latex_rational(f) == r"\frac{x + 1}{2 y - 1}"
    assert latex_polynomial(parse_polynomial("x^2*y - 1/2", V)) == \
        r"x^{2} y - \tfrac{1}{2}"


def test_text_and_latex_pins():
    # exponents of two digits, fractional coefficients, a negative leading term
    p = parse_polynomial("-x^10*y + 3/4*x*y^2 - 2*z^12 + 5/3", V)
    assert str(p) == "-2*z^12 - x^10*y + 3/4*x*y^2 + 5/3"
    expect = r"-2 z^{12} - x^{10} y + \tfrac{3}{4} x y^{2} + \tfrac{5}{3}"
    assert latex_polynomial(p) == expect
    # var_name renames the variable of a univariate polynomial only
    assert latex_polynomial(p, var_name=r"\alpha") == expect
    q = parse_polynomial("-2/3*Z^11 + 7/2*Z^2 - Z + 4", ("Z",))
    assert str(q) == "-2/3*Z^11 + 7/2*Z^2 - Z + 4"
    assert latex_polynomial(q, var_name=r"\alpha") == \
        r"-\tfrac{2}{3} \alpha^{11} + \tfrac{7}{2} \alpha^{2} - \alpha + 4"


# ---------------------------------------------------------------------- #
# differential checks against sympy, and hostile input

# precedence levels: sum, product, unary minus, power, atom
_SUM, _PRODUCT, _UNARY, _POWER, _ATOM = range(1, 6)
_EXPONENTS = ("0", "1", "2", "3", "-1", "-2", "(2)", "-(1)", "(-1)", "2^2")


def _random_text(rng, depth):
    """(text, precedence) of a random expression over V; zero divisors and
    zero bases come from literal 0 and from differences such as (y - y)."""
    def child(level, depth):
        text, prec = _random_text(rng, depth)
        if prec < level or rng.random() < 0.1:
            return f"({text})"
        return text

    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        pick = rng.random()
        if pick < 0.35:
            return str(rng.randint(0, 9)), _ATOM
        if pick < 0.45:
            v = rng.choice(V)
            return f"({v} - {v})", _ATOM
        return rng.choice(V), _ATOM
    if roll < 0.45:
        op = rng.choice("+-")
        return f"{child(_SUM, depth - 1)} {op} {child(_PRODUCT, depth - 1)}", _SUM
    if roll < 0.7:
        op = rng.choice("*/")
        return f"{child(_PRODUCT, depth - 1)}{op}{child(_UNARY, depth - 1)}", _PRODUCT
    if roll < 0.82:
        return f"-{child(_UNARY, depth - 1)}", _UNARY
    return f"{child(_ATOM, depth - 1)}^{rng.choice(_EXPONENTS)}", _POWER


def _sympy_of(p):
    xs = sympy.symbols(p.vars)
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(x**k for x, k in zip(xs, e)))
                for e, c in p.terms.items()), sympy.Integer(0))


def test_parse_matches_sympy_on_random_expressions():
    names = {v: sympy.Symbol(v) for v in V}
    rng = random.Random(2024)
    raised = 0
    for _ in range(300):
        text, _ = _random_text(rng, rng.randint(1, 5))
        source = text.replace("^", "**")
        # the library refuses a zero base under a nonpositive power, and so
        # every division by zero; sympy only marks the ones it cannot absorb
        tree = parse_expr(source, local_dict=names, evaluate=False)
        must_raise = any(
            isinstance(node, sympy.Pow) and node.exp.doit() <= 0
            and sympy.cancel(node.base.doit()) == 0
            for node in sympy.preorder_traversal(tree))
        expected = sympy.cancel(parse_expr(source, local_dict=names))
        if expected.has(sympy.zoo, sympy.nan):
            assert must_raise, text
        if must_raise:
            raised += 1
            with pytest.raises(DivisionByZero):
                parse_expression(text, V)
            continue
        f = parse_expression(text, V)
        got = _sympy_of(f.num) / _sympy_of(f.den)
        assert sympy.cancel(got - expected) == 0, text
    assert 10 <= raised <= 200


def test_parse_prints_back_criterion_5_tuples():
    for seed in range(200):
        rep = random_additive_rep(seed, n=2 + seed % 3, max_types=3,
                                  max_deg=3, coeff_bound=9)
        form = generate(rep)
        for f in form.components:
            assert parse_expression(str(f), form.vars) == f


HOSTILE = (
    # (text, line, column) of the ParseError; without the caps the first
    # three recurse past the interpreter's limit, the tower asks for
    # 2^(2^65536) and the last power expands to about 1.7e8 terms
    ("(" * 3000 + "x" + ")" * 3000, 1, MAX_DEPTH + 1),
    ("-" * 3000 + "x", 1, MAX_DEPTH + 1),
    ("x^" + "(" * 3000 + "2" + ")" * 3000, 1, MAX_DEPTH + 3),
    ("x^2^2^2^2^2^2^2", 1, 9),
    ("x^1001", 1, 3),
    ("y + x^-(1001)", 1, 9),
    ("x^2^-1", 1, 3),
    ("1" * 5000 + "*x", 1, 1),
    ("(x+y+z+1)^1000", 1, 10),
    ("(x+y+z+1)^-1000", 1, 10),
    ("(x+y+z+1)^20*(x+y+z+1)^20", 1, 13),
    ("(x+y+z+1)^20/(x+1)*(x+y+z+1)^20", 1, 19),
    ("x*\u00b2", 1, 3),  # a superscript two is not a decimal digit
    # a power of a single term may not take an exponent past MAX_EXPONENT:
    # unbounded, the first asks for x^1000000000
    ("((x^1000)^1000)^1000", 1, 10),
    ("(x^2)^501", 1, 6),
    # long runs of whitespace must cost linear time in the printed-text
    # reader as well as in the tokenizer, also when the match fails
    (" " * 20000 + ")", 1, 20001),
    ("\n" * 20000 + ")", 20001, 1),
    ("x" + " " * 200000 + "y", 1, 200002),
)


@pytest.mark.parametrize("text, line, column", HOSTILE,
                         ids=[f"hostile-{i}" for i in range(len(HOSTILE))])
def test_hostile_input_is_a_parse_error(text, line, column, tmp_path):
    with pytest.raises(ParseError) as err:
        parse_expression(text, V)
    assert (err.value.line, err.value.column) == (line, column)
    p = tmp_path / "f.txt"
    p.write_text(text + "\n")
    assert run_command(["verify", "--vars", "x,y,z", str(p), str(p), str(p)],
                       out=io.StringIO(), err=io.StringIO()) == 3


def test_single_term_product_stops_at_the_kernel_ceiling():
    # reaching 2^31 by x^1000*x^1000*... would take a 15 MB input, so the
    # product step is called on a term already near the ceiling
    parser = _Parser("x", V)
    tok = parser.tokens[0]
    top = Polynomial(V, {(2**31 - 1, 0, 0): 1})
    assert parser.times(top, parse_polynomial("y + z", V), tok) == \
        top * parse_polynomial("y + z", V)
    with pytest.raises(ParseError, match="2147483648"):
        parser.times(parse_polynomial("x", V), top, tok)


def test_exponent_limits_and_towers():
    xv = parse_expression("x", V)
    assert parse_expression(f"x^{MAX_EXPONENT}", V) == xv**MAX_EXPONENT
    assert parse_expression(f"x^-{MAX_EXPONENT}", V) == xv**-MAX_EXPONENT
    assert parse_expression("x^-1^-3", V) == xv**-1
    assert parse_expression("x^2^3^0", V) == xv**2
    # the largest step, 489 by 513 terms, is within MAX_TERMS
    assert parse_expression(f"(x+1)^{MAX_EXPONENT}", V) == (xv + 1)**MAX_EXPONENT
    # a single term's power is bounded by its exponents, not by the base's
    assert parse_expression("(x^2)^500", V) == xv**1000
    assert parse_expression("(x*y)^1000", V) == parse_expression("x^1000*y^1000", V)
    with pytest.raises(DivisionByZero):
        parse_expression("x^0^-1", V)
    with pytest.raises(DivisionByZero):
        parse_expression("0^0", V)
    depth = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
    assert parse_expression(depth, V) == xv


# ---------------------------------------------------------------------- #
# the reader of printed text against the recursive descent


def _parsed(text, vars):
    """The value of text, or the type, message, line and column of what
    parsing it raises."""
    try:
        return parse_expression(text, vars)
    except (ParseError, DivisionByZero, InvalidInput) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _check_against_recursive_path(monkeypatch, texts, vars=V):
    """Assert that every text parses to the same value, or fails with the
    same error at the same position, with the reader of printed text and
    with the reader made to refuse every text, so that the recursive descent
    reads them all; return how many texts the reader read."""
    reader = parser_module._read_printed
    read = 0

    def counted(text, vars):
        nonlocal read
        result = reader(text, vars)
        read += result is not None
        return result

    with monkeypatch.context() as m:
        m.setattr(parser_module, "_read_printed", counted)
        new = [_parsed(text, vars) for text in texts]
    with monkeypatch.context() as m:
        m.setattr(parser_module, "_read_printed", lambda text, vars: None)
        old = [_parsed(text, vars) for text in texts]
    for text, a, b in zip(texts, new, old):
        assert a == b, repr(text)
    return read


# texts near the printed shape; the recursive descent reads or refuses
# each of them where the reader refuses it
_BAIL_OUTS = (
    "(x + y)*z", "-x*y", "2^3*x", "x^2^2", "x^2^-1", "x^-2*y", "x^(2)*y",
    "x^-(1001)", "x^1001", "y^1001*x", "2*x^0001001", "x^" + "0" * 4301 + "1",
    "1" * 4301 + "*x", "x/" + "1" * 4301, "x*w", "w^2", "x/0", "x*y/0*z",
    "x/y", "x/(2)", "x/-2", "x/2^2", "x*(y + 1)", "x*y z", "x*", "x/", "x^",
    "*x", "x)", "x*²", "0^0", "x^y",
)

# (text, whether the reader reads it): a denominator outside parentheses is
# one power of one name, so 2/x*y*z is 2*y*z/x, not 2/(x*y*z)
_TRAPS = (
    ("2/x*y*z", False), ("x/y^2*z", False), ("(x + 1)/y*z", False),
    ("(x)/(y)/(z)", False), ("2/3/x", True), ("-7/2/(y^2 + y)", True),
    ("x*2", False), ("2x", False), ("x^2y", False), ("x^2^3", False),
    ("2*x^2*(y + 1)", False), ("x - -y", False), ("x/0", False),
    ("(x)/(0)", False), ("x + 1/y", False), ("-x/y^2", True),
    ("(x - y)/x^3", True), ("3/2*x*y^2/(z + 1)", True), ("(x + 1)", False),
    ("", False), ("  -x*y + 1/2\n", True), ("x +\n1", False), ("( + x)/y", False),
    ("x/( - y)", False),
)


def test_reader_traps(monkeypatch):
    for text, read in _TRAPS:
        assert (_read_printed(text, V) is not None) == read, repr(text)
    assert _check_against_recursive_path(monkeypatch, [text for text, _ in _TRAPS]) == \
        sum(read for _, read in _TRAPS)


def test_summand_loop_matches_the_recursive_path_on_bail_outs(monkeypatch):
    texts = []
    for b in _BAIL_OUTS + tuple(text for text, _ in _TRAPS):
        texts += [b, f"x*y + {b}", f"x*y - 2/3*z + {b} + 1", f"(x*y + {b})", f"x*y +\n  {b}"]
    # only -x*y, x/y, x/(2) and the six traps it reads, each alone
    assert _check_against_recursive_path(monkeypatch, texts) == 9
    with pytest.raises(ParseError) as err:
        parse_expression("x*y + 2/3*x^1001", V)
    assert str(err.value) == "exponent exceeds 1000 in magnitude (line 1, column 13)"


def test_summand_loop_matches_the_recursive_path_on_hostile_input(monkeypatch):
    assert _check_against_recursive_path(monkeypatch, [text for text, _, _ in HOSTILE]) == 0


def test_summand_loop_matches_the_recursive_path_on_criterion_5_tuples(monkeypatch):
    texts = []
    for seed in range(200):
        rep = random_additive_rep(seed, n=2 + seed % 3, max_types=3,
                                  max_deg=3, coeff_bound=9)
        form = generate(rep)
        texts += [(str(f), form.vars) for f in form.components]
    read = 0
    for vars in {vars for _, vars in texts}:
        read += _check_against_recursive_path(
            monkeypatch, [text for text, v in texts if v == vars], vars)
    assert read == len(texts)


def test_summand_loop_matches_the_recursive_path_on_random_expressions(monkeypatch):
    rng = random.Random(2024)
    texts = [_random_text(rng, rng.randint(1, 5))[0] for _ in range(300)]
    # measured: mostly a name, a literal, or a short product or quotient
    assert _check_against_recursive_path(monkeypatch, texts) == 104


def test_summand_loop_matches_the_recursive_path_on_random_summands(monkeypatch):
    # products of literals, names and powers, with undeclared names, zero
    # divisors and out-of-range exponents mixed in
    factors = ("0", "1", "2", "7", "12", "x", "y", "z", "w", "x^0", "y^2", "z^1000",
               "x^1001", "x^-1", "(y)", "-z", "2^2")
    rng = random.Random(20)
    texts = []
    for _ in range(1500):
        summands = []
        for _ in range(rng.randint(1, 4)):
            summand = rng.choice(factors)
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.2:
                    summand += "/" + rng.choice(("0", "3", "4", "x"))
                else:
                    summand += "*" + rng.choice(factors)
            summands.append(summand)
        text = summands[0]
        for s in summands[1:]:
            text += rng.choice((" + ", " - ")) + s
        texts.append(text)
    # measured: the rest holds a refused factor or a "/" the printer never writes
    assert _check_against_recursive_path(monkeypatch, texts) == 129


def test_reader_matches_the_recursive_path_one_edit_from_printed_text(monkeypatch):
    # every text one deleted, inserted or replaced piece away from a printed
    # one of each shape: the texts the reader must refuse sit next to the
    # ones it reads
    pieces = ("x", "w", "0", "2", "/", "*", "^", " ", " + ", " - ", "-", "(", ")", "\n",
              "x^2", "1001")
    texts = []
    for text in ("x^2*y - 1/2*z + 4", "(x^2 - 2/3*y*z + 1)/(x*y + 3)", "-7/2/(y^2 + y)",
                 "(x - y)/x^3", "3/2*x*y^2/z"):
        for i in range(len(text) + 1):
            texts.append(text[:i] + text[i + 1:])
            texts += [text[:i] + piece + text[i + skip:] for piece in pieces for skip in (0, 1)]
    assert _check_against_recursive_path(monkeypatch, texts) == 314


def test_summand_loop_stops_at_the_kernel_ceiling():
    # as in test_single_term_product_stops_at_the_kernel_ceiling, a factor
    # starts near the ceiling: the name w is made to stand for x^(2^31 - 1).
    # The reader must refuse exactly the products that _Parser.times refuses;
    # three factors of w would carry out of x's field past its guard bit
    # unless the reader checks the bit after each factor.
    vars = ("x", "y", "w")
    units = {"x": _pack((1, 0, 0)), "y": _pack((0, 1, 0)), "w": _pack((2**31 - 1, 0, 0))}
    top = Polynomial(vars, {(2**31 - 1, 0, 0): 1})
    parser = _Parser("x", vars)
    for text in ("w", "w*y", "3*y^1000*w", "w*x^0", "1/2*w*y", "w*x", "x*w", "w*w", "w*w*w"):
        coefficient, _, monomial = text.partition("*") if text[0].isdigit() else ("1", "", text)
        value = Polynomial.one(vars)
        try:
            for power in monomial.split("*"):
                name, _, exponent = power.partition("^")
                factor = top if name == "w" else parse_polynomial(name, vars)
                value = parser.times(value, factor ** int(exponent or 1), parser.tokens[0])
        except ParseError as exc:
            assert "2147483648" in str(exc)
            expected = None
        else:
            ints, den = value._scaled_ints()
            (key, c), = ints.items()
            expected = {key: Fraction(coefficient) * Fraction(c, den)}
        assert _read_sum(text, units, _layout(3)[0], {"": 0}) == expected, text


# ---------------------------------------------------------------------- #
# every printed output takes the reader


def test_every_printed_output_takes_the_reader(monkeypatch):
    """Components of the criterion-5 tuples and of 100 tuples in four
    variables, the exact parts and each r of their decompositions, and each
    representation through JSON: the reader reads every printed value back
    as itself, and as the recursive descent does."""
    values = []
    reps = [random_additive_rep(seed, n=2 + seed % 3, max_types=3, max_deg=3,
                                coeff_bound=9) for seed in range(200)]
    reps += [random_additive_rep(seed, n=4, max_types=3, max_deg=3, coeff_bound=9)
             for seed in range(100)]
    for rep in reps:
        form = generate(rep)
        values += [(f, form.vars) for f in form.components]
        back = decompose(form)
        values.append((back.exact_part, back.vars))
        values += [(r, ("Z",)) for _, r in back.parts]
        for piece in (rep, back):
            with monkeypatch.context() as m:
                m.setattr(parser_module, "_read_printed", _reader_only)
                assert rep_from_json(json.loads(json.dumps(rep_to_json(piece)))) == piece
    for value, vars in values:
        text = str(value)
        assert _read_printed(text, vars) == value == parser_module._Parser(text, vars).parse(), \
            text


def _reader_only(text, vars):
    value = _read_printed(text, vars)
    assert value is not None, text
    return value


# ---------------------------------------------------------------------- #
# the regular-expression tokenizer against the per-character scanner


class _Tokenizer:
    """The per-character scanner that ``parser._tokens`` replaced, kept as
    the oracle: ``tokens`` holds (kind, text, (line, column)) triples."""

    def __init__(self, text):
        self.text = text
        self.tokens = []
        self._scan()

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
            if c.isdecimal():
                j = i
                while j < n and text[j].isdecimal():
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


# ASCII operators, digits and name characters; an Arabic-Indic digit three;
# digits that are not decimal (superscript two, one half, Roman twelve); a
# letter with an accent; whitespace that does not start a line (tab, carriage
# return, no-break space, line separator); the newline; characters that start
# no token
_COMMON = "+-*/^()0123456789xyzAq_ "
_RARE = "\u0663\u00b2\u00bd\u216b\u00e9\t\r\u00a0\u2028\n#.$"


def _outcome(scan):
    """The (kind, text, line, column) tokens of a scan, or the ParseError's
    message, line and column."""
    try:
        return [(kind, word, *pos) for kind, word, pos in scan()]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


def test_tokens_match_the_per_character_scanner():
    rng = random.Random(18)
    errors = 0
    for _ in range(2500):
        text = "".join(rng.choice(_RARE if rng.random() < 0.08 else _COMMON)
                       for _ in range(rng.randint(0, 16)))
        new = _outcome(lambda: [(kind, word, _position(text, offset))
                                for kind, word, offset in _tokens(text)])
        old = _outcome(lambda: _Tokenizer(text).tokens)
        assert new == old, repr(text)
        errors += new[0] == "error"
        # a variable name is a string that reads as exactly one name token
        try:
            named = variable_names((text,)) == (text,)
        except InvalidInput:
            named = False
        assert named == (old == [("name", text, 1, 1), ("end", "", 1, len(text) + 1)])
    assert 300 <= errors <= 2200
