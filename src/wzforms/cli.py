"""Command-line interface and JSON serialization.

Exit codes: 0 success, 1 verification answered "no", 2 decomposition
rejected the input tuple, 3 usage, parse or I/O errors, 4 internal error
(an unexpected exception, reported on one stderr line, so that a failure
never reads as "no").
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DivisionByZero, InvalidInput, NotAWZForm, ParseError
from .intlinear import IntegerLinearType, integer_linear_decompose
from .orbital import orbital_residue
from .parser import (MAX_LITERAL_DIGITS, parse_expression, parse_polynomial,
                     variable_names)
from .shifts import WZForm, is_wz_form
from .wzform import (AdditiveRepresentation, conjugate_polygamma, decompose,
                     generate, random_additive_rep)

EXIT_OK = 0
EXIT_NO = 1
EXIT_NOT_WZ = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------- #
# JSON form of an additive representation


def rep_to_json(rep):
    return {
        "vars": list(rep.vars),
        "exact": str(rep.exact_part),
        "uniform": [{"type": list(vtype.entries), "r": str(r)}
                    for vtype, r in rep.parts],
    }


def rep_from_json(obj):
    if not isinstance(obj, dict):
        raise InvalidInput("representation document must be an object")
    try:
        vars = obj["vars"]
        exact_text = obj["exact"]
        uniform = obj["uniform"]
    except KeyError as missing:
        raise InvalidInput(f"missing key {missing} in representation document")
    if not (isinstance(vars, list) and vars and all(isinstance(v, str) for v in vars)):
        raise InvalidInput("vars must be a nonempty list of names")
    vars = variable_names(vars)
    if not isinstance(exact_text, str):
        raise InvalidInput("exact must be a string")
    if not (isinstance(uniform, list) and all(isinstance(e, dict) for e in uniform)):
        raise InvalidInput("uniform must be a list of objects")
    exact = parse_expression(exact_text, vars)
    parts = []
    for entry in uniform:
        vtype = entry.get("type")
        rtext = entry.get("r")
        if not isinstance(vtype, list) or len(vtype) != len(vars):
            raise InvalidInput("each uniform entry needs a type of full length")
        if not isinstance(rtext, str):
            raise InvalidInput("each uniform entry needs r as a string")
        r = parse_expression(rtext, ("Z",))
        parts.append((IntegerLinearType(vtype), r))
    return AdditiveRepresentation(vars, exact, parts)


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path} is not valid UTF-8: {exc.reason} "
                           f"at byte {exc.start}") from None


def _parse_file(path, vars):
    """The expression in a file; a parse error names the path as given."""
    text = _read_text(path)
    try:
        return parse_expression(text, vars)
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _json_int(text):
    # the interpreter's integer-string limit is lifted while a command runs,
    # so JSON numbers get the parser's bound on literals
    if len(text.lstrip("-")) > MAX_LITERAL_DIGITS:
        raise InvalidInput(f"JSON integer literal longer than "
                           f"{MAX_LITERAL_DIGITS} digits")
    return int(text)


def _load_rep(path):
    try:
        doc = json.loads(_read_text(path), parse_int=_json_int)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInput(f"malformed JSON in {path}: {exc}")
    return rep_from_json(doc)


def _parse_vars(text):
    vars = tuple(name.strip() for name in text.split(",") if name.strip())
    if not vars:
        raise InvalidInput("--vars needs a comma-separated list of names")
    return variable_names(vars)


def _read_tuple(args):
    """``(vars, components)``: the ``--vars`` names and one component parsed
    from each file, one file per variable."""
    vars = _parse_vars(args.vars)
    components = [_parse_file(path, vars) for path in args.files]
    if len(components) != len(vars):
        raise InvalidInput("need exactly one component file per variable")
    return vars, components


# ---------------------------------------------------------------------- #
# subcommands


def _cmd_verify(args, out):
    ok = is_wz_form(_read_tuple(args)[1])
    print(f"WZ-form: {'yes' if ok else 'no'}", file=out)
    return EXIT_OK if ok else EXIT_NO


def _cmd_decompose(args, out):
    rep = decompose(WZForm(*_read_tuple(args)))
    doc = rep_to_json(rep)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}", file=out)
    return EXIT_OK


def _cmd_generate(args, out):
    rep = _load_rep(args.infile)
    form = generate(rep)
    for component in form:
        print(component, file=out)
    return EXIT_OK


def _cmd_residue(args, out):
    vars = _parse_vars(args.vars)
    if args.wrt not in vars:
        raise InvalidInput(f"--wrt names an undeclared variable {args.wrt!r}")
    i = vars.index(args.wrt)
    d = parse_polynomial(args.at, vars)
    f = _parse_file(args.file, vars)
    value = orbital_residue(f, d, args.mult, i)
    print(value, file=out)
    return EXIT_OK


def _cmd_intlinear(args, out):
    vars = _parse_vars(args.vars)
    p = parse_polynomial(args.poly, vars)
    got = integer_linear_decompose(p)
    if got is None:
        print("not integer-linear", file=out)
        return EXIT_NO
    P, vtype = got
    print(f"({P}, {vtype})", file=out)
    return EXIT_OK


def _cmd_conjugate(args, out):
    rep = _load_rep(args.infile)
    expr = conjugate_polygamma(rep)
    print(expr.latex() if args.latex else expr, file=out)
    return EXIT_OK


def _cmd_fuzz(args, out):
    if args.count < 1:
        raise InvalidInput("--count must be at least 1")
    for k in range(args.count):
        seed = args.seed + k
        rep = random_additive_rep(seed, n=args.nvars, max_types=args.max_types,
                                  max_deg=args.max_deg, coeff_bound=args.coeff_bound)
        first = generate(rep)
        second = generate(decompose(first))
        if second.components != first.components:
            print(f"counterexample at seed {seed}:", file=out)
            print(f"  representation: {rep}", file=out)
            for a, b in zip(first, second):
                if a != b:
                    print(f"  component {a} != {b}", file=out)
            return EXIT_NO
    print(f"{args.count} round trips ok (seeds {args.seed}..{args.seed + args.count - 1})",
          file=out)
    return EXIT_OK


def _build_parser():
    parser = _ArgumentParser(prog="wzforms",
                             description="Exact tools for rational "
                                         "Wilf-Zeilberger forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the compatibility conditions")
    p.add_argument("--vars", required=True)
    p.add_argument("files", nargs="+", metavar="component-file")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("decompose", help="write the additive representation "
                                          "of a compatible tuple as JSON")
    p.add_argument("--vars", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("files", nargs="+", metavar="component-file")
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("generate", help="print the tuple described by a "
                                         "representation file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(run=_cmd_generate)

    p = sub.add_parser("residue", help="orbital residue of one component")
    p.add_argument("--vars", required=True)
    p.add_argument("--wrt", required=True)
    p.add_argument("--at", required=True, metavar="poly")
    p.add_argument("--mult", required=True, type=int)
    p.add_argument("file", metavar="component-file")
    p.set_defaults(run=_cmd_residue)

    p = sub.add_parser("intlinear", help="integer-linear decomposition of a "
                                          "polynomial")
    p.add_argument("--vars", required=True)
    p.add_argument("poly")
    p.set_defaults(run=_cmd_intlinear)

    p = sub.add_parser("conjugate", help="polygamma conjugate of a "
                                          "representation file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--latex", action="store_true")
    p.set_defaults(run=_cmd_conjugate)

    p = sub.add_parser("fuzz", help="seeded generate/decompose round-trip "
                                     "search for counterexamples")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--nvars", type=int, default=3)
    p.add_argument("--max-types", dest="max_types", type=int, default=2)
    p.add_argument("--max-deg", dest="max_deg", type=int, default=2)
    p.add_argument("--coeff-bound", dest="coeff_bound", type=int, default=9)
    p.set_defaults(run=_cmd_fuzz)
    return parser


# one parser per process, built on first use: a parse keeps nothing in the
# parser, so every command line can share it
_PARSER = None


def _parser():
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


def run_command(argv, out=None, err=None):
    """Dispatch one command line; returns the process exit status.

    Exact results can have more digits than the interpreter's integer-string
    limit allows to print, so the limit is lifted while the command runs,
    once its arguments are parsed.  Integer literals in expressions and in
    JSON documents are bounded by ``parser.MAX_LITERAL_DIGITS`` instead.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _parser()
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is not None:
        saved = sys.get_int_max_str_digits()
    try:
        args = parser.parse_args(argv)
        if set_limit is not None:
            set_limit(0)
        return args.run(args, out)
    except NotAWZForm as exc:
        print(f"not a WZ-form: {exc}", file=err)
        return EXIT_NOT_WZ
    except (_UsageError, ParseError, InvalidInput, DivisionByZero, OSError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=err)
        return EXIT_INTERNAL
    finally:
        if set_limit is not None:
            set_limit(saved)


def main():
    try:
        status = run_command(sys.argv[1:])
        sys.stdout.flush()
    except KeyboardInterrupt:
        sys.exit(130)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); not our error
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(status)


if __name__ == "__main__":
    main()
