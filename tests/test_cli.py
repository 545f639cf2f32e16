"""CLI tests that loop over generated inputs, chain commands, patch the
library or read interpreter state.  Every fixed command line whose output
is pinned, error messages and written files included, is a case directory
under ``tests/cli_cases`` instead (``test_cli_cases.py``); none is pinned
here."""

import io
import json
import sys

import pytest

from wzforms import (AdditiveRepresentation, IntegerLinearType, InvalidInput,
                     parse_expression)
from wzforms import cli
from wzforms.cli import rep_from_json, rep_to_json, run_command

V = ("x", "y", "z")


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    status = run_command(argv, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


def write_triple(tmp_path, texts):
    paths = []
    for name, text in zip("fgh", texts):
        p = tmp_path / f"{name}.txt"
        p.write_text(text + "\n")
        paths.append(str(p))
    return paths


TRIPLE = (
    "1/(4*x+6*y+5*z) + 1/(4*x+6*y+5*z+1) + 1/(4*x+6*y+5*z+2) + 1/(4*x+6*y+5*z+3)",
    "1/(4*x+6*y+5*z) + 1/(4*x+6*y+5*z+1) + 1/(4*x+6*y+5*z+2) + 1/(4*x+6*y+5*z+3)"
    " + 1/(4*x+6*y+5*z+4) + 1/(4*x+6*y+5*z+5)"
    " + 1/(3*y+2*z) + 1/(3*y+2*z+1) + 1/(3*y+2*z+2)",
    "1/(4*x+6*y+5*z) + 1/(4*x+6*y+5*z+1) + 1/(4*x+6*y+5*z+2) + 1/(4*x+6*y+5*z+3)"
    " + 1/(4*x+6*y+5*z+4)"
    " + 1/(3*y+2*z) + 1/(3*y+2*z+1)",
)


def test_generate_round_trips_through_files(tmp_path):
    paths = write_triple(tmp_path, TRIPLE)
    rep_path = tmp_path / "rep.json"
    status, _, _ = run(["decompose", "--vars", "x,y,z",
                        "--out", str(rep_path), *paths])
    assert status == 0
    status, out, err = run(["generate", "--in", str(rep_path)])
    assert status == 0
    lines = out.strip().split("\n")
    expected = [str(parse_expression(t, V)) for t in TRIPLE]
    assert lines == expected


def test_generate_decompose_byte_identical_canonical_fixture(tmp_path):
    # canonical printed forms stay fixed under a file-level round trip
    f = "(x*y*z - y^2*z - y*z^2 + y*z + 1)/(x - y - z + 1)"
    g = "(x^2*z - x*y*z - x*z^2 + x*y - y^2 - y*z - 1)/(x - y - z)"
    h = "(x^2*y - x*y^2 - x*y*z + x*z - y*z - z^2 - 1)/(x - y - z)"
    canon = [str(parse_expression(t, V)) for t in (f, g, h)]
    paths = write_triple(tmp_path, canon)
    rep_path = tmp_path / "rep.json"
    status, _, err = run(["decompose", "--vars", "x,y,z",
                          "--out", str(rep_path), *paths])
    assert status == 0, err
    status, out, _ = run(["generate", "--in", str(rep_path)])
    assert status == 0
    assert out == "".join(line + "\n" for line in canon)


def test_fuzz_reports_a_counterexample(monkeypatch):
    """A decompose that adds x to the exact part breaks every round trip
    (adding a constant would not: its differences are 0), and fuzz reports
    the first seed, its representation and the components that differ."""
    decompose = cli.decompose

    def off_by_x(form):
        rep = decompose(form)
        x = parse_expression(rep.vars[0], rep.vars)
        return AdditiveRepresentation(rep.vars, rep.exact_part + x, rep.parts)

    monkeypatch.setattr(cli, "decompose", off_by_x)
    status, out, err = run(["fuzz", "--seed", "0", "--count", "2"])
    assert (status, err) == (1, "")
    lines = out.splitlines()
    assert lines[:2] == [
        "counterexample at seed 0:",
        "  representation: (exact = (-9*x^2*y - 9*x*y*z - 9*x*y - 1/2)/(x + z + 1); "
        "uniform = {(1,-1,-1): (7/6*Z + 1/6)/Z^2, (1,-1,-2): -9/7/Z})"]
    assert lines[2:] and all(line.startswith("  component ") for line in lines[2:])


def test_one_parser_serves_every_command(tmp_path, monkeypatch):
    paths = write_triple(tmp_path, TRIPLE)
    commands = [["verify", "--vars", "x,y,z", *paths],
                ["verify", "--vars", "x,y,z"],  # no component files
                ["fuzz", "--seed", "0", "--count", "1"],
                ["verify", "--vars", "x,y,z", *paths[:2], paths[0]]]
    fresh = []
    for argv in commands:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(argv))
    assert [status for status, _, _ in fresh] == [0, 3, 0, 1]
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    assert [run(argv) for argv in commands] == fresh
    assert len(builds) == 1


def test_usage_and_io_errors(tmp_path):
    status, _, err = run(["decompose", "--vars", "x,y", "--out", "o.json"])
    assert status == 3  # missing component files
    status, _, err = run(["verify", "--vars", "x,y", str(tmp_path / "nope.txt"),
                          str(tmp_path / "nope2.txt")])
    assert status == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    status, _, err = run(["generate", "--in", str(bad)])
    assert status == 3
    bad.write_text(json.dumps({"vars": ["x"], "exact": "0",
                               "uniform": [{"type": [2], "r": "1/Z"}]}))
    status, _, err = run(["generate", "--in", str(bad)])
    assert status == 3  # type entries must be coprime
    status, _, err = run(["residue", "--vars", "x,y", "--wrt", "q",
                          "--at", "x", "--mult", "1", str(bad)])
    assert status == 3
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"x\xff\n")
    status, _, err = run(["verify", "--vars", "x", str(latin)])
    assert status == 3 and "UTF-8" in err
    latin.write_bytes(b'{"vars": ["x"], "exact": "\xff", "uniform": []}')
    status, _, err = run(["generate", "--in", str(latin)])
    assert status == 3 and "UTF-8" in err
    for doc in ({"vars": 5, "exact": "0", "uniform": []},
                {"vars": "xy", "exact": "0", "uniform": []},
                {"vars": ["x"], "exact": "0", "uniform": 5},
                {"vars": ["x"], "exact": "0", "uniform": ["1/Z"]},
                {"vars": ["x"], "exact": 5, "uniform": []},
                {"vars": ["x"], "exact": "0", "uniform": [{"type": [1], "r": 5}]}):
        bad.write_text(json.dumps(doc))
        status, out, err = run(["generate", "--in", str(bad)])
        assert (status, out) == (3, ""), doc
        assert err.startswith("error: "), doc


def test_boolean_direction_entries_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    for vtype in ([True, False], [1, True], [False, 1]):
        doc = {"vars": ["x", "y"], "exact": "0", "uniform": [{"type": vtype, "r": "1/Z"}]}
        with pytest.raises(InvalidInput, match="integers"):
            rep_from_json(doc)
        bad.write_text(json.dumps(doc))
        for argv in (["generate", "--in", str(bad)], ["conjugate", "--in", str(bad)]):
            status, out, err = run(argv)
            assert (status, out) == (3, ""), (vtype, argv)
            assert err == "error: type entries must be integers\n"


def test_exponent_overflow_exits_3(tmp_path):
    """(x^2148000 + 1)^1000 passes every parser bound, and its last square
    would reach x^(2^31): the kernel refuses it, and the CLI exits 3."""
    p = tmp_path / "f.txt"
    p.write_text("(" + "*".join(["x^1000"] * 2148) + " + 1)^1000\n")
    zero = tmp_path / "zero.txt"
    zero.write_text("0\n")
    status, _, err = run(["verify", "--vars", "x,y", str(p), str(zero)])
    assert status == 3 and "2**31" in err


def _decimal(text):
    """The value of a decimal string, read in pieces short enough for the
    interpreter's integer-string limit."""
    value = 0
    for k in range(0, len(text), 1000):
        piece = text[k:k + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def test_exact_results_print_past_the_integer_string_limit(tmp_path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    big = 99999**1000  # 5,000 digits
    doc = tmp_path / "r.json"
    doc.write_text(json.dumps({"vars": ["x", "y"], "exact": "99999^1000*x",
                               "uniform": []}))
    status, out, err = run(["generate", "--in", str(doc)])
    assert (status, err) == (0, "")
    first, second = out.splitlines()
    assert (_decimal(first), second) == (big, "0")
    f = tmp_path / "f.txt"
    f.write_text("99999^1000*x\n")
    g = tmp_path / "g.txt"
    g.write_text("0\n")
    out_path = tmp_path / "o.json"
    status, out, err = run(["decompose", "--vars", "x,y", "--out", str(out_path),
                            str(f), str(g)])
    assert (status, err) == (0, "")
    # the antidifference of big*x is big*x*(x - 1)/2
    exact = json.loads(out_path.read_text())["exact"]
    half = exact.split("/")[0]
    assert exact == f"{half}/2*x^2 - {half}/2*x" and _decimal(half) == big
    # the parser keeps its own bound on literals
    f.write_text("1" * 5000 + "*x\n")
    status, out, err = run(["verify", "--vars", "x,y", str(f), str(g)])
    assert (status, out) == (3, "")
    assert err == "error: integer literal too long (line 1, column 1)\n"
    # and the interpreter's limit is back as it was
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_long_json_integers_are_refused(tmp_path):
    doc = tmp_path / "r.json"
    long = "1" + "0" * 4999
    doc.write_text('{"vars": ["x", "y"], "exact": "0", '
                   '"uniform": [{"type": [%s, 1], "r": "1"}]}' % long)
    for command in ("generate", "conjugate"):
        status, out, err = run([command, "--in", str(doc)])
        assert (status, out) == (3, "")
        assert err == "error: JSON integer literal longer than 4300 digits\n"
    if hasattr(sys, "get_int_max_str_digits"):
        # a long integer argument is refused under the interpreter's own limit
        status, out, err = run(["fuzz", "--seed", long])
        assert (status, out) == (3, "") and "invalid int value" in err


def test_deeply_nested_json_is_malformed_input(tmp_path):
    # deeper than the decoder's recursion limit: exit 3, not an internal error
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100_000 + "]" * 100_000)
    for command in ("generate", "conjugate"):
        status, out, err = run([command, "--in", str(doc)])
        assert (status, out) == (3, "")
        assert err.startswith(f"error: malformed JSON in {doc}: ")


def test_internal_error_exit_code(tmp_path, monkeypatch):
    def broken(components):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr("wzforms.cli.is_wz_form", broken)
    p = tmp_path / "f.txt"
    p.write_text("x\n")
    status, out, err = run(["verify", "--vars", "x", str(p)])
    assert status == 4 and out == ""
    assert err == "internal error: RuntimeError: unexpected state\n"


def test_json_round_trip():
    rep = AdditiveRepresentation(
        ("x", "y"),
        parse_expression("(x+1)/(2*y-1)", ("x", "y")),
        [(IntegerLinearType((1, -2)), parse_expression("(Z+1)/Z^2", ("Z",)))])
    doc = rep_to_json(rep)
    back = rep_from_json(json.loads(json.dumps(doc)))
    assert back.vars == rep.vars
    assert back.exact_part == rep.exact_part
    assert [(t.entries, r) for t, r in back.parts] == \
        [(t.entries, r) for t, r in rep.parts]
    assert rep_to_json(back) == doc
