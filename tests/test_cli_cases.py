"""Pinned command lines: every directory under ``tests/cli_cases`` is one
invocation of the CLI and the exact bytes it must produce.

A case directory holds ``argv`` (one argument per line, paths relative to
the case directory), the input files it names, and ``stdout``, ``stderr``
and ``exit`` (an empty file is empty output).  A case that writes files
also holds ``out/``, each file of which must be written at the same path,
byte for byte.  CI replays the same directories through the installed
``wzforms`` console script.

A fresh interpreter runs a few cases to check that only a command that
factors imports sympy.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from wzforms.cli import run_command

CASES = Path(__file__).parent / "cli_cases"
SRC = Path(__file__).parents[1] / "src"
NAMES = sorted(p.name for p in CASES.iterdir() if p.is_dir())


def _read(path):
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", NAMES)
def test_cli_case(name, tmp_path, monkeypatch):
    case = CASES / name
    work = tmp_path / name
    shutil.copytree(case, work)
    monkeypatch.chdir(work)
    out, err = io.StringIO(), io.StringIO()
    status = run_command(_read(case / "argv").splitlines(), out=out, err=err)
    assert (status, out.getvalue(), err.getvalue()) == (
        int(_read(case / "exit")), _read(case / "stdout"), _read(case / "stderr"))
    expected = case / "out"
    if expected.is_dir():
        for path in sorted(p for p in expected.rglob("*") if p.is_file()):
            rel = path.relative_to(expected)
            assert (work / rel).read_bytes() == path.read_bytes(), rel


def test_round_trip_cases_agree(tmp_path, monkeypatch):
    """``roundtrip_decompose`` reads the components that
    ``roundtrip_generate`` prints, and generating from the representation it
    writes prints them again."""
    printed = _read(CASES / "roundtrip_generate" / "stdout")
    decompose = CASES / "roundtrip_decompose"
    argv = _read(decompose / "argv").splitlines()
    assert "".join(_read(decompose / name) for name in argv[-3:]) == printed
    back = decompose / "out" / "back.json"
    shutil.copy(back, tmp_path / "back.json")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    assert run_command(["generate", "--in", "back.json"], out=out) == 0
    assert out.getvalue() == printed


# commands that factor nothing: a parse error, an integer-linear
# decomposition, generation and a "no" from verification
SYMPY_FREE = ["parse_error_superscript", "intlinear_linear", "roundtrip_generate",
              "verify_no"]
# run in a fresh interpreter, each argument a case directory: prints whether
# sympy was loaded after the import and after each case, with its output
_LAZY_CHILD = """
import io, json, os, sys
import wzforms, wzforms.cli
report = {"after_import": "sympy" in sys.modules, "cases": []}
for case in sys.argv[1:]:
    os.chdir(case)
    with open("argv", encoding="utf-8") as fh:
        argv = fh.read().splitlines()
    out, err = io.StringIO(), io.StringIO()
    status = wzforms.cli.run_command(argv, out=out, err=err)
    report["cases"].append([status, out.getvalue(), err.getvalue(), "sympy" in sys.modules])
print(json.dumps(report))
"""


def test_sympy_loads_only_when_something_is_factored(tmp_path):
    names = SYMPY_FREE + ["conjugate_sextic"]
    for name in names:
        shutil.copytree(CASES / name, tmp_path / name)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LAZY_CHILD, *(str(tmp_path / n) for n in names)],
                          capture_output=True, text=True, check=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    report = json.loads(proc.stdout)
    assert report["after_import"] is False
    for name, (status, out, err, loaded) in zip(names, report["cases"], strict=True):
        case = CASES / name
        assert (status, out, err) == (
            int(_read(case / "exit")), _read(case / "stdout"), _read(case / "stderr")), name
        # conjugate_sextic factors its pole, so the lazy route reaches sympy
        assert loaded is (name == "conjugate_sextic"), name
