"""Pinned command lines: every directory under ``tests/cli_cases`` is one
invocation of the CLI and the exact bytes it must produce.

A case directory holds ``argv`` (one argument per line, paths relative to
the case directory), the input files it names, and ``stdout``, ``stderr``
and ``exit`` (an empty file is empty output).  A case that writes files
also holds ``out/``, each file of which must be written at the same path,
byte for byte.  CI replays the same directories through the installed
``wzforms`` console script.
"""

import io
import shutil
from pathlib import Path

import pytest

from wzforms.cli import run_command

CASES = Path(__file__).parent / "cli_cases"
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
