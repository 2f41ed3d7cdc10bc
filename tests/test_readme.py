"""The README's examples run and print what the README says they print."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

import jensengap.cli as cli

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def _blocks(heading):
    """The fenced blocks of the README section under ``heading``, as
    (language, text) pairs in order."""
    section = README.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```(\w*)\n(.*?)```", section, re.S)


def test_library_quick_start_holds_its_comments():
    (lang, code), = _blocks("## Library quick start")
    assert lang == "python"
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, namespace)
    verdict, gaussian_gap = out.getvalue().split()
    assert namespace["M"].value == pytest.approx(0.25, rel=1e-6)
    assert namespace["report"].value == pytest.approx(0.5, rel=1e-6)
    assert namespace["gap"].value == pytest.approx(-0.4597, abs=5e-5)
    assert verdict == "pass"
    assert float(gaussian_gap) == pytest.approx(-0.11750, abs=5e-6)


def test_cli_bound_example_prints_its_table(capsys):
    (sh, command), (_, table) = _blocks("## CLI")[:2]
    assert sh == "sh"
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[0] == "jensengap"
    assert cli.main(argv[1:]) == 0
    assert capsys.readouterr().out == table
