"""The counts that ``scripts/code_lines.py`` prints."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 8 code lines: the import, the def, the two lines of the string literal,
# the two lines of the return, the class and its attribute
FIXTURE = '''"""Module docstring
over two lines."""

import os  # a comment

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string
literal"""
    return (x +
            1)


class C:
    """Class
    docstring."""

    value = 1
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    assert code_lines.code_lines(FIXTURE) == 8
    assert code_lines.code_lines("") == 0
    # a string that is not the first statement is code
    assert code_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2


def test_one_directory_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "mod.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "inner.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "  lines  module",
        "      8  mod.py",
        "      1  pkg/inner.py",
        "      9  total",
    ]


def test_two_directories_print_the_difference(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    (base / "mod.py").write_text(FIXTURE)
    (base / "gone.py").write_text("x = 1\ny = 2\n")
    (head / "mod.py").write_text(FIXTURE + "z = 3\n")
    (head / "new.py").write_text("# only a comment\n")
    assert code_lines.main([str(base), str(head)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "   base    head    diff  module",
        "      2       0      -2  gone.py",
        "      8       9      +1  mod.py",
        "      0       0      +0  new.py",
        "     10       9      -1  total",
    ]


def test_options_and_other_argument_counts_print_the_usage(capsys):
    for argv in ([], ["a", "b", "c"], ["--help"]):
        assert code_lines.main(argv) == 2
    assert "code_lines.py" in capsys.readouterr().err
