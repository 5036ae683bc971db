"""The code-line counter in tools/, the measure of the package's size."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "counted_lines.py"
_spec = importlib.util.spec_from_file_location("counted_lines", TOOL)
counted_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counted_lines)


@pytest.mark.parametrize("source, count", [
    ('"""A module docstring\nover two lines."""\nx = 1\n', 1),
    ('class Box:\n    """A class docstring."""\n    x = 1\n', 2),
    ('def size():\n    """A function docstring\n    over two lines."""\n    return 1\n', 2),
    ("# a comment\n\nx = 1  # a trailing comment\n\n", 1),
    ('TEXT = """a string\nthat is not\na docstring"""\n', 3),
    ("total = (1 +\n         2)\n", 2),
], ids=["module-docstring", "class-docstring", "function-docstring", "comments-and-blanks",
        "multi-line-string", "split-statement"])
def test_counts_the_lines_that_carry_code(source, count, tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert counted_lines.counted_lines(path) == count


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "two.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "one.py").write_text('"""Doc."""\nx = 1\n', encoding="utf-8")
    assert counted_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     2 {tmp_path / 'two.py'}",
        f"     1 {tmp_path / 'one.py'}",
        "     3 total",
    ]


def test_main_without_arguments_is_a_usage_error(capsys):
    assert counted_lines.main([]) == 2
    assert "counted_lines.py" in capsys.readouterr().err
