"""tools/code_lines.py counts code lines: not blank, comment or docstring lines."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Method docstring,

        with a blank line inside."""
        text = """a multi-line string
that is not a docstring"""
        return math.prod(
            (self.size, len(text))
        )


def bare():
    "A one-line docstring in plain quotes."
    "a second string statement is code"
'''


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_of_a_fixture():
    # import, class, size, def area, text (2 lines), return (3 lines),
    # def bare, the second string
    assert _load().code_lines(FIXTURE) == 11


def test_prints_each_module_and_the_total(tmp_path, capsys):
    code_lines = _load()
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# comment\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.count(tmp_path) == {"a.py": 11, "b.py": 2}
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "11", "b.py", "2", "total", "13"]
