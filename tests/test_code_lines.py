"""scripts/code_lines.py counts only code lines, and sums them per module."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment line
class Box:
    """Class docstring."""

    def size(self):
        """Function docstring,
        over two lines."""
        text = """a string
over three
lines"""
        return len(text) + len(os.sep)
'''


def test_only_code_lines_count():
    """import, class, def, the three lines of the string and return: 7."""
    assert code_lines.code_lines(SNIPPET) == 7


def test_main_prints_each_module_and_their_total(capsys):
    assert code_lines.main() == 0
    *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    paths = sorted(code_lines.PACKAGE.glob("*.py"))
    assert [name for name, _ in modules] == [path.stem for path in paths]
    assert [int(count) for _, count in modules] == [
        code_lines.code_lines(path.read_text()) for path in paths
    ]
    assert total == ["total", str(sum(int(count) for _, count in modules))]
