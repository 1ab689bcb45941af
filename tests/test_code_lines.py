import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring,
on two lines."""

# a comment
import os


class Holder:
    """A class docstring."""

    def method(self):
        """A function docstring."""
        """A string expression that is no docstring,
        on two lines."""
        return os.sep  # a comment after code
'''


def test_code_lines_count_code_and_string_expressions_not_docstrings_or_comments():
    # import, class, def, the two lines of the string expression, return
    assert code_lines.code_lines(SOURCE) == 6
