"""tools/code_lines.py counts statement lines only: no docstring, comment or
blank line."""

import sys
import textwrap
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from code_lines import code_lines  # noqa: E402


def test_only_statement_lines_count():
    source = textwrap.dedent('''\
        """A module docstring
        on two lines."""
        # a comment

        x = 1
        y = x  # a trailing comment
        ''')
    assert code_lines(source) == 2


def test_docstrings_of_functions_and_classes_do_not_count():
    source = textwrap.dedent('''\
        class A:
            """A class."""

            def f(self):
                """A method."""
                return (1,
                        2)
        ''')
    assert code_lines(source) == 4  # class, def and the statement's two lines
