from code_lines import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class Box:
    """Class docstring."""

    def size(self, a,
             b):
        """Function docstring,
        over two lines."""

        return os.path.join(a,
                            b,
                            "c")
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    # import, class, def (two lines), return (three lines)
    assert code_lines(SOURCE) == 7


def test_every_line_of_a_multi_line_call_counts():
    assert code_lines("f(1,\n  2,\n  3)\n") == 3
    assert code_lines("# only a comment\n\n") == 0
