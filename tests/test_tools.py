import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 8 code lines: the import, the def, the four lines of the multi-line
# statement, the string that follows the docstring and the return
MODULE = '''"""Module docstring
over two lines."""

import math  # a trailing comment leaves the line a code line

# a comment line


def f(x):
    """Function docstring."""
    # an indented comment
    total = (
        x

        + 1
    )
    "a string after the docstring is code"
    return math.sqrt(total)
'''


def test_code_lines_counts_only_code(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    path = tmp_path / "pkg" / "m.py"
    path.write_text(MODULE)
    assert code_lines.code_lines(path) == 8
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     8  pkg/m.py\n     8  total\n"
