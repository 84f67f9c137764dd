"""``studies/code_lines.py``, the code-line count ROADMAP quotes, run on
a small package whose count is known."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "studies" / "code_lines.py"

# 7 code lines: the import, the class line, both lines of the string
# that is not a docstring, the def line and both lines of the return
MODULE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment alone
class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self, y):
        """Function docstring."""
        return (y +
                1)
'''


def test_counts_code_lines_per_module_and_in_total(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "sub" / "c.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [["7", "a.py"], ["1", "b.py"], ["0", "sub/c.py"], ["8", "total"]]
