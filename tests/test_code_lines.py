"""``tools/code_lines.py`` counts the code lines of every module: no blank line, comment or docstring."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"

# 8 code lines: the two imports, the constant, the two lines of a string that is no docstring, the class line and
# the function's def and return; the docstrings, comments and blank lines are not code.
SYNTHETIC = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves the line code
import sys

# a comment line
LIMIT = 2

MESSAGE = """a string that is no docstring
is code"""


class Thing:
    """Class docstring."""

    def size(self):
        """Function
        docstring."""

        return LIMIT
'''


def run(*args: str) -> list[str]:
    out = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, check=True).stdout
    return out.splitlines()


def test_counts_a_module_of_known_lines(tmp_path):
    (tmp_path / "one.py").write_text(SYNTHETIC)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "two.py").write_text('"""Only a docstring."""\n\n\nX = 1\n')
    assert run(str(tmp_path)) == ["8 one.py", "1 pkg/two.py", "9 total"]


def test_lists_every_module_of_the_package():
    lines = run()
    modules = sorted(p.relative_to(ROOT / "src" / "qudual").as_posix() for p in (ROOT / "src" / "qudual").rglob("*.py"))
    assert [line.split(" ", 1)[1] for line in lines[:-1]] == modules
    counts = [int(line.split(" ", 1)[0]) for line in lines]
    assert lines[-1].endswith(" total") and counts[-1] == sum(counts[:-1]) > 0
