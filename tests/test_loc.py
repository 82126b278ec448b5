import subprocess
import sys
from pathlib import Path

LOC = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code


def f(x):
    """Function docstring."""
    # a comment line

    text = """a string that is
not a docstring"""
    return [x,
            os.sep, text]
'''


def test_loc_counts_code_lines_only(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = 2\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(LOC), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    # a.py 6: import, def, both lines of text = ..., both lines of return; b.py 2
    assert out == "8\n"


def test_loc_counts_a_file_argument_as_that_file(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "c.py").write_text("z = 3\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(LOC), str(tmp_path / "b.py")],
                         capture_output=True, text=True, check=True).stdout
    assert out == "2\n"


def test_loc_refuses_a_missing_path(tmp_path):
    missing = tmp_path / "nonexistent_dir"
    run = subprocess.run([sys.executable, str(LOC), str(tmp_path), str(missing)],
                         capture_output=True, text=True)
    assert run.returncode != 0
    assert (run.stdout, run.stderr) == ("", f"loc.py: no such file or directory: {missing}\n")
