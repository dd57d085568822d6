"""tools/write_bench.py: the line count it records."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "write_bench.py"


def _tool():
    spec = importlib.util.spec_from_file_location("write_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_python_files_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("\n\n\nz = 3")  # no final newline
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "c.py").write_text("not counted\n")
    assert _tool().src_lines(tmp_path) == 5


def test_src_lines_of_this_checkout_match_the_files():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    want = sum(len(f.read_text().splitlines()) for f in files)
    assert _tool().src_lines() == want
