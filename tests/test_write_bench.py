"""tools/write_bench.py: the line count it records and how it runs the
benchmark."""

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


FAKE_RUN = """\
import json, os, pathlib, sys
here = pathlib.Path.cwd()
caches = sorted(str(p.relative_to(here)) for p in here.rglob("__pycache__"))
nobytecode = os.environ.get("PYTHONDONTWRITEBYTECODE")
print(json.dumps({"env": {"caches": caches, "argv": sys.argv[1:],
                          "nobytecode": nobytecode}}))
print(json.dumps({"result": 1}))
"""


def test_bench_run_starts_without_bytecode_caches(tmp_path):
    # the caches under src/ and bench/ are gone before the run, which is
    # told to write none; others are left alone
    for cache in ("src/pkg/__pycache__", "src/pkg/sub/__pycache__",
                  "bench/__pycache__", "tools/__pycache__"):
        (tmp_path / cache).mkdir(parents=True)
        (tmp_path / cache / "m.cpython-311.pyc").write_bytes(b"stale")
    (tmp_path / "bench" / "run.py").write_text(FAKE_RUN)
    env, result = _tool().bench_run("float-construct", 7, 1.5, 0, tmp_path)
    assert env == {"caches": ["tools/__pycache__"], "nobytecode": "1",
                   "argv": ["--workload", "float-construct", "--seed", "7",
                            "--seconds", "1.5", "--trace", "0"]}
    assert result == {"result": 1}
    assert not (tmp_path / "src" / "pkg" / "__pycache__").exists()
