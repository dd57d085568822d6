"""tools/compare_outputs.py: the command grid and the per-checkout worker."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_is_204_commands():
    labelled = _tool().commands()
    names = [argv[0] for _, argv in labelled]
    assert len(labelled) == 204
    assert names[:3] == ["construct", "verify", "extend"]
    assert names.count("construct") == 68
    assert len({label for label, _ in labelled}) == 204
    assert all("--variety" in argv for _, argv in labelled
               if argv[0] == "construct")


def test_worker_records_exit_stderr_and_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argvs = [["construct", "--family", "IV", "--n", "4", "--dim", "1",
              "--degree", "4", "--out", "jet.json"],
             ["verify", "--in", "jet.json", "--degree", "9", "--out", "v"],
             ["verify", "--in", "jet.json", "--out", "v2"],
             ["verify", "--out", "v3"]]
    (code0, err0, sha0), (code1, err1, sha1), (code2, _, sha2), \
        (code3, _, sha3) = _tool().collect(argvs)
    assert (code0, err0, code2, code3) == (0, [], 0, 2)
    assert code1 == 2 and len(err1) == 1 and err1[0].startswith("error:")
    assert len(sha0) == len(sha2) == 64 and sha0 != sha2
    assert sha1 is None and sha3 is None
