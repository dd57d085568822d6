"""Compare the command line outputs of this checkout with another one's.

    python3 tools/compare_outputs.py OTHER_CHECKOUT

Runs ``construct --variety``, then ``verify`` and ``extend`` on its
output, through ``symdom.cli.main`` on the benchmark's construct grid
(``bench/workloads.py``: 17 cases), in exact and float mode, at seed 9
with degree 6 and at seed 901 with degree 4: 204 commands.  Then
``kernel --point --direction`` on each of the grid's 5 families, in both
modes, at one interior point and along a coordinate axis or along one
direction off the axes: 20 commands, whose documents hold the kernel
value, the minimal embedding and the membership at the point, and the
curvature at the origin.  Then exact ``construct --variety`` and
``extend`` for I(2,3) and I(2,4) at source dimension 1, seeds 1-8,
degree 4: 32 commands, whose extensions take the exact route (plus
composites that vanish) for 10 of the 16 jets.  Then ``verify --seed 5
--samples 40`` on the seed-901 documents at source dimension 2, in both
modes, each twice: 20 commands, whose second runs read the polarized
sample points and the expansions that the process keeps.  Then
``invariants`` for one domain of each of the 7 families, in json and in
text, and ``threshold-table --families I,II,III --max 12`` in csv and in
json: 16 commands.  After them, ``construct --variety`` -> ``verify`` ->
``extend`` as above on two families outside the grid, polydisk^2 at
source dimension 1 (whose ``extend`` exits 2: it fails the codimension
inequality) and I(2,2) at dimensions 1-3 (at 3, the bound, ``extend``
exits 2 too), in both modes at both (seed, degree) runs: 48 commands;
340 commands in all.  Each checkout runs them in one process of its
own, importing symdom from its ``src/``.  For every
command the exit code, the lines written to stderr and the sha256 of the
output document are compared; every difference is printed, and the exit
status is 1 if there is any, else 0.  For a document whose sha256
differs, the JSON paths at which the two documents differ are printed
too (a text document's paths are its line numbers), with the largest
absolute difference of the numbers among them.  A ``verify`` or
``extend`` whose input document (the ``construct`` output) differs too
is tagged "input differs".  Before the summary, one line per JSON leaf
path at which any documents differ counts them and gives the largest
numeric difference there.  The summary gives the largest difference
separately for documents whose input is identical and for those whose
input differs: a difference that only propagates from the input is told
apart from one the command itself makes.  Before it, one line per
(command, mode) counts the differing documents, e.g. "extend float: 46",
and the summary counts the differing exact-mode documents.  A document's
mode is its command's ``--mode`` for ``kernel``, the ``construct``'s for
``construct`` and ``verify``, and the ``"mode"`` an ``extend`` document
writes ("exact" when either side wrote it; an exact input may extend in
floating point); an ``invariants`` or ``threshold-table`` document has
"no mode".
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from numbers import Number
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ((9, 6), (901, 4))  # (seed, degree)
EXACT_EXTEND = (("I", {"p": 2, "q": 3}), ("I", {"p": 2, "q": 4}))  # dim 1
EXACT_EXTEND_SEEDS = range(1, 9)  # at degree 4
SAMPLE_KEY = (5, 40)  # (--seed, --samples) of the repeated verify runs
SAMPLE_INPUTS = (901, 2)  # on the construct documents of this seed and dim
INVARIANTS = (("I", {"p": 3, "q": 5}), ("II", {"m": 8}), ("III", {"m": 7}),
              ("IV", {"n": 5}), ("V", {}), ("VI", {}), ("polydisk", {"p": 3}))
# families outside the construct grid, as (family, params, dims) rows
OFF_GRID = (("polydisk", {"p": 2}, (1,)), ("I", {"p": 2, "q": 2}, (1, 2, 3)))
MODES = ("exact", "float")
SHOWN_PATHS = 10  # paths listed per differing document


def commands() -> list:
    """(label, argv) of every command, in the order they run; a document
    name stands for a file in the working directory."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import CONSTRUCT_GRID

    out = []
    sampled = [(case, jet) for key, case, jet in _pipelines(out, CONSTRUCT_GRID)
               if key == SAMPLE_INPUTS]
    for family, params, _ in CONSTRUCT_GRID:
        fam, vals = _family(family, params)
        dim = math.prod(params.values())  # IV(n): n, I(p, q): p q
        for mode in MODES:
            for name, direction in directions(dim):
                out.append((f"kernel {family}({vals}) {mode} {name}", [
                    "kernel", *fam, "--mode", mode, "--point",
                    json.dumps(point(dim)), "--direction",
                    json.dumps(direction), "--out",
                    f"{len(out)}.kernel.json"]))
    for family, params in EXACT_EXTEND:
        fam, vals = _family(family, params)
        for seed in EXACT_EXTEND_SEEDS:
            case = f"{family}({vals}) dim 1 exact seed {seed} degree 4"
            jet = f"{len(out)}.jet.json"
            out.append((f"construct {case}", [
                "construct", *fam, "--dim", "1", "--seed", str(seed),
                "--mode", "exact", "--degree", "4", "--variety", "--out",
                jet]))
            out.append((f"extend {case}", [
                "extend", "--in", jet, "--out", f"{jet}.extend"]))
    seed, samples = SAMPLE_KEY
    for case, jet in sampled:
        for run in (1, 2):
            out.append((f"verify {case} sample seed {seed} samples "
                        f"{samples} run {run}", [
                            "verify", "--in", jet, "--seed", str(seed),
                            "--samples", str(samples), "--out",
                            f"{jet}.sampled{run}"]))
    for family, params in INVARIANTS:
        fam, vals = _family(family, params)
        for fmt in ("json", "text"):
            out.append((f"invariants {family}({vals}) {fmt}", [
                "invariants", *fam, "--format", fmt, "--out",
                f"{len(out)}.invariants.{fmt}"]))
    for fmt in ("csv", "json"):
        out.append((f"threshold-table {fmt}", [
            "threshold-table", "--families", "I,II,III", "--max", "12",
            "--format", fmt, "--out", f"{len(out)}.table.{fmt}"]))
    _pipelines(out, OFF_GRID)
    return out


def _pipelines(out: list, grid) -> list:
    """Append ``construct --variety``, ``verify`` and ``extend`` on each
    case of grid, in both modes, at both RUNS, to out; for each construct,
    ((seed, dim), case, its document name)."""
    made = []
    for seed, degree in RUNS:
        for mode in MODES:
            for family, params, dims in grid:
                fam, vals = _family(family, params)
                for dim in dims:
                    case = (f"{family}({vals}) dim {dim} {mode} seed {seed} "
                            f"degree {degree}")
                    jet = f"{len(out)}.jet.json"
                    out.append((f"construct {case}", [
                        "construct", *fam, "--dim", str(dim), "--seed",
                        str(seed), "--mode", mode, "--degree", str(degree),
                        "--variety", "--out", jet]))
                    made.append(((seed, dim), case, jet))
                    for name in ("verify", "extend"):
                        out.append((f"{name} {case}", [
                            name, "--in", jet, "--out", f"{jet}.{name}"]))
    return made


def _family(family: str, params: dict) -> tuple:
    """(the family options of a command, its parameters joined by commas)."""
    items = sorted(params.items())
    fam = ["--family", family]
    for name, val in items:
        fam += [f"--{name}", str(val)]
    return fam, ",".join(str(v) for _, v in items)


def point(dim: int) -> list:
    """The interior point the kernel value, the embedding and the
    membership are taken at: 0.1 e_1 + (0.05 - 0.2i) e_dim."""
    return [0.1] + [0.0] * (dim - 2) + [[0.05, -0.2]]


def directions(dim: int) -> list:
    """(name, direction) of the two unit directions the curvature is taken
    along: the first coordinate axis, and 0.6 e_1 + 0.8i e_dim, on which a
    degree-2 generator of each grid family is nonzero."""
    axis = [1.0] + [0.0] * (dim - 1)
    off = [0.6] + [0.0] * (dim - 2) + [[0.0, 0.8]]
    return [("axis", axis), ("off-axis", off)]


def collect(argvs: list) -> list:
    """Run each argv through symdom.cli.main in this process and working
    directory: [exit code, stderr lines, sha256 of the document or None]."""
    from symdom.cli import main

    results = []
    for argv in argvs:
        path = argv[argv.index("--out") + 1]
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is a result too
            code = f"{type(exc).__name__}: {exc}"
        digest = None
        if os.path.exists(path):
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        results.append([code, err.getvalue().splitlines(), digest])
    return results


def run_checkout(checkout: Path, argvs: list, cwd: Path) -> list:
    """collect() in a fresh process that imports symdom from checkout and
    writes the documents into cwd."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--collect"],
        input=json.dumps(argvs), cwd=cwd, env=env, capture_output=True,
        text=True)
    if proc.returncode:
        sys.exit(f"{checkout}: the commands did not run:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _is_number(x) -> bool:
    return isinstance(x, Number) and not isinstance(x, bool)


def differences(a, b, path: str = "") -> list:
    """(path, a, b) for each place where two JSON values differ: a leaf
    whose values differ, a key that only one side has (its value on the
    other side is None), or lists of different lengths."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}/{key}" if path else str(key)
            if key in a and key in b:
                out += differences(a[key], b[key], sub)
            else:
                out.append((sub, a.get(key), b.get(key)))
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += differences(x, y, f"{path}/{i}" if path else str(i))
        return out
    if a == b and type(a) is type(b):
        return []
    return [(path, a, b)]


def document(path: Path):
    """The JSON value of a document, or the list of its lines when it is
    text (``--format text``, a csv table), whose paths are line numbers."""
    text = path.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text.splitlines()


def explain(here: Path, other: Path) -> tuple:
    """(lines, largest): lines naming the JSON paths where two documents
    differ, and the largest absolute difference between numbers at those
    paths (None when no numbers differ)."""
    diffs = differences(document(here), document(other))
    gaps = [abs(x - y) for _, x, y in diffs if _is_number(x) and _is_number(y)]
    lines = [f"  {p}: here {x!r}, other {y!r}"
             for p, x, y in diffs[:SHOWN_PATHS]]
    if len(diffs) > SHOWN_PATHS:
        lines.append(f"  ... {len(diffs) - SHOWN_PATHS} more paths")
    largest = max(gaps, default=None)
    lines.append(f"  {len(diffs)} paths differ, largest absolute numeric "
                 f"difference {_show(largest)}")
    return lines, largest


def by_path(pairs: list) -> list:
    """A line per JSON leaf path at which some pair of documents (here,
    other) differs, in path order: how many pairs differ there, and the
    largest absolute difference of the numbers among them."""
    paths = {}  # path -> [documents, largest]
    for here, other in pairs:
        for path, x, y in differences(document(here), document(other)):
            entry = paths.setdefault(path, [0, None])
            entry[0] += 1
            if _is_number(x) and _is_number(y):
                entry[1] = max(abs(x - y), entry[1] or 0.0)
    return [f"{path}: {count} documents differ, largest absolute numeric "
            f"difference {_show(largest)}"
            for path, (count, largest) in sorted(paths.items())]


def _show(largest) -> str:
    return "none (no numbers differ)" if largest is None else f"{largest:.3g}"


def _extend_mode(*paths: Path) -> str:
    """The ``mode`` of an extend document: "exact" when either side wrote
    one that says so."""
    for path in paths:
        if path.is_file() and json.loads(path.read_text()).get("mode") \
                == "exact":
            return "exact"
    return "float"


def compare(labelled: list, ours: list, theirs: list, here_dir: Path,
            other_dir: Path) -> tuple:
    """(lines, differences, largest, kinds): a line per difference
    between the results of two checkouts, each document's explanation
    after it, the number of differences, the largest absolute numeric
    difference among differing documents as {"identical": x,
    "differs": y}, keyed by whether the command's input document is
    identical (None when no numbers differ), and the number of differing
    documents per (command, mode)."""
    lines, diffs = [], 0
    kinds = collections.Counter()
    largest = {"identical": None, "differs": None}
    changed = {}  # document -> whether its sha256 differs
    modes = {}  # construct or kernel document -> its --mode
    for (label, argv), a, b in zip(labelled, ours, theirs):
        source = argv[argv.index("--in") + 1] if "--in" in argv else None
        key = "differs" if changed.get(source) else "identical"
        tag = " (input differs)" if key == "differs" else ""
        doc = argv[argv.index("--out") + 1]
        changed[doc] = a[2] != b[2]
        if argv[0] in ("construct", "kernel"):
            modes[doc] = argv[argv.index("--mode") + 1] \
                if "--mode" in argv else "exact"
        if changed[doc]:
            mode = (_extend_mode(here_dir / doc, other_dir / doc)
                    if argv[0] == "extend"
                    else modes.get(source or doc, "no mode"))
            kinds[argv[0], mode] += 1
        for field, x, y in zip(("exit", "stderr", "sha256"), a, b):
            if x != y:
                diffs += 1
                lines.append(
                    f"{label}: {field}: here {x!r}, other {y!r}{tag}")
                if field == "sha256" and x and y:
                    more, gap = explain(here_dir / doc, other_dir / doc)
                    lines += more
                    if gap is not None:
                        largest[key] = max(gap, largest[key] or 0.0)
    return lines, diffs, largest, kinds


def summary(commands_run: int, diffs: int, largest: dict,
            kinds: dict) -> list:
    """The closing lines: "command mode: count" per kind of differing
    document, then the totals with the count of exact-mode ones."""
    exact_docs = sum(n for (_, mode), n in kinds.items() if mode == "exact")
    totals = (f"{commands_run} commands, {diffs} differences; largest "
              f"absolute numeric difference in a differing document "
              f"{_show(largest['identical'])} where its input is identical, "
              f"{_show(largest['differs'])} where its input differs; "
              f"{exact_docs} exact-mode documents differ")
    return [f"{name} {mode}: {n}"
            for (name, mode), n in sorted(kinds.items())] + [totals]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("other", nargs="?", type=Path,
                   help="root of the checkout to compare with")
    p.add_argument("--collect", action="store_true",
                   help=argparse.SUPPRESS)  # the per-checkout worker
    args = p.parse_args(argv)
    if args.collect:
        print(json.dumps(collect(json.load(sys.stdin))))
        return 0
    if args.other is None:
        p.error("give the checkout to compare with")
    labelled = commands()
    argvs = [a for _, a in labelled]
    with tempfile.TemporaryDirectory() as here_dir, \
            tempfile.TemporaryDirectory() as other_dir:
        here_dir, other_dir = Path(here_dir), Path(other_dir)
        ours = run_checkout(ROOT, argvs, here_dir)
        theirs = run_checkout(args.other, argvs, other_dir)
        lines, diffs, largest, kinds = compare(
            labelled, ours, theirs, here_dir, other_dir)
        docs = [argv[argv.index("--out") + 1]
                for argv, a, b in zip(argvs, ours, theirs)
                if a[2] != b[2] and a[2] and b[2]]
        lines += by_path([(here_dir / doc, other_dir / doc) for doc in docs])
    print("\n".join(lines + summary(len(argvs), diffs, largest, kinds)))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
