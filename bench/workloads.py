"""Workload definitions and the closed-loop client that runs them.

Every command goes through ``symdom.cli.main(argv)`` in this process, one
at a time (one client, closed loop), with documents in a scratch
directory.  Jets are built at degree ``DEGREE`` so that a run holds
several passes over its grid with fresh inputs each pass; a pass at the
CLI default degree 6 takes 30-50 s on a 2-vCPU machine.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

import oracle

DEGREE = 4

# (family, params, source dims)
CONSTRUCT_GRID = [
    ("IV", {"n": 4}, (1, 2, 3)),
    ("IV", {"n": 5}, (1, 2, 3, 4)),
    ("IV", {"n": 6}, (1, 2, 3, 4, 5)),
    ("I", {"p": 2, "q": 3}, (1, 2, 3)),
    ("I", {"p": 2, "q": 4}, (1, 2)),
]

# non-maximal sources only: extend factors through source dim + 1..bound
EXTEND_GRID = [
    ("IV", {"n": 4}, (1, 2)),
    ("IV", {"n": 5}, (1, 2, 3)),
    ("I", {"p": 2, "q": 3}, (1, 2)),
    ("I", {"p": 2, "q": 4}, (1,)),
]
# the case tracked for the repeated functional-equation checks, exact only
EXTEND_EXTRA = [("IV", {"n": 6}, 4, "exact")]

REFERENCE_STEPS = 400  # about 8 ms of CPU on a 2-vCPU Xeon


@dataclass(frozen=True)
class Case:
    family: str
    params: tuple  # sorted (name, value) pairs
    dim: int
    mode: str

    @property
    def label(self) -> str:
        vals = ",".join(str(v) for _, v in self.params)
        return f"{self.family}({vals})/dim{self.dim}/{self.mode}"

    def family_args(self) -> List[str]:
        out = ["--family", self.family]
        for name, val in self.params:
            out += [f"--{name}", str(val)]
        return out


def _cases(grid, modes) -> List[Case]:
    return [Case(fam, tuple(sorted(params.items())), dim, mode)
            for mode in modes for fam, params, dims in grid for dim in dims]


def cases_for(workload: str) -> List[Case]:
    if workload == "exact-construct":
        return _cases(CONSTRUCT_GRID, ("exact",))
    if workload == "float-construct":
        return _cases(CONSTRUCT_GRID, ("float",))
    if workload == "extend":
        extra = [Case(f, tuple(sorted(p.items())), d, m)
                 for f, p, d, m in EXTEND_EXTRA]
        return _cases(EXTEND_GRID, ("exact", "float")) + extra
    raise ValueError(f"unknown workload {workload!r}")


def sub_seed(seed: int, *parts) -> int:
    """Co-isometry seed of one case in one pass, derived from the run seed."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _oracle(check, *args) -> str:
    """Run an oracle check; an unreadable document is a failure too."""
    try:
        return check(*args)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def reference_seconds() -> float:
    """CPU seconds of a fixed pure-Python loop, the benchmark's yardstick.

    The loop does the kind of work the exact core does (rational
    arithmetic, tuple-keyed dict stores) and no symdom code, so a change
    to the program leaves it alone, while the speed swings of a shared
    host slow it as much as the commands around it.
    """
    gc.disable()  # a collection would time the program's heap instead
    try:
        t0 = time.process_time()
        acc, store = Fraction(0), {}
        for i in range(1, REFERENCE_STEPS):
            a = Fraction(i % 17 + 1, i % 13 + 2)
            b = Fraction(i % 7 - 3, i % 11 + 1)
            acc = (acc + a * b) / (1 + abs(acc))
            store[(i % 31, i % 5)] = acc
        return time.process_time() - t0
    finally:
        gc.enable()


def jet_terms(jet: dict) -> int:
    return sum(len(comp["terms"]) for comp in jet["components"])


def construct_argv(case: Case, seed: int, out: str) -> List[str]:
    return (["construct"] + case.family_args() +
            ["--dim", str(case.dim), "--seed", str(seed), "--mode",
             case.mode, "--degree", str(DEGREE), "--out", out])


@dataclass
class Command:
    """One CLI command of a job, with its outcome."""

    name: str
    argv: List[str]
    seconds: float = 0.0  # CPU time of this process while it ran
    wall_seconds: float = 0.0
    ref_seconds: float = 0.0  # reference loop around it, mean of two
    code: Optional[int] = None
    error: str = ""
    digest: str = ""
    exact_digest: str = ""


@dataclass
class Job:
    """construct + verify of one case, or extend of one prepared input."""

    job_id: str
    case: Case
    seed: int
    input_path: str = ""
    commands: List[Command] = field(default_factory=list)
    terms: int = 0  # nonzero coefficients of the jet the job produced

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.commands)

    @property
    def wall_seconds(self) -> float:
        return sum(c.wall_seconds for c in self.commands)

    @property
    def refs(self) -> float:
        """Cost in reference loops: each command's CPU time over the
        reference loop's time around it."""
        return sum(c.seconds / c.ref_seconds for c in self.commands)

    @property
    def failed(self) -> bool:
        return any(c.error for c in self.commands)


class Client:
    """Closed-loop client: runs each command to completion, then the next.

    A command is timed in CPU time of this process (``time.process_time``),
    which leaves out the time a shared host runs other guests or processes
    instead of this one; the program is single-threaded with BLAS pinned to
    one thread, so on an idle machine the two clocks agree.  Wall time is
    recorded next to it for the report.

    CPU time alone still follows the host: the same commands take 10% more
    or less from one run to the next, and over seconds the speed swings by
    more.  So the reference loop runs after every command, and each command
    also records the mean of the loop's times just before and just after
    it, which gives its cost in reference loops.
    """

    def __init__(self, main, workdir: str, tracer=None):
        self.main = main
        self.workdir = workdir
        self.tracer = tracer
        reference_seconds()  # warm-up
        self.last_ref = reference_seconds()

    def run_command(self, cmd: Command, trace_id: str) -> Optional[dict]:
        """Run one command; return its output document, or None on failure."""
        out_path = cmd.argv[cmd.argv.index("--out") + 1]
        err = io.StringIO()
        root = (self.tracer.command(trace_id, "cli." + cmd.name)
                if self.tracer else contextlib.nullcontext())
        w0, t0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stderr(err), root:
                cmd.code = self.main(cmd.argv)
        except SystemExit as exc:  # argparse rejects the command line
            cmd.code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash counts as a failure
            cmd.code = -1
            cmd.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        cmd.seconds = time.process_time() - t0
        cmd.wall_seconds = time.perf_counter() - w0
        ref = reference_seconds()
        cmd.ref_seconds = (self.last_ref + ref) / 2
        self.last_ref = ref
        if cmd.code != 0:
            cmd.error = cmd.error or (f"exit {cmd.code}: "
                                      f"{err.getvalue().strip()[:200]}")
            return None
        with open(out_path, "rb") as fh:
            raw = fh.read()
        cmd.digest = hashlib.sha256(raw).hexdigest()
        return json.loads(raw)

    def build_jet(self, job: Job, path: str) -> Optional[dict]:
        """construct one jet into ``path`` and oracle-check it."""
        cmd = Command("construct", construct_argv(job.case, job.seed, path))
        job.commands.append(cmd)
        doc = self.run_command(cmd, job.job_id)
        if doc is None:
            return None
        why = _oracle(oracle.check_isometry, doc, job.seed % 1000)
        if not why and not doc["verification"]["passed"]:
            why = "construct report did not pass"
        cmd.error = why
        job.terms = jet_terms(doc["jet"])
        exact = oracle.exact_part("construct", doc)
        cmd.exact_digest = oracle.digest(exact) if exact else ""
        return doc

    def construct_job(self, job: Job) -> Optional[dict]:
        """construct, then verify its output."""
        jet_path = os.path.join(self.workdir, f"{job.job_id}.jet.json")
        doc = self.build_jet(job, jet_path)
        if doc is None:
            return None
        ver = Command("verify", ["verify", "--in", jet_path, "--out",
                                 jet_path + ".verify.json"])
        job.commands.append(ver)
        report = self.run_command(ver, job.job_id)
        if report is not None and not report["passed"]:
            ver.error = "verify report did not pass"
        for path in (jet_path, jet_path + ".verify.json"):
            if os.path.exists(path):
                os.remove(path)
        return doc

    def extend_job(self, job: Job) -> Optional[dict]:
        """extend a prepared input jet and oracle-check the extension."""
        out_path = os.path.join(self.workdir, f"{job.job_id}.ext.json")
        cmd = Command("extend", ["extend", "--in", job.input_path, "--out",
                                 out_path])
        job.commands.append(cmd)
        doc = self.run_command(cmd, job.job_id)
        if doc is None:
            return None
        # read back rather than kept from set-up: a heap that grows with
        # every pass would slow the program's garbage collection
        with open(job.input_path, encoding="utf-8") as fh:
            input_doc = json.load(fh)
        why = _oracle(oracle.check_extension, doc, input_doc, job.seed % 1000)
        if not why and not doc["verification"]["passed"]:
            why = "extend report did not pass"
        cmd.error = why
        job.terms = jet_terms(doc["extended"]["jet"])
        exact = oracle.exact_part("extend", doc)
        cmd.exact_digest = oracle.digest(exact) if exact else ""
        os.remove(out_path)
        return doc
