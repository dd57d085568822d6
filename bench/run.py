"""Benchmark of symdom's CLI: construct / verify / extend, in process.

    python3 bench/run.py --workload exact-construct --seed 42 \
        --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One closed-loop client issues ``symdom.cli.main(argv)`` calls in
this process, BLAS pinned to one thread, documents in ``.bench_tmp/``.

Workloads (``--seed`` picks the co-isometry seed of every case and pass):

* ``exact-construct``: each job is ``construct --mode exact`` then
  ``verify`` on its output, over IV(4) dims 1-3, IV(5) 1-4, IV(6) 1-5,
  I(2,3) 1-3 and I(2,4) 1-2;
* ``float-construct``: the same grid with ``--mode float``;
* ``extend``: set-up builds non-maximal input jets with ``construct``
  (both modes over IV(4) 1-2, IV(5) 1-3, I(2,3) 1-2, I(2,4) 1, plus exact
  IV(6) dim 4); the timed loop runs only ``extend``.

Jets are built at degree ``workloads.DEGREE`` (4), not the CLI default 6.

A run makes whole passes over its grid, each pass with fresh co-isometry
seeds, until about ``--seconds`` have passed (at least one pass).  Set-up
is import, input generation and one warm-up command; the construct
workloads repeat it ``SETUPS`` times up front, the extend workload builds a
fresh input batch before every pass.  ``setup_s`` is the import time plus
the median repetition.  Every output is checked by ``oracle.py``; at the
default seed exact jets are also compared with ``golden.json``.  A failed
command (nonzero exit, exception, oracle or golden mismatch) counts in
``failed``.

``--trace 0`` prints the end-to-end metrics: ``setup_s``,
``jobs_per_kref`` and ``peak_rss_mb``.  Times are CPU time of this
process (``time.process_time``): the program runs on one thread, and CPU
time leaves out the moments a shared host gives the core to someone
else.  ``jobs_per_kref`` counts command time in a yardstick that moves
with the host, a kref being the time of 1000 runs of a fixed pure-Python
reference loop that the client runs between commands
(``workloads.reference_seconds``); it is the geometric mean over the
grid's cases of jobs per kref.  The report keeps the same rate per CPU
second (``jobs_per_s``), the pooled rate and wall-clock figures.
``--trace 1`` runs half the budget untraced, replays the same commands
with ``tracer.py`` installed, requires identical output digests, and
prints the per-layer metrics.  The first line of standard output is the
environment (Python, numpy, nproc, CPU model, git commit, BLAS threads),
the last line the result object.  Each run writes a report with
per-command medians and tails, per-case medians and every job to
``.bench_out/``; traced runs add their spans as JSON lines.

    python3 bench/run.py --workload exact-construct --write-golden 14

re-pins the exact digests of the default seed after an intended change to
exact outputs; ``python3 -m pytest -q bench/tests`` runs the harness's own
tests.
"""

from __future__ import annotations

import os
import sys
import time

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 42
SETUPS = 5
MULADD_PAIRS = 2000
MULADD_REPEATS = 5
COEFFS_PER_DOC = 64


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["exact-construct", "float-construct", "extend"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-golden", type=int, default=0, metavar="PASSES",
                   help="run PASSES passes at the default seed and store "
                        "the exact digests in golden.json")
    args = p.parse_args(argv)
    if args.write_golden and args.seed != DEFAULT_SEED:
        p.error(f"golden digests are pinned at seed {DEFAULT_SEED}")
    return args


def import_program():
    """Import symdom.cli from the checkout; return (main, seconds)."""
    if not (SRC / "symdom" / "cli.py").is_file():
        raise SystemExit(f"error: no symdom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.process_time()
    import numpy  # noqa: F401
    import symdom.cli
    seconds = time.process_time() - t0
    if Path(symdom.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: symdom imported from {symdom.cli.__file__}")
    return symdom.cli.main, seconds


def env_block() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "blas_threads": BLAS_THREADS,
    }


def tail(samples):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, nearest-rank; the median when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        idx = math.ceil(p * n / 100) - 1
        if n - idx - 1 >= 10:
            return p, xs[idx]
    return 50, statistics.median(xs)


class Run:
    """One benchmark run: set-up, timed passes, checks and metrics."""

    def __init__(self, args, import_s):
        import workloads
        self.wl = workloads
        self.args = args
        self.import_s = import_s
        self.cases = workloads.cases_for(args.workload)
        self.primary = "extend" if args.workload == "extend" else "construct"
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.tag = tag
        self.workdir = ROOT / ".bench_tmp" / f"{tag}-{os.getpid()}"
        self.outdir = ROOT / ".bench_out"
        self.setup_reps = []
        self.setup_jobs = []
        self.coeffs = []  # exact coefficients sampled from output jets
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        self.golden = golden.get(args.workload, {}) \
            if args.seed == DEFAULT_SEED else {}
        self.golden_checked = 0

    # -- set-up --------------------------------------------------------------
    #
    # A set-up repetition is the input generation of one pass plus one
    # warm-up command.  The construct workloads generate their inputs
    # inside the timed command, so their set-up is repeated up front; the
    # extend workload builds a fresh batch of input jets before every pass,
    # since reusing a batch leaves the run with too few distinct inputs.

    def setup(self, client) -> None:
        if self.primary == "extend":
            return
        # the same warm-up input in every repetition and for every run
        # seed, so that set-up measures the same work on every run
        seed = self.wl.sub_seed(DEFAULT_SEED, "warmup")
        for rep in range(SETUPS):
            t0 = time.process_time()
            warm = self.wl.Job(f"warmup{rep}", self.cases[0], seed)
            client.construct_job(warm)
            self.setup_jobs.append(warm)
            self.setup_reps.append(time.process_time() - t0)

    def make_batch(self, client, index: int):
        """Construct the extend inputs of pass ``index``; return the jobs."""
        wl = self.wl
        t0 = time.process_time()
        jobs = []
        for case in self.cases:
            name = f"p{index}-{case.label.replace('/', '-')}"
            seed = wl.sub_seed(self.args.seed, "batch", index, case.label)
            path = str(self.workdir / f"{name}.input.json")
            build = wl.Job(f"{name}-input", case, seed)
            doc = client.build_jet(build, path)
            self.setup_jobs.append(build)
            if doc is not None and not build.failed:
                self._sample_coeffs(doc["jet"])
                jobs.append(wl.Job(name, case, seed, input_path=path))
        if jobs:
            warm = wl.Job(f"warmup{index}", jobs[0].case, jobs[0].seed,
                          input_path=jobs[0].input_path)
            client.extend_job(warm)
            self.setup_jobs.append(warm)
        self.setup_reps.append(time.process_time() - t0)
        return jobs

    # -- timed passes ----------------------------------------------------------

    def pass_jobs(self, client, index: int):
        if self.primary == "extend":
            return self.make_batch(client, index)
        return [self.wl.Job(f"p{index}-{case.label.replace('/', '-')}", case,
                            self.wl.sub_seed(self.args.seed, "pass", index,
                                             case.label))
                for case in self.cases]

    def run_job(self, client, job):
        if self.primary == "extend":
            doc = client.extend_job(job)
            if doc is not None:
                self._sample_coeffs(doc["extended"]["jet"])
        else:
            doc = client.construct_job(job)
            if doc is not None:
                self._sample_coeffs(doc["jet"])
        return job

    def timed_passes(self, client, budget: float, max_passes: int = 0):
        """Whole passes until the budget is expected to be met: another
        pass starts while half a pass still fits, so runs average about
        ``budget`` seconds."""
        jobs = []
        t0 = time.perf_counter()
        index = 0
        while True:
            for job in self.pass_jobs(client, index):
                jobs.append(self.run_job(client, job))
            index += 1
            elapsed = time.perf_counter() - t0
            if max_passes:
                if index >= max_passes:
                    break
            elif elapsed + 0.5 * elapsed / index > budget:
                break
        return jobs, index

    def replay(self, client, jobs):
        """Run the commands of ``jobs`` again, in order, as new jobs."""
        return [self.run_job(client, self.wl.Job(job.job_id, job.case,
                                                 job.seed, job.input_path))
                for job in jobs]

    def _sample_coeffs(self, jet: dict) -> None:
        if len(self.coeffs) >= MULADD_PAIRS or jet["mode"] != "exact":
            return
        terms = [t["coeff"] for comp in jet["components"]
                 for t in comp["terms"]]
        step = max(1, len(terms) // COEFFS_PER_DOC)
        self.coeffs.extend(terms[::step][:COEFFS_PER_DOC])

    # -- checks ----------------------------------------------------------------

    def check_golden(self, jobs) -> None:
        for job in jobs:
            for cmd in job.commands:
                want = self.golden.get(f"{job.job_id}/{cmd.name}")
                if want is None or not cmd.exact_digest:
                    continue
                self.golden_checked += 1
                if cmd.exact_digest != want and not cmd.error:
                    cmd.error = "exact output differs from golden digest"

    def golden_table(self, jobs) -> dict:
        return {f"{job.job_id}/{cmd.name}": cmd.exact_digest
                for job in jobs for cmd in job.commands if cmd.exact_digest}

    # -- metrics ---------------------------------------------------------------

    def muladd(self):
        """Untimed-path micro-benchmark: Exact multiply-add over pairs of
        coefficients from this run's exact output jets."""
        if len(self.coeffs) < 2:
            return 0.0, 0
        from symdom.scalars import EXACT_ZERO
        from symdom.serialize import scalar_from_json
        from tracer import den_bits
        vals = [scalar_from_json(c) for c in self.coeffs]
        pairs = [(vals[i % len(vals)], vals[(7 * i + 1) % len(vals)])
                 for i in range(MULADD_PAIRS)]
        times = []
        for _ in range(MULADD_REPEATS):
            t0 = time.process_time()
            acc = EXACT_ZERO
            for x, y in pairs:
                acc = acc + x * y
            times.append(time.process_time() - t0)
        return statistics.median(times), den_bits(vals)

    def command_stats(self, jobs, name: str):
        xs = [c.seconds for j in jobs for c in j.commands
              if c.name == name and not c.error]
        if not xs:
            return 0.0, 0.0, 0, 0
        pct, val = tail(xs)
        return statistics.median(xs), val, pct, len(xs)

    def end_to_end(self, jobs) -> dict:
        """Gated metrics of the untraced passes, and ungated extras.

        The job rate is the geometric mean over the grid's cases of each
        case's rate (jobs over their summed cost), as suites of unlike
        programs are usually summed up: every case weighs alike, and the
        few large cases whose cost varies most with the drawn inputs do
        not decide the figure on their own.  The gated rate counts cost in
        reference loops, since CPU seconds on a shared host swing by more
        than the bound; the rate per CPU second and the pooled rate (all
        jobs over all seconds) are in the report.  Medians and tails
        over a run's jobs mix cases of very different size, and which
        inputs a seed draws moves them by more than the largest bound a
        metric may have; they are reported in the run's report and the
        traced run, but not gated.
        """
        ok = [j for j in jobs if not j.failed]
        times = [j.seconds for j in ok]
        busy = sum(times)
        wall = sum(j.wall_seconds for j in ok)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (self.import_s + statistics.median(self.setup_reps),
                        "s"),
            "jobs_per_kref": (case_rate(ok, lambda j: j.refs / 1000),
                              "1/kref"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        pct, tail_s = tail(times) if times else (0, 0.0)
        extra = {"jobs_ok": len(ok),
                 "jobs_per_s": case_rate(ok, lambda j: j.seconds),
                 "jobs_per_s_pooled": len(ok) / busy if busy else 0.0,
                 "jobs_per_wall_s": len(ok) / wall if wall else 0.0,
                 "terms_per_s": sum(j.terms for j in ok) / busy if busy
                 else 0.0,
                 "job_p50_s": statistics.median(times) if times else 0.0,
                 "job_tail_s": tail_s, "job_tail_percentile": pct}
        return metrics, extra


def case_rate(jobs, cost) -> float:
    """Geometric mean over cases of jobs per unit of ``cost(job)`` within
    the case."""
    by = {}
    for job in jobs:
        by.setdefault(job.case.label, []).append(cost(job))
    if not by:
        return 0.0
    return math.exp(statistics.fmean(math.log(len(xs) / sum(xs))
                                     for xs in by.values()))


def job_records(jobs) -> list:
    return [{"id": j.job_id, "case": j.case.label, "seed": j.seed,
             "seconds": j.seconds, "wall_seconds": j.wall_seconds,
             "refs": j.refs,
             "terms": j.terms, "failed": j.failed}
            for j in jobs]


def case_summary(jobs) -> dict:
    """Per-case medians, to explain a metric that moved."""
    by = {}
    for job in jobs:
        if not job.failed:
            by.setdefault(job.case.label, []).append(job)
    return {label: {"jobs": len(js),
                    "p50_s": statistics.median(j.seconds for j in js),
                    "terms_p50": statistics.median(j.terms for j in js)}
            for label, js in by.items()}


def count(jobs):
    cmds = [c for j in jobs for c in j.commands]
    return len(cmds), sum(1 for c in cmds if c.error)


def failures(jobs, limit=20):
    return [f"{j.job_id}/{c.name}: {c.error}" for j in jobs
            for c in j.commands if c.error][:limit]


def write_golden(run, client, passes: int) -> None:
    jobs, _ = run.timed_passes(client, 0, passes)
    table = run.golden_table(run.setup_jobs + jobs)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden[run.args.workload] = table
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests for {run.args.workload}")


def traced_phase(run, main_fn, jobs, per_cmd, report):
    """Replay ``jobs`` with the tracer installed; return (metrics, replayed
    jobs).  A replayed command whose output differs from the untraced one
    counts as failed."""
    import tracer as tracing
    import workloads
    tr = tracing.Tracer()
    client = workloads.Client(main_fn, str(run.workdir), tr)
    tr.install()
    try:
        t0 = time.perf_counter()
        again = run.replay(client, jobs)
        report["traced_wall_s"] = time.perf_counter() - t0
    finally:
        tr.uninstall()
    mismatches = 0
    for a, b in zip(jobs, again):
        for ca, cb in zip(a.commands, b.commands):
            if ca.digest != cb.digest:
                mismatches += 1
                cb.error = cb.error or "output differs from the untraced run"
    n_cmds, _ = count(again)
    n_primary = sum(1 for j in again for c in j.commands
                    if c.name == run.primary)
    metrics = tracing.layer_metrics(tr, n_cmds, run.primary, n_primary)
    muladd_s, bits = run.muladd()
    metrics["scalars.muladd_s"] = (muladd_s, "s")
    metrics["scalars.den_bits_max"] = (float(bits), "bits")
    for name, st in per_cmd.items():
        metrics[f"cli.{name}_p50_s"] = (st["p50_s"], "s")
        metrics[f"cli.{name}_tail_s"] = (st["tail_s"], "s")
    untraced = sum(j.seconds for j in jobs)
    traced = sum(j.seconds for j in again)
    metrics["trace.overhead_ratio"] = (traced / untraced - 1, "ratio")
    metrics["trace.spans_per_cmd"] = (
        (len(tr.spans) + tr.dropped) / max(n_cmds, 1), "count/cmd")
    metrics["trace.digest_mismatches"] = (float(mismatches), "count")
    report["patch_sites"] = dict(tr.patch_sites)
    report["spans_dropped"] = tr.dropped
    tr.write_jsonl(str(run.outdir / f"{run.tag}.jsonl"))
    return metrics, again


def main(argv=None) -> int:
    args = parse_args(argv)
    main_fn, import_s = import_program()
    import workloads
    run = Run(args, import_s)
    run.workdir.mkdir(parents=True, exist_ok=True)
    run.outdir.mkdir(exist_ok=True)
    env = env_block()
    print(json.dumps({"env": env}, sort_keys=True), flush=True)
    report = {"env": env, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "degree": workloads.DEGREE, "import_s": import_s}
    try:
        client = workloads.Client(main_fn, str(run.workdir))
        run.setup(client)
        if args.write_golden:
            write_golden(run, client, args.write_golden)
            return 0
        budget = args.seconds / 2 if args.trace else args.seconds
        t0 = time.perf_counter()
        jobs, report["passes"] = run.timed_passes(client, budget)
        report["timed_wall_s"] = time.perf_counter() - t0
        report["setup_reps_s"] = run.setup_reps
        per_cmd = {}
        for name in ("construct", "verify", "extend"):
            p50, tl, pct, n = run.command_stats(jobs, name)
            per_cmd[name] = {"p50_s": p50, "tail_s": tl, "tail_pct": pct,
                             "samples": n}
        report["commands"] = per_cmd
        report["cases"] = case_summary(jobs)
        report["jobs"] = job_records(jobs)
        checked = run.setup_jobs + jobs
        if args.trace:
            metrics, again = traced_phase(run, main_fn, jobs, per_cmd, report)
            checked += again
        else:
            metrics, extra = run.end_to_end(jobs)
            report.update(extra)
        run.check_golden(checked)
        attempted, failed = count(checked)
        report["golden_checked"] = run.golden_checked
        report["failures"] = failures(checked)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in sorted(metrics.items())},
        }
        report["result"] = result
        (run.outdir / f"{run.tag}.json").write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(json.dumps(result, sort_keys=True))
        return 0
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
