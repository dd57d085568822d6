"""In-memory spans around the public functions of symdom's layers.

``Tracer.install()`` replaces each traced function with a wrapper in every
``symdom`` module namespace that holds a reference to it (``cli`` imports
``solve_component_jet`` by name, ``isometry`` imports ``h_pullback`` and
``match_unitary``, ``calabi`` imports its ``linalg`` helpers), and in the
class dictionary for methods; ``uninstall()`` puts the originals back.

Scalar entry points called millions of times per command (``Exact`` add
and multiply, ``coerce``) are counted but not timed.  Every other call
opens a span with a parent link, the command it belongs to, and the sizes
that explain its cost: term counts, denominator bits, matrix dimensions.
Aggregates (calls, total and self time, size sums and maxima) are kept
online; the spans themselves are kept in memory up to ``max_spans`` and
written as JSON lines by ``write_jsonl``.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from symdom.scalars import Exact

# (module, attribute path, span name)
COUNTED = [
    ("symdom.scalars", "Exact.__mul__", "scalars.exact_mul"),
    ("symdom.scalars", "Exact.__add__", "scalars.exact_add"),
    ("symdom.scalars", "coerce", "scalars.coerce"),
]

TIMED = [
    ("symdom.poly", "HoloPoly.substitute", "poly.substitute"),
    ("symdom.poly", "HoloPoly.mul_trunc", "poly.mul_trunc"),
    ("symdom.poly", "BidegPoly.sandwich", "poly.sandwich"),
    ("symdom.poly", "BidegPoly.__add__", "poly.bideg_add"),
    ("symdom.poly", "compose_truncate", "poly.compose_truncate"),
    ("symdom.kernels", "h_pullback", "kernels.h_pullback"),
    ("symdom.isometry", "check_functional_eq", "isometry.fe_check"),
    ("symdom.isometry", "solve_component_jet", "isometry.solve"),
    ("symdom.isometry", "check_polarized_eq", "isometry.polarized"),
    ("symdom.isometry", "recover_matching_unitary", "isometry.recover"),
    ("symdom.isometry", "extend_isometry", "isometry.extend"),
    ("symdom.isometry", "full_verification_report", "isometry.report"),
    ("symdom.calabi", "match_unitary", "calabi.match_unitary"),
    ("symdom.calabi", "complete_to_unitary", "calabi.complete_to_unitary"),
    ("symdom.linalg", "ex_rref", "linalg.ex_rref"),
    ("symdom.linalg", "ex_nullspace", "linalg.ex_nullspace"),
    ("symdom.linalg", "ex_gs_orthonormal", "linalg.ex_gs_orthonormal"),
    ("symdom.randmat", "random_coisometry", "randmat.random_coisometry"),
    ("symdom.serialize", "iso_from_json", "serialize.load"),
    ("symdom.serialize", "dumps", "serialize.dumps"),
]


def den_bits(values) -> int:
    """Largest denominator bit length among exact scalars (0 for floats)."""
    best = 0
    for c in values:
        if isinstance(c, Exact):
            best = max(best, c.ar.denominator.bit_length(),
                       c.ai.denominator.bit_length(),
                       c.br.denominator.bit_length(),
                       c.bi.denominator.bit_length())
    return best


def _is_exact_matrix(m) -> bool:
    return isinstance(m, list)


def _dims(m) -> Tuple[int, int]:
    if isinstance(m, list):
        return len(m), (len(m[0]) if m else 0)
    shape = getattr(m, "shape", (0, 0))
    return (shape[0], shape[1]) if len(shape) == 2 else (len(m), 0)


# Size attributes recorded on each span, from (args, kwargs, result).

def _attrs_substitute(args, kwargs, out):
    self, subs = args[0], args[1]
    d = args[2] if len(args) > 2 else kwargs["d"]
    return {"terms_in": len(self.terms),
            "terms_args": sum(len(a.terms) for a in subs),
            "terms_out": len(out.terms), "d": d,
            "den_bits": den_bits(out.terms.values())}


def _attrs_mul_trunc(args, kwargs, out):
    return {"terms_a": len(args[0].terms), "terms_b": len(args[1].terms),
            "terms_out": len(out.terms)}


def _attrs_sandwich(args, kwargs, out):
    return {"terms_f": len(args[0].terms), "terms_g": len(args[1].terms),
            "terms_out": len(out.terms)}


def _attrs_bideg_add(args, kwargs, out):
    return {"terms_out": len(out.terms)}


def _attrs_h_pullback(args, kwargs, out):
    return {"terms_out": len(out.terms),
            "den_bits": den_bits(out.terms.values())}


def _attrs_fe(args, kwargs, out):
    return {"d": out.degree, "mode": out.mode,
            "bidegrees": len(out.per_bidegree), "passed": out.passed}


def _attrs_solve(args, kwargs, out):
    rows = args[0]
    comps = out.jet.components
    return {"mode_in": "exact" if _is_exact_matrix(rows) else "float",
            "mode_out": out.mode, "rows": _dims(rows)[0],
            "cols": _dims(rows)[1],
            "terms_out": sum(len(c.terms) for c in comps),
            "den_bits": den_bits(v for c in comps for v in c.terms.values())}


def _attrs_mode(args, kwargs, out):
    return {"mode": out.mode}


def _attrs_match(args, kwargs, out):
    u, mode = out
    return {"mode": mode, "n": _dims(u)[0],
            "terms_target": sum(len(c.terms) for c in args[0].components)}


def _attrs_complete(args, kwargs, out):
    rows = args[0]
    r, c = _dims(rows)
    attrs = {"exact": _is_exact_matrix(rows), "rows": r, "cols": c}
    if _is_exact_matrix(rows):
        attrs["den_bits"] = den_bits(x for row in rows for x in row)
    return attrs


def _attrs_matrix_in(args, kwargs, out):
    a = args[0]
    r, c = _dims(a)
    return {"rows": r, "cols": c,
            "den_bits": den_bits(x for row in a for x in row)}


def _attrs_coisometry(args, kwargs, out):
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "float")
    return {"rows": args[0], "cols": args[1], "mode": mode}


def _attrs_dumps(args, kwargs, out):
    return {"bytes_out": len(out.encode())}


ATTRS: Dict[str, Callable] = {
    "poly.substitute": _attrs_substitute,
    "poly.mul_trunc": _attrs_mul_trunc,
    "poly.sandwich": _attrs_sandwich,
    "poly.bideg_add": _attrs_bideg_add,
    "kernels.h_pullback": _attrs_h_pullback,
    "isometry.fe_check": _attrs_fe,
    "isometry.solve": _attrs_solve,
    "isometry.recover": _attrs_mode,
    "isometry.extend": _attrs_mode,
    "calabi.match_unitary": _attrs_match,
    "calabi.complete_to_unitary": _attrs_complete,
    "linalg.ex_rref": _attrs_matrix_in,
    "linalg.ex_nullspace": _attrs_matrix_in,
    "linalg.ex_gs_orthonormal": _attrs_matrix_in,
    "randmat.random_coisometry": _attrs_coisometry,
    "serialize.dumps": _attrs_dumps,
}


class Aggregate:
    """Running totals for one span name."""

    __slots__ = ("calls", "total_s", "self_s", "sums", "maxima", "tags")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0  # outermost spans only, so recursion counts once
        self.self_s = 0.0
        self.sums: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.tags: Dict[str, int] = defaultdict(int)

    def add(self, dur: float, self_dur: float, outermost: bool,
            attrs: Optional[dict]):
        self.calls += 1
        if outermost:
            self.total_s += dur
        self.self_s += self_dur
        for key, val in (attrs or {}).items():
            if isinstance(val, bool) or isinstance(val, str):
                self.tags[f"{key}={val}"] += 1
            else:
                self.sums[key] += val
                self.maxima[key] = max(self.maxima[key], val)


class Tracer:
    """Span collector; install() patches symdom, uninstall() restores it."""

    def __init__(self, max_spans: int = 400_000):
        self.max_spans = max_spans
        self.spans: List[tuple] = []
        self.dropped = 0
        self.counts: Dict[str, int] = defaultdict(int)
        self.aggs: Dict[str, Aggregate] = defaultdict(Aggregate)
        self.open: Dict[str, int] = defaultdict(int)
        self.nested: Dict[str, int] = defaultdict(int)
        self.by_root: Dict[Tuple[str, str], int] = defaultdict(int)
        self.pullback_d: List[int] = []
        self.patch_sites: Dict[str, List[str]] = defaultdict(list)
        self._stack: List[list] = []
        self._next_id = 1
        self._trace_id = ""
        self._saved: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def command(self, trace_id: str, name: str):
        """Root span of one CLI command; its spans share ``trace_id``."""
        self._trace_id = trace_id
        self._enter(name)
        try:
            yield
        except BaseException as exc:
            self._exit(name, None, type(exc))
            raise
        self._exit(name, None, None)

    def _enter(self, name: str):
        if name == "poly.substitute" and self.open["isometry.solve"]:
            self.nested["isometry.solve.substitute_calls"] += 1
        self.open[name] += 1
        parent = self._stack[-1][0] if self._stack else 0
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, parent, name, time.perf_counter(), 0.0])

    def _exit(self, name: str, attrs: Optional[dict], exc_type,
              t1: Optional[float] = None):
        """Close the innermost span, which ended at ``t1``.  The parent is
        charged up to now, so the cost of computing ``attrs`` lands in
        neither span's self time."""
        now = time.perf_counter()
        t1 = now if t1 is None else t1
        span_id, parent, _, t0, child = self._stack.pop()
        self.open[name] -= 1
        dur = t1 - t0
        if self._stack:
            self._stack[-1][4] += now - t0
            self.by_root[(self._stack[0][2], name)] += 1
        if exc_type is not None:
            attrs = dict(attrs or {}, error=exc_type.__name__)
        self.aggs[name].add(dur, dur - child, not self.open[name], attrs)
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent, self._trace_id, name, t0, t1,
                               attrs))
        else:
            self.dropped += 1

    def _timed(self, name: str, fn: Callable) -> Callable:
        attrs_of = ATTRS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            # an exact solve that restarts in floating point calls itself,
            # so only the outermost solve decides whether it fell back
            exact_solve = (name == "isometry.solve" and not tracer.open[name]
                           and _is_exact_matrix(args[0]))
            if exact_solve:
                tracer.nested["isometry.solve.exact_input"] += 1
            if name == "kernels.h_pullback":
                d = args[2] if len(args) > 2 else kwargs.get("d")
                tracer.pullback_d.append(args[1].degree if d is None else d)
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(name, None, type(exc))
                raise
            finally:
                t1 = time.perf_counter()
                if name == "kernels.h_pullback":
                    tracer.pullback_d.pop()
            if exact_solve and out.mode == "float":
                tracer.nested["isometry.solve.float_fallback"] += 1
            attrs = attrs_of(args, kwargs, out) if attrs_of else None
            if name == "poly.sandwich" and tracer.pullback_d:
                # the share of a pullback's products that the truncated
                # check can use: total degree within the jet degree
                d = tracer.pullback_d[-1]
                kept = sum(1 for a, b in out.terms if sum(a) + sum(b) <= d)
                tracer.nested["kernels.h_pullback.terms_produced"] += \
                    len(out.terms)
                tracer.nested["kernels.h_pullback.terms_kept"] += kept
            tracer._exit(name, attrs, None, t1)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for table, make in ((COUNTED, self._counted), (TIMED, self._timed)):
            for module, path, name in table:
                self._patch(module, path, name, make)

    def _patch(self, module: str, path: str, name: str, make) -> None:
        mod = sys.modules[module]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = make(name, fn)
            # aliases such as Exact.__radd__ = __add__ share the function
            for key, val in list(cls.__dict__.items()):
                target = val.__func__ if isinstance(val, staticmethod) else val
                if target is fn:
                    self._saved.append((cls, key, val))
                    setattr(cls, key, staticmethod(wrapped) if static
                            else wrapped)
                    self.patch_sites[name].append(f"{module}.{cls_name}.{key}")
            return
        fn = getattr(mod, path)
        wrapped = make(name, fn)
        for mod_name, other in list(sys.modules.items()):
            if not (mod_name == "symdom" or mod_name.startswith("symdom.")):
                continue
            for key, val in list(vars(other).items()):
                if val is fn:
                    self._saved.append((other, key, val))
                    setattr(other, key, wrapped)
                    self.patch_sites[name].append(f"{mod_name}.{key}")

    def uninstall(self) -> None:
        for target, key, val in reversed(self._saved):
            setattr(target, key, val)
        self._saved.clear()

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, trace, name, t0, t1, attrs in self.spans:
                rec = {"id": span_id, "parent": parent, "trace": trace,
                       "name": name, "start": t0, "end": t1}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, n_cmds: int, primary: str,
                  n_primary: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures of a traced phase as {name: (value, unit)}.

    Counts, times and bytes are per command; ``fe_check.calls_per_cmd``
    counts the checks inside the workload's primary command (construct or
    extend) per primary command.  Ratios whose base is empty read 0.
    """
    a, c, nest = tr.aggs, tr.counts, tr.nested

    def per(x: float) -> float:
        return _ratio(x, n_cmds)

    sub = a["poly.substitute"]
    hp = a["kernels.h_pullback"]
    mu = a["calabi.match_unitary"]
    ctu = a["calabi.complete_to_unitary"]
    rref = a["linalg.ex_rref"]
    ext = a["isometry.extend"]
    exact_completions = ctu.tags["exact=True"] + \
        ctu.tags["error=ExactCompletionError"]
    out = {
        "scalars.exact_mul.calls": (per(c["scalars.exact_mul"]), "count/cmd"),
        "scalars.exact_add.calls": (per(c["scalars.exact_add"]), "count/cmd"),
        "scalars.coerce.calls": (per(c["scalars.coerce"]), "count/cmd"),
        "poly.substitute.calls": (per(sub.calls), "count/cmd"),
        "poly.substitute.total_s": (per(sub.total_s), "s/cmd"),
        "poly.substitute.terms_out": (per(sub.sums["terms_out"]), "count/cmd"),
        "poly.mul_trunc.calls": (per(a["poly.mul_trunc"].calls), "count/cmd"),
        "poly.mul_trunc.self_s": (per(a["poly.mul_trunc"].self_s), "s/cmd"),
        "poly.sandwich.total_s": (per(a["poly.sandwich"].total_s), "s/cmd"),
        "poly.sandwich.terms_out": (
            per(a["poly.sandwich"].sums["terms_out"]), "count/cmd"),
        "poly.bideg_add.total_s": (per(a["poly.bideg_add"].total_s), "s/cmd"),
        "poly.compose_truncate.total_s": (
            per(a["poly.compose_truncate"].total_s), "s/cmd"),
        "kernels.h_pullback.total_s": (per(hp.total_s), "s/cmd"),
        "kernels.h_pullback.self_s": (per(hp.self_s), "s/cmd"),
        "kernels.h_pullback.kept_ratio": (
            _ratio(nest["kernels.h_pullback.terms_kept"],
                   nest["kernels.h_pullback.terms_produced"]), "ratio"),
        "isometry.fe_check.calls_per_cmd": (
            _ratio(tr.by_root[(f"cli.{primary}", "isometry.fe_check")],
                   n_primary), "count/cmd"),
        "isometry.fe_check.total_s": (
            per(a["isometry.fe_check"].total_s), "s/cmd"),
        "isometry.solve.total_s": (per(a["isometry.solve"].total_s), "s/cmd"),
        "isometry.solve.substitute_calls": (
            per(nest["isometry.solve.substitute_calls"]), "count/cmd"),
        "isometry.solve.float_fallback_ratio": (
            _ratio(nest["isometry.solve.float_fallback"],
                   nest["isometry.solve.exact_input"]), "ratio"),
        "isometry.polarized.total_s": (
            per(a["isometry.polarized"].total_s), "s/cmd"),
        "isometry.recover.total_s": (
            per(a["isometry.recover"].total_s), "s/cmd"),
        "isometry.extend.exact_ratio": (
            _ratio(ext.tags["mode=exact"], ext.calls), "ratio"),
        "calabi.match_unitary.calls_exact": (
            per(mu.tags["mode=exact"]), "count/cmd"),
        "calabi.match_unitary.calls_float": (
            per(mu.tags["mode=float"]), "count/cmd"),
        "calabi.match_unitary.total_s": (per(mu.total_s), "s/cmd"),
        "calabi.complete_to_unitary.total_s": (per(ctu.total_s), "s/cmd"),
        "calabi.complete_to_unitary.exact_fail_ratio": (
            _ratio(ctu.tags["error=ExactCompletionError"], exact_completions),
            "ratio"),
        "linalg.ex_rref.calls": (per(rref.calls), "count/cmd"),
        "linalg.ex_rref.total_s": (per(rref.total_s), "s/cmd"),
        "linalg.ex_rref.max_dim": (
            max(rref.maxima["rows"], rref.maxima["cols"]), "count"),
        "linalg.ex_nullspace.total_s": (
            per(a["linalg.ex_nullspace"].total_s), "s/cmd"),
        "linalg.ex_gs_orthonormal.total_s": (
            per(a["linalg.ex_gs_orthonormal"].total_s), "s/cmd"),
        "randmat.random_coisometry.total_s": (
            per(a["randmat.random_coisometry"].total_s), "s/cmd"),
        "serialize.load.total_s": (per(a["serialize.load"].total_s), "s/cmd"),
        "serialize.dumps.total_s": (
            per(a["serialize.dumps"].total_s), "s/cmd"),
        "serialize.bytes_out": (
            per(a["serialize.dumps"].sums["bytes_out"]), "B/cmd"),
    }
    return {k: (float(v), unit) for k, (v, unit) in out.items()}
