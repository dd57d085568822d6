"""Command line interface.

Subcommands:
  invariants       print the invariant record of one domain
  threshold-table  sweep closed-form null thresholds against brute force
  kernel           evaluate a kernel expansion, its embedding and curvature
  verify           run all isometry checks on a serialized jet
  construct        build a jet from a seeded random co-isometry
  extend           factor a serialized jet through a maximal-source one

Exit codes: 0 success, 1 a verification failed, 2 bad parameters or input
(or a run out of memory).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from typing import List, Optional

from .domains import (FAMILIES, ParameterError, closed_form_null_threshold,
                      char_bundle_dims, dim_upper_bound, make_spec,
                      null_threshold, rank2_codim_inequality,
                      vmrt_certificate)
from .errors import TruncationError, VerificationError
from .isometry import (DEFAULT_TOL, build_k1_variety, extend_isometry,
                       full_verification_report, solve_component_jet)
from .kernels import (contains, curvature_at_origin, kernel_value, make_sos,
                      minimal_embedding)
from .randmat import random_coisometry
from . import serialize

def _write_out(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        # the temporary copy of the document goes with the failed write
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _emit(doc: dict, args) -> None:
    if getattr(args, "format", "json") == "text":
        lines = []
        for key in sorted(doc):
            value = json.dumps(serialize.strict_json_value(doc[key]),
                               sort_keys=True, allow_nan=False)
            lines.append(f"{key}: {value}")
        _write_out("\n".join(lines) + "\n", args.out)
    else:
        _write_out(serialize.dumps(doc), args.out)


def _spec_from_args(args):
    kwargs = {}
    for name in ("p", "q", "m", "n"):
        val = getattr(args, name, None)
        if val is not None:
            kwargs[name] = val
    return make_spec(args.family, **kwargs)


def _add_family_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=list(FAMILIES))
    parser.add_argument("--p", type=int, help="rows (I) or factors (polydisk)")
    parser.add_argument("--q", type=int, help="columns (type I)")
    parser.add_argument("--m", type=int, help="matrix size (types II, III)")
    parser.add_argument("--n", type=int, help="dimension (type IV)")


def _parse_point(text: str, n: int) -> List[complex]:
    # integers read as floats: a huge one is inf, not an OverflowError
    data = json.loads(text, parse_int=float)
    if not isinstance(data, list):
        raise ValueError("point must be a JSON list")
    pt = []
    for x in data:
        if isinstance(x, float):
            pt.append(complex(x))
        elif (isinstance(x, list) and len(x) == 2
              and all(isinstance(v, float) for v in x)):
            pt.append(complex(x[0], x[1]))
        else:
            raise ValueError(f"bad coordinate {x!r}: use a number or [re, im]")
        if not cmath.isfinite(pt[-1]):
            raise ValueError(f"coordinate {x!r} is not finite")
    if len(pt) != n:
        raise ValueError(f"point has {len(pt)} coordinates, domain needs {n}")
    return pt


def cmd_invariants(args) -> int:
    spec = _spec_from_args(args)
    doc = {
        **serialize.spec_to_json(spec),
        "label": spec.label,
        "dim": spec.dim,
        "rank": spec.rank,
        "vmrt_dim": spec.vmrt_dim,
        "null_dims": list(spec.null_dims),
        "min_embedding_dim": spec.min_embedding_dim,
        "embedding_provenance": spec.embedding_provenance,
        "ball_dim_bound": spec.ball_dim_bound,
        "tube": spec.tube,
        "sos_odd": spec.sos_odd,
        "sos_even": spec.sos_even,
        "null_threshold": null_threshold(spec),
        "closed_form_null_threshold": closed_form_null_threshold(spec),
        "dim_upper_bound": {str(k): dim_upper_bound(spec, k)
                            for k in range(1, spec.rank + 1)},
        "vmrt_certificate": {str(k): vmrt_certificate(spec, k)
                             for k in range(1, spec.rank + 1)},
        "char_bundle_dims": {str(k): list(char_bundle_dims(spec, k))
                             for k in range(1, spec.rank)},
    }
    if spec.rank == 2:
        doc["rank2_codim_inequality"] = rank2_codim_inequality(spec)
    _emit(doc, args)
    return 0


def _threshold_rows(families: List[str], limit: int):
    """The specs of families, parameters 1..limit in catalog order, that
    have a closed-form threshold."""
    rows = []
    for family, (_, names) in FAMILIES.items():
        if family not in families:
            continue
        for params in itertools.product(range(1, limit + 1),
                                        repeat=len(names)):
            try:
                spec = make_spec(family, **dict(zip(names, params)))
            except ParameterError:  # below the family's least parameters
                continue
            if closed_form_null_threshold(spec) is not None:
                rows.append(spec)
    return rows


def cmd_threshold_table(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    bad = [f for f in families if f not in ("I", "II", "III")]
    if bad:
        raise ParameterError(f"closed forms exist only for I, II, III: {bad}")
    specs = _threshold_rows(families, args.max)
    rows = []
    mismatches = 0
    for spec in specs:
        brute = null_threshold(spec)
        closed = closed_form_null_threshold(spec)
        agree = closed == brute
        if not agree:
            mismatches += 1
        rows.append({**serialize.spec_to_json(spec),
                     "brute": brute, "closed_form": closed,
                     "agree": agree})
    if args.format == "json":
        _emit({"rows": rows, "mismatches": mismatches}, args)
    else:
        lines = ["family,params,brute,closed_form,agree"]
        for r in rows:
            params = ";".join(f"{k}={v}" for k, v in sorted(r["params"].items()))
            lines.append(f"{r['family']},{params},{r['brute']},"
                         f"{r['closed_form']},{str(r['agree']).lower()}")
        _write_out("\n".join(lines) + "\n", args.out)
    return 1 if mismatches else 0


def cmd_kernel(args) -> int:
    spec = _spec_from_args(args)
    sos = make_sos(spec)
    doc = {
        **serialize.spec_to_json(spec),
        "dim": spec.dim,
        "odd_count": len(sos.odd),
        "even_count": len(sos.even),
        "min_embedding_dim": spec.min_embedding_dim,
    }
    if args.point is not None:
        pt = _parse_point(args.point, spec.dim)
        value = kernel_value(sos, pt)
        emb = minimal_embedding(sos, pt)
        doc["point"] = [[z.real, z.imag] for z in map(complex, pt)]
        doc["kernel_value"] = [complex(value).real, complex(value).imag]
        doc["inside_domain"] = contains(sos, pt)
        doc["embedding"] = [[complex(x).real, complex(x).imag] for x in emb]
    if args.direction is not None:
        direction = _parse_point(args.direction, spec.dim)
        doc["curvature"] = curvature_at_origin(sos, direction)
        doc["curvature_window"] = [-2.0, -2.0 / spec.rank]
    _emit(doc, args)
    return 0


def _load_json(path: str) -> dict:
    """The JSON document at path (- for stdin); ValueError for one nested
    too deeply to decode."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError as exc:
        raise ValueError(f"document nested too deeply: {exc}") from None


def cmd_verify(args) -> int:
    doc = _load_json(args.infile)
    iso = serialize.iso_from_json(doc)
    report = full_verification_report(iso, d=args.degree, tol=args.tol,
                                      samples=args.samples, seed=args.seed)
    _emit(report, args)
    return 0 if report["passed"] else 1


def cmd_construct(args) -> int:
    spec = _spec_from_args(args)
    if spec.rank > 2:
        # ball_dim_bound is below 1 there: the construction is rank-2's
        raise ParameterError(
            f"construct needs a domain of rank at most 2; {spec.label} "
            f"has rank {spec.rank}")
    sos = make_sos(spec)
    n = args.dim
    nbig = spec.dim
    n0 = spec.ball_dim_bound
    if not 1 <= n <= n0:
        raise ParameterError(
            f"source dimension {n} outside 1..{n0} for {spec.label}")
    rows = random_coisometry(nbig - n, nbig, args.seed, args.mode)
    iso = solve_component_jet(rows, sos, degree=args.degree, tol=args.tol)
    report = full_verification_report(iso, tol=args.tol, seed=args.seed)
    doc = serialize.iso_to_json(iso)
    doc["verification"] = report
    doc["seed"] = args.seed
    if args.variety:
        system = build_k1_variety(rows, sos)
        doc["variety"] = serialize.variety_to_json(system)
    _emit(doc, args)
    return 0 if report["passed"] else 1


def cmd_extend(args) -> int:
    doc = _load_json(args.infile)
    iso = serialize.iso_from_json(doc)
    result = extend_isometry(iso, tol=args.tol)
    report = full_verification_report(result.extended, tol=args.tol)
    out = {
        "schema": f"extension/{serialize.SCHEMA_VERSION}",
        "extended": serialize.iso_to_json(result.extended),
        "slice": serialize.jet_to_json(result.slice_map),
        "mode": result.mode,
        "composition_residual": result.composition_residual,
        "verification": report,
    }
    _emit(out, args)
    return 0 if report["passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: every parse gives a
    fresh namespace, so in-process calls of main share it."""
    parser = argparse.ArgumentParser(
        prog="symdom",
        description="Kernel expansions, invariants and jet-level isometry "
                    "checks for bounded symmetric domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="invariant record of a domain")
    _add_family_options(p_inv)
    p_inv.add_argument("--format", choices=["json", "text"], default="json")
    p_inv.add_argument("--out", default=None)
    p_inv.set_defaults(func=cmd_invariants)

    p_tab = sub.add_parser("threshold-table",
                           help="closed-form vs brute-force null thresholds")
    p_tab.add_argument("--families", default="I,II,III")
    p_tab.add_argument("--max", type=int, default=30)
    p_tab.add_argument("--format", choices=["csv", "json"], default="csv")
    p_tab.add_argument("--out", default=None)
    p_tab.set_defaults(func=cmd_threshold_table)

    p_ker = sub.add_parser("kernel", help="kernel expansion of a domain")
    _add_family_options(p_ker)
    p_ker.add_argument("--mode", choices=["exact", "float"], default="exact",
                       help="accepted; the document is the same in either")
    p_ker.add_argument("--point", default=None,
                       help="JSON list of coordinates, numbers or [re, im]")
    p_ker.add_argument("--direction", default=None,
                       help="unit direction for curvature, same syntax")
    p_ker.add_argument("--format", choices=["json", "text"], default="json")
    p_ker.add_argument("--out", default=None)
    p_ker.set_defaults(func=cmd_kernel)

    p_ver = sub.add_parser("verify", help="check a serialized jet")
    p_ver.add_argument("--in", dest="infile", required=True,
                       help="jet JSON file, or - for stdin")
    p_ver.add_argument("--degree", type=int, default=None)
    p_ver.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_ver.add_argument("--samples", type=int, default=25)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--format", choices=["json", "text"], default="json")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_con = sub.add_parser("construct",
                           help="jet from a seeded random co-isometry")
    _add_family_options(p_con)
    p_con.add_argument("--dim", type=int, required=True,
                       help="source ball dimension")
    p_con.add_argument("--seed", type=int, default=0)
    p_con.add_argument("--mode", choices=["exact", "float"], default="exact")
    p_con.add_argument("--degree", type=int, default=6)
    p_con.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_con.add_argument("--variety", action="store_true",
                       help="include the cut-out variety in the output")
    p_con.add_argument("--format", choices=["json", "text"], default="json")
    p_con.add_argument("--out", default=None)
    p_con.set_defaults(func=cmd_construct)

    p_ext = sub.add_parser("extend",
                           help="factor a jet through a maximal-source one")
    p_ext.add_argument("--in", dest="infile", required=True)
    p_ext.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_ext.add_argument("--format", choices=["json", "text"], default="json")
    p_ext.add_argument("--out", default=None)
    p_ext.set_defaults(func=cmd_extend)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tol", 0.0)
        if not (math.isfinite(tol) and tol >= 0):
            raise ParameterError(
                f"--tol must be finite and non-negative, got {tol}")
        if getattr(args, "seed", 0) < 0:
            raise ParameterError(
                f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ParameterError, TruncationError, ValueError, KeyError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'no detail'})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
