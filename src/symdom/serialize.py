"""JSON encodings for polynomials, jets, matrices and varieties.

Exact scalars are encoded as four fraction strings (real, imaginary,
sqrt2-real, sqrt2-imaginary parts); floating scalars as re/im pairs.
Term lists are sorted so equal objects serialize identically.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from typing import List, Sequence, Union

import numpy as np

from .domains import DomainSpec, make_spec
from .isometry import IsometryJet, VarietySystem
from .kernels import make_sos
from .poly import HoloPoly, JetMap
from .scalars import Exact

SCHEMA_VERSION = "1"

__all__ = ["SCHEMA_VERSION", "scalar_to_json", "scalar_from_json",
           "poly_to_json", "poly_from_json", "jet_to_json", "jet_from_json",
           "matrix_to_json", "matrix_from_json", "spec_to_json",
           "spec_from_json", "iso_to_json", "iso_from_json",
           "variety_to_json", "dumps"]


def scalar_to_json(c) -> dict:
    if isinstance(c, Exact):
        return {"ar": str(c.ar), "ai": str(c.ai),
                "br": str(c.br), "bi": str(c.bi)}
    z = complex(c)
    return {"re": z.real, "im": z.imag}


def scalar_from_json(obj: dict):
    exact = "ar" in obj
    parts = ("ar", "ai", "br", "bi") if exact else ("re", "im")
    kinds = (str, int) if exact else (int, float)
    if not all(type(obj.get(key)) in kinds for key in parts):
        raise ValueError(f"malformed coefficient {obj!r}")
    if exact:
        return Exact(*(Fraction(obj[key]) for key in parts))
    z = complex(obj["re"], obj["im"])
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite coefficient {obj!r}")
    return z


def poly_to_json(p: HoloPoly) -> dict:
    return {
        "vars": p.nvars,
        "mode": p.mode,
        "terms": [{"exp": list(e), "coeff": scalar_to_json(c)}
                  for e, c in p.sorted_terms()],
    }


def poly_from_json(obj: dict) -> HoloPoly:
    nvars = obj["vars"]
    for t in obj["terms"]:
        exp = t["exp"]
        if not (isinstance(exp, list) and len(exp) == nvars
                and all(type(x) is int and x >= 0 for x in exp)):
            raise ValueError(f"bad exponent {exp!r} for {nvars} variables")
    terms = {tuple(t["exp"]): scalar_from_json(t["coeff"])
             for t in obj["terms"]}
    return HoloPoly(nvars, terms, obj["mode"])


def jet_to_json(jet: JetMap) -> dict:
    return {
        "source_dim": jet.source_dim,
        "target_dim": jet.target_dim,
        "degree": jet.degree,
        "mode": jet.mode,
        "components": [poly_to_json(c) for c in jet.components],
    }


def jet_from_json(obj: dict) -> JetMap:
    comps = [poly_from_json(c) for c in obj["components"]]
    return JetMap(comps, obj["degree"], obj["source_dim"])


def matrix_to_json(m) -> dict:
    if isinstance(m, np.ndarray):
        rows = [[scalar_to_json(complex(x)) for x in row] for row in m]
        mode = "float"
    else:
        rows = [[scalar_to_json(x) for x in row] for row in m]
        mode = "exact" if any(isinstance(x, Exact) for row in m
                              for x in row) else "float"
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0,
            "mode": mode, "entries": rows}


def matrix_from_json(obj: dict):
    entries = [[scalar_from_json(x) for x in row] for row in obj["entries"]]
    if obj["mode"] == "float":
        return np.array([[complex(x) for x in row] for row in entries],
                        dtype=complex)
    return entries


_PARAM_NAMES = {"I": ("p", "q"), "II": ("m",), "III": ("m",),
                "IV": ("n",), "V": (), "VI": (), "polydisk": ("p",)}


def spec_to_json(spec: DomainSpec) -> dict:
    names = _PARAM_NAMES[spec.family]
    return {"family": spec.family,
            "params": {k: v for k, v in zip(names, spec.params)}}


def spec_from_json(obj: dict) -> DomainSpec:
    return make_spec(obj["family"], **obj.get("params", {}))


def iso_to_json(iso: IsometryJet) -> dict:
    return {
        "schema": f"isometry-jet/{SCHEMA_VERSION}",
        "domain": spec_to_json(iso.spec),
        "isometric_constant": iso.k,
        "jet": jet_to_json(iso.jet),
    }


def iso_from_json(obj: dict) -> IsometryJet:
    schema = obj.get("schema", "")
    if schema != f"isometry-jet/{SCHEMA_VERSION}":
        raise ValueError(f"unsupported isometry-jet document: {schema!r}")
    spec = spec_from_json(obj["domain"])
    jet = jet_from_json(obj["jet"])
    sos = make_sos(spec, jet.mode)
    return IsometryJet(jet, int(obj["isometric_constant"]), sos)


def variety_to_json(v: VarietySystem) -> dict:
    return {
        "schema": f"variety/{SCHEMA_VERSION}",
        "kind": v.kind,
        "domain": spec_to_json(v.sos.spec),
        "equations": [poly_to_json(e) for e in v.equations],
        "projective": matrix_to_json(v.projective),
        "matrix": matrix_to_json(v.matrix),
    }


def dumps(obj: dict) -> str:
    """Deterministic JSON text: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
