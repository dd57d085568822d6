"""JSON encodings for polynomials, jets, matrices and varieties.

Exact scalars are encoded as four fraction strings (real, imaginary,
sqrt2-real, sqrt2-imaginary parts); floating scalars as re/im pairs.
Term lists are sorted so equal objects serialize identically.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .domains import FAMILIES, DomainSpec, make_spec
from .isometry import IsometryJet, VarietySystem
from .kernels import make_sos
from .poly import HoloPoly, JetMap
from .scalars import Exact, _make, mode_of

SCHEMA_VERSION = "1"

__all__ = ["SCHEMA_VERSION", "scalar_to_json", "scalar_from_json",
           "poly_to_json", "poly_from_json", "jet_to_json", "jet_from_json",
           "matrix_to_json", "matrix_from_json", "spec_to_json",
           "spec_from_json", "iso_to_json", "iso_from_json",
           "variety_to_json", "strict_json_value", "dumps"]


def _part_text(x: int, d: int) -> str:
    """str(Fraction(x, d)) for d > 0, with one gcd and no Fraction."""
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def scalar_to_json(c) -> dict:
    if isinstance(c, Exact):
        a, b, s, t, d = c._n
        return {"ar": _part_text(a, d), "ai": _part_text(b, d),
                "br": _part_text(s, d), "bi": _part_text(t, d)}
    z = complex(c)
    return {"re": z.real, "im": z.imag}


def _field(obj, key: str, kind: type):
    """obj[key], where obj must be a JSON object and obj[key] a JSON value
    of type kind (a bool is not an int), else ValueError."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {obj!r:.80}")
    val = obj.get(key)
    if type(val) is not kind:
        raise ValueError(f"{key!r} must be a JSON {kind.__name__}, "
                         f"got {val!r:.80}")
    return val


_EXACT_PARTS = ("ar", "ai", "br", "bi")
# a part in str(Fraction)'s own form with at most 300 digits a side, so
# that its value is below 1e300 (a finite float) and int() reads it
_fraction_text = re.compile(r"(-?[0-9]{1,300})(?:/([0-9]{1,300}))?").fullmatch


def _exact_from_text(obj: dict):
    """The Exact whose four parts obj writes as _fraction_text strings, built
    from their integers over the lcm of their denominators and reduced
    once; None if a part is anything else (an int, "1.5", " 3", "1/0", a
    5000-digit string, ...)."""
    nums = []
    dens = []
    for key in _EXACT_PARTS:
        text = obj.get(key)
        match = _fraction_text(text) if type(text) is str else None
        if match is None:
            return None
        num, den = match.groups()
        nums.append(int(num))
        dens.append(int(den or 1))
    if 0 in dens:
        return None
    d = lcm(*dens)
    return _make(*(n * (d // q) for n, q in zip(nums, dens)), d)


def scalar_from_json(obj: dict):
    """Decode one coefficient; every part must parse and be a finite float,
    else ValueError.

    Float parts that are finite floats, and exact parts in str(Fraction)'s
    own form, are read in one pass; anything else takes the Fraction route,
    which refuses what it must with the same messages."""
    exact = type(obj) is dict and "ar" in obj
    if exact:
        c = _exact_from_text(obj)
        if c is not None:
            return c
    elif type(obj) is dict:
        re_, im = obj.get("re"), obj.get("im")
        if (type(re_) is float and type(im) is float
                and -math.inf < re_ < math.inf and -math.inf < im < math.inf):
            return complex(re_, im)
    parts = _EXACT_PARTS if exact else ("re", "im")
    kinds = (str, int) if exact else (int, float)
    if type(obj) is not dict or not all(type(obj.get(key)) in kinds
                                        for key in parts):
        raise ValueError(f"malformed coefficient {obj!r:.80}")
    try:
        vals = [Fraction(obj[key]) if exact else obj[key] for key in parts]
        finite = all(math.isfinite(float(v)) for v in vals)
    except (ValueError, ZeroDivisionError, OverflowError):
        finite = False
    if not finite:
        raise ValueError(f"malformed or non-finite coefficient {obj!r}")
    return Exact(*vals) if exact else complex(*vals)


def poly_to_json(p: HoloPoly) -> dict:
    return {
        "vars": p.nvars,
        "mode": p.mode,
        "terms": [{"exp": list(e), "coeff": scalar_to_json(c)}
                  for e, c in p.sorted_terms()],
    }


def poly_from_json(obj: dict) -> HoloPoly:
    """Decode a polynomial; its coefficients must be encoded in its mode,
    and no exponent may repeat."""
    nvars = _field(obj, "vars", int)
    mode = _field(obj, "mode", str)
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown polynomial mode {mode!r:.80}")
    kind = Exact if mode == "exact" else complex
    terms = {}
    for t in _field(obj, "terms", list):
        exp = _field(t, "exp", list)
        if not (len(exp) == nvars
                and all(type(x) is int and x >= 0 for x in exp)):
            raise ValueError(f"bad exponent {exp!r:.80} for {nvars} "
                             "variables")
        c = scalar_from_json(t.get("coeff"))
        if type(c) is not kind:
            raise ValueError(f"{mode_of(c)} coefficient in a {mode} polynomial")
        key = tuple(exp)
        if key in terms:
            raise ValueError(f"exponent {exp!r:.80} repeats")
        terms[key] = c
    return HoloPoly.from_field(nvars, terms, mode)


def jet_to_json(jet: JetMap) -> dict:
    return {
        "source_dim": jet.source_dim,
        "target_dim": jet.target_dim,
        "degree": jet.degree,
        "mode": jet.mode,
        "components": [poly_to_json(c) for c in jet.components],
    }


def jet_from_json(obj: dict) -> JetMap:
    """Decode a jet; its header must agree with its components' terms."""
    n, target, degree = (_field(obj, key, int)
                         for key in ("source_dim", "target_dim", "degree"))
    mode = _field(obj, "mode", str)
    comps = [poly_from_json(c) for c in _field(obj, "components", list)]
    jet = JetMap(comps, degree, n)
    if degree < 0 or (n, target, mode) != (jet.source_dim, jet.target_dim,
                                           jet.mode):
        raise ValueError(f"jet header (source_dim {n}, target_dim {target}, "
                         f"degree {degree}, mode {mode!r:.20}) disagrees "
                         "with its components")
    # JetMap keeps each component that truncation leaves whole
    if any(t is not c for t, c in zip(jet.components, comps)):
        top = max(c.degree for c in comps)
        raise ValueError(f"jet of degree {degree} holds a term of degree {top}")
    return jet


def matrix_to_json(m) -> dict:
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


def spec_to_json(spec: DomainSpec) -> dict:
    _, names = FAMILIES[spec.family]
    return {"family": spec.family,
            "params": {k: v for k, v in zip(names, spec.params)}}


def spec_from_json(obj: dict) -> DomainSpec:
    family = _field(obj, "family", str)
    params = obj.get("params", {})
    if not (type(params) is dict
            and all(type(v) is int for v in params.values())):
        raise ValueError(f"malformed domain parameters {params!r:.80}")
    return make_spec(family, **params)


def iso_to_json(iso: IsometryJet) -> dict:
    return {
        "schema": f"isometry-jet/{SCHEMA_VERSION}",
        "domain": spec_to_json(iso.spec),
        "isometric_constant": iso.k,
        "jet": jet_to_json(iso.jet),
    }


def iso_from_json(obj: dict) -> IsometryJet:
    schema = _field(obj, "schema", str)
    if schema != f"isometry-jet/{SCHEMA_VERSION}":
        raise ValueError(f"unsupported isometry-jet document: {schema!r:.80}")
    spec = spec_from_json(obj.get("domain"))
    jet = jet_from_json(obj.get("jet"))
    k = _field(obj, "isometric_constant", int)
    # before make_sos, whose generators grow with the domain's dimension
    if jet.target_dim != spec.dim:
        raise ValueError(f"jet lands in C^{jet.target_dim}, domain has "
                         f"dimension {spec.dim}")
    return IsometryJet(jet, k, make_sos(spec))


def variety_to_json(v: VarietySystem) -> dict:
    return {
        "schema": f"variety/{SCHEMA_VERSION}",
        "kind": v.kind,
        "domain": spec_to_json(v.sos.spec),
        "equations": [poly_to_json(e) for e in v.equations],
        "projective": matrix_to_json(v.projective),
        "matrix": matrix_to_json(v.matrix),
    }


def strict_json_value(obj):
    """obj with every non-finite float replaced by "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: strict_json_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict_json_value(v) for v in obj]
    return obj


_str_json = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__
_float_repr = float.__repr__


_INT = frozenset((int,))
_STR = frozenset((str,))


@lru_cache(maxsize=64)
def _term_template(indent: str, size: int) -> tuple:
    """The %-templates of one float and one exact term {"coeff": {...},
    "exp": [...]} with size exponents, whose closing brace follows indent:
    %r for each float part, %s for each exact part's JSON string, %d for
    each exponent."""
    i2 = indent + "  "
    i3 = i2 + "  "
    head = "{" + i2 + '"coeff": {' + i3
    tail = (i2 + "}," + i2 + '"exp": [' + i3 + f",{i3}".join(["%d"] * size)
            + i2 + "]" + indent + "}")
    return (head + '"im": %r,' + i3 + '"re": %r' + tail,
            head + f",{i3}".join(f'"{k}": %s' for k in sorted(_EXACT_PARTS))
            + tail)


def _terms_text(terms: list, indent: str):
    """The text of a list of polynomial terms, indent being the newline and
    spaces before its closing bracket, each term written from one
    template; None unless every term is {"coeff": c, "exp": e} with e a
    nonempty list of ints and c either finite floats {"im", "re"} or
    strings {"ai", "ar", "bi", "br"}."""
    inner = indent + "  "
    size = 0
    texts = []
    for term in terms:
        if type(term) is not dict or len(term) != 2:
            return None
        c, e = term.get("coeff"), term.get("exp")
        if not (type(c) is dict and type(e) is list and e
                and _INT.issuperset(map(type, e))):
            return None
        if len(e) != size:
            size = len(e)
            float_term, exact_term = _term_template(inner, size)
        if len(c) == 2:
            im, re_ = c.get("im"), c.get("re")
            if not (type(im) is float and type(re_) is float
                    and -math.inf < im < math.inf
                    and -math.inf < re_ < math.inf):
                return None
            texts.append(float_term % (im, re_, *e))
        elif len(c) == 4:
            parts = (c.get("ai"), c.get("ar"), c.get("bi"), c.get("br"))
            if not _STR.issuperset(map(type, parts)):
                return None
            texts.append(exact_term % (*map(_str_json, parts), *e))
        else:
            return None
    return "[" + inner + ("," + inner).join(texts) + indent + "]"


def _write(obj, out: list, indent: str) -> None:
    """Append obj's document text to out, in pieces; indent is the newline
    and spaces before obj's closing bracket.  TypeError for a key that is
    not a str, or a value whose type is not exactly float, int, list, dict,
    str, bool or None.

    A list of polynomial terms is written by _terms_text, any other list
    item by item."""
    kind = type(obj)
    if kind is float:
        text = _float_repr(obj)
        out.append(text if -math.inf < obj < math.inf else f'"{text}"')
    elif kind is int:
        out.append(_int_repr(obj))
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        if type(obj[0]) is dict and "coeff" in obj[0]:
            text = _terms_text(obj, indent)
            if text is not None:
                out.append(text)
                return
        inner = indent + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"key {key!r} is not a string")
            out.append(f"{sep}{_str_json(key)}: ")
            _write(obj[key], out, inner)
            sep = "," + inner
        out.append(indent + "}")
    elif kind is str:
        out.append(_str_json(obj))
    elif kind is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"{kind.__name__} is not written by _write")


def dumps(obj: dict) -> str:
    """Deterministic strict JSON text: sorted keys, two-space indent, and
    non-finite floats written as the strings "inf", "-inf" and "nan".

    The text is json.dumps(strict_json_value(obj), sort_keys=True,
    indent=2, allow_nan=False), written in one pass by _write.  What _write
    does not take (a non-string key, any other type, an int too long to
    print) goes through that call itself, so its text or error is json's."""
    out = []
    try:
        _write(obj, out, "\n")
    except (TypeError, ValueError):
        return json.dumps(strict_json_value(obj), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    return "".join(out) + "\n"
