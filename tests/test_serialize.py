"""JSON round trips for scalars, jets, isometries, varieties."""

import copy
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symdom import Exact, IsometryJet, make_sos, make_spec, random_exact_jet
from symdom import build_k2_variety, solve_component_jet, random_coisometry
from symdom.cli import main
from symdom.poly import HoloPoly, JetMap
from symdom.serialize import (
    dumps,
    poly_from_json,
    poly_to_json,
    iso_from_json,
    iso_to_json,
    jet_from_json,
    jet_to_json,
    matrix_from_json,
    matrix_to_json,
    scalar_from_json,
    scalar_to_json,
    spec_from_json,
    spec_to_json,
    strict_json_value,
    variety_to_json,
)


def test_scalar_roundtrip_exact():
    vals = [Exact(Fraction(3, 7), Fraction(-1, 2), Fraction(5, 3), 2),
            Exact(0), Exact(0, 0, Fraction(1, 2), 0)]
    for v in vals:
        back = scalar_from_json(scalar_to_json(v))
        assert isinstance(back, Exact)
        assert back == v


def test_scalar_roundtrip_float():
    v = 0.125 - 2.5j
    back = scalar_from_json(scalar_to_json(v))
    assert isinstance(back, complex)
    assert back == v


def test_jet_roundtrip_exact():
    jet = random_exact_jet(2, 3, 4, rng=random.Random(6))
    back = jet_from_json(jet_to_json(jet))
    assert back.mode == "exact"
    assert back.degree == jet.degree
    assert back.source_dim == jet.source_dim
    assert back == jet


def test_jet_roundtrip_float():
    jet = random_exact_jet(2, 2, 3, rng=random.Random(8)).to_float()
    back = jet_from_json(jet_to_json(jet))
    assert back.mode == "float"
    assert back.max_coeff_distance(jet) == 0.0


def test_spec_roundtrip():
    for spec in [make_spec("I", p=2, q=5), make_spec("IV", n=7),
                 make_spec("V"), make_spec("polydisk", p=3)]:
        assert spec_from_json(spec_to_json(spec)) == spec


def test_isometry_roundtrip():
    spec = make_spec("IV", n=3)
    sos = make_sos(spec)
    rows = random_coisometry(1, 3, 4, "exact")
    iso = solve_component_jet(rows, sos, degree=4)
    doc = iso_to_json(iso)
    assert doc["schema"].startswith("isometry-jet/")
    back = iso_from_json(doc)
    assert back.k == iso.k
    assert back.spec == spec
    assert back.jet == iso.jet


def test_isometry_schema_rejected():
    spec = make_spec("IV", n=3)
    sos = make_sos(spec)
    w = HoloPoly.var(1, 0)
    iso = IsometryJet(JetMap([w.scale(Exact(0, 0, 1, 0))]
                             + [HoloPoly.zero(1)] * 2, 4, 1), 2, sos)
    doc = iso_to_json(iso)
    doc["schema"] = "isometry-jet/999"
    with pytest.raises(ValueError):
        iso_from_json(doc)
    bad = dict(doc)
    bad["schema"] = "variety/1"
    with pytest.raises(ValueError):
        iso_from_json(bad)


def test_matrix_roundtrip():
    rows = random_coisometry(2, 4, 11, "exact")
    back = matrix_from_json(matrix_to_json(rows))
    assert back == [list(r) for r in rows]
    rows_f = random_coisometry(2, 4, 11, "float")
    back_f = matrix_from_json(matrix_to_json(rows_f))
    assert all(back_f[i][j] == complex(rows_f[i][j])
               for i in range(2) for j in range(4))


def test_variety_serialization():
    spec = make_spec("IV", n=4)
    sos = make_sos(spec)
    w = HoloPoly.var(1, 0)
    from symdom import SQRT2
    comps = [w.scale(SQRT2)] + [HoloPoly.zero(1) for _ in range(3)]
    iso = IsometryJet(JetMap(comps, 6, 1), 2, sos)
    system = build_k2_variety(iso)
    doc = variety_to_json(system)
    assert doc["schema"].startswith("variety/")
    assert doc["kind"] == "k2"
    assert doc["domain"] == spec_to_json(spec)
    assert len(doc["equations"]) == len(system.equations)


def test_dumps_is_deterministic():
    doc = {"b": 1, "a": [1, 2], "c": {"y": 0.5, "x": "s"}}
    s1 = dumps(doc)
    s2 = dumps(json.loads(s1))
    assert s1 == s2
    assert s1.endswith("\n")
    assert s1.index('"a"') < s1.index('"b"') < s1.index('"c"')


def reference_dumps(value) -> str:
    """The document text dumps must write: json's own sorted, two-space
    strict JSON, with non-finite floats as strings."""
    try:
        text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        text = json.dumps(strict_json_value(value), sort_keys=True,
                          indent=2, allow_nan=False)
    return text + "\n"


_floats = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -5e-324]))
# polynomial terms {"coeff": ..., "exp": [...]}, which dumps writes from
# one template each, and near misses, which it writes item by item: an
# exponent list that is empty, a tuple or holds a bool or a float; a float
# part that is np.float64, non-finite or an int; an exact part that is not
# a str; a missing or an extra key
_exps = st.lists(st.integers(min_value=0, max_value=12), min_size=1,
                 max_size=4)
_odd_exps = st.one_of(
    st.lists(st.sampled_from([0, 3, True, False, 1.0, -2, 10 ** 30]),
             max_size=3), _exps.map(tuple))
_float_parts = st.one_of(_floats, _floats.map(np.float64), st.integers())
_exact_texts = st.one_of(st.fractions().map(str), st.text(max_size=3),
                         st.integers())


def _with_odd_keys(objs):
    """objs, and objs with one key dropped or an extra key "x"."""
    return objs | objs.flatmap(lambda obj: st.sampled_from(
        [{**obj, "x": 1}] + [{k: v for k, v in obj.items() if k != drop}
                             for drop in obj]))


def _coeffs(float_parts, exact_parts):
    return st.one_of(
        st.fixed_dictionaries({"im": float_parts, "re": float_parts}),
        st.fixed_dictionaries({k: exact_parts
                               for k in ("ai", "ar", "bi", "br")}))


_good_terms = st.fixed_dictionaries({
    "coeff": _coeffs(st.floats(allow_nan=False, allow_infinity=False),
                     st.fractions().map(str)),
    "exp": _exps})
_odd_terms = _with_odd_keys(st.fixed_dictionaries({
    "coeff": _with_odd_keys(_coeffs(_float_parts, _exact_texts)),
    "exp": st.one_of(_exps, _odd_exps)}))
# terms that match, with at most one other term at any place among them
_term_lists = st.builds(
    lambda terms, odd, at: terms[:at] + odd + terms[at:],
    st.lists(_good_terms, min_size=1, max_size=4),
    st.lists(_odd_terms, max_size=1), st.integers(0, 4))
_term_lists = _term_lists | _term_lists.map(tuple)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 60, max_value=10 ** 60),
    _floats, _floats.map(np.float64), st.text(), _term_lists)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=25)

_FLOAT_TERM = {"coeff": {"im": -0.0, "re": 1e-300}, "exp": [0, 2]}
_EXACT_TERM = {"coeff": {"ai": "0", "ar": "-1/3", "bi": "7", "br": "\u00e9"},
               "exp": [1]}
_NEAR_MISSES = [
    {**_FLOAT_TERM, "exp": [True, 0]}, {**_FLOAT_TERM, "exp": [1.0]},
    {**_FLOAT_TERM, "exp": []},
    {**_FLOAT_TERM, "coeff": {"im": np.float64(0.5), "re": 1.0}},
    {**_FLOAT_TERM, "coeff": {"im": math.nan, "re": 1.0}},
    {**_FLOAT_TERM, "coeff": {"im": 0.0, "re": -math.inf}},
    {**_FLOAT_TERM, "x": None},
    {**_EXACT_TERM, "coeff": {**_EXACT_TERM["coeff"], "x": "1"}},
    {**_EXACT_TERM, "coeff": {**_EXACT_TERM["coeff"], "ai": 0}}]


@settings(max_examples=300, deadline=None)
@given(_values)
# each near miss after terms that match, and before one
@example({"terms": [[_FLOAT_TERM, _EXACT_TERM, miss] for miss in _NEAR_MISSES]
          + [[miss, _FLOAT_TERM] for miss in _NEAR_MISSES]})
def test_dumps_matches_json_reference(value):
    assert dumps(value) == reference_dumps(value)


def test_documents_match_json_reference(tmp_path):
    jet = {mode: tmp_path / f"{mode}.json" for mode in ("exact", "float")}
    for mode, path in jet.items():
        assert main(["construct", "--family", "IV", "--n", "4", "--dim", "1",
                     "--seed", "3", "--mode", mode, "--degree", "4",
                     "--out", str(path)]) == 0
    ext = tmp_path / "ext.json"
    assert main(["extend", "--in", str(jet["exact"]),
                 "--out", str(ext)]) == 0
    for path in (*jet.values(), ext):
        text = path.read_text()
        assert '"coeff": {' in text
        assert text == reference_dumps(json.loads(text))


def test_dumps_leaves_other_values_to_json():
    # non-string keys and other types: json's text, or json's exception
    value = {3: "a", 2.5: [math.inf, -0.0], False: {None: ()}}
    assert dumps(value) == reference_dumps(value)
    for bad in ({"a": {1, 2}}, {"a": [object()]}, {"x": math.nan, 2: "y"},
                {"n": np.int64(3)}):
        with pytest.raises(TypeError):
            dumps(bad)


def reference_scalar_from_json(obj):
    """Every coefficient through Fraction: the route scalar_from_json keeps
    for the parts it does not read in one pass."""
    exact = type(obj) is dict and "ar" in obj
    parts = ("ar", "ai", "br", "bi") if exact else ("re", "im")
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


def reference_scalar_to_json(c) -> dict:
    if isinstance(c, Exact):
        return {"ar": str(c.ar), "ai": str(c.ai),
                "br": str(c.br), "bi": str(c.bi)}
    z = complex(c)
    return {"re": z.real, "im": z.imag}


def _outcome(decode, obj):
    """What decode makes of obj: its type and value (the canonical form of
    an Exact, the repr of a complex, so -0.0 counts), or its ValueError."""
    try:
        c = decode(obj)
    except ValueError as exc:
        return ValueError, str(exc)
    return type(c), (c._n if isinstance(c, Exact) else repr(c))


_huge_ints = st.integers(min_value=-10 ** 400, max_value=10 ** 400)
# part strings that are not str(Fraction)'s own output, or lie at the
# edges of the one-pass reader: 300 digits, float overflow, int()'s limit
ODD_TEXTS = [
    "2/4", "-0", "007", "-007/014", "0/5", " 3", "3 ", "+3", "1.5", "1e3",
    "3/-4", "-3/4", "1/0", "0/0", "", "-", "/", "1/", "/2", "1_000",
    "\u0663", "1" * 5000, "1/" + "7" * 5000, "9" * 300, "9" * 301,
    "-" + "9" * 300, "9" * 309, "-" + "9" * 309, "1" + "0" * 308,
    "1/" + "3" * 300, "1/" + "3" * 301, "NaN", "inf"]
_odd_texts = st.sampled_from(ODD_TEXTS)
_part_texts = st.one_of(st.fractions().map(str), _odd_texts,
                        st.integers().map(str), st.text(max_size=6))
_others = st.one_of(st.none(), st.booleans(), _floats, st.lists(
    st.integers(), max_size=2))
_exact_parts = st.one_of(_part_texts, _part_texts, st.integers(), _huge_ints,
                         _others)
_float_parts = st.one_of(_floats, _floats, st.integers(), _huge_ints,
                         _others, _part_texts)


def _coefficients(keys, parts):
    # some keys left out, an extra one now and then
    return st.dictionaries(st.sampled_from(keys + ("x",)), parts,
                           max_size=len(keys) + 1) | st.fixed_dictionaries(
        {key: parts for key in keys})


_coeff_docs = st.one_of(
    _coefficients(("ar", "ai", "br", "bi"), _exact_parts),
    _coefficients(("re", "im"), _float_parts),
    st.fixed_dictionaries({"ar": _exact_parts, "re": _floats}),
    _others, st.text(max_size=3))


@settings(max_examples=600, deadline=None)
@given(_coeff_docs)
def test_scalar_from_json_matches_fraction_reference(obj):
    assert (_outcome(scalar_from_json, obj)
            == _outcome(reference_scalar_from_json, obj))


def test_scalar_from_json_reads_each_part_as_fraction_does():
    for text in ODD_TEXTS:
        for key in ("ar", "ai", "br", "bi"):
            obj = {"ar": "-5/6", "ai": "0", "br": "7", "bi": "1/3", key: text}
            assert (_outcome(scalar_from_json, obj)
                    == _outcome(reference_scalar_from_json, obj)), obj
    for part in (0.0, -0.0, 5e-324, 1e308, 0, -3, 10 ** 400, True, None,
                 math.nan, math.inf, -math.inf, np.float64(0.5), "1.5"):
        for key in ("re", "im"):
            obj = {"re": 0.25, "im": -1.5, key: part}
            assert (_outcome(scalar_from_json, obj)
                    == _outcome(reference_scalar_from_json, obj)), obj


_rationals = st.one_of(st.fractions(), st.just(Fraction(0)),
                       st.fractions(max_denominator=2 ** 80).map(
                           lambda x: x * 10 ** 30))
_exacts = st.builds(Exact, _rationals, _rationals, _rationals, _rationals)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_exacts, st.builds(Exact, _rationals),
                 st.builds(lambda r: Exact(0, 0, r), _rationals),
                 st.complex_numbers(allow_nan=False, allow_infinity=False)))
def test_scalar_to_json_matches_reference_and_round_trips(c):
    doc = scalar_to_json(c)
    assert doc == reference_scalar_to_json(c)
    assert _outcome(scalar_from_json, doc) == _outcome(
        reference_scalar_from_json, doc)
    back = scalar_from_json(doc)
    if isinstance(c, Exact):
        assert back._n == c._n
    else:
        assert repr(back) == repr(complex(c))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_repeated_exponent_is_refused(mode):
    jet = random_exact_jet(2, 2, 3, rng=random.Random(8))
    poly = jet.components[0] if mode == "exact" else \
        jet.components[0].to_float()
    doc = poly_to_json(poly)
    assert poly_from_json(doc) == poly
    doc["terms"].append(copy.deepcopy(doc["terms"][-1]))
    with pytest.raises(ValueError, match="repeats"):
        poly_from_json(doc)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_term_above_the_jet_degree_is_refused(mode):
    jet = random_exact_jet(2, 2, 3, rng=random.Random(8))
    jet = jet if mode == "exact" else jet.to_float()
    doc = jet_to_json(jet)
    assert jet_from_json(doc) == jet
    doc["degree"] = 2
    with pytest.raises(ValueError, match="^jet of degree 2 holds a term of "
                                         "degree 3$"):
        jet_from_json(doc)
