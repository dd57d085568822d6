"""JSON round trips for scalars, jets, isometries, varieties."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symdom import Exact, IsometryJet, make_sos, make_spec, random_exact_jet
from symdom import build_k2_variety, solve_component_jet, random_coisometry
from symdom.poly import HoloPoly, JetMap
from symdom.serialize import (
    dumps,
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
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 60, max_value=10 ** 60),
    _floats, _floats.map(np.float64), st.text())
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_dumps_matches_json_reference(value):
    assert dumps(value) == reference_dumps(value)


def test_dumps_leaves_other_values_to_json():
    # non-string keys and other types: json's text, or json's exception
    value = {3: "a", 2.5: [math.inf, -0.0], False: {None: ()}}
    assert dumps(value) == reference_dumps(value)
    for bad in ({"a": {1, 2}}, {"a": [object()]}, {"x": math.nan, 2: "y"},
                {"n": np.int64(3)}):
        with pytest.raises(TypeError):
            dumps(bad)
