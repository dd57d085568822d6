"""Signed-square kernel expansions against closed-form oracles."""

import cmath
import itertools
import json
import math
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from symdom import cli
from symdom import (
    BidegPoly,
    Exact,
    HALF_SQRT2,
    HoloPoly,
    IsometryJet,
    JetMap,
    ParameterError,
    SignedSOS,
    check_functional_eq,
    contains,
    curvature_at_origin,
    kernel_polarized,
    kernel_value,
    make_sos,
    make_spec,
    minimal_embedding,
    random_coisometry,
    random_exact_unitary,
    solve_component_jet,
    sos_counts,
    sos_polydisk,
    sos_type_i,
    sos_type_iv,
)
from symdom.kernels import (generator_composites, h_pullback,
                            kernel_polarized_many)
from symdom.scalars import mode_of, one, zero

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bideg_reference import gram_pullback  # noqa: E402


def exact_det(m):
    n = len(m)
    total = Exact(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Exact(1)
        for i in range(n):
            prod = prod * m[i][perm[i]]
        total = total + prod * sign
    return total


def det_kernel_oracle_exact(p, q, z):
    # det(I - Z conj(Z)^T) for the row-major flattened point z
    rows = [[z[i * q + j] for j in range(q)] for i in range(p)]
    m = [[(Exact(1) if i == k else Exact(0))
          - sum((rows[i][j] * rows[k][j].conjugate() for j in range(q)),
                Exact(0))
          for k in range(p)] for i in range(p)]
    return exact_det(m)


def rand_interior(spec, r):
    n = spec.dim
    if spec.family == "polydisk":
        return [complex(r.uniform(-0.7, 0.7), r.uniform(-0.7, 0.7))
                for _ in range(n)]
    if spec.family == "I":
        p, q = spec.params
        m = np.array([[complex(r.gauss(0, 1), r.gauss(0, 1))
                       for _ in range(q)] for _ in range(p)])
        m *= 0.85 / max(np.linalg.svd(m, compute_uv=False)[0], 1e-9)
        return [complex(c) for c in m.reshape(-1)]
    # type IV: small euclidean norm is safely inside
    v = [complex(r.gauss(0, 1), r.gauss(0, 1)) for _ in range(n)]
    scale = 0.6 / math.sqrt(sum(abs(c) ** 2 for c in v))
    return [c * scale for c in v]


def test_polydisk_product_formula_float():
    r = random.Random(101)
    for p in range(1, 5):
        sos = sos_polydisk(p)
        for _ in range(25):
            z = rand_interior(sos.spec, r)
            want = 1.0
            for c in z:
                want *= 1.0 - abs(c) ** 2
            assert abs(complex(kernel_value(sos, z)) - want) < 1e-12


def test_polydisk_product_formula_exact():
    sos = sos_polydisk(3)
    z = [Exact(Fraction(1, 2)), Exact(0, Fraction(1, 3)), Exact(Fraction(-1, 4))]
    want = (Exact(1) - Exact(Fraction(1, 4))) \
        * (Exact(1) - Exact(Fraction(1, 9))) \
        * (Exact(1) - Exact(Fraction(1, 16)))
    assert kernel_value(sos, z) == want


def test_quadric_closed_form():
    sos = sos_type_iv(3)
    t = Fraction(1, 3)
    val = kernel_value(sos, [Exact(t), Exact(0), Exact(0)])
    one_minus = Exact(1) - Exact(t * t / 2)
    assert val == one_minus * one_minus
    r = random.Random(55)
    sos_f = sos_type_iv(5)
    for _ in range(40):
        z = rand_interior(sos_f.spec, r)
        n2 = sum(abs(c) ** 2 for c in z)
        s = sum(c * c for c in z)
        want = 1 - n2 + abs(s) ** 2 / 4
        assert abs(complex(kernel_value(sos_f, z)) - want) < 1e-12


def test_matrix_domain_determinant_oracle_exact():
    for p, q in [(2, 2), (2, 3), (3, 3)]:
        sos = sos_type_i(p, q)
        r = random.Random(10 * p + q)
        for _ in range(6):
            z = [Exact(Fraction(r.randint(-1, 1), 3),
                       Fraction(r.randint(-1, 1), 4))
                 for _ in range(p * q)]
            assert kernel_value(sos, z) == det_kernel_oracle_exact(p, q, z)


def test_matrix_domain_determinant_oracle_float():
    r = random.Random(77)
    for p, q in [(2, 3), (2, 5), (3, 4)]:
        sos = sos_type_i(p, q)
        for _ in range(25):
            z = rand_interior(sos.spec, r)
            m = np.array(z).reshape(p, q)
            want = np.linalg.det(np.eye(p) - m @ m.conj().T)
            assert abs(complex(kernel_value(sos, z)) - want) < 1e-11


def test_generator_counts():
    assert sos_counts(make_spec("I", p=3, q=4)) == (16, 18)
    assert make_spec("I", p=3, q=4).min_embedding_dim == 16 + 18
    assert len(sos_type_i(3, 4).even) == 18
    for p in range(1, 6):
        sos = sos_polydisk(p)
        assert len(sos.odd) == 2 ** (p - 1)
        assert len(sos.even) == 2 ** (p - 1) - 1
    sos = sos_type_iv(7)
    assert len(sos.odd) == 7 and len(sos.even) == 1
    with pytest.raises(ParameterError):
        sos_counts(make_spec("II", m=5))
    with pytest.raises(ParameterError):
        make_sos(make_spec("V"))


def test_make_sos_dispatch():
    for spec in [make_spec("polydisk", p=2), make_spec("IV", n=4),
                 make_spec("I", p=2, q=3)]:
        sos = make_sos(spec)
        assert sos.spec == spec
        assert (len(sos.odd), len(sos.even)) == sos_counts(spec)


def test_kernel_is_one_at_origin():
    for spec in [make_spec("polydisk", p=3), make_spec("IV", n=4),
                 make_spec("I", p=2, q=3)]:
        sos = make_sos(spec)
        zero_pt = [Exact(0)] * spec.dim
        assert kernel_value(sos, zero_pt) == Exact(1)


def test_polarized_hermitian_symmetry():
    r = random.Random(12)
    sos = make_sos(make_spec("IV", n=4))
    for _ in range(10):
        z = rand_interior(sos.spec, r)
        xi = rand_interior(sos.spec, r)
        a = complex(kernel_polarized(sos, z, xi))
        b = complex(kernel_polarized(sos, xi, z))
        assert abs(a - b.conjugate()) < 1e-12


@pytest.mark.parametrize("spec", [make_spec("polydisk", p=3),
                                  make_spec("IV", n=4),
                                  make_spec("I", p=2, q=3)],
                         ids=lambda s: s.label)
def test_batched_kernel_matches_scalar(spec):
    # on a fresh expansion, before and after its stack keeps the plan of
    # evaluate_many, with the same values both times
    r = random.Random(5)
    z = np.array([rand_interior(spec, r) for _ in range(8)])
    xi = np.array([rand_interior(spec, r) for _ in range(8)])
    sos = make_sos.__wrapped__(spec)
    assert sos.stack._plan is None
    batched = kernel_polarized_many(sos, z, xi)
    assert sos.stack._plan is not None
    again = kernel_polarized_many(sos, z, xi)
    assert batched.shape == again.shape == (8,)
    assert np.array_equal(batched, again)
    for s in range(8):
        want = complex(kernel_polarized(sos, list(z[s]), list(xi[s])))
        assert abs(batched[s] - want) < 1e-14


@pytest.mark.parametrize("first", ["exact", "float"])
def test_make_sos_is_shared_and_left_unchanged(tmp_path, first):
    # one expansion per spec in a process, for both modes: an exact and a
    # float construct -> verify -> extend round through the command line,
    # in either order, share it and leave its generators alone
    spec = make_spec("IV", n=4)
    sos = make_sos(spec)
    assert make_sos(spec) is sos
    before = [dict(g.terms) for g in sos.odd + sos.even]
    for mode in (first, {"exact": "float", "float": "exact"}[first]):
        jet = tmp_path / f"jet-{mode}.json"
        assert cli.main(["construct", "--family", "IV", "--n", "4", "--dim",
                         "1", "--degree", "4", "--mode", mode, "--out",
                         str(jet)]) == 0
        assert json.loads(jet.read_text())["jet"]["mode"] == mode
        assert cli.main(["verify", "--in", str(jet), "--out",
                         str(tmp_path / "verify.json")]) == 0
        assert cli.main(["extend", "--in", str(jet), "--out",
                         str(tmp_path / "extend.json")]) == 0
        assert make_sos(spec) is sos
    assert sos.stack.components == sos.odd + sos.even
    assert [g.terms for g in sos.odd + sos.even] == before


def test_minimal_embedding_layout():
    sos = make_sos(make_spec("IV", n=3))
    z = [Exact(Fraction(1, 2)), Exact(Fraction(1, 3)), Exact(0)]
    emb = minimal_embedding(sos, z)
    assert len(emb) == sos.spec.min_embedding_dim + 1
    assert emb[0] == Exact(1)
    assert emb[1:4] == list(z)
    assert any(not (c.is_zero if isinstance(c, Exact) else abs(c) < 1e-15)
               for c in emb[4:])


STACK_SPECS = ([make_spec("polydisk", p=p) for p in (1, 2, 3)]
               + [make_spec("IV", n=n) for n in (3, 4, 5, 6)]
               + [make_spec("I", p=p, q=q)
                  for p, q in ((1, 3), (2, 2), (2, 3), (2, 4), (3, 3))])


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda s: s.label)
def test_signed_stack_is_the_minimal_embedding(spec, mode):
    # the stack is [odd, even] with signs -1, +1; the kernel is its
    # signature form, typed Exact exactly when the points are exact: the
    # one expansion at exact points, or (float) at their complex copies.
    # Dyadic Gaussian-rational points keep the float sums exact too.
    sos = make_sos(spec)
    n, exact = spec.dim, mode == "exact"
    assert sos.stack.components == sos.odd + sos.even
    assert sos.signs == (-1,) * len(sos.odd) + (1,) * len(sos.even)
    r = random.Random(n)

    def gaussian():
        return Exact(Fraction(r.randint(-2, 2), 4),
                     Fraction(r.randint(-2, 2), 4))

    z, xi = [gaussian() for _ in range(n)], [gaussian() for _ in range(n)]
    want = 1
    for g in sos.odd:
        want = want - g.evaluate(z) * g.evaluate(xi).conjugate()
    for g in sos.even:
        want = want + g.evaluate(z) * g.evaluate(xi).conjugate()
    got = (kernel_polarized(sos, z, xi) if exact else kernel_polarized(
        sos, [complex(c) for c in z], [complex(c) for c in xi]))
    assert got == want and type(got) is (Exact if exact else complex)
    exact_points = {"Exact": z, "Fraction": [Fraction(r.randint(-2, 2), 4)
                                             for _ in range(n)],
                    "int": [r.randint(-1, 1) for _ in range(n)],
                    "float": [complex(c) for c in z]}
    points = exact_points if exact else {
        name: [complex(c) for c in pt] for name, pt in exact_points.items()}
    for name, pt in points.items():
        kind = Exact if exact and name != "float" else complex
        value = kernel_value(sos, pt)
        assert type(value) is kind
        same = z if name in ("Exact", "float") else \
            list(map(Exact.of, exact_points[name]))
        assert value == kernel_value(sos, same)
        emb = minimal_embedding(sos, pt)
        assert emb == [one(mode)] + sos.stack.evaluate(pt)
        assert all(type(c) is kind for c in emb)
    assert type(kernel_polarized(sos, z, points["float"])) is complex
    axis = [1] + [0] * (n - 1)
    dirs = [axis] + ([[Fraction(3, 5)] + [0] * (n - 2) + [Fraction(4, 5)]]
                     if n > 1 else [])
    for d in dirs:
        k = curvature_at_origin(sos, d)
        assert type(k) is float
        if exact:
            assert curvature_at_origin(sos, [Fraction(a) for a in d]) == k
            assert curvature_at_origin(sos, [Exact.of(a) for a in d]) == k
        else:
            assert abs(curvature_at_origin(sos, [complex(a) for a in d])
                       - k) < 1e-15


ALL_EXPANSIONS = ([make_spec("polydisk", p=p) for p in range(1, 6)]
                  + [make_spec("IV", n=n) for n in range(3, 9)]
                  + [make_spec("I", p=p, q=q)
                     for p in range(1, 4) for q in range(p, 5)])


@pytest.mark.parametrize("spec", ALL_EXPANSIONS, ids=lambda s: s.label)
def test_stack_starts_with_the_coordinates(spec):
    # the first dim stack components are z_0, z_1, ... with coefficient 1,
    # and higher is the rest of the stack, at the stack's degree
    sos, n = make_sos(spec), spec.dim
    coords = sos.stack.components[:n]
    assert coords == tuple(HoloPoly.var(n, j) for j in range(n))
    assert sos.higher.components == sos.stack.components[n:]
    assert (sos.higher.source_dim, sos.higher.degree) == (n, sos.stack.degree)


def test_expansion_without_leading_coordinates_is_refused():
    spec = make_spec("IV", n=3)
    z = [HoloPoly.var(3, j) for j in range(3)]
    even = make_sos(spec).even
    for odd in ((z[0].scale(2), z[1], z[2]), (z[1], z[0], z[2])):
        with pytest.raises(ValueError, match="odd generator 0 is not z_0"):
            SignedSOS(spec, odd, even)


def _curvature_anchors():
    """(expansion, exact unit direction, curvature) at known values."""
    half = Exact(Fraction(1, 2))
    e1 = [Exact(1), Exact(0), Exact(0), Exact(0)]
    null_dir = [HALF_SQRT2, Exact(0, 0, 0, Fraction(1, 2)), Exact(0), Exact(0)]
    return [(sos_polydisk(2), [Exact(1), Exact(0)], -2.0),
            (sos_polydisk(2), [HALF_SQRT2, HALF_SQRT2], -1.0),
            (sos_polydisk(4), [half] * 4, -0.5),
            (sos_type_iv(4), e1, -1.0),
            (sos_type_iv(4), null_dir, -2.0)]


def test_curvature_anchors():
    for sos, direction, want in _curvature_anchors():
        assert abs(curvature_at_origin(sos, direction) - want) < 1e-12


def test_curvature_window():
    r = random.Random(321)
    for spec in [make_spec("polydisk", p=3), make_spec("IV", n=5),
                 make_spec("I", p=2, q=3)]:
        sos = make_sos(spec)
        lo, hi = -2.0 - 1e-9, -2.0 / spec.rank + 1e-9
        for _ in range(30):
            v = [complex(r.gauss(0, 1), r.gauss(0, 1))
                 for _ in range(spec.dim)]
            nrm = math.sqrt(sum(abs(c) ** 2 for c in v))
            v = [c / nrm for c in v]
            k = curvature_at_origin(sos, v)
            assert lo <= k <= hi


def log_series_curvature(sos, alpha):
    """4 times the |t|^4 coefficient of log h on the line t*alpha, from the
    series log(1 + x) = x - x^2/2 + x^3/3 - ... in bidegree polynomials of
    one variable, cut at total degree 4."""
    alpha = [Exact.of(a) if mode_of(a) == "exact" and not isinstance(a, Exact)
             else a for a in alpha]
    mode = "exact" if all(mode_of(a) == "exact" for a in alpha) else "float"
    e0 = ((0,), (0,))
    terms = {e0: one(mode)}
    for sign, g in zip(sos.signs, sos.stack.components):
        val = g.evaluate(alpha)
        mag = val * (val.conjugate() if isinstance(val, Exact)
                     else complex(val).conjugate())
        key = ((g.degree,), (g.degree,))
        terms[key] = terms.get(key, zero(mode)) + mag * sign
    unit = BidegPoly(1, {e0: one(mode)}, mode)
    x = (BidegPoly(1, terms, mode) - unit).truncate(4)
    log, power = BidegPoly.zero(1, mode), unit
    for m in range(1, 5):
        power = power.mul_trunc(x, 4)
        coeff = Fraction((-1) ** (m + 1), m) if mode == "exact" \
            else complex((-1) ** (m + 1) / m)
        log = log + power.scale(coeff)
    return 4.0 * complex(log.terms.get(((2,), (2,)), 0)).real


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("spec", [make_spec("polydisk", p=3),
                                  make_spec("IV", n=5),
                                  make_spec("I", p=2, q=3)],
                         ids=lambda s: s.label)
def test_curvature_closed_form_equals_log_series(spec, mode):
    # 30 unit directions: exact rows of exact unitaries, or normalized
    # Gaussian vectors; then the anchors of test_curvature_anchors
    r = random.Random(321)
    sos = make_sos(spec)
    if mode == "exact":
        dirs = [row for seed in range(30)
                for row in random_exact_unitary(spec.dim, seed)][:30]
    else:
        dirs = []
        for _ in range(30):
            v = [complex(r.gauss(0, 1), r.gauss(0, 1))
                 for _ in range(spec.dim)]
            nrm = math.sqrt(sum(abs(c) ** 2 for c in v))
            dirs.append([c / nrm for c in v])
    cases = [(sos, v) for v in dirs]
    for anchor, v, _ in _curvature_anchors():
        if mode == "float":
            v = [complex(c) for c in v]
        cases.append((anchor, v))
    for s, v in cases:
        assert curvature_at_origin(s, v) == log_series_curvature(s, v)


def test_contains():
    sos = make_sos(make_spec("polydisk", p=2))
    assert contains(sos, [0.5, -0.5j])
    assert not contains(sos, [1.1, 0.0])
    quad = make_sos(make_spec("IV", n=3))
    assert contains(quad, [0.3, 0.2, 0.0])
    assert not contains(quad, [1.5, 0.0, 0.0])
    mat = make_sos(make_spec("I", p=2, q=3))
    assert contains(mat, [0.4, 0, 0, 0, 0.4, 0])
    assert not contains(mat, [0.9, 0, 0, 0.9, 0, 0])
    r = random.Random(8)
    for spec in [make_spec("polydisk", p=3), make_spec("IV", n=4),
                 make_spec("I", p=2, q=4)]:
        s = make_sos(spec)
        for _ in range(20):
            assert contains(s, rand_interior(spec, r))


# -- float pullback: 1 + the triangle-masked signed Gram product, as the ----
# -- float FE check forms it, against a loop reference ----------------------

GRAM_SPECS = [make_spec("polydisk", p=3), make_spec("IV", n=4),
              make_spec("I", p=2, q=3)]


def loop_pullback(sos, f, d):
    """1 plus the signed sum of BidegPoly.sandwich(c, c, d) over the
    generator composites, summed term by term."""
    e0 = (0,) * f.source_dim
    acc = BidegPoly(f.source_dim, {(e0, e0): 1.0}, "float")
    comps = generator_composites(sos, f, d).components
    signs = [-1] * len(sos.odd) + [1] * len(sos.even)
    for sign, comp in zip(signs, comps):
        term = BidegPoly.sandwich(comp, comp, d)
        acc = acc + (term if sign > 0 else -term)
    return acc


def random_float_jet(spec, r, coeff, n=2, degree=4):
    """A constant-free float jet C^n -> C^dim with every monomial of degree
    1..degree present, coefficients drawn by coeff(r)."""
    exps = [e for e in itertools.product(range(degree + 1), repeat=n)
            if 1 <= sum(e) <= degree]
    comps = [HoloPoly(n, {e: coeff(r) for e in exps}, "float")
             for _ in range(spec.dim)]
    return JetMap(comps, degree, n)


@pytest.mark.parametrize("spec", GRAM_SPECS, ids=lambda s: s.label)
def test_float_pullback_gaussian_integers_equal_loop(spec):
    # integer and half-integer products and sums far below 2**53 are exact
    # in float64, so the Gram product and the loop agree term for term
    r = random.Random(17)
    sos = make_sos(spec)
    for _ in range(3):
        f = random_float_jet(spec, r, lambda g: complex(g.randint(-2, 2),
                                                       g.randint(-2, 2)))
        for d in (2, 3, 4):
            got = gram_pullback(sos, generator_composites(sos, f, d), d)
            assert got.terms == loop_pullback(sos, f, d).terms


@pytest.mark.parametrize("spec", GRAM_SPECS, ids=lambda s: s.label)
def test_float_pullback_random_jets_match_loop(spec):
    # summation order differs; 1e-12 of the largest coefficient is about
    # 10^4 float64 roundings at that size
    r = random.Random(23)
    sos = make_sos(spec)
    for _ in range(3):
        f = random_float_jet(spec, r, lambda g: complex(g.gauss(0, 1),
                                                       g.gauss(0, 1)))
        ref = loop_pullback(sos, f, 4)
        got = gram_pullback(sos, generator_composites(sos, f, 4), 4)
        scale = max(1.0, ref.max_abs_coeff())
        assert (got - ref).max_abs_coeff() <= 1e-12 * scale
        # the (exact) expansion with a float jet gives a float stack,
        # which h_pullback refuses: its pullback is signed_gram's
        with pytest.raises(ValueError, match="signed_gram"):
            h_pullback(sos, generator_composites(sos, f, 4))


def test_pullback_refuses_a_stack_of_the_wrong_length():
    # one composite per generator: a stack without the last plus composite
    # (or with an extra one) is refused
    sos = make_sos(make_spec("IV", n=4))
    f = JetMap([HoloPoly.var(1, 0)] + [HoloPoly.zero(1)] * 3, 4)
    stack = generator_composites(sos, f, 4)
    comps = stack.components
    for bad in (comps[:-1], comps + comps[-1:]):
        with pytest.raises(ValueError, match="composites for 5 generators"):
            h_pullback(sos, JetMap(bad, 4))
    assert h_pullback(sos, stack).mode == "exact"


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(1e200, 0.0)],
                         ids=["nan", "overflow"])
def test_float_pullback_nonfinite_fails_quietly(bad, capfd):
    spec = make_spec("IV", n=4)
    sos = make_sos(spec)
    rows = random_coisometry(spec.dim - 2, spec.dim, 1, "float")
    jet = solve_component_jet(rows, sos, degree=4).jet
    comps = list(jet.components)
    terms = dict(comps[0].terms)
    exp = next(e for e in terms if sum(e) == 1)
    terms[exp] = bad
    comps[0] = HoloPoly(2, terms, "float")
    iso = IsometryJet(JetMap(comps, 4, 2), 1, sos)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = check_functional_eq(iso)
    assert not rep.passed
    assert not rep.max_residual <= 1e-9
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    # the float composition route carried the bad value into the stack the
    # check squared
    stack = iso.composites(4).components
    assert not all(cmath.isfinite(c) for g in stack for c in g.terms.values())
    assert capfd.readouterr().err == ""
