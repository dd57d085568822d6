"""Truncated polynomial and jet arithmetic against brute-force oracles."""

import cmath
import itertools
import math
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symdom import Exact, HoloPoly, BidegPoly, JetMap
from symdom import compose_truncate, random_exact_jet
from symdom import poly

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bideg_reference import PRIMES, recursive_compose  # noqa: E402


def rand_coeff(r, mode):
    if mode == "exact":
        return Exact(Fraction(r.randint(-3, 3), r.randint(1, 3)),
                     Fraction(r.randint(-2, 2), 2))
    return complex(r.uniform(-1, 1), r.uniform(-1, 1))


def rand_poly(r, nvars, degree, mode="exact", terms=5):
    p = HoloPoly.zero(nvars, mode)
    for _ in range(terms):
        exp = [0] * nvars
        for _ in range(r.randint(0, degree)):
            exp[r.randrange(nvars)] += 1
        p = p + HoloPoly.monomial(nvars, tuple(exp), rand_coeff(r, mode), mode)
    return p


def rand_bideg(r, nvars, degree, mode, terms=5):
    acc = {}
    for _ in range(terms):
        alpha, beta = [0] * nvars, [0] * nvars
        for _ in range(r.randint(0, degree)):
            r.choice((alpha, beta))[r.randrange(nvars)] += 1
        key = (tuple(alpha), tuple(beta))
        acc[key] = acc.get(key, 0) + rand_coeff(r, mode)
    return BidegPoly(nvars, acc, mode)


def naive_product(a, b):
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, ca * cb * 0) + ca * cb
    return out


def test_mul_trunc_against_convolution():
    r = random.Random(11)
    for _ in range(40):
        a = rand_poly(r, 2, 3)
        b = rand_poly(r, 2, 3)
        d = r.randint(0, 6)
        got = a.mul_trunc(b, d)
        want = {e: c for e, c in naive_product(a, b).items()
                if sum(e) <= d and not c.is_zero}
        assert got.terms == want


def bideg_degree(key):
    return sum(key[0]) + sum(key[1])


def naive_bideg_product(a, b):
    out = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            key = (tuple(x + y for x, y in zip(a1, a2)),
                   tuple(x + y for x, y in zip(b1, b2)))
            out[key] = out.get(key, c1 * c2 * 0) + c1 * c2
    return out


def assert_terms_match(got, want):
    """got holds the brute-force terms want: exactly, or to 1e-12 in float."""
    if got.mode == "exact":
        assert got.terms == {k: c for k, c in want.items() if not c.is_zero}
    else:
        for k in set(got.terms) | set(want):
            assert abs(got.terms.get(k, 0) - want.get(k, 0)) < 1e-12


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_bideg_arithmetic_against_pair_convolution(mode):
    r = random.Random(41)
    for _ in range(6):
        a = rand_bideg(r, 2, 3, mode)
        b = rand_bideg(r, 2, 3, mode, terms=4)
        assert a.degree == max(map(bideg_degree, a.terms), default=0)
        prod = naive_bideg_product(a.terms, b.terms)
        for d in range(8):
            cut = a.truncate(d)
            assert cut.terms == {k: c for k, c in a.terms.items()
                                 if bideg_degree(k) <= d}
            assert cut.degree <= d
            got = a.mul_trunc(b, d)
            assert_terms_match(got, {k: c for k, c in prod.items()
                                     if bideg_degree(k) <= d})
            results = [cut, got, a * b, a + b, a - b, -a, a.scale(2),
                       a.to_float(), BidegPoly.zero(2, mode)]
            assert all(type(p) is BidegPoly for p in results)


def test_bideg_never_equals_holo():
    r = random.Random(43)
    p = rand_bideg(r, 2, 3, "exact")
    holo = HoloPoly(2, dict(p.terms), "exact")
    assert holo.terms == p.terms
    assert p != holo and holo != p
    assert BidegPoly.zero(2) != HoloPoly.zero(2)
    assert HoloPoly.zero(2) != BidegPoly.zero(2)
    assert BidegPoly(2, dict(p.terms)) == p


def test_mul_full_matches_float():
    r = random.Random(5)
    for _ in range(20):
        a = rand_poly(r, 3, 2, mode="float")
        b = rand_poly(r, 3, 2, mode="float")
        prod = a * b
        want = naive_product(a, b)
        for e, c in want.items():
            if abs(c) > 1e-14:
                assert abs(prod.coeff(e) - c) < 1e-12


def test_square_truncation_golden():
    # (w + w^2)^2 = w^2 + 2 w^3 + w^4, cut at degree 3
    w = HoloPoly.var(1, 0)
    p = w + w.mul_trunc(w)
    sq = p.mul_trunc(p, 3)
    assert sq == HoloPoly(1, {(2,): Exact(1), (3,): Exact(2)})
    assert p.mul_trunc(p, 4).coeff((4,)) == Exact(1)


def test_substitute_matches_evaluation():
    r = random.Random(23)
    for _ in range(15):
        p = rand_poly(r, 2, 2, terms=4)
        q1 = rand_poly(r, 2, 2, terms=3)
        q2 = rand_poly(r, 2, 2, terms=3)
        q1 = q1 - HoloPoly.const(2, q1.constant_term())
        q2 = q2 - HoloPoly.const(2, q2.constant_term())
        comp = p.substitute([q1, q2], 8)
        pt = [Exact(Fraction(r.randint(-1, 1), 2), Fraction(r.randint(-1, 1), 3))
              for _ in range(2)]
        inner = [q1.evaluate(pt), q2.evaluate(pt)]
        assert comp.evaluate(pt) == p.evaluate(inner)


def test_homogeneous_parts_and_truncate():
    r = random.Random(2)
    p = rand_poly(r, 2, 4, terms=8)
    rebuilt = HoloPoly.zero(2)
    for m in range(p.degree + 1):
        part = p.truncate(m) - p.truncate(m - 1)
        for e in part.terms:
            assert sum(e) == m
        rebuilt = rebuilt + part
    assert rebuilt == p
    assert p.truncate(2).degree <= 2


def test_sandwich_hermitian():
    r = random.Random(17)
    for _ in range(10):
        f = rand_poly(r, 2, 3)
        p = BidegPoly.sandwich(f, f)
        assert all(p.terms[b, a] == c.conjugate()
                   for (a, b), c in p.terms.items())


def test_compose_truncate_chain():
    r = random.Random(29)
    outer = JetMap([rand_poly(r, 2, 2) for _ in range(2)], 4, 2)
    inner_comps = []
    for _ in range(2):
        c = rand_poly(r, 2, 2, terms=3)
        inner_comps.append(c - HoloPoly.const(2, c.constant_term()))
    inner = JetMap(inner_comps, 4, 2)
    comp = compose_truncate(outer, inner, 8)
    pt = [Exact(Fraction(1, 3), 0), Exact(0, Fraction(-1, 4))]
    assert comp.evaluate(pt) == outer.evaluate(inner.evaluate(pt))


def naive_compose(outer, inner):
    """Components of outer o inner, untruncated, from brute-force products."""
    n = inner.source_dim
    comps = []
    for comp in outer.components:
        acc = HoloPoly.zero(n, comp.mode)
        for e, c in comp.terms.items():
            term = HoloPoly.const(n, c)
            for j, k in enumerate(e):
                for _ in range(k):
                    term = HoloPoly(n, naive_product(term, inner.components[j]))
            acc = acc + term
        comps.append(acc)
    return comps


@pytest.mark.parametrize("d", range(1, 7))
def test_compose_truncate_is_truncated_composition(d):
    r = random.Random(37)
    shared = rand_poly(r, 3, 3, terms=4)
    outer = JetMap([shared, shared + rand_poly(r, 3, 3),
                    shared.scale(Exact(2)) + HoloPoly.const(3, Exact(1, 1))],
                   3)
    assert shared.degree >= 2
    assert not outer.components[2].constant_term().is_zero
    inner_comps = []
    for _ in range(3):
        c = rand_poly(r, 2, 3, terms=4)
        inner_comps.append(c - HoloPoly.const(2, c.constant_term()))
    inner = JetMap(inner_comps, 3)
    got = compose_truncate(outer, inner, d)
    assert got.degree == d
    assert list(got.components) == [c.truncate(d)
                                    for c in naive_compose(outer, inner)]
    approx = compose_truncate(outer.to_float(), inner.to_float(), d)
    assert approx.mode == "float"
    assert approx.max_coeff_distance(got) <= 1e-12


def test_compose_rejects_constant_terms():
    outer = JetMap.identity(1, 2)
    bad = JetMap([HoloPoly.const(1, Exact(1))], 2, 1)
    with pytest.raises(ValueError):
        compose_truncate(outer, bad, 2)


def test_jetmap_helpers():
    j = JetMap.identity(3, 5)
    assert j.source_dim == 3 and j.target_dim == 3
    pt = [Exact(1), Exact(2), Exact(3)]
    assert j.evaluate(pt) == pt
    lin = JetMap.from_linear([[Exact(0), Exact(1)], [Exact(1), Exact(0)]], 4)
    assert lin.evaluate([Exact(5), Exact(7)]) == [Exact(7), Exact(5)]
    jac = lin.jacobian0()
    assert jac[0][1] == Exact(1) and jac[0][0] == Exact(0)
    assert lin.constant_free()


def test_sandwich_truncated_matches_truncate():
    r = random.Random(23)
    for _ in range(5):
        f = rand_poly(r, 2, 4, terms=6)
        g = rand_poly(r, 2, 4, terms=6)
        for d in range(9):
            assert BidegPoly.sandwich(f, f, d) == \
                BidegPoly.sandwich(f, f).truncate(d)
            assert BidegPoly.sandwich(f, g, d) == \
                BidegPoly.sandwich(f, g).truncate(d)


def test_scale_keeps_mode():
    assert HoloPoly.zero(2, "float").scale(2.0).mode == "float"
    assert BidegPoly.zero(2, "float").scale(Fraction(1, 2)).mode == "float"
    assert HoloPoly.var(2, 0).scale(Fraction(1, 2)).mode == "exact"


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_evaluate_many_matches_evaluate(mode):
    r = random.Random(31)
    jet = JetMap([rand_poly(r, 3, 5, mode, terms=8) for _ in range(4)], 5)
    pts = [[complex(r.uniform(-0.5, 0.5), r.uniform(-0.5, 0.5))
            for _ in range(3)] for _ in range(6)]
    values = jet.evaluate_many(pts)
    assert values.shape == (6, 4)
    for s, pt in enumerate(pts):
        for i, want in enumerate(jet.evaluate(pt)):
            assert abs(values[s, i] - complex(want)) < 1e-14


# -- the lean core: results built once, without re-coercion -------------------
#
# Float coefficients are small Gaussian integers, so every sum and product
# below is exact in double precision and the brute-force terms can be
# compared for equality in both modes.

def _coeffs(mode):
    small = st.integers(-3, 3)
    if mode == "exact":
        return st.builds(lambda a, b, c, den: Exact(Fraction(a, den),
                                                    Fraction(b, den),
                                                    Fraction(c, 2)),
                         small, small, small, st.integers(1, 3))
    return st.builds(complex, small, small)


def _polys(mode, constant_free=False):
    low = 1 if constant_free else 0
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda e: sum(e) >= low)
    return st.dictionaries(exps, _coeffs(mode), max_size=6).map(
        lambda terms: HoloPoly(2, terms, mode))


def _product_terms(ta, tb):
    out = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out[e] + ca * cb if e in out else ca * cb
    return out


def _compose_terms(comp, inner, d=None):
    """comp o inner term by term; with d, every partial product is cut at
    degree d."""
    acc = {}
    for e, c in comp.terms.items():
        term = {(0,) * inner.source_dim: c}
        for j, k in enumerate(e):
            for _ in range(k):
                term = {key: v for key, v in _product_terms(
                    term, inner.components[j].terms).items()
                        if d is None or sum(key) <= d}
        for key, v in term.items():
            acc[key] = acc[key] + v if key in acc else v
    return acc


def _sandwich_terms(f, g, d):
    return {(ea, eb): ca * cb.conjugate()
            for ea, ca in f.terms.items() for eb, cb in g.terms.items()
            if sum(ea) + sum(eb) <= d}


@pytest.mark.parametrize("mode", ["exact", "float"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lean_core_matches_coercing_constructor(mode, data):
    a, b = data.draw(_polys(mode)), data.draw(_polys(mode))
    c = data.draw(_coeffs(mode))
    d = data.draw(st.integers(1, 6))
    inner = JetMap([data.draw(_polys(mode, constant_free=True))
                    for _ in range(2)], 3)
    field = Exact if mode == "exact" else complex
    keys = a.terms.keys() | b.terms.keys()
    holo = [
        (a + b, {e: a.coeff(e) + b.coeff(e) for e in keys}),
        (a - b, {e: a.coeff(e) - b.coeff(e) for e in keys}),
        (-a, {e: -v for e, v in a.terms.items()}),
        (a.scale(c), {e: v * c for e, v in a.terms.items()}),
        (a.mul_trunc(b, d), {e: v for e, v in _product_terms(
            a.terms, b.terms).items() if sum(e) <= d}),
        (a.truncate(d), {e: v for e, v in a.terms.items() if sum(e) <= d}),
    ]
    outer = JetMap([a, b], 3)
    composed = compose_truncate(outer, inner, d).components
    for comp, got in zip(outer.components, composed):
        holo.append((got, {e: v for e, v in _compose_terms(comp, inner).items()
                           if sum(e) <= d}))
    for got, raw in holo:
        assert got.terms == HoloPoly(2, raw, mode).terms
    bideg = [(BidegPoly.sandwich(a, b, d), _sandwich_terms(a, b, d)),
             (BidegPoly.sandwich(a, a, d), _sandwich_terms(a, a, d))]
    for got, raw in bideg:
        assert got.terms == BidegPoly(2, raw, mode).terms
    for got, _ in holo + bideg:
        assert got.mode == mode
        assert all(type(v) is field for v in got.terms.values())
    # immutable operands are shared, not copied, when nothing is cut
    assert a.truncate(max(a.degree, d)) is a
    assert JetMap([a], a.degree, 2).components[0] is a


@pytest.mark.parametrize("mode", ["exact", "float"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lean_core_stores_no_zero(mode, data):
    a = data.draw(_polys(mode))
    s = BidegPoly.sandwich(a, a)
    for p in (a - a, a + (-a), a.scale(0), a.mul_trunc(a - a, 6), s - s):
        assert p.is_zero and p.terms == {}
        assert p.mode == mode


def test_lean_core_keeps_nan():
    nan = complex(float("nan"), 0.0)
    p = HoloPoly(2, {(1, 0): nan, (0, 1): 1 + 0j, (2, 1): 2j}, "float")
    one_f = HoloPoly.const(2, 1, "float")
    results = [p + p, p - p, -p, p.scale(2.0), p.mul_trunc(one_f, 4),
               p.truncate(2),
               JetMap([p], 2).components[0],
               BidegPoly.sandwich(p, p, 4), BidegPoly.sandwich(p, one_f, 4)]
    # the float composition route: a NaN in either factor, or a value
    # beyond float range, reaches the result, and numpy warns of neither
    big = HoloPoly(2, {(1, 0): 1e200 + 0j, (0, 1): 1 + 0j}, "float")
    square = JetMap([HoloPoly.monomial(2, (1, 1), 1.0, "float"),
                     HoloPoly.var(2, 0, "float")], 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results += [compose_truncate(JetMap.identity(2, 3, "float"),
                                     JetMap([p, p], 3), 3).components[0],
                    compose_truncate(square, JetMap([p, p], 3),
                                     3).components[0],
                    compose_truncate(JetMap([p], 3),
                                     JetMap.identity(2, 3, "float"),
                                     3).components[0]]
        overflow = compose_truncate(square, JetMap([big, big], 3), 3)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    for q in results:
        assert any(cmath.isnan(c) for c in q.terms.values()), q
    assert not all(cmath.isfinite(c)
                   for c in overflow.components[0].terms.values())


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mixed_modes_give_complex(data):
    ex, fl = data.draw(_polys("exact")), data.draw(_polys("float"))
    d = data.draw(st.integers(1, 6))
    ex_inner = JetMap([data.draw(_polys("exact", constant_free=True))
                       for _ in range(2)], 3)
    fl_inner = JetMap([data.draw(_polys("float", constant_free=True))
                       for _ in range(2)], 3)
    results = [ex + fl, fl + ex, ex - fl, ex.mul_trunc(fl, d),
               fl.mul_trunc(ex, d), ex.scale(0.5 + 1j),
               fl.scale(Exact(1, 1)), fl.scale(Fraction(1, 3)),
               BidegPoly.sandwich(ex, fl, d), BidegPoly.sandwich(fl, ex, d)]
    results += compose_truncate(JetMap([ex, ex], 3), fl_inner, d).components
    results += compose_truncate(JetMap([fl, fl], 3), ex_inner, d).components
    for p in results:
        assert p.mode == "float"
        assert all(type(v) is complex for v in p.terms.values())


# -- the float composition route against the exact one ------------------------
#
# Outer stacks carry a constant term, a term above d and a zero component;
# inner jets have terms above d.  Gaussian-integer coefficients keep every
# sum and product exact in double precision, so the float route must give
# the exact route's terms; random floats are held to the loop reference.

def _gaussian_terms(nvars, low, top):
    """Terms of degree low..top in nvars variables, coefficient pairs of
    small integers (real, imaginary)."""
    exps = st.lists(st.integers(0, nvars - 1), min_size=low,
                    max_size=top).map(
        lambda vs: tuple(vs.count(v) for v in range(nvars)))
    pairs = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    return st.dictionaries(exps, pairs, max_size=4)


def _composition_case(data):
    """(n, d, outer terms, inner terms), coefficients as integer pairs."""
    n = data.draw(st.integers(1, 4), label="n")
    d = data.draw(st.integers(1, 6), label="d")
    m = data.draw(st.integers(1, 3), label="m")
    nonzero = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)
    outer = [data.draw(_gaussian_terms(m, 0, d + 2))
             for _ in range(data.draw(st.integers(1, 3)))]
    outer[0][(0,) * m] = data.draw(nonzero)
    outer[-1][(d + 1,) + (0,) * (m - 1)] = data.draw(nonzero)
    outer.append({})
    inner = [data.draw(_gaussian_terms(n, 1, d + 2)) for _ in range(m)]
    inner[0][(0,) * (n - 1) + (d + 1,)] = data.draw(nonzero)
    return n, d, outer, inner


def _jet(terms_list, nvars, degree, coeff):
    return JetMap([HoloPoly.from_field(nvars, {e: coeff(*c)
                                               for e, c in terms.items()},
                                       "exact" if coeff is Exact else "float")
                   for terms in terms_list], degree, nvars)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_float_composition_equals_exact_on_gaussian_integers(data):
    n, d, outer, inner = _composition_case(data)
    m = len(inner)
    ex_outer, ex_inner = (_jet(outer, m, d + 2, Exact),
                          _jet(inner, n, d + 2, Exact))
    fl_outer, fl_inner = (_jet(outer, m, d + 2, complex),
                          _jet(inner, n, d + 2, complex))
    assert ex_inner.components[0].degree > d
    want = [c.to_float().terms
            for c in compose_truncate(ex_outer, ex_inner, d).components]
    for o, i in ((fl_outer, fl_inner), (ex_outer, fl_inner),
                 (fl_outer, ex_inner)):
        got = compose_truncate(o, i, d)
        assert (got.mode, got.degree, got.source_dim) == ("float", d, n)
        assert [c.terms for c in got.components] == want
    # the cached graded table holds exactly the pairs of its definition,
    # degree by degree
    basis, first, runs = poly._graded(n, d)
    assert poly._graded(n, d)[0] is basis
    assert basis == sorted(basis, key=sum)
    assert len(basis) == math.comb(n + d, d)
    assert [sum(e) for e in basis] == \
        [s for s in range(d + 1) for _ in range(first[s], first[s + 1])]
    pairs = {(i, j) for (i, a), (j, b) in itertools.product(enumerate(basis),
                                                            repeat=2)
             if sum(a) >= 1 and sum(b) >= 1 and sum(a) + sum(b) <= d}
    assert sorted(runs) == list(range(2, d + 1))
    assert sum(len(runs[m][0]) for m in runs) == len(pairs) == \
        math.comb(2 * n + d, d) - 2 * math.comb(n + d, d) + 1
    for m, (pi, pj, starts) in runs.items():
        assert set(zip(pi.tolist(), pj.tolist())) == \
            {(i, j) for i, j in pairs if sum(basis[i]) + sum(basis[j]) == m}
        # run r sums the pairs whose product is basis[first[m] + r]
        assert len(starts) == first[m + 1] - first[m]
        sizes = np.diff(np.append(starts, len(pi)))
        for i, j, k in zip(pi, pj, np.repeat(np.arange(first[m],
                                                       first[m + 1]), sizes)):
            assert basis[k] == tuple(x + y for x, y in zip(basis[i], basis[j]))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_float_composition_matches_loop_on_random_floats(data):
    n, d, outer, inner = _composition_case(data)
    m = len(inner)
    r = random.Random(data.draw(st.integers(0, 2 ** 16), label="seed"))

    def rand(*_):
        return complex(r.gauss(0, 1), r.gauss(0, 1))

    fl_outer, fl_inner = (_jet(outer, m, d + 2, rand),
                          _jet(inner, n, d + 2, rand))
    got = compose_truncate(fl_outer, fl_inner, d)
    refs = [_compose_terms(comp, fl_inner, d) for comp in fl_outer.components]
    scale = max([1.0] + [abs(v) for ref in refs for v in ref.values()])
    for comp, ref in zip(got.components, refs):
        for e in comp.terms.keys() | ref.keys():
            assert sum(e) <= d
            assert abs(comp.coeff(e) - ref.get(e, 0j)) <= 1e-12 * scale


# -- the exact composition route against the recursive memo -------------------

def _over_primes(jet, r):
    """The components of jet with each coefficient divided by a prime
    drawn from ``PRIMES``: large, unequal denominators."""
    return [HoloPoly.from_field(comp.nvars, {
        e: c * Exact(Fraction(1, r.choice(PRIMES)))
        for e, c in comp.terms.items()}, "exact")
        for comp in jet.components]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), d=st.integers(1, 6),
       seed=st.integers(0, 2 ** 16))
def test_exact_composition_equals_recursive_reference(n, m, d, seed):
    # random jets with terms up to degree d + 2, each coefficient divided
    # by a prime of 30 to 607 bits, an outer constant term and outer
    # linear terms; inner adds p = w + w^2 and q = w - w^2, whose
    # product has a zero degree-3 part, and outer adds
    # x_p^2 + x_q^2 - 2 x_p x_q = (p - q)^2 = 4 w^4, whose parts of degree
    # 2 and 3 cancel to zero
    r = random.Random(seed)
    w = HoloPoly.var(n, 0)
    ww = w.mul_trunc(w)
    inner = _over_primes(random_exact_jet(n, m, d + 2, rng=r), r)
    inner += (w + ww, w - ww)
    top = HoloPoly.monomial(n, (d + 1,) + (0,) * (n - 1), Exact(1, -1))
    inner = JetMap([inner[0] + top] + list(inner[1:]), d + 2)
    xp, xq = HoloPoly.var(m + 2, m), HoloPoly.var(m + 2, m + 1)
    outer = _over_primes(random_exact_jet(m + 2, 2, d + 2, rng=r), r)
    outer[0] = (outer[0] + HoloPoly.const(m + 2, Exact(2, 1))
                + HoloPoly.monomial(m + 2, (0,) * (m + 1) + (d + 1,),
                                    Exact(0, 3)))
    outer.append(xp.mul_trunc(xp) + xq.mul_trunc(xq)
                 - xp.mul_trunc(xq).scale(Exact(2)))
    outer = JetMap(outer, d + 2)
    got = compose_truncate(outer, inner, d)
    assert got == recursive_compose(outer, inner, d)
    assert got.components[-1] == ww.mul_trunc(ww, d).scale(Exact(4))


def test_exact_cap_admits_degree_14_in_5_variables():
    # exact IV(8) dim 5 at degree 14 has 11628 monomials below its degree
    assert math.comb(5 + 14, 14) == 11628 <= poly.MAX_EXACT_BASIS
    poly._check_basis(5, 14, poly.MAX_EXACT_BASIS, "an exact pass takes")
    for n, d in ((1, poly.MAX_EXACT_BASIS), (3, 10 ** 9)):
        with pytest.raises(poly.ParameterError, match=f"degree {d} in {n} "):
            poly._check_basis(n, d, poly.MAX_EXACT_BASIS,
                              "an exact pass takes")


def _same(u: float, v: float) -> bool:
    return (math.isnan(u) and math.isnan(v)) or u == v


def test_max_coeff_distance_equals_the_difference_poly():
    # float, exact and mixed component pairs over a few keys, with NaN,
    # inf, zero and equal coefficients, so that a NaN's rank among the
    # differences (and so the max) depends on their order and on which
    # zeros are dropped
    r = random.Random(34)
    keys = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    nan, inf = float("nan"), float("inf")
    floats = [0.5 + 1j, -2.0, complex(nan, 0.0), complex(0.0, nan),
              complex(inf, 1.0), 1e-300 + 0j, 3j]
    exacts = [Exact(Fraction(1, 2), 1), Exact(-2), Exact(0, 0, 1),
              Exact(Fraction(1, 3 ** 700))]

    def comp(mode):
        pool = exacts if mode == "exact" else floats + exacts
        terms = {e: r.choice(pool) for e in r.sample(keys, r.randint(0, 5))}
        return HoloPoly(2, terms, mode)

    def twin(c, mode):
        # the same keys, some coefficients equal, so that differences vanish
        pool = exacts if mode == "exact" else floats + exacts
        terms = {e: v if r.random() < 0.4 and (mode == "float" or c.mode ==
                                               "exact") else r.choice(pool)
                 for e, v in c.terms.items()}
        return HoloPoly(2, terms, mode)

    nan_results = 0
    for trial in range(400):
        modes = [(r.choice(["exact", "float"]), r.choice(["exact", "float"]))
                 for _ in range(r.randint(1, 3))]
        left = [comp(ma) for ma, _ in modes]
        right = [twin(c, mb) if r.random() < 0.5 else comp(mb)
                 for c, (_, mb) in zip(left, modes)]
        a, b = JetMap(left, 2), JetMap(right, 2)
        got = a.max_coeff_distance(b)
        want = max((x - y).max_abs_coeff() for x, y in zip(left, right))
        assert _same(got, want), (trial, got, want)
        back = b.max_coeff_distance(a)
        assert _same(back, max((y - x).max_abs_coeff()
                               for x, y in zip(left, right))), trial
        nan_results += math.isnan(got)
    assert nan_results > 20
    # a zero difference before a NaN is dropped, so the NaN ranks first
    x = HoloPoly(1, {(1,): 1.0 + 0j, (2,): complex(nan, 0.0)}, "float")
    y = HoloPoly(1, {(3,): 2.0 + 0j, (1,): 1.0 + 0j, (2,): 0.5 + 0j},
                 "float")
    assert math.isnan(JetMap([x], 3).max_coeff_distance(JetMap([y], 3)))
    assert JetMap([y], 3).max_coeff_distance(JetMap([x], 3)) == 2.0
    with pytest.raises(ValueError):
        JetMap([x], 3).max_coeff_distance(JetMap([x, y], 3))
