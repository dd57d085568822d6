"""Truncated polynomial and jet arithmetic against brute-force oracles."""

import random
from fractions import Fraction

import pytest

from symdom import Exact, HoloPoly, BidegPoly, JetMap
from symdom import compose_truncate, log_truncate, squared_norm


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
            assert abs(got.coeff(*k) - want.get(k, 0)) < 1e-12


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_bideg_arithmetic_against_pair_convolution(mode):
    r = random.Random(41)
    for _ in range(6):
        a = rand_bideg(r, 2, 3, mode)
        b = rand_bideg(r, 2, 3, mode, terms=4)
        assert a.degree == max(map(bideg_degree, a.terms), default=0)
        prod = naive_bideg_product(a.terms, b.terms)
        powers = [{((0, 0), (0, 0)): Exact(1) if mode == "exact" else 1 + 0j}]
        for _ in range(3):
            powers.append(naive_bideg_product(powers[-1], a.terms))
        for d in range(8):
            cut = a.truncate(d)
            assert cut.terms == {k: c for k, c in a.terms.items()
                                 if bideg_degree(k) <= d}
            assert cut.degree <= d
            got = a.mul_trunc(b, d)
            assert_terms_match(got, {k: c for k, c in prod.items()
                                     if bideg_degree(k) <= d})
            results = [cut, got]
            for k in range(4):
                pw = a.pow_trunc(k, d)
                assert_terms_match(pw, {key: c for key, c in powers[k].items()
                                        if bideg_degree(key) <= d})
                results.append(pw)
            results += [a * b, a + b, a - b, -a, a.scale(2), a.to_float(),
                        BidegPoly.zero(2, mode), BidegPoly.const(2, 1, mode)]
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
        part = p.homogeneous_part(m)
        for e in part.terms:
            assert sum(e) == m
        rebuilt = rebuilt + part
    assert rebuilt == p
    assert p.truncate(2).degree <= 2


def test_squared_norm_pointwise():
    r = random.Random(31)
    comps = [rand_poly(r, 2, 3, mode="float") for _ in range(3)]
    comps = [c - HoloPoly.const(2, c.constant_term(), "float") for c in comps]
    f = JetMap(comps, 3, 2)
    sn = squared_norm(f)
    for _ in range(20):
        pt = [complex(r.uniform(-0.4, 0.4), r.uniform(-0.4, 0.4))
              for _ in range(2)]
        direct = sum(abs(c.evaluate(pt)) ** 2 for c in comps)
        assert abs(sn.evaluate(pt) - direct) < 1e-10


def test_log_of_disk_kernel():
    # log(1 - |w|^2) = -|w|^2 - |w|^4/2 - |w|^6/3 - ...
    w = HoloPoly.var(1, 0)
    h = BidegPoly.const(1, Exact(1)) - BidegPoly.sandwich(w, w)
    lg = log_truncate(h, 6)
    assert lg.coeff((1,), (1,)) == Exact(-1)
    assert lg.coeff((2,), (2,)) == Exact(Fraction(-1, 2))
    assert lg.coeff((3,), (3,)) == Exact(Fraction(-1, 3))
    assert lg.coeff((1,), (2,)).is_zero


def exp_truncate(p, d):
    acc = BidegPoly.const(p.nvars, Exact(1)) if p.mode == "exact" else \
        BidegPoly.const(p.nvars, 1.0, "float")
    term = acc
    for k in range(1, d + 1):
        term = term.mul_trunc(p, d).scale(Exact(Fraction(1, k))
                                          if p.mode == "exact" else 1.0 / k)
        acc = acc + term
    return acc


def test_exp_log_roundtrip():
    w1 = HoloPoly.var(2, 0)
    w2 = HoloPoly.var(2, 1)
    h = (BidegPoly.const(2, Exact(1)) - BidegPoly.sandwich(w1, w1)
         - BidegPoly.sandwich(w2, w2).scale(Exact(Fraction(1, 2))))
    d = 6
    assert exp_truncate(log_truncate(h, d), d).truncate(d) == h.truncate(d)


def test_polarize_restrict_roundtrip():
    r = random.Random(13)
    f = rand_poly(r, 2, 2)
    g = rand_poly(r, 2, 2)
    p = BidegPoly.sandwich(f, g) + BidegPoly.sandwich(g, f)
    z = [complex(0.1, -0.2), complex(0.05, 0.3)]
    xi = [complex(-0.2, 0.1), complex(0.4, 0.0)]
    same = p.evaluate_polarized(z, z)
    assert abs(same - complex(p.evaluate(z))) < 1e-12
    mixed = p.evaluate_polarized(z, xi)
    swapped = p.evaluate_polarized(xi, z)
    assert abs(mixed - swapped.conjugate()) < 1e-12


def test_sandwich_hermitian():
    r = random.Random(17)
    for _ in range(10):
        f = rand_poly(r, 2, 3)
        p = BidegPoly.sandwich(f, f)
        assert p.hermitian_residual() == 0.0


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
