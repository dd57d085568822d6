"""Field arithmetic in Q(i, sqrt2) and the square-root helpers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symdom import Exact, EXACT_ZERO, EXACT_ONE, EXACT_I, SQRT2, HALF_SQRT2
from symdom import field_sqrt, rational_sqrt
from symdom.scalars import _ZERO_N, coerce, dot, mode_of, sum_products


def rand_exact(r, small=False):
    hi = 2 if small else 5
    parts = [Fraction(r.randint(-hi, hi), r.randint(1, 4)) for _ in range(4)]
    return Exact(*parts)


def test_constants():
    assert complex(EXACT_ZERO) == 0
    assert complex(EXACT_ONE) == 1
    assert complex(EXACT_I) == 1j
    assert abs(complex(SQRT2) - math.sqrt(2)) < 1e-15
    assert SQRT2 * SQRT2 == Exact(2)
    assert HALF_SQRT2 * SQRT2 == EXACT_ONE


def test_field_axioms_random():
    r = random.Random(20240817)
    for _ in range(200):
        a, b, c = rand_exact(r), rand_exact(r), rand_exact(r)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == EXACT_ZERO
        assert a - b == a + (-b)
        if not a.is_zero:
            assert a * a.inverse() == EXACT_ONE
            assert (EXACT_ONE / a) * a == EXACT_ONE


def test_conjugation_and_abs2():
    r = random.Random(7)
    for _ in range(100):
        a, b = rand_exact(r), rand_exact(r)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_complex_embedding_matches_float_arithmetic():
    r = random.Random(99)
    for _ in range(100):
        a, b = rand_exact(r, small=True), rand_exact(r, small=True)
        assert abs(complex(a * b) - complex(a) * complex(b)) < 1e-9
        assert abs(complex(a + b) - (complex(a) + complex(b))) < 1e-12


def test_powers():
    r = random.Random(3)
    for _ in range(20):
        a = rand_exact(r, small=True)
        assert a ** 3 == a * a * a
        assert a ** 0 == EXACT_ONE
    assert (SQRT2 ** 4) == Exact(4)
    with pytest.raises(ValueError):
        SQRT2 ** -1


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(49)) == 7
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None


def test_field_sqrt_golden():
    assert field_sqrt(Exact(2)) == SQRT2
    assert field_sqrt(Exact(Fraction(1, 2))) == HALF_SQRT2
    # (1 + sqrt2)^2 = 3 + 2 sqrt2
    assert field_sqrt(Exact(3, 0, 2, 0)) == Exact(1, 0, 1, 0)
    assert field_sqrt(Exact(Fraction(9, 4))) == Exact(Fraction(3, 2))
    assert field_sqrt(EXACT_ZERO) == EXACT_ZERO
    assert field_sqrt(Exact(3)) is None
    assert field_sqrt(Exact(7, 0, 1, 0)) is None
    # 9 + 6 sqrt2 = 3 (1 + sqrt2)^2: p^2 - 2 q^2 = 9 is a square, but
    # neither (p + 3)/2 = 6 nor (p - 3)/2 = 3 is, as sqrt3 is not in the field
    assert field_sqrt(Exact(9, 0, 6, 0)) is None


def test_field_sqrt_roundtrip_on_squares():
    r = random.Random(41)
    hits = 0
    for _ in range(120):
        u = Fraction(r.randint(-4, 4), r.randint(1, 3))
        v = Fraction(r.randint(-4, 4), r.randint(1, 3))
        x = Exact(u, 0, v, 0)
        sq = x * x
        root = field_sqrt(sq)
        if sq.is_zero:
            assert root == EXACT_ZERO
            continue
        assert root is not None
        assert root * root == sq
        assert complex(root).real > 0
        hits += 1
    assert hits > 80


def _positive(r):
    """u + v sqrt2 > 0 for r = u + v sqrt2, decided in the rationals."""
    u, v = r.ar, r.br
    if u >= 0 and v >= 0:
        return u > 0 or v > 0
    if u <= 0 and v <= 0:
        return False
    return (u > 0) == (u * u > 2 * v * v)


def test_field_sqrt_of_unit_powers():
    # sqrt2 - 1 and 1 + sqrt2 are units: the coefficients of their powers
    # grow while the value of (sqrt2 - 1)^k falls below float resolution of
    # its parts, so no sign may be read off a float
    for unit in (SQRT2 - 1, SQRT2 + 1):
        for k in range(1, 81):
            assert field_sqrt(unit ** (2 * k)) == unit ** k
            assert field_sqrt(2 * unit ** (2 * k)) == SQRT2 * unit ** k
            # the units have norm -1, so no odd power is a square
            assert field_sqrt(unit ** (2 * k - 1)) is None


def test_field_sqrt_is_the_positive_root_of_random_squares():
    r = random.Random(26)
    for _ in range(400):
        big = r.choice((5, 10 ** 12))
        u = Fraction(r.randint(-big, big), r.randint(1, big))
        v = Fraction(r.randint(-big, big), r.randint(1, big))
        x = Exact(u, 0, v, 0)
        if x.is_zero:
            continue
        root = field_sqrt(x * x)
        assert root * root == x * x
        assert _positive(root)
        assert root == (x if _positive(x) else -x)


def test_field_sqrt_rejects_nonreal():
    with pytest.raises(ValueError):
        field_sqrt(EXACT_I)


def test_coerce_refuses_float_to_exact():
    assert coerce(3, "exact") == Exact(3)
    assert coerce(Fraction(1, 3), "exact") == Exact(Fraction(1, 3))
    with pytest.raises(TypeError):
        coerce(0.5, "exact")
    with pytest.raises(TypeError):
        coerce(1 + 2j, "exact")
    assert coerce(Exact(1, 1), "float") == 1 + 1j
    assert mode_of(Exact(1)) == "exact"
    assert mode_of(0.25) == "float"


# -- the integer core against four Fractions -----------------------------

def _ref_float(x):
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


class Ref:
    """Q(i, sqrt2) as four independent Fractions: the formulas the integer
    core replaced, kept as its reference."""

    def __init__(self, ar, ai, br, bi):
        self.p = tuple(Fraction(x) for x in (ar, ai, br, bi))

    def __add__(self, o):
        return Ref(*(x + y for x, y in zip(self.p, o.p)))

    def __sub__(self, o):
        return Ref(*(x - y for x, y in zip(self.p, o.p)))

    def __neg__(self):
        return Ref(*(-x for x in self.p))

    def __mul__(self, o):
        a1r, a1i, b1r, b1i = self.p
        a2r, a2i, b2r, b2i = o.p
        return Ref(a1r * a2r - a1i * a2i + 2 * (b1r * b2r - b1i * b2i),
                   a1r * a2i + a1i * a2r + 2 * (b1r * b2i + b1i * b2r),
                   a1r * b2r - a1i * b2i + a2r * b1r - a2i * b1i,
                   a1r * b2i + a1i * b2r + a2r * b1i + a2i * b1r)

    def conjugate(self):
        ar, ai, br, bi = self.p
        return Ref(ar, -ai, br, -bi)

    def inverse(self):
        ar, ai, br, bi = self.p
        conj2 = Ref(ar, ai, -br, -bi)
        dr, di, _, _ = (self * conj2).p
        norm = dr * dr + di * di
        return conj2 * Ref(dr / norm, -di / norm, 0, 0)

    def __complex__(self):
        ar, ai, br, bi = (_ref_float(x) for x in self.p)
        s = math.sqrt(2.0)
        return complex(ar + br * s, ai + bi * s)


def _parts(x: Exact):
    return (x.ar, x.ai, x.br, x.bi)


def _same_float(u: float, v: float) -> bool:
    return u == v or (math.isnan(u) and math.isnan(v))


_numerators = st.one_of(st.just(0), st.integers(-12, 12),
                        st.integers(-2 ** 200, 2 ** 200),
                        st.integers(-2 ** 1100, 2 ** 1100))
_denominators = st.one_of(st.integers(1, 12), st.integers(1, 2 ** 200))
_rationals = st.one_of(st.just(Fraction(0)),
                       st.builds(Fraction, _numerators, _denominators))
_elements = st.tuples(_rationals, _rationals, _rationals, _rationals)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_elements, _elements, _elements)
def test_integer_core_matches_fraction_reference(p, q, r):
    x, y, z = Exact(*p), Exact(*q), Exact(*r)
    rx, ry = Ref(*p), Ref(*q)
    assert _parts(x) == rx.p
    assert _parts(x + y) == (rx + ry).p
    assert _parts(x - y) == (rx - ry).p
    assert _parts(x * y) == (rx * ry).p
    assert _parts(-x) == (-rx).p
    assert _parts(x.conjugate()) == rx.conjugate().p
    assert _parts(x + p[0]) == (rx + Ref(p[0], 0, 0, 0)).p
    assert _parts(x * q[1]) == (rx * Ref(q[1], 0, 0, 0)).p
    if not y.is_zero:
        assert _parts(y.inverse()) == ry.inverse().p
        assert _parts(x / y) == (rx * ry.inverse()).p
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    assert x.is_zero == (rx.p == (0, 0, 0, 0))
    assert (x == y) == (rx.p == ry.p)
    assert x == Exact(*(str(v) for v in p))
    assert hash(x) == hash(Exact(*p))
    assert (x == p[0]) == (rx.p == (p[0], 0, 0, 0))
    if x.is_rational:
        assert hash(x) == hash(p[0])
    zx, zr = complex(x), complex(rx)
    assert _same_float(zx.real, zr.real) and _same_float(zx.imag, zr.imag)
    # canonical form: one value, one internal form, whatever the route
    for u, v in (((x * y) * z, x * (y * z)), ((x + y) + z, x + (y + z)),
                 (x * (y + z), x * y + x * z), ((x - y) + y, x),
                 (x.conjugate().conjugate(), x), (x * EXACT_ONE, x),
                 (x + EXACT_ZERO, x), (x - x, EXACT_ZERO)):
        assert u._n == v._n
    a, b, c, e, d = (x * y + z)._n
    assert d > 0 and math.gcd(a, b, c, e, d) == 1
    if not y.is_zero:
        assert ((x / y) * y)._n == x._n


# -- the accumulator against a loop of * and + ------------------------------

def _loop_sums(triples):
    """Per-key sums of x * y over (key, x, y), one Exact * and + at a
    time, exact zeros dropped: the loops that ``sum_products`` replaced,
    kept as its reference."""
    acc = {}
    for key, x, y in triples:
        acc[key] = acc[key] + x * y if key in acc else x * y
    return {key: v._n for key, v in acc.items() if not v.is_zero}


_big = st.builds(lambda sign, v: sign * (2 ** 300 + v),
                 st.sampled_from((-1, 1)), st.integers(0, 2 ** 330))


@st.composite
def _product_triples(draw):
    # one denominator for every part, or a mix; parts that are 0, small,
    # or of 300 to 330 bits; few keys, so they repeat; and some products
    # repeated with x negated, so that sums cancel
    den = draw(st.one_of(st.just(None), st.integers(1, 12),
                         st.integers(2 ** 300, 2 ** 330)))
    dens = _denominators if den is None else st.just(den)
    nums = st.one_of(st.just(0), st.integers(-12, 12), _big)
    part = st.builds(Fraction, nums, dens)
    value = st.builds(Exact, part, part, part, part)
    triples = draw(st.lists(st.tuples(st.integers(0, 3), value, value),
                            max_size=10))
    negate = draw(st.lists(st.booleans(), min_size=len(triples),
                           max_size=len(triples)))
    triples += [(k, -x, y) for (k, x, y), neg in zip(triples, negate) if neg]
    return draw(st.permutations(triples))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_product_triples())
def test_sum_products_matches_loop(triples):
    got = sum_products((k, x._n, y._n) for k, x, y in triples)
    assert {k: v._n for k, v in got.items()} == _loop_sums(triples)
    xs = [x for _, x, _ in triples]
    ys = [y for _, _, y in triples]
    assert dot(xs, ys)._n == \
        _loop_sums((0, x, y) for x, y in zip(xs, ys)).get(0, _ZERO_N)
    assert dot(xs, ys, conj=True)._n == _loop_sums(
        (0, x, y.conjugate()) for x, y in zip(xs, ys)).get(0, _ZERO_N)


def test_sum_products_edge_cases():
    big = Exact(Fraction(3 ** 200, 2 ** 310 + 1), 5, Fraction(-7, 3), 1)
    other = Exact(Fraction(2 ** 305, 11), Fraction(1, 2 ** 301), 0, -1)
    assert sum_products(iter(())) == {}
    assert dot([], []) is EXACT_ZERO
    # a key whose sum cancels is absent, whatever the denominators
    got = sum_products([("a", big._n, other._n), ("b", big._n, big._n),
                        ("a", (-big)._n, other._n)])
    assert list(got) == ["b"] and got["b"]._n == (big * big)._n
    assert sum_products([(0, big._n, EXACT_ZERO._n)]) == {}
    # i and sqrt2 parts: i * i + sqrt2 * sqrt2 = 1, (1/2 + i) (1/3 - i)
    got = sum_products([(0, EXACT_I._n, EXACT_I._n), (0, SQRT2._n, SQRT2._n),
                        (1, Exact(Fraction(1, 2), 1)._n,
                         Exact(Fraction(1, 3), -1)._n)])
    assert got[0] == EXACT_ONE
    assert got[1] == Exact(Fraction(7, 6), Fraction(-1, 6))
    assert dot([HALF_SQRT2, EXACT_I], [SQRT2, EXACT_I], conj=True) == \
        Exact(2)
