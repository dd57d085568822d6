"""Polynomial references for the composition, the solve and the
functional-equation checks.

* ``ball_kernel_power`` -- (1 - |w|^2)^k as a ``BidegPoly``, built from
  ``sandwich`` and ``mul_trunc``;
* ``sandwich_pullback`` -- the pullback 1 + the signed sum of
  ``sandwich(c, c, d)`` over a generator composite stack, one
  ``BidegPoly`` per composite: a route independent of the loop in
  ``kernels.h_pullback``;
* ``gram_pullback`` -- the float pullback 1 + C^T diag(s) conj(C) from
  ``kernels.signed_gram``, on the triangle |alpha| + |beta| <= d, as a
  ``BidegPoly``;
* ``recursive_compose`` -- exact composition truncated at d, each outer
  monomial built once by a recursive memo over ``mul_trunc``;
* ``degree_loop_solve`` -- the exact k = 1 solve
  z = conj(full)^T (w, z^#(z), 0) that recomposes z^# with the whole jet
  at each degree, using ``recursive_compose``;
* ``PRIMES`` -- distinct primes of 30 to 607 bits, whose reciprocals give
  the exact references coefficients with large, unequal denominators.
"""

import numpy as np

from symdom import BidegPoly, HoloPoly, JetMap
from symdom.kernels import signed_gram
from symdom.linalg import ex_conj_t
from symdom.poly import _graded, _lower, _units
from symdom.scalars import EXACT_ONE, EXACT_ZERO

PRIMES = (10 ** 9 + 7, 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1,
          998244353, 2 ** 521 - 1, 10 ** 9 + 9, 2 ** 607 - 1, 2 ** 31 - 1)


def ball_kernel_power(n, k, mode, d):
    """(1 - |w|^2)^k on C^n, cut at total degree d."""
    e0 = (0,) * n
    one = BidegPoly(n, {(e0, e0): 1 if mode == "exact" else 1.0}, mode)
    base = one
    for a in range(n):
        w = HoloPoly.var(n, a, mode)
        base = base - BidegPoly.sandwich(w, w)
    out = one
    for _ in range(k):
        out = out.mul_trunc(base, d)
    return out


def sandwich_pullback(sos, composites, d):
    """1 plus the signed sum of ``BidegPoly.sandwich(c, c, d)`` over the
    composites c (odd generators, then even)."""
    n = composites.source_dim
    e0 = (0,) * n
    acc = BidegPoly(n, {(e0, e0): 1}, composites.mode)
    signs = [-1] * len(sos.odd) + [1] * len(sos.even)
    for sign, comp in zip(signs, composites.components):
        term = BidegPoly.sandwich(comp, comp, d)
        acc = acc + (term if sign > 0 else -term)
    return acc


def gram_pullback(sos, composites, d):
    """1 plus the entries (a, b) of ``signed_gram`` over the graded basis of
    the monomials of degree <= d with deg a + deg b <= d and a value != 0
    (a NaN among them)."""
    n = composites.source_dim
    basis, _, _ = _graded(n, d)
    gram = signed_gram(sos, composites, basis)
    deg = np.array([sum(e) for e in basis], dtype=int)
    rows, cols = np.nonzero((deg[:, None] + deg[None, :] <= d) & (gram != 0))
    acc = dict(zip([(basis[a], basis[b])
                    for a, b in zip(rows.tolist(), cols.tolist())],
                   gram[rows, cols].tolist()))
    e0 = (0,) * n
    acc[(e0, e0)] = acc.get((e0, e0), 0j) + 1.0
    return BidegPoly.from_field(n, acc, "float")


def recursive_compose(outer, inner, d):
    """Exact outer o inner truncated at d (inner constant-free)."""
    n, m = inner.source_dim, inner.target_dim
    table = dict(zip(_units(m), inner.components))
    table[(0,) * m] = HoloPoly.const(n, EXACT_ONE, "exact")

    def monomial(e):
        if e not in table:
            lower, j = _lower(e)
            table[e] = monomial(lower).mul_trunc(inner.components[j], d)
        return table[e]

    comps = []
    for comp in outer.components:
        acc = {}
        for e, c in comp.terms.items():
            if sum(e) <= d:
                for key, v in monomial(e).terms.items():
                    acc[key] = acc.get(key, EXACT_ZERO) + c * v
        comps.append(HoloPoly.from_field(n, acc, "exact"))
    return JetMap(comps, d, n)


def degree_loop_solve(full, even, n, degree):
    """{d: (jet, plus)} for d = 1..degree: the exact jet z through degree d
    of z = conj(full)^T (w, z^#(z), 0), even the plus generators z^#, and
    z^#(z) truncated at d, as one degree-d solve returns them."""
    m2, m = len(even.components), len(full) - n
    adjoint = ex_conj_t(full)
    linear_block = JetMap.from_linear([row[:n] for row in adjoint], 1)
    plus_block = JetMap.from_linear([row[n:] for row in adjoint], degree)
    linear = recursive_compose(linear_block, JetMap.identity(n, 1),
                               1).components
    pad = (HoloPoly.zero(n, "exact"),) * (m - m2)
    jet = JetMap([HoloPoly.zero(n, "exact")] * len(full), 0, n)
    out = {}
    for deg in range(1, degree + 1):
        plus = recursive_compose(even, jet, deg)
        rest = recursive_compose(
            plus_block, JetMap(plus.components + pad, deg, n), deg)
        jet = JetMap([HoloPoly.from_field(n, {**a.terms, **b.terms}, "exact")
                      for a, b in zip(linear, rest.components)], deg, n)
        out[deg] = (jet, plus)
    return out
