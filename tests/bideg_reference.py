"""Bidegree-polynomial references for the functional-equation checks.

* ``ball_kernel_power`` -- (1 - |w|^2)^k as a ``BidegPoly``, built from
  ``sandwich`` and ``mul_trunc``;
* ``gram_pullback`` -- the float pullback 1 + C^T diag(s) conj(C) from
  ``kernels.signed_gram``, on the triangle |alpha| + |beta| <= d, as a
  ``BidegPoly``.
"""

import numpy as np

from symdom import BidegPoly, HoloPoly
from symdom.kernels import signed_gram
from symdom.poly import _graded


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
