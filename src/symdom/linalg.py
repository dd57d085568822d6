"""Linear algebra over the exact field and floating helpers.

Exact matrices are lists of rows of Exact scalars; floating matrices are
numpy arrays.  The Hermitian inner product of rows u, v is
sum_k u[k] * conj(v[k]).  ``coisometry_residual`` is the one orthonormality
test for both kinds, computed in the matrix's own field.  The floating
helpers decide no numerical rank: ``row_complement`` takes rows that are
orthonormal already, so their rank is their count.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from .errors import ExactCompletionError
from .scalars import EXACT_ONE, EXACT_ZERO, Exact, dot, field_sqrt

ExactMatrix = List[List[Exact]]

__all__ = [
    "ExactMatrix", "ex_transpose", "ex_conj", "ex_conj_t",
    "ex_matmul", "ex_rref", "ex_rank", "ex_nullspace",
    "ex_gs_orthonormal",
    "ex_complete_orthonormal", "to_complex_matrix",
    "row_complement", "principal_angles", "coisometry_residual",
]


def ex_transpose(a: ExactMatrix) -> ExactMatrix:
    return [list(col) for col in zip(*a)]


def ex_conj(a: ExactMatrix) -> ExactMatrix:
    return [[x.conjugate() for x in row] for row in a]


def ex_conj_t(a: ExactMatrix) -> ExactMatrix:
    return [list(col) for col in zip(*ex_conj(a))]


def ex_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = ex_transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def ex_rref(a: ExactMatrix):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    rows = [[Exact.of(x) for x in row] for row in a]
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots: List[int] = []
    pr = 0
    for col in range(ncols):
        sel = None
        for r in range(pr, m):
            if not rows[r][col].is_zero:
                sel = r
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv = rows[pr][col].inverse()
        rows[pr] = [x * inv for x in rows[pr]]
        for r in range(m):
            if r != pr and not rows[r][col].is_zero:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pr])]
        pivots.append(col)
        pr += 1
        if pr == m:
            break
    return rows, pivots


def ex_rank(a: ExactMatrix) -> int:
    if not a:
        return 0
    _, pivots = ex_rref(a)
    return len(pivots)


def ex_nullspace(a: ExactMatrix) -> ExactMatrix:
    """Basis (as rows) of {x : a @ x = 0}."""
    if not a:
        return []
    ncols = len(a[0])
    rref, pivots = ex_rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis: ExactMatrix = []
    for fc in free:
        vec = [EXACT_ZERO] * ncols
        vec[fc] = EXACT_ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis


def ex_gs_orthonormal(rows: ExactMatrix) -> ExactMatrix:
    """Gram-Schmidt over the exact field; skips dependent vectors.

    Raises ExactCompletionError when a normalization needs a square root
    that does not exist in Q(i, sqrt2).
    """
    ortho: ExactMatrix = []
    for row in rows:
        v = [Exact.of(x) for x in row]
        for e in ortho:
            coef = dot(v, e, conj=True)
            if not coef.is_zero:
                v = [x - coef * y for x, y in zip(v, e)]
        norm2 = dot(v, v, conj=True)
        if norm2.is_zero:
            continue
        root = field_sqrt(norm2)
        if root is None:
            raise ExactCompletionError(
                "norm has no square root in the exact field")
        inv = root.inverse()
        ortho.append([x * inv for x in v])
    return ortho


def ex_complete_orthonormal(rows: ExactMatrix) -> ExactMatrix:
    """Orthonormal basis of the Hermitian orthocomplement of the row span."""
    if not rows:
        raise ValueError("need at least one row")
    n = len(rows[0])
    if len(rows) >= n:
        return []
    comp = ex_nullspace(ex_conj(rows))
    return ex_gs_orthonormal(comp)


def to_complex_matrix(a) -> np.ndarray:
    return np.array(a, dtype=complex)


def row_complement(a: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the Hermitian orthocomplement of the rows
    of a, which are orthonormal: the trailing columns of the complete QR
    of conj(a)^T, conjugate-transposed."""
    a = np.asarray(a, dtype=complex)
    q, _ = np.linalg.qr(a.conj().T, mode="complete")
    return q[:, a.shape[0]:].conj().T


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles between the row spans of a and b (radians),
    ascending."""

    def ortho_rows(m):
        q, _ = np.linalg.qr(np.asarray(m, dtype=complex).T)
        return q.T

    qa = ortho_rows(a)
    qb = ortho_rows(b)
    cosines = np.linalg.svd(qa @ qb.conj().T, compute_uv=False)
    angles = np.arccos(np.clip(cosines, 0.0, 1.0))
    # arccos resolves angles near 0 only to sqrt(eps); redo those via sines
    t = int(np.sum(cosines > 0.7))
    if t:
        resid = qb - (qb @ qa.conj().T) @ qa
        sines = np.sort(np.linalg.svd(resid, compute_uv=False))
        angles[:t] = np.arcsin(np.clip(sines[:t], 0.0, 1.0))
    return angles


def coisometry_residual(a, k: int = 1) -> float:
    """max |a conj(a)^T - k I| in the field of a: in floating point for a
    numpy array (NaN propagates), and in Q(i, sqrt2) over the Hermitian
    half for exact rows, where it is 0.0 exactly when a conj(a)^T = k I
    and otherwise at least the smallest positive float."""
    if isinstance(a, np.ndarray):
        m = a.astype(complex)
        g = m @ m.conj().T
        return float(np.max(np.abs(g - k * np.eye(m.shape[0]))))
    worst = 0.0
    for i, u in enumerate(a):
        for j in range(i, len(a)):
            acc = dot(u, a[j], conj=True)
            if i == j:
                acc = acc - k
            if not acc.is_zero:
                worst = max(worst, abs(complex(acc)), math.ulp(0.0))
    return worst
