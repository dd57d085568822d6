"""Linear algebra over the exact field and floating helpers.

Exact matrices are lists of rows of Exact scalars; floating matrices are
numpy arrays.  The Hermitian inner product of rows u, v is
sum_k u[k] * conj(v[k]).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

import numpy as np

from .errors import ExactCompletionError
from .scalars import EXACT_ONE, EXACT_ZERO, Exact, field_sqrt

ExactMatrix = List[List[Exact]]

__all__ = [
    "ExactMatrix", "ex_transpose", "ex_conj", "ex_conj_t",
    "ex_matmul", "ex_gram", "ex_rref", "ex_rank", "ex_nullspace",
    "ex_solve", "ex_solve_row_system", "ex_gs_orthonormal",
    "ex_complete_orthonormal", "ex_is_identity", "to_complex_matrix",
    "phase_normalize_columns", "null_space", "row_complement",
    "principal_angles", "coisometry_residual", "matrix_rank_tol",
]


def _as_exact(x) -> Exact:
    if isinstance(x, Exact):
        return x
    if isinstance(x, (int, Fraction)):
        return Exact.of(x)
    raise TypeError(f"not an exact scalar: {x!r}")


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
    out: ExactMatrix = []
    for row in a:
        out_row = []
        for col in bt:
            acc = EXACT_ZERO
            for x, y in zip(row, col):
                if not (x.is_zero or y.is_zero):
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def ex_gram(rows: ExactMatrix) -> ExactMatrix:
    """Hermitian Gram matrix G[i][j] = <row_i, row_j>."""
    m = len(rows)
    g = [[EXACT_ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            acc = EXACT_ZERO
            for x, y in zip(rows[i], rows[j]):
                if not (x.is_zero or y.is_zero):
                    acc = acc + x * y.conjugate()
            g[i][j] = acc
            if i != j:
                g[j][i] = acc.conjugate()
    return g


def ex_rref(a: ExactMatrix):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    rows = [[_as_exact(x) for x in row] for row in a]
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


def ex_solve(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Solve a @ x = b for square invertible a; b has matching row count."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("shape mismatch")
    width = len(b[0])
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    rref, pivots = ex_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:n + width] for row in rref[:n]]


def ex_solve_row_system(g: ExactMatrix, f: ExactMatrix) -> ExactMatrix:
    """Solve u @ g = f when g has full row rank equal to its row count.

    Uses the normal equations: u = f g^H (g g^H)^{-1}.
    """
    gh = ex_conj_t(g)
    gram = ex_matmul(g, gh)
    rhs = ex_matmul(f, gh)
    # u @ gram = rhs  <=>  gram^T u^T = rhs^T
    ut = ex_solve(ex_transpose(gram), ex_transpose(rhs))
    return ex_transpose(ut)


def ex_gs_orthonormal(rows: ExactMatrix) -> ExactMatrix:
    """Gram-Schmidt over the exact field; skips dependent vectors.

    Raises ExactCompletionError when a normalization needs a square root
    that does not exist in Q(i, sqrt2).
    """
    ortho: ExactMatrix = []
    for row in rows:
        v = [_as_exact(x) for x in row]
        for e in ortho:
            coef = EXACT_ZERO
            for x, y in zip(v, e):
                if not (x.is_zero or y.is_zero):
                    coef = coef + x * y.conjugate()
            if not coef.is_zero:
                v = [x - coef * y for x, y in zip(v, e)]
        norm2 = EXACT_ZERO
        for x in v:
            if not x.is_zero:
                norm2 = norm2 + x * x.conjugate()
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


def ex_is_identity(a: ExactMatrix) -> bool:
    n = len(a)
    for i in range(n):
        if len(a[i]) != n:
            return False
        for j in range(n):
            want = EXACT_ONE if i == j else EXACT_ZERO
            if a[i][j] != want:
                return False
    return True


def to_complex_matrix(a) -> np.ndarray:
    if isinstance(a, np.ndarray):
        return a.astype(complex)
    return np.array([[complex(x) for x in row] for row in a], dtype=complex)


def phase_normalize_columns(m: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive."""
    out = m.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 1e-14:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def null_space(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal columns spanning {x : a @ x = 0}, deterministic phases."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    basis = vh.conj().T[:, rank:]
    return phase_normalize_columns(basis)


def row_complement(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Rows orthonormal (Hermitian) to the rows of a, deterministic."""
    basis = null_space(np.asarray(a, dtype=complex).conj(), tol)
    return basis.T


def matrix_rank_tol(a: np.ndarray, tol: float = 1e-8) -> int:
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > tol * max(1.0, s[0])))


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


def coisometry_residual(a) -> float:
    """max |a conj(a)^T - I| as a float, for exact or floating input."""
    m = to_complex_matrix(a)
    g = m @ m.conj().T
    return float(np.max(np.abs(g - np.eye(m.shape[0]))))
