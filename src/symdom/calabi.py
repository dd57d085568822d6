"""Coefficient Gram matching: unitary equivalence of holomorphic jets.

Two constant-free jets with the same squared-norm expansion differ by a
constant unitary acting on components.  This module recovers that unitary
from stacked coefficient matrices, completes co-isometric row systems to
full unitaries, and exposes the quadratic-capacity bound used to size
diagonal targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .domains import DomainSpec, sos_counts
from .errors import ExactCompletionError, UnitaryMatchError
from .linalg import (ExactMatrix, coisometry_residual, ex_complete_orthonormal,
                     ex_conj_t, ex_gram, ex_is_identity, ex_matmul, ex_rank,
                     ex_solve_row_system, null_space, phase_normalize_columns,
                     row_complement, to_complex_matrix)
from .poly import JetMap
from .scalars import EXACT_ZERO

__all__ = ["CoeffGram", "coefficient_matrix", "coefficient_gram",
           "match_unitary", "complete_to_unitary", "sos_signature_bound"]


def _monomial_basis(jets: Sequence[JetMap]) -> List[tuple]:
    exps = set()
    for jet in jets:
        for comp in jet.components:
            exps.update(comp.terms.keys())
    return sorted(exps, key=lambda e: (sum(e), e))


def coefficient_matrix(jet: JetMap, basis: Optional[Sequence[tuple]] = None):
    """Stack component coefficients over a monomial basis.

    Returns (matrix, basis) where matrix[i][m] is the coefficient of
    basis[m] in component i.  Exact jets give exact rows, floating jets
    give a numpy array.
    """
    if basis is None:
        basis = _monomial_basis([jet])
    if jet.mode == "exact":
        rows: ExactMatrix = []
        for comp in jet.components:
            rows.append([comp.terms.get(e, EXACT_ZERO) for e in basis])
        return rows, list(basis)
    return jet.float_coefficients(basis), list(basis)


@dataclass(frozen=True)
class CoeffGram:
    """Hermitian Gram of monomial coefficient columns, as floats."""

    basis: Tuple[tuple, ...]
    matrix: np.ndarray

    def max_difference(self, other: "CoeffGram") -> float:
        if self.basis != other.basis:
            raise ValueError("Gram matrices use different bases")
        return float(np.max(np.abs(self.matrix - other.matrix)))


def coefficient_gram(jet: JetMap,
                     basis: Optional[Sequence[tuple]] = None) -> CoeffGram:
    mat, basis = coefficient_matrix(jet, basis)
    m = to_complex_matrix(mat)
    return CoeffGram(tuple(basis), m.conj().T @ m)


def _float_match(fmat: np.ndarray, gmat: np.ndarray, tol: float,
                 rank_tol: float = 1e-8) -> np.ndarray:
    n = gmat.shape[0]
    scale = max(1.0, float(np.max(np.abs(fmat))), float(np.max(np.abs(gmat))))
    gram_gap = float(np.max(np.abs(fmat.conj().T @ fmat -
                                   gmat.conj().T @ gmat)))
    if gram_gap > tol * scale * scale:
        raise UnitaryMatchError(
            f"coefficient Grams differ by {gram_gap:.3e}")
    w, s, vh = np.linalg.svd(gmat)
    rank = int(np.sum(s > rank_tol * max(1.0, s[0] if s.size else 1.0)))
    x = w[:, :rank]
    y = fmat @ vh.conj().T[:, :rank] @ np.diag(1.0 / s[:rank])
    u = y @ x.conj().T
    if rank < n:
        xc = null_space(x.conj().T)
        z = xc - y @ (y.conj().T @ xc)
        sv = np.linalg.svd(z, compute_uv=False)
        if sv.size and sv[-1] > 1e-8:
            q, r = np.linalg.qr(z)
            signs = np.diag(r).copy()
            signs[np.abs(signs) < 1e-14] = 1.0
            yc = phase_normalize_columns(q @ np.diag(signs / np.abs(signs)))
        else:
            yc = null_space(y.conj().T)
        u = u + yc @ xc.conj().T
    return u


def match_unitary(target: JetMap, source: JetMap, tol: float = 1e-9):
    """Find a constant unitary u with u @ source-components = target.

    Returns (u, mode).  When both jets are exact and the source coefficient
    matrix has full row rank, u is exact and the identity u @ G = F is
    verified exactly; otherwise a floating u is built from the singular
    value decomposition, acting as the identity between the orthogonal
    complements of the two coefficient column spans.

    Raises UnitaryMatchError when no unitary can exist (coefficient Grams
    differ beyond tol) or when verification of the candidate fails.
    """
    if target.target_dim != source.target_dim:
        raise ValueError("jets must have the same number of components")
    if target.source_dim != source.source_dim:
        raise ValueError("jets must have the same number of variables")
    basis = _monomial_basis([target, source])
    n = target.target_dim
    if target.mode == "exact" and source.mode == "exact":
        fmat, _ = coefficient_matrix(target, basis)
        gmat, _ = coefficient_matrix(source, basis)
        if ex_rank(gmat) == n:
            try:
                u = ex_solve_row_system(gmat, fmat)
            except ValueError as exc:
                raise UnitaryMatchError(str(exc)) from exc
            if ex_matmul(u, gmat) != fmat:
                raise UnitaryMatchError(
                    "exact solve left a nonzero matching residual")
            if not ex_is_identity(ex_matmul(u, ex_conj_t(u))):
                raise UnitaryMatchError(
                    "recovered exact matrix is not unitary")
            return u, "exact"
    fmat, _ = coefficient_matrix(target.to_float(), basis)
    gmat, _ = coefficient_matrix(source.to_float(), basis)
    u = _float_match(fmat, gmat, tol)
    scale = max(1.0, float(np.max(np.abs(fmat))))
    res = float(np.max(np.abs(u @ gmat - fmat)))
    if res > tol * scale:
        raise UnitaryMatchError(f"matching residual {res:.3e} exceeds tol")
    uni = float(np.max(np.abs(u @ u.conj().T - np.eye(n))))
    if uni > tol:
        raise UnitaryMatchError(f"unitarity residual {uni:.3e} exceeds tol")
    return u, "float"


def complete_to_unitary(rows: Union[ExactMatrix, np.ndarray],
                        tol: float = 1e-10):
    """Extend orthonormal rows to a full unitary, new rows stacked on top.

    Exact input stays exact when every Gram-Schmidt normalization has a
    square root in Q(i, sqrt2); otherwise ExactCompletionError is raised
    and the caller may retry in floating point.
    """
    if isinstance(rows, np.ndarray):
        res = coisometry_residual(rows)
        if res > tol:
            raise ValueError(f"rows are not orthonormal (residual {res:.3e})")
        m, n = rows.shape
        if m == n:
            return rows.copy()
        comp = row_complement(rows)
        return np.vstack([comp, rows])
    if not ex_is_identity(ex_gram(rows)):
        raise ValueError("rows are not exactly orthonormal")
    n = len(rows[0])
    if len(rows) == n:
        return [list(r) for r in rows]
    comp = ex_complete_orthonormal(rows)
    if len(comp) + len(rows) != n:
        raise ExactCompletionError("complement basis has wrong size")
    return comp + [list(r) for r in rows]


def sos_signature_bound(n: int, spec: DomainSpec) -> bool:
    """Whether n(n+1)/2 quadratic monomial pairs fit into the plus block."""
    _, even = sos_counts(spec)
    return n * (n + 1) // 2 <= even
