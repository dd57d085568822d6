"""Coefficient Gram matching: unitary equivalence of holomorphic jets.

Two constant-free jets with the same squared-norm expansion differ by a
constant unitary acting on components.  This module recovers that unitary
from stacked coefficient matrices, completes co-isometric row systems to
full unitaries, and exposes the quadratic-capacity bound used to size
diagonal targets.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .domains import DomainSpec, sos_counts
from .errors import ExactCompletionError, UnitaryMatchError
from .linalg import (RANK_TOL, ExactMatrix, coisometry_residual,
                     ex_complete_orthonormal, ex_matmul, ex_rank, ex_rref,
                     ex_transpose, null_space, phase_normalize_columns,
                     row_complement)
from .poly import JetMap, _monomial_basis
from .scalars import EXACT_ZERO

__all__ = ["coefficient_matrix", "match_unitary", "complete_to_unitary",
           "sos_signature_bound"]

COISOMETRY_TOL = 1e-10  # max |rows conj(rows)^T - I| of float rows to complete


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


def _float_match(fmat: np.ndarray, gmat: np.ndarray,
                 tol: float) -> np.ndarray:
    n = gmat.shape[0]
    scale = max(1.0, float(np.max(np.abs(fmat))), float(np.max(np.abs(gmat))))
    gram_gap = float(np.max(np.abs(fmat.conj().T @ fmat -
                                   gmat.conj().T @ gmat)))
    if not gram_gap <= tol * scale * scale:  # NaN never passes
        raise UnitaryMatchError(
            f"coefficient Grams differ by {gram_gap:.3e}")
    w, s, vh = np.linalg.svd(gmat)
    rank = int(np.sum(s > RANK_TOL * max(1.0, s[0] if s.size else 1.0)))
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
    u = None
    if target.mode == "exact" and source.mode == "exact":
        fmat, _ = coefficient_matrix(target, basis)
        gmat, _ = coefficient_matrix(source, basis)
        if ex_rank(gmat) == n:
            # u g = f is g^T u^T = f^T; with g^T of full column rank, the
            # first n rows of the rref of [g^T | f^T] are [I | u^T]
            rref, _ = ex_rref([gc + fc for gc, fc in
                               zip(ex_transpose(gmat), ex_transpose(fmat))])
            u = ex_transpose([row[n:] for row in rref[:n]])
            if ex_matmul(u, gmat) != fmat:
                raise UnitaryMatchError(
                    "exact solve left a nonzero matching residual")
    mode = "float" if u is None else "exact"
    if u is None:
        fmat, _ = coefficient_matrix(target.to_float(), basis)
        gmat, _ = coefficient_matrix(source.to_float(), basis)
        u = _float_match(fmat, gmat, tol)
        scale = max(1.0, float(np.max(np.abs(fmat))))
        res = float(np.max(np.abs(u @ gmat - fmat)))
        if not res <= tol * scale:
            raise UnitaryMatchError(f"matching residual {res:.3e} exceeds tol")
    uni = coisometry_residual(u)
    if not uni <= (0.0 if mode == "exact" else tol):
        raise UnitaryMatchError(f"unitarity residual {uni:.3e} exceeds tol")
    return u, mode


def complete_to_unitary(rows: Union[ExactMatrix, np.ndarray]):
    """Extend orthonormal rows to a full unitary, new rows stacked on top.

    The rows must pass ``coisometry_residual``: exactly for exact rows,
    within ``COISOMETRY_TOL`` for a numpy array (NaN never passes);
    otherwise ValueError is raised.  Square rows get an empty completion.
    Exact input stays exact when every Gram-Schmidt normalization has a
    square root in Q(i, sqrt2); otherwise ExactCompletionError is raised
    and the caller may retry in floating point.
    """
    exact = isinstance(rows, list)
    res = coisometry_residual(rows)
    if not res <= (0.0 if exact else COISOMETRY_TOL):
        raise ValueError(f"rows are not orthonormal (residual {res:.3e})")
    if not exact:
        return np.vstack([row_complement(rows), rows])
    comp = ex_complete_orthonormal(rows)
    if len(comp) + len(rows) != len(rows[0]):
        raise ExactCompletionError("complement basis has wrong size")
    return comp + [list(r) for r in rows]


def sos_signature_bound(n: int, spec: DomainSpec) -> bool:
    """Whether n(n+1)/2 quadratic monomial pairs fit into the plus block."""
    _, even = sos_counts(spec)
    return n * (n + 1) // 2 <= even
