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
from .errors import UnitaryMatchError
from .linalg import (ExactMatrix, coisometry_residual,
                     ex_complete_orthonormal, ex_matmul, ex_rank, ex_rref,
                     ex_transpose, row_complement)
from .poly import JetMap, _monomial_basis
from .scalars import EXACT_ZERO

# ex_rank is re-exported for the callers that read calabi.ex_rank
# (bench/tests/test_harness.py)
__all__ = ["coefficient_matrix", "match_unitary", "complete_to_unitary",
           "sos_signature_bound", "ex_rank"]

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
    """The polar factor of fmat conj(gmat)^T, after the Gram-gap gate: for
    fmat = u0 gmat, u0 unitary, that is u0 (gmat conj(gmat)^T), so the
    factor agrees with u0 on the column span of gmat."""
    scale = max(1.0, float(np.max(np.abs(fmat))), float(np.max(np.abs(gmat))))
    gram_gap = float(np.max(np.abs(fmat.conj().T @ fmat -
                                   gmat.conj().T @ gmat)))
    if not gram_gap <= tol * scale * scale:  # NaN never passes
        raise UnitaryMatchError(
            f"coefficient Grams differ by {gram_gap:.3e}")
    w, _, vh = np.linalg.svd(fmat @ gmat.conj().T)
    return w @ vh


def match_unitary(target: JetMap, source: JetMap, tol: float = 1e-9):
    """Find a constant unitary u with u @ source-components = target.

    Returns (u, mode).  When both jets are exact with no zero component
    (a zero row i of F = u G puts row i of u in G's left kernel) and the
    source coefficient matrix G has full row rank, u is exact and u @ G = F
    is verified exactly; otherwise u is the polar factor of F conj(G)^T
    over the float coefficient matrices (one SVD).

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
    if target.mode == source.mode == "exact" and not any(
            c.is_zero for c in target.components + source.components):
        fmat, _ = coefficient_matrix(target, basis)
        gmat, _ = coefficient_matrix(source, basis)
        # u g = f is g^T u^T = f^T: g has rank n exactly when the first n
        # pivots of the rref of [g^T | f^T] are its first n columns, and
        # then the first n rows of the rref are [I | u^T]
        rref, pivots = ex_rref([gc + fc for gc, fc in
                                zip(ex_transpose(gmat), ex_transpose(fmat))])
        if pivots[:n] == list(range(n)):
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
    Float rows are completed by ``row_complement`` (one complete QR).
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
    return comp + [list(r) for r in rows]


def sos_signature_bound(n: int, spec: DomainSpec) -> bool:
    """Whether n(n+1)/2 quadratic monomial pairs fit into the plus block."""
    _, even = sos_counts(spec)
    return n * (n + 1) // 2 <= even
