"""Jet-level checks and constructions for holomorphic ball isometries.

An IsometryJet is a constant-free polynomial jet from a small complex ball
into an ambient domain, together with its isometric constant k.  The
central identity is the pullback equation

    h(f(w), conj f(w)) = (1 - |w|^2)^k,

checked coefficientwise on truncations.  For rank-2 targets, whose minus
generators are exactly the ambient coordinates, the module also recovers
the constant unitary behind a jet, rebuilds jets from co-isometric row
systems one degree at a time, intersects the image with explicit
varieties, and factors a non-maximal jet through a maximal one.

The pullback residual of a jet is computed once per truncation degree and
kept on the (frozen) IsometryJet, so a pipeline that checks the same jet
at several stages pays for one check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .calabi import coefficient_matrix, complete_to_unitary, match_unitary
from .domains import DomainSpec, rank2_codim_inequality
from .errors import (ExactCompletionError, ParameterError, TruncationError,
                     VerificationError)
from .kernels import SignedSOS, h_pullback, kernel_polarized_many
from .linalg import (coisometry_residual, ex_conj_t, ex_gs_orthonormal,
                     ex_is_identity, ex_matmul, ex_nullspace, ex_transpose,
                     matrix_rank_tol, to_complex_matrix)
from .poly import BidegPoly, HoloPoly, JetMap, compose_truncate
from .scalars import EXACT_ONE, EXACT_ZERO, Exact, as_complex

__all__ = [
    "IsometryJet", "FEReport", "PolarizedReport", "RecoveredUnitary",
    "VarietySystem", "ExtensionResult", "ball_kernel_power",
    "check_functional_eq", "jacobian_normalization_residual",
    "check_polarized_eq", "recover_matching_unitary", "build_k1_variety",
    "solve_component_jet", "membership_residual", "build_k2_variety",
    "extend_isometry", "full_verification_report",
]

DEFAULT_TOL = 1e-9
SAMPLE_TOL = 1e-10


@dataclass(frozen=True)
class IsometryJet:
    """A candidate ball-to-domain jet with declared isometric constant."""

    jet: JetMap
    k: int
    sos: SignedSOS
    # truncation degree -> (max residual, per-bidegree maxima, mode)
    _fe: Dict[int, tuple] = field(default_factory=dict, init=False,
                                  compare=False, repr=False)

    def __post_init__(self):
        spec = self.sos.spec
        if not 1 <= self.k <= spec.rank:
            raise ParameterError(
                f"isometric constant {self.k} outside 1..{spec.rank}")
        if self.jet.target_dim != self.sos.nvars:
            raise ValueError(
                f"jet lands in C^{self.jet.target_dim}, domain has "
                f"dimension {self.sos.nvars}")
        if not self.jet.constant_free():
            raise ValueError("jet must fix the origin")

    @property
    def spec(self) -> DomainSpec:
        return self.sos.spec

    @property
    def source_dim(self) -> int:
        return self.jet.source_dim

    @property
    def mode(self) -> str:
        return "exact" if (self.jet.mode == self.sos.mode == "exact") \
            else "float"


def ball_kernel_power(n: int, k: int, mode: str = "exact",
                      d: Optional[int] = None) -> BidegPoly:
    """(1 - |w|^2)^k on C^n as a bidegree polynomial."""
    base = BidegPoly.const(n, EXACT_ONE if mode == "exact" else 1.0)
    for a in range(n):
        w = HoloPoly.var(n, a, mode)
        base = base - BidegPoly.sandwich(w, w)
    return base.pow_trunc(k, d)


@dataclass(frozen=True)
class FEReport:
    """Coefficientwise residual of the pullback equation."""

    max_residual: float
    per_bidegree: Dict[Tuple[int, int], float]
    passed: bool
    mode: str
    degree: int
    tol: float


def _nan_max(a: float, b: float) -> float:
    """max(a, b) that propagates NaN, so a NaN residual never passes."""
    return b if b > a or b != b else a


def check_functional_eq(iso: IsometryJet, d: Optional[int] = None,
                        tol: float = DEFAULT_TOL) -> FEReport:
    """Compare h(f(w), conj f(w)) with (1 - |w|^2)^k up to degree d.

    Generator composites are truncated at degree d before squaring, so for
    a degree-d jet of a true isometry every retained coefficient must
    vanish; in exact mode the residual is then exactly zero.  The residual
    is computed on the first call for each d and reused afterwards.
    """
    d = iso.jet.degree if d is None else d
    if d < 2 * iso.k:
        raise TruncationError(
            f"truncation degree {d} cannot see isometric constant "
            f"{iso.k}: need at least {2 * iso.k}")
    if d not in iso._fe:
        lhs = h_pullback(iso.sos, iso.jet.truncate(d), d)
        rhs = ball_kernel_power(iso.jet.source_dim, iso.k, lhs.mode, d)
        diff = lhs - rhs
        per: Dict[Tuple[int, int], float] = {}
        worst = 0.0
        for (alpha, beta), c in diff.terms.items():
            key = (sum(alpha), sum(beta))
            mag = abs(as_complex(c))
            per[key] = _nan_max(per.get(key, 0.0), mag)
            worst = _nan_max(worst, mag)
        iso._fe[d] = (worst, per, diff.mode)
    worst, per, mode = iso._fe[d]
    return FEReport(max_residual=worst, per_bidegree=dict(per),
                    passed=worst <= tol, mode=mode, degree=d, tol=tol)


def jacobian_normalization_residual(iso: IsometryJet) -> float:
    """max |conj(J)^T J - k I| for the jacobian J at the origin."""
    jac = iso.jet.jacobian0()
    n = iso.jet.source_dim
    if iso.mode == "exact":
        prod = ex_matmul(ex_conj_t(jac), jac)
        worst = 0.0
        for a in range(n):
            for b in range(n):
                gap = prod[a][b] - (Exact(iso.k) if a == b else EXACT_ZERO)
                worst = max(worst, abs(complex(gap)))
        return worst
    j = to_complex_matrix(jac)
    return float(np.max(np.abs(j.conj().T @ j - iso.k * np.eye(n))))


@dataclass(frozen=True)
class PolarizedReport:
    """Sampled two-point residual of the polarized pullback equation."""

    max_residual: float
    samples: int
    radius: float
    passed: bool
    tol: float


def check_polarized_eq(iso: IsometryJet, samples: int = 25, seed: int = 0,
                       radius: float = 0.03,
                       tol: float = SAMPLE_TOL) -> PolarizedReport:
    """Evaluate h(f(w), conj f(v)) - (1 - <w, v>)^k at sampled point pairs.

    The sampling radius keeps the degree-(d+1) tail of a truncated true
    isometry below the tolerance.  The pairs are drawn one after another
    from ``default_rng(seed)``; the jet and the kernel generators are then
    evaluated in floating point at all of them at once (one numpy batch).
    """
    if samples < 1:
        raise ValueError(f"need at least 1 polarized sample, got {samples}")
    n = iso.jet.source_dim
    g = np.random.default_rng(seed)
    pts = np.empty((2, samples, n), dtype=complex)  # rows w_s, then v_s
    scale = np.empty((2, samples))
    for s in range(samples):
        pts[0, s] = g.normal(size=n) + 1j * g.normal(size=n)
        pts[1, s] = g.normal(size=n) + 1j * g.normal(size=n)
        scale[:, s] = g.uniform(0.3, 1.0, size=2)
    nrm = np.linalg.norm(pts, axis=2)
    pts *= (radius * scale / nrm)[:, :, None]
    f = iso.jet.evaluate_many(pts.reshape(2 * samples, n))
    lhs = kernel_polarized_many(iso.sos, f[:samples], f[samples:])
    rhs = (1.0 - np.sum(pts[1].conj() * pts[0], axis=1)) ** iso.k
    worst = float(np.max(np.abs(lhs - rhs)))  # NaN propagates
    return PolarizedReport(max_residual=worst, samples=samples,
                           radius=radius, passed=worst <= tol, tol=tol)


def full_verification_report(iso: IsometryJet, d: Optional[int] = None,
                             tol: float = DEFAULT_TOL, samples: int = 25,
                             seed: int = 0) -> dict:
    """All three checks in one report dictionary (used by the CLI)."""
    fe = check_functional_eq(iso, d, tol)
    jac = jacobian_normalization_residual(iso)
    pol = check_polarized_eq(iso, samples=samples, seed=seed)
    return {
        "functional-equation": {
            "max_residual": fe.max_residual,
            "per_bidegree": {f"{a},{b}": v
                             for (a, b), v in sorted(fe.per_bidegree.items())},
            "passed": fe.passed,
        },
        "jacobian-normalization": {
            "max_residual": jac,
            "passed": jac <= tol,
        },
        "polarized-sample": {
            "max_residual": pol.max_residual,
            "samples": pol.samples,
            "radius": pol.radius,
            "passed": pol.passed,
        },
        "passed": bool(fe.passed and jac <= tol and pol.passed),
        "degree": fe.degree,
        "isometric_constant": iso.k,
        "domain": iso.spec.label,
        "mode": iso.mode,
    }


# -- rank-2 machinery --------------------------------------------------------

def _require_coordinate_minus_block(sos: SignedSOS) -> None:
    spec = sos.spec
    n = sos.nvars
    if len(sos.odd) != n:
        raise ParameterError(
            f"{spec.label}: minus block must consist of the {n} coordinates")
    for j, g in enumerate(sos.odd):
        exp = tuple(1 if i == j else 0 for i in range(n))
        if set(g.terms) != {exp} or as_complex(g.coeff(exp)) != 1:
            raise ParameterError(
                f"{spec.label}: minus generator {j} is not the coordinate z_{j}")


def _even_composites(iso: IsometryJet, d: int) -> List[HoloPoly]:
    args = list(iso.jet.components)
    return [g.substitute(args, d) for g in iso.sos.even]


@dataclass(frozen=True)
class RecoveredUnitary:
    """Constant unitary matching (w, plus-composites, 0) to the jet."""

    matrix: object
    mode: str
    residual: float

    @property
    def size(self) -> int:
        return len(self.matrix)

    def bottom_block(self, n: int):
        return [row for row in self.matrix][n:] \
            if isinstance(self.matrix, list) else self.matrix[n:]


def recover_matching_unitary(iso: IsometryJet,
                             tol: float = DEFAULT_TOL) -> RecoveredUnitary:
    """Recover U with U f = (w, plus-composites of f, 0), for k = 1 jets.

    Requires a rank-2 target whose minus generators are the coordinates and
    a source dimension within the admissible range.  Exact jets with a
    full-rank coefficient matrix give an exact U; otherwise U comes from
    the singular value decomposition with deterministic completions.
    """
    spec = iso.spec
    if iso.k != 1:
        raise ParameterError("unitary recovery applies to k = 1 jets")
    _require_coordinate_minus_block(iso.sos)
    if not rank2_codim_inequality(spec):
        raise ParameterError(
            f"{spec.label} fails the codimension inequality")
    n = iso.jet.source_dim
    nmax = spec.ball_dim_bound
    if n > nmax:
        raise ParameterError(
            f"source dimension {n} exceeds the bound {nmax}")
    fe = check_functional_eq(iso, tol=max(tol, DEFAULT_TOL))
    if not fe.passed:
        raise VerificationError(
            f"pullback equation fails (residual {fe.max_residual:.3e})")
    d = iso.jet.degree
    nbig = spec.dim
    m2 = len(iso.sos.even)
    pad = nbig - n - m2
    mode = iso.jet.mode
    comps = [HoloPoly.var(n, a, mode) for a in range(n)]
    comps += _even_composites(iso, d)
    comps += [HoloPoly.zero(n, mode) for _ in range(pad)]
    target = JetMap(comps, d, n)
    u, umode = match_unitary(target, iso.jet, tol)
    if umode == "exact":
        return RecoveredUnitary(matrix=u, mode="exact", residual=0.0)
    matched = JetMap([sum((c.to_float().scale(complex(u[i, j]))
                           for j, c in enumerate(iso.jet.components)),
                          HoloPoly.zero(n, "float"))
                      for i in range(nbig)], d, n)
    residual = matched.max_coeff_distance(target.to_float())
    return RecoveredUnitary(matrix=u, mode="float", residual=residual)


@dataclass(frozen=True)
class VarietySystem:
    """Holomorphic equations cutting out (a superset of) the jet image.

    Equations live in the ambient coordinates; `projective` gives the same
    equations as linear forms in the minimal-embedding coordinates
    [1, minus generators, plus generators].
    """

    kind: str
    sos: SignedSOS
    equations: Tuple[HoloPoly, ...]
    matrix: object
    projective: object
    meta: dict = field(default_factory=dict)

    @property
    def ambient_dim(self) -> int:
        return self.sos.nvars


def build_k1_variety(u_rows, sos: SignedSOS) -> VarietySystem:
    """Variety of a k = 1 construction: rows of u pair the coordinates
    against plus-composites (first rows) and zero (remaining rows)."""
    _require_coordinate_minus_block(sos)
    nbig = sos.nvars
    m2 = len(sos.even)
    exact = isinstance(u_rows, list)
    rows = u_rows if exact else np.asarray(u_rows, dtype=complex)
    m = len(rows)
    if m < m2:
        raise ParameterError(
            f"need at least {m2} rows to cover the plus block, got {m}")
    if m >= nbig:
        raise ParameterError("row count must leave a positive source dimension")
    res = coisometry_residual(rows)
    if res > 1e-8:
        raise ValueError(f"rows are not orthonormal (residual {res:.3e})")
    mode = "exact" if exact else "float"
    eqs = []
    for l in range(m):
        terms = {}
        for j in range(nbig):
            c = rows[l][j]
            nonzero = (not c.is_zero) if isinstance(c, Exact) else bool(abs(c))
            if nonzero:
                exp = tuple(1 if i == j else 0 for i in range(nbig))
                terms[exp] = c if isinstance(c, Exact) else complex(c)
        eq = HoloPoly(nbig, terms, mode)
        if l < m2:
            even = sos.even[l] if mode == "exact" else sos.even[l].to_float()
            eq = eq - even
        eqs.append(eq)
    m1 = len(sos.odd)
    width = 1 + m1 + m2
    if exact:
        proj = [[EXACT_ZERO] * width for _ in range(m)]
        for l in range(m):
            for j in range(nbig):
                proj[l][1 + j] = rows[l][j]
            if l < m2:
                proj[l][1 + m1 + l] = proj[l][1 + m1 + l] - EXACT_ONE
    else:
        proj = np.zeros((m, width), dtype=complex)
        proj[:, 1:1 + nbig] = rows
        for l in range(min(m2, m)):
            proj[l, 1 + m1 + l] -= 1.0
    return VarietySystem(kind="k1", sos=sos, equations=tuple(eqs),
                         matrix=rows, projective=proj,
                         meta={"source_dim": nbig - m})


def membership_residual(system: VarietySystem, jet: JetMap,
                        d: Optional[int] = None) -> float:
    """Largest coefficient left after substituting the jet into the
    equations; exactly 0.0 for exact data on the variety."""
    if jet.target_dim != system.ambient_dim:
        raise ValueError("jet does not land in the ambient space")
    d = jet.degree if d is None else d
    args = list(jet.components)
    worst = 0.0
    for eq in system.equations:
        comp = eq.substitute(args, d)
        worst = max(worst, comp.max_abs_coeff())
    return worst


def solve_component_jet(u_rows, sos: SignedSOS, degree: int = 6,
                        tol: float = DEFAULT_TOL,
                        allow_float_fallback: bool = True) -> IsometryJet:
    """Rebuild the k = 1 jet determined by a co-isometric row system.

    Completes the rows to a unitary [A; U] and solves
       z = conj(A)^T w + conj(U)^T (plus-composites(z), 0)
    degree by degree.  The plus generators have degree >= 2, so the
    degree-m part of the right side only involves parts of z below degree
    m: substituting the jet known through degree m - 1 and truncating at m
    makes degree m final, and m = 2..degree finishes in one pass.  Exact
    rows stay exact when the completion stays in the field; otherwise,
    with allow_float_fallback, the computation restarts in floating point.
    """
    _require_coordinate_minus_block(sos)
    nbig = sos.nvars
    m2 = len(sos.even)
    exact = isinstance(u_rows, list)
    m = len(u_rows)
    if not m2 <= m < nbig:
        raise ParameterError(
            f"row count {m} outside {m2}..{nbig - 1}")
    n = nbig - m
    try:
        full = complete_to_unitary(u_rows, tol=1e-10)
    except ExactCompletionError:
        if not (exact and allow_float_fallback):
            raise
        return solve_component_jet(to_complex_matrix(u_rows), sos,
                                   degree, tol)
    if exact:
        a_rows = full[:n]
        u_part = full[n:]
        lin = ex_transpose([[x.conjugate() for x in row] for row in a_rows])
        uh = ex_transpose([[x.conjugate() for x in row] for row in u_part])
    else:
        a_rows = full[:n]
        u_part = full[n:]
        lin = np.asarray(a_rows).conj().T
        uh = np.asarray(u_part).conj().T
    jet = JetMap.from_linear(lin, degree)
    linear = jet.components
    for deg in range(2, degree + 1):
        args = list(jet.components)
        v = [g.substitute(args, deg) for g in sos.even]
        comps = []
        for i in range(nbig):
            poly = linear[i]
            for l in range(m2):
                c = uh[i][l]
                nonzero = (not c.is_zero) if isinstance(c, Exact) \
                    else abs(c) > 1e-300
                if nonzero:
                    poly = poly + v[l].scale(c)
            comps.append(poly)
        jet = JetMap(comps, degree, n)
    iso = IsometryJet(jet, 1, sos)
    fe = check_functional_eq(iso, tol=tol)
    if iso.mode == "exact" and fe.max_residual != 0.0:
        raise VerificationError(
            f"exact construction left residual {fe.max_residual:.3e}")
    if not fe.passed:
        raise VerificationError(
            f"constructed jet fails the pullback equation "
            f"(residual {fe.max_residual:.3e})")
    return iso


def build_k2_variety(iso: IsometryJet, tol: float = DEFAULT_TOL) -> VarietySystem:
    """Variety of a k = 2 jet: lift through the squared-coordinate map.

    Matches (sqrt2 w, plus-composites, 0) to (paired squares of w,
    minus-composites, 0) by a constant unitary, replaces the linear block
    by (1/2) J conj(J)^T using the jacobian normalization, and returns the
    resulting equations in the ambient coordinates.
    """
    spec = iso.spec
    if iso.k != 2:
        raise ParameterError("the quadric lift applies to k = 2 jets")
    _require_coordinate_minus_block(iso.sos)
    if iso.jet.degree < 4:
        raise TruncationError("need jet degree at least 4 for k = 2")
    fe = check_functional_eq(iso, tol=tol)
    if not fe.passed:
        raise VerificationError(
            f"pullback equation fails (residual {fe.max_residual:.3e})")
    n = iso.jet.source_dim
    nbig = spec.dim
    m1 = len(iso.sos.odd)
    m2 = len(iso.sos.even)
    m0 = n * (n + 1) // 2
    nstack = max(n + m2, m0 + m1)
    d = iso.jet.degree
    jet = iso.jet.to_float()
    sq2 = math.sqrt(2.0)
    lhs = [HoloPoly.var(n, a, "float").scale(sq2) for a in range(n)]
    lhs += [g.substitute(list(jet.components), d) for g in iso.sos.even]
    lhs += [HoloPoly.zero(n, "float") for _ in range(nstack - n - m2)]
    rhs = []
    for a in range(n):
        exp = tuple(2 if b == a else 0 for b in range(n))
        rhs.append(HoloPoly.monomial(n, exp, 1.0, "float"))
    for a in range(n):
        for b in range(a + 1, n):
            exp = tuple(1 if c in (a, b) else 0 for c in range(n))
            rhs.append(HoloPoly.monomial(n, exp, sq2, "float"))
    rhs += [g.substitute(list(jet.components), d) for g in iso.sos.odd]
    rhs += [HoloPoly.zero(n, "float") for _ in range(nstack - m0 - m1)]
    u, _ = match_unitary(JetMap(rhs, d, n), JetMap(lhs, d, n), tol)
    u = np.asarray(u, dtype=complex)
    jac = to_complex_matrix(jet.jacobian0())
    u2 = u[m0:]
    u21 = u2[:, :n]
    u22 = u2[:, n:]
    expected = np.zeros((nstack - m0, n), dtype=complex)
    expected[:nbig] = jac
    linear_block_gap = float(np.max(np.abs(sq2 * u21 - expected)))
    proj_half = 0.5 * (jac @ jac.conj().T)
    rank_gap = matrix_rank_tol(proj_half - np.eye(nbig)) - (nbig - n)
    hat = np.zeros((nstack - m0, nbig), dtype=complex)
    hat[:nbig] = proj_half
    eqs = []
    for i in range(nstack - m0):
        terms = {}
        for j in range(nbig):
            c = hat[i, j]
            exp = tuple(1 if jj == j else 0 for jj in range(nbig))
            terms[exp] = complex(c)
        eq = HoloPoly(nbig, terms, "float")
        for l in range(m2):
            eq = eq + iso.sos.even[l].to_float().scale(complex(u22[i, l]))
        if i < m1:
            eq = eq - iso.sos.odd[i].to_float()
        eqs.append(eq)
    width = 1 + m1 + m2
    proj = np.zeros((nstack - m0, width), dtype=complex)
    proj[:, 1:1 + nbig] = hat
    for i in range(nstack - m0):
        for l in range(m2):
            proj[i, 1 + m1 + l] += u22[i, l]
        if i < m1:
            proj[i, 1 + i] -= 1.0
    meta = {
        "matcher": u,
        "linear_block_gap": linear_block_gap,
        "rank_identity_ok": bool(rank_gap == 0),
        "jacobian": jac,
        "stack_dim": nstack,
    }
    return VarietySystem(kind="k2", sos=iso.sos, equations=tuple(eqs),
                         matrix=np.hstack([hat, u22]), projective=proj,
                         meta=meta)


@dataclass(frozen=True)
class ExtensionResult:
    """A maximal-source extension F with the slice map rho, f = F o rho."""

    extended: IsometryJet
    slice_map: JetMap
    mode: str
    composition_residual: float
    report: dict = field(default_factory=dict)


def extend_isometry(iso: IsometryJet, tol: float = DEFAULT_TOL) -> ExtensionResult:
    """Factor a non-maximal k = 1 jet through one of maximal source dimension.

    Recovers the co-isometric bottom rows that pair the plus-composites,
    rebuilds the maximal jet F from those rows alone, and verifies
    f = F o rho for the linear isometric slice rho = conj(JF)^T Jf.
    Exact input is extended exactly when the plus-composites vanish and
    the relation rows orthonormalize inside the field.
    """
    spec = iso.spec
    if iso.k != 1:
        raise ParameterError("extension applies to k = 1 jets")
    _require_coordinate_minus_block(iso.sos)
    if not rank2_codim_inequality(spec):
        raise ParameterError(f"{spec.label} fails the codimension inequality")
    n = iso.jet.source_dim
    n0 = spec.ball_dim_bound
    if n >= n0:
        raise ParameterError(
            f"source dimension {n} already at the bound {n0}")
    fe = check_functional_eq(iso, tol=tol)
    if not fe.passed:
        raise VerificationError(
            f"pullback equation fails (residual {fe.max_residual:.3e})")
    m2 = len(iso.sos.even)
    d = iso.jet.degree
    mode_used = "float"
    ext: Optional[IsometryJet] = None
    if iso.mode == "exact":
        composites = _even_composites(iso, d)
        if all(c.is_zero for c in composites):
            fmat, _ = coefficient_matrix(iso.jet)
            relations = ex_nullspace(ex_transpose(fmat))
            try:
                ortho = ex_gs_orthonormal(relations)
                if len(ortho) >= m2:
                    ext = solve_component_jet(ortho[:m2], iso.sos, d, tol,
                                              allow_float_fallback=False)
                    mode_used = "exact"
            except ExactCompletionError:
                ext = None
    if ext is None:
        rec = recover_matching_unitary(iso, tol)
        bottom = rec.bottom_block(n)
        if rec.mode == "exact":
            rows = bottom[:m2]
            try:
                ext = solve_component_jet(rows, iso.sos, d, tol,
                                          allow_float_fallback=False)
                mode_used = "exact"
            except ExactCompletionError:
                ext = None
        if ext is None:
            rows = to_complex_matrix(rec.matrix)[n:n + m2]
            ext = solve_component_jet(rows, iso.sos, d, tol)
            mode_used = "float"
    jf = iso.jet.jacobian0()
    jbig = ext.jet.jacobian0()
    if mode_used == "exact" and iso.mode == "exact" and ext.mode == "exact":
        rho_mat = ex_matmul(ex_conj_t(jbig), jf)
        gram = ex_matmul(ex_conj_t(rho_mat), rho_mat)
        if not ex_is_identity(gram):
            raise VerificationError("slice map is not exactly isometric")
        rho = JetMap.from_linear(rho_mat, d)
        recomposed = compose_truncate(ext.jet, rho, d)
        comp_res = recomposed.max_coeff_distance(iso.jet)
        if comp_res != 0.0:
            raise VerificationError(
                f"exact factorization failed (residual {comp_res:.3e})")
    else:
        jf_f = to_complex_matrix(jf)
        jbig_f = to_complex_matrix(jbig)
        rho_mat_f = jbig_f.conj().T @ jf_f
        gram_gap = float(np.max(np.abs(
            rho_mat_f.conj().T @ rho_mat_f - np.eye(n))))
        if gram_gap > max(tol, 1e-8):
            raise VerificationError(
                f"slice map is not isometric (residual {gram_gap:.3e})")
        rho = JetMap.from_linear([[complex(x) for x in row]
                                  for row in rho_mat_f], d)
        recomposed = compose_truncate(ext.jet.to_float(), rho, d)
        comp_res = recomposed.max_coeff_distance(iso.jet.to_float())
        if comp_res > max(tol, 1e-8):
            raise VerificationError(
                f"factorization failed (residual {comp_res:.3e})")
    return ExtensionResult(
        extended=ext, slice_map=rho, mode=mode_used,
        composition_residual=float(comp_res),
        report={
            "source_dim": n,
            "extended_dim": n0,
            "composition_residual": float(comp_res),
            "mode": mode_used,
        })
