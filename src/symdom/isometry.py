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

The generator composites of a jet (odd, then even generators composed
with it) are one stack per truncation degree, and the pullback residual
one result per degree; both are kept on the (frozen) IsometryJet, so a
pipeline that checks the same jet at several stages pays for one check,
and unitary recovery and extension slice the plus block out of that
stack.  A jet rebuilt by `solve_component_jet` is handed the stack its
solve built, so its check composes nothing.  The solve, in either mode,
is the degree pass that composition runs too (`poly.solve_graded`).  In
floating point the pullback check is one array identity over the graded
basis: the signed Gram product of the stack's coefficient matrix (see
`kernels.signed_gram`) plus 1 minus the diagonal of (1 - |w|^2)^k, read
off by bidegree blocks.  Exact jets keep a pullback summed as a bidegree
polynomial (`kernels.h_pullback`) from whose terms the same diagonal, as
integers, is subtracted in place.  The report reads the jacobian
normalization conj(J)^T J = k I off that residual's (1, 1) block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .calabi import coefficient_matrix, complete_to_unitary, match_unitary
from .domains import DomainSpec, rank2_codim_inequality
from .errors import (ExactCompletionError, ParameterError, TruncationError,
                     VerificationError)
from .kernels import (SignedSOS, generator_composites, h_pullback,
                      kernel_polarized_many, signed_gram)
from .linalg import (coisometry_residual, ex_conj_t, ex_gs_orthonormal,
                     ex_matmul, ex_nullspace, ex_transpose, matrix_rank_tol,
                     to_complex_matrix)
from .poly import HoloPoly, JetMap, _graded, compose_truncate, solve_graded
from .scalars import EXACT_ZERO, as_complex, one, zero

__all__ = [
    "IsometryJet", "FEReport", "PolarizedReport", "RecoveredUnitary",
    "VarietySystem", "ExtensionResult",
    "check_functional_eq", "check_polarized_eq", "recover_matching_unitary",
    "build_k1_variety", "solve_component_jet", "membership_residual",
    "build_k2_variety", "extend_isometry", "full_verification_report",
]

DEFAULT_TOL = 1e-9
SAMPLE_RADIUS = 0.03
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
    # truncation degree -> generator composites of the jet
    _stack: Dict[int, JetMap] = field(default_factory=dict, init=False,
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

    def composites(self, d: int) -> JetMap:
        """The generators (odd, then even) composed with the jet, truncated
        at d; composed on the first call for each d."""
        if d not in self._stack:
            self._stack[d] = generator_composites(self.sos,
                                                  self.jet.truncate(d), d)
        return self._stack[d]


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


def _ball_kernel_diagonal(basis, k: int) -> list:
    """The coefficients of |w^alpha|^2 in (1 - |w|^2)^k for alpha in basis,
    (-1)^|alpha| binom(k, |alpha|) |alpha|!/alpha!, as Python ints;
    (1 - |w|^2)^k has no other terms."""
    out = []
    for alpha in basis:
        s = sum(alpha)
        multinomial = math.factorial(s) // math.prod(map(math.factorial, alpha))
        out.append((-1) ** s * math.comb(k, s) * multinomial)
    return out


def _float_residual(iso: IsometryJet, d: int) -> tuple:
    """The float FE residual as one array identity on the graded basis of
    the monomials of degree <= d: D = C^T diag(s) conj(C) + E00 - B, with
    B the diagonal of ``_ball_kernel_diagonal``, read off on the blocks
    (p, q) of D with p + q <= d.  A block is reported when it holds an
    entry != 0, and a NaN entry makes its maximum NaN."""
    n = iso.jet.source_dim
    basis, first, _ = _graded(n, d)
    diff = signed_gram(iso.sos, iso.composites(d), basis)
    diff[0, 0] += 1.0
    top = first[iso.k + 1]  # B vanishes beyond |alpha| = k
    diff[range(top), range(top)] -= np.array(
        _ball_kernel_diagonal(basis[:top], iso.k), dtype=float)
    # hypot rounds as Python's abs of a complex does; np.abs does not
    mags = np.hypot(diff.real, diff.imag)
    blocks = np.maximum.reduceat(
        np.maximum.reduceat(mags, first[:-1], axis=0), first[:-1], axis=1)
    kept = np.add.outer(np.arange(d + 1), np.arange(d + 1)) <= d
    rows, cols = np.nonzero(kept & (blocks != 0))
    per = {(p, q): float(blocks[p, q])
           for p, q in zip(rows.tolist(), cols.tolist())}
    return float(np.max(blocks[kept])), per, "float"


def _exact_residual(iso: IsometryJet, d: int) -> tuple:
    """The exact FE residual: the terms of ``h_pullback`` with the diagonal
    of ``_ball_kernel_diagonal`` subtracted in place, read off term by
    term; every diagonal entry of B has |alpha| <= k <= d / 2, so B lies
    inside the triangle |alpha| + |beta| <= d."""
    diff = h_pullback(iso.sos, iso.jet, d,
                      composites=iso.composites(d)).terms
    basis, _, _ = _graded(iso.source_dim, iso.k)  # |alpha| <= k
    for alpha, b in zip(basis, _ball_kernel_diagonal(basis, iso.k)):
        diff[alpha, alpha] = diff.get((alpha, alpha), EXACT_ZERO) - b
    per: Dict[Tuple[int, int], float] = {}
    worst = 0.0
    for (alpha, beta), c in diff.items():
        if c.is_zero:
            continue
        key = (sum(alpha), sum(beta))
        mag = max(abs(as_complex(c)), math.ulp(0.0))  # c != 0 never reads 0.0
        per[key] = _nan_max(per.get(key, 0.0), mag)
        worst = _nan_max(worst, mag)
    return worst, per, "exact"


def check_functional_eq(iso: IsometryJet, d: Optional[int] = None,
                        tol: float = DEFAULT_TOL) -> FEReport:
    """Compare h(f(w), conj f(w)) with (1 - |w|^2)^k up to degree d.

    Generator composites are truncated at degree d before squaring, so for
    a degree-d jet of a true isometry every retained coefficient must
    vanish; in exact mode the residual is then exactly zero.  A d above
    the jet's degree is refused: the equations there involve coefficients
    the jet does not hold, so they would hold only vacuously or fail for a
    true isometry.  The residual is computed on the first call for each d
    and reused afterwards, as is the composite stack it squares.  Exact
    jets subtract the diagonal of (1 - |w|^2)^k from the terms of
    ``h_pullback`` (see ``_exact_residual``); float jets compute the same
    differences as one array (see ``_float_residual``), so that a NaN
    anywhere in the jet makes the residual NaN.
    """
    d = iso.jet.degree if d is None else d
    if d < 2 * iso.k:
        raise TruncationError(
            f"truncation degree {d} cannot see isometric constant "
            f"{iso.k}: need at least {2 * iso.k}")
    if d > iso.jet.degree:
        raise TruncationError(
            f"truncation degree {d} exceeds the jet degree "
            f"{iso.jet.degree}: the coefficients above it are unknown")
    if d not in iso._fe:
        iso._fe[d] = (_float_residual(iso, d) if iso.mode == "float"
                      else _exact_residual(iso, d))
    worst, per, mode = iso._fe[d]
    return FEReport(max_residual=worst, per_bidegree=dict(per),
                    passed=worst <= tol, mode=mode, degree=d, tol=tol)


@dataclass(frozen=True)
class PolarizedReport:
    """Sampled two-point residual of the polarized pullback equation."""

    max_residual: float
    samples: int
    radius: float
    passed: bool
    tol: float


def check_polarized_eq(iso: IsometryJet, samples: int = 25,
                       seed: int = 0) -> PolarizedReport:
    """Evaluate h(f(w), conj f(v)) - (1 - <w, v>)^k at sampled point pairs.

    The sampling radius ``SAMPLE_RADIUS`` keeps the degree-(d+1) tail of
    a truncated true isometry below the tolerance ``SAMPLE_TOL``.  The
    pairs are drawn one after another from ``default_rng(seed)``, each as
    one normal draw of the rows (re w, im w, re v, im v) and one uniform
    draw of the two radii; the jet and the kernel generators are then
    evaluated in floating point at all of them at once (one numpy batch).
    """
    if samples < 1:
        raise ValueError(f"need at least 1 polarized sample, got {samples}")
    n = iso.jet.source_dim
    g = np.random.default_rng(seed)
    pts = np.empty((2, samples, n), dtype=complex)  # rows w_s, then v_s
    scale = np.empty((2, samples))
    for s in range(samples):
        x = g.normal(size=(4, n))
        pts[:, s] = x[0::2] + 1j * x[1::2]
        scale[:, s] = g.uniform(0.3, 1.0, size=2)
    nrm = np.linalg.norm(pts, axis=2)
    pts *= (SAMPLE_RADIUS * scale / nrm)[:, :, None]
    f = iso.jet.evaluate_many(pts.reshape(2 * samples, n))
    lhs = kernel_polarized_many(iso.sos, f[:samples], f[samples:])
    rhs = (1.0 - np.sum(pts[1].conj() * pts[0], axis=1)) ** iso.k
    worst = float(np.max(np.abs(lhs - rhs)))  # NaN propagates
    return PolarizedReport(max_residual=worst, samples=samples,
                           radius=SAMPLE_RADIUS, passed=worst <= SAMPLE_TOL,
                           tol=SAMPLE_TOL)


def full_verification_report(iso: IsometryJet, d: Optional[int] = None,
                             tol: float = DEFAULT_TOL, samples: int = 25,
                             seed: int = 0) -> dict:
    """All three checks in one report dictionary (used by the CLI); the
    jacobian normalization is read off the FE check's (1, 1) block."""
    fe = check_functional_eq(iso, d, tol)
    # degree-1 generators are coordinates with sign -1, B's (1, 1) diagonal
    # is -k: entry (a, b) of the block is -conj((conj(J)^T J - k I)_ab)
    jac = fe.per_bidegree.get((1, 1), 0.0)
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


def _even_composites(iso: IsometryJet, d: int) -> Tuple[HoloPoly, ...]:
    return iso.composites(d).components[len(iso.sos.odd):]


@dataclass(frozen=True)
class RecoveredUnitary:
    """Constant unitary matching (w, plus-composites, 0) to the jet."""

    matrix: object
    mode: str

    def bottom_block(self, n: int):
        return self.matrix[n:]


def _match_recovery_target(iso: IsometryJet, tol: float):
    """(U, mode) with U f = (w, plus-composites of f, 0).  Below the bound
    the target has zero rows, so no exact U exists: floats are matched."""
    n = iso.jet.source_dim
    d = iso.jet.degree
    pad = iso.spec.dim - n - len(iso.sos.even)
    mode = iso.jet.mode
    comps = [HoloPoly.var(n, a, mode) for a in range(n)]
    comps += _even_composites(iso, d)
    comps += [HoloPoly.zero(n, mode) for _ in range(pad)]
    target, source = JetMap(comps, d, n), iso.jet
    if pad:
        target, source = target.to_float(), source.to_float()
    return match_unitary(target, source, tol)


def recover_matching_unitary(iso: IsometryJet,
                             tol: float = DEFAULT_TOL) -> RecoveredUnitary:
    """Recover U with U f = (w, plus-composites of f, 0), for k = 1 jets.

    Requires a rank-2 target whose minus generators are the coordinates, a
    source dimension up to the bound, and a passing pullback check.  At
    the bound, exact jets with a full-rank coefficient matrix give an
    exact U; below it U is the float SVD match with deterministic
    completions.  Either way `match_unitary` has checked U f = target on
    the coefficient matrices.
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
    u, mode = _match_recovery_target(iso, tol)
    return RecoveredUnitary(matrix=u, mode=mode)


@dataclass(frozen=True)
class VarietySystem:
    """Holomorphic equations cutting out (a superset of) the jet image.

    `projective` gives the equations as linear forms in the minimal-embedding
    coordinates [1, minus generators, plus generators]; `equations` are the
    same forms in the ambient coordinates, projective[:, 1:] applied to
    the generators (see `_projective_equations`).
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


def _projective_equations(proj, sos: SignedSOS) -> Tuple[HoloPoly, ...]:
    """proj[:, 1:] applied to the stack (minus generators, plus generators)
    by one composition.  Column 0, the coefficient of 1, is zero for the
    varieties built here."""
    gens = sos.odd + sos.even
    d = max(g.degree for g in gens)
    forms = JetMap.from_linear([row[1:] for row in proj], d)
    return compose_truncate(forms, JetMap(gens, d), d).components


def build_k1_variety(u_rows, sos: SignedSOS) -> VarietySystem:
    """Variety of a k = 1 construction.

    The jet solves z = conj(full)^T (w, z^#(z), 0) for a unitary
    full = [A; U] whose bottom rows U are u_rows, so U z = (z^#(z), 0):
    row l of u pairs the coordinates against plus generator l for l < m2
    and against zero for the remaining rows.
    """
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
    if not res <= (0.0 if exact else 1e-8):
        raise ValueError(f"rows are not orthonormal (residual {res:.3e})")
    mode = "exact" if exact else "float"
    z0, minus = zero(mode), zero(mode) - one(mode)
    proj = [[z0] + list(rows[l]) + [minus if i == l else z0 for i in range(m2)]
            for l in range(m)]
    if not exact:
        proj = np.array(proj, dtype=complex)
    return VarietySystem(kind="k1", sos=sos,
                         equations=_projective_equations(proj, sos),
                         matrix=rows, projective=proj,
                         meta={"source_dim": nbig - m})


def membership_residual(system: VarietySystem, jet: JetMap,
                        d: Optional[int] = None) -> float:
    """Largest coefficient left after substituting the jet into the
    equations; exactly 0.0 for exact data on the variety."""
    if jet.target_dim != system.ambient_dim:
        raise ValueError("jet does not land in the ambient space")
    d = jet.degree if d is None else d
    eqs = JetMap(system.equations, d, system.ambient_dim)
    comps = compose_truncate(eqs, jet, d).components
    return max((c.max_abs_coeff() for c in comps), default=0.0)


def solve_component_jet(u_rows, sos: SignedSOS, degree: int = 6,
                        tol: float = DEFAULT_TOL) -> IsometryJet:
    """Rebuild the k = 1 jet determined by a co-isometric row system.

    Completes the rows U to a unitary full = [A; U] and solves, degree by
    degree,
       z = conj(full)^T (w, z^#(z), 0),
    where z^# is the stack of plus generators.  The plus generators have
    degree >= 2, so the degree-m part of the right side only involves
    parts of z below degree m, and m = 1..degree finishes in one pass:
    one ``solve_graded`` call on the linear and plus blocks of
    conj(full)^T, exact when the rows, their completion and the kernel
    are (float rows or a float kernel give a float solve).  z^# is then
    already the plus composites of the finished jet, and the minus
    composites are its components, so the returned jet holds that stack
    for its check.  A degree below 2 is refused before the completion, as
    the check refuses it.  Rows that are not orthonormal are refused by
    ``complete_to_unitary`` (exactly for exact rows).  Exact rows stay
    exact when the completion stays in the field; otherwise the
    computation restarts in floating point from the same rows.
    """
    _require_coordinate_minus_block(sos)
    nbig = sos.nvars
    m2 = len(sos.even)
    m = len(u_rows)
    if not m2 <= m < nbig:
        raise ParameterError(
            f"row count {m} outside {m2}..{nbig - 1}")
    if degree < 2:
        raise TruncationError(
            f"truncation degree {degree} cannot see isometric constant 1: "
            f"need at least 2")
    n = nbig - m
    try:
        full = complete_to_unitary(u_rows)
    except ExactCompletionError:  # raised for exact rows only
        return solve_component_jet(to_complex_matrix(u_rows), sos,
                                   degree, tol)
    even = JetMap(sos.even, degree, nbig)
    if isinstance(full, list) and even.mode == "exact":
        adjoint = ex_conj_t(full)
        linear = [row[:n] for row in adjoint]
        back = [row[n:n + m2] for row in adjoint]
    else:
        # exact rows with a float kernel give a float jet from degree 1 on
        adjoint = to_complex_matrix(full).conj().T
        linear, back = adjoint[:, :n], adjoint[:, n:n + m2]
    jet, plus = solve_graded(linear, even, back, degree)
    iso = IsometryJet(jet, 1, sos)
    iso._stack[degree] = JetMap(jet.components + plus.components, degree, n)
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

    Where a k = 1 jet solves z = conj(full)^T (w, z^#(z), 0) for one
    unitary, a k = 2 jet is matched one level up: a constant unitary takes
    (sqrt2 w, z^#(f), 0) to (paired squares of w, f, 0).  Its rows below
    the squares, with the linear block replaced by (1/2) J conj(J)^T
    through the jacobian normalization, are the projective forms
    (hat - I) z + u22 z^#(z); the equations are those forms applied to
    (z, z^#) in the ambient coordinates.
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
    composites = iso.composites(d).to_float().components
    sq2 = math.sqrt(2.0)
    lhs = [HoloPoly.var(n, a, "float").scale(sq2) for a in range(n)]
    lhs += composites[m1:]
    lhs += [HoloPoly.zero(n, "float") for _ in range(nstack - n - m2)]
    rhs = []
    for a in range(n):
        exp = tuple(2 if b == a else 0 for b in range(n))
        rhs.append(HoloPoly.monomial(n, exp, 1.0, "float"))
    for a in range(n):
        for b in range(a + 1, n):
            exp = tuple(1 if c in (a, b) else 0 for c in range(n))
            rhs.append(HoloPoly.monomial(n, exp, sq2, "float"))
    rhs += composites[:m1]
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
    proj = np.hstack([np.zeros((nstack - m0, 1)), hat, u22[:, :m2]])
    proj[:m1, 1:1 + m1] -= np.eye(m1)
    meta = {
        "matcher": u,
        "linear_block_gap": linear_block_gap,
        "rank_identity_ok": bool(rank_gap == 0),
        "jacobian": jac,
        "stack_dim": nstack,
    }
    return VarietySystem(kind="k2", sos=iso.sos,
                         equations=_projective_equations(proj, iso.sos),
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

    Recovers the co-isometric bottom rows that pair the plus-composites
    (the float match of ``recover_matching_unitary``, whose checks are not
    repeated), rebuilds the maximal jet F from those rows alone, and
    verifies f = F o rho for the linear isometric slice rho = conj(JF)^T Jf.
    Exact input is extended exactly when the plus-composites vanish and
    the relation rows orthonormalize and complete inside the field.
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
    ext: Optional[IsometryJet] = None
    if iso.mode == "exact":
        composites = _even_composites(iso, d)
        if all(c.is_zero for c in composites):
            fmat, _ = coefficient_matrix(iso.jet)
            relations = ex_nullspace(ex_transpose(fmat))
            try:
                ortho = ex_gs_orthonormal(relations)
            except ExactCompletionError:
                ortho = []
            if len(ortho) >= m2:
                # a completion that leaves the field gives a float F
                ext = solve_component_jet(ortho[:m2], iso.sos, d, tol)
    if ext is None:
        # n < n0 pads the recovery target with zero rows: a float match
        u, _ = _match_recovery_target(iso, tol)
        ext = solve_component_jet(u[n:n + m2], iso.sos, d, tol)
    jf, jbig = iso.jet.jacobian0(), ext.jet.jacobian0()
    # an exact F comes from an exact input, so both jacobians are exact
    if ext.mode == "exact":
        rho_mat = ex_matmul(ex_conj_t(jbig), jf)
        rho_adj = ex_conj_t(rho_mat)
    else:
        rho_mat = to_complex_matrix(jbig).conj().T @ to_complex_matrix(jf)
        rho_adj = rho_mat.conj().T
    limit = 0.0 if ext.mode == "exact" else max(tol, 1e-8)
    gram_gap = coisometry_residual(rho_adj)  # max |conj(rho)^T rho - I|
    if not gram_gap <= limit:
        raise VerificationError(
            f"slice map is not isometric (residual {gram_gap:.3e})")
    rho = JetMap.from_linear(rho_mat, d)
    comp_res = compose_truncate(ext.jet, rho, d).max_coeff_distance(iso.jet)
    if comp_res > limit:
        raise VerificationError(
            f"factorization failed (residual {comp_res:.3e})")
    return ExtensionResult(
        extended=ext, slice_map=rho, mode=ext.mode,
        composition_residual=float(comp_res),
        report={
            "source_dim": n,
            "extended_dim": n0,
            "composition_residual": float(comp_res),
            "mode": ext.mode,
        })
