"""Jet-level checks and constructions for holomorphic ball isometries.

An IsometryJet is a constant-free polynomial jet from a small complex ball
into an ambient domain, together with its isometric constant k; its mode
is the jet's own (see `kernels`).  The central identity is the pullback
equation

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
and the Calabi matchings split that stack by sign into the two sides of
the pullback equation (``_kernel_sides``).  A jet rebuilt by
`solve_component_jet` is handed the stack its solve built, so its check
composes nothing: the jet, then ``sos.higher`` of it, from the degree pass
that composition runs too (`poly.solve_graded`), so a `construct` or
`extend` document carries the report `verify` prints.  In
floating point the pullback check is one array identity over the graded
basis: the signed Gram product of the stack's coefficient matrix (see
`kernels.signed_gram`) plus 1 minus the diagonal of (1 - |w|^2)^k, read
off by bidegree blocks.
Exact jets keep a pullback summed as a bidegree polynomial
(`kernels.h_pullback`) from whose terms the same diagonal, as integers, is
subtracted in place.  The report reads the jacobian normalization
conj(J)^T J = k I off that residual's (1, 1) block.
"""

from __future__ import annotations

import functools
import math
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .calabi import (DEFAULT_TOL, _require_orthonormal, coefficient_matrix,
                     complete_to_unitary, match_unitary)
from .domains import DomainSpec, rank2_codim_inequality
from .errors import (ExactCompletionError, ParameterError, TruncationError,
                     VerificationError)
from .kernels import (SignedSOS, generator_composites, h_pullback,
                      kernel_polarized_many, signed_gram)
from .linalg import (coisometry_residual, ex_conj_t, ex_gs_orthonormal,
                     ex_matmul, ex_nullspace, ex_transpose, row_complement,
                     to_complex_matrix)
from .poly import (HoloPoly, JetMap, _graded, _stack_jets, compose_truncate,
                   solve_graded)
from .scalars import EXACT_ZERO, Exact, field_sqrt, one, zero

__all__ = [
    "IsometryJet", "FEReport", "PolarizedReport", "RecoveredUnitary",
    "VarietySystem", "ExtensionResult",
    "check_functional_eq", "check_polarized_eq", "recover_matching_unitary",
    "build_k1_variety", "solve_component_jet", "membership_residual",
    "build_k2_variety", "extend_isometry", "full_verification_report",
]

SAMPLE_RADIUS = 0.03  # the sampling radius from degree 4 on
SAMPLE_TOL = 1e-10
# The polarized check evaluates the jet's monomials at 2 x samples points
# at once, 16 bytes each; at up to poly.MAX_GRADED_BASIS (8192) monomials,
# 4096 samples keep that table within the 1 GiB a float check may hold.
MAX_SAMPLES = 4096


def sample_radius(d: int) -> float:
    """The polarized check's radius for a degree-d jet: ``SAMPLE_RADIUS``
    for d >= 4, and SAMPLE_RADIUS ** (6 / (d + 2)) below, so that
    r ** (d + 2), the order of the truncation tail, stays at its degree-4
    size."""
    return min(SAMPLE_RADIUS, SAMPLE_RADIUS ** (6 / (d + 2)))


@dataclass(frozen=True)
class IsometryJet:
    """A candidate ball-to-domain jet with declared isometric constant."""

    jet: JetMap
    k: int
    sos: SignedSOS
    # truncation degree -> (max residual, per-bidegree maxima)
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
        return self.jet.mode

    def composites(self, d: int) -> JetMap:
        """``generator_composites`` of the jet at d, composed once per d."""
        if d not in self._stack:
            self._stack[d] = generator_composites(self.sos, self.jet, d)
        return self._stack[d]


@dataclass(frozen=True)
class FEReport:
    """Coefficientwise residual of the pullback equation."""

    max_residual: float
    per_bidegree: Dict[Tuple[int, int], float]
    passed: bool
    mode: str
    degree: int


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
    return float(np.max(blocks[kept])), per


def _exact_residual(iso: IsometryJet, d: int) -> tuple:
    """The exact FE residual: the terms of ``h_pullback`` with the diagonal
    of ``_ball_kernel_diagonal`` subtracted in place, read off term by
    term; every diagonal entry of B has |alpha| <= k <= d / 2, so B lies
    inside the triangle |alpha| + |beta| <= d."""
    diff = h_pullback(iso.sos, iso.composites(d)).terms
    basis, _, _ = _graded(iso.source_dim, iso.k)  # |alpha| <= k
    for alpha, b in zip(basis, _ball_kernel_diagonal(basis, iso.k)):
        diff[alpha, alpha] = diff.get((alpha, alpha), EXACT_ZERO) - b
    per: Dict[Tuple[int, int], float] = {}
    worst = 0.0
    for (alpha, beta), c in diff.items():
        if c.is_zero:
            continue
        key = (sum(alpha), sum(beta))
        mag = max(abs(complex(c)), math.ulp(0.0))  # c != 0 never reads 0.0
        per[key] = _nan_max(per.get(key, 0.0), mag)
        worst = _nan_max(worst, mag)
    return worst, per


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
    worst, per = iso._fe[d]
    return FEReport(max_residual=worst, per_bidegree=dict(per),
                    passed=worst <= tol, mode=iso.mode, degree=d)


@dataclass(frozen=True)
class PolarizedReport:
    """Sampled two-point residual of the polarized pullback equation."""

    max_residual: float
    samples: int
    radius: float
    passed: bool


def check_polarized_eq(iso: IsometryJet, samples: int = 25,
                       seed: int = 0) -> PolarizedReport:
    """Evaluate h(f(w), conj f(v)) - (1 - <w, v>)^k at sampled point pairs.

    The sampling radius ``sample_radius(d)``, d the jet's degree, keeps
    the tail of a truncated true isometry, of order r ** (d + 2) (a
    degree-(d+1) term of f(w) against the linear part of f(v)), below the
    tolerance ``SAMPLE_TOL``.  The pairs are drawn one after another from
    ``default_rng(seed)``, each as one standard normal draw of the rows
    (re w, im w, re v, im v) and one draw of two uniforms u, the radii
    0.3 + 0.7 u: bit for bit the points of ``normal(size=(4, n))`` and
    ``uniform(0.3, 1.0, size=2)``.  The draws fill two arrays in place
    once (and are kept for each int ``seed``, see ``_sample_pairs``), and
    the jet and the kernel generators are evaluated in floating point at
    all of them at once (one numpy batch).  More than ``MAX_SAMPLES``
    samples are refused before any point is drawn.
    """
    if samples < 1:
        raise ValueError(f"need at least 1 polarized sample, got {samples}")
    if samples > MAX_SAMPLES:
        raise ParameterError(f"--samples {samples} exceeds the bound "
                             f"{MAX_SAMPLES}")
    n = iso.jet.source_dim
    radius = sample_radius(iso.jet.degree)
    pts = _sample_pairs(n, samples, seed, iso.jet.degree)
    f = iso.jet.evaluate_many(pts.reshape(2 * samples, n))
    lhs = kernel_polarized_many(iso.sos, f[:samples], f[samples:])
    rhs = (1.0 - np.sum(pts[1].conj() * pts[0], axis=1)) ** iso.k
    worst = float(np.max(np.abs(lhs - rhs)))  # NaN propagates
    return PolarizedReport(max_residual=worst, samples=samples,
                           radius=radius, passed=worst <= SAMPLE_TOL)


@functools.lru_cache(maxsize=32)
def _sample_pairs(n: int, samples: int, seed: int, degree: int) -> np.ndarray:
    """``check_polarized_eq``'s points, 2 x samples x n (rows w_s, then
    v_s), drawn once per process for each key and read-only."""
    g = np.random.default_rng(seed)
    normals, uniforms = np.empty((samples, 4, n)), np.empty((samples, 2))
    for s in range(samples):
        g.standard_normal(out=normals[s])
        g.random(out=uniforms[s])
    x = normals.transpose(1, 0, 2)  # rows (re w, im w, re v, im v)
    pts = np.ascontiguousarray(x[0::2] + 1j * x[1::2])
    scale = 0.3 + (1.0 - 0.3) * uniforms.T
    nrm = np.linalg.norm(pts, axis=2)
    pts *= (sample_radius(degree) * scale / nrm)[:, :, None]
    pts.flags.writeable = False
    return pts


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
        "passed": fe.passed and pol.passed,
        "degree": fe.degree,
        "isometric_constant": iso.k,
        "domain": iso.spec.label,
        "mode": iso.mode,
    }


# -- rank-2 machinery --------------------------------------------------------

def _require_coordinate_minus_block(sos: SignedSOS, u_rows=None) -> None:
    """The minus block must be the N coordinates, with which it starts; given
    the rows u_rows of a k = 1 construction, their count m must have
    m2 <= m < N (the plus block covered, a positive source dimension)."""
    label, n, m2 = sos.spec.label, sos.nvars, len(sos.even)
    if len(sos.odd) != n:
        raise ParameterError(
            f"{label}: minus block must consist of the {n} coordinates")
    if u_rows is not None and not m2 <= len(u_rows) < n:
        raise ParameterError(f"row count {len(u_rows)} outside {m2}..{n - 1}")


def _require_rank2_jet(iso: IsometryJet, k: int, task: str, tol: float,
                       extending: bool = False) -> None:
    """The entry checks of the rank-2 machinery, in this order and before
    anything is composed: isometric constant k, the coordinate minus
    block, for k = 1 the codimension inequality and a source dimension up
    to the bound (below it when extending), then the pullback check."""
    if iso.k != k:
        raise ParameterError(f"{task} applies to k = {k} jets")
    _require_coordinate_minus_block(iso.sos)
    spec = iso.spec
    if k == 1:
        if not rank2_codim_inequality(spec):
            raise ParameterError(
                f"{spec.label} fails the codimension inequality")
        n, bound = iso.source_dim, spec.ball_dim_bound
        if n > bound or (extending and n == bound):
            word = "exceeds" if n > bound else "already at"
            raise ParameterError(
                f"source dimension {n} {word} the bound {bound}")
    fe = check_functional_eq(iso, tol=tol)
    if not fe.passed:
        raise VerificationError(
            f"pullback equation fails (residual {fe.max_residual:.3e})")


def _kernel_sides(iso: IsometryJet) -> Tuple[JetMap, JetMap]:
    """The pullback equation split by sign into |plus|^2 = |minus|^2.

    Each side holds the monomials w^alpha, 1 <= |alpha| <= k, weighted by
    the square roots of ``_ball_kernel_diagonal`` (odd |alpha| on the plus
    side), then the generator composites of its sign.  Both are padded
    with zeros to one length (``match_unitary`` matches padded sides in
    floating point).  For k = 1 the sides are (w, z^#(f), 0) and f; for
    k = 2 they are (sqrt2 w, z^#(f), 0) and (the degree-2 monomials
    weighted by 1 or sqrt2, f, 0)."""
    n, d, m1 = iso.source_dim, iso.jet.degree, len(iso.sos.odd)
    stack = iso.composites(d)
    basis = _graded(n, iso.k)[0][1:]  # 1 <= |alpha| <= k
    sides = ([], [])  # plus, minus: b < 0 for odd |alpha|
    for alpha, b in zip(basis, _ball_kernel_diagonal(basis, iso.k)):
        sides[b > 0].append(HoloPoly.monomial(
            n, alpha, field_sqrt(Exact.of(abs(b))), stack.mode))
    sides[0].extend(stack.components[m1:])
    sides[1].extend(stack.components[:m1])
    size = max(map(len, sides))
    return tuple(JetMap(side + [HoloPoly.zero(n, stack.mode)] *
                        (size - len(side)), d, n) for side in sides)


@dataclass(frozen=True)
class RecoveredUnitary:
    """Constant unitary U with U f = (w, z^#(f), 0): the match of the k = 1
    kernel sides (see ``_kernel_sides``)."""

    matrix: object
    mode: str

    def bottom_block(self, n: int):
        return self.matrix[n:]


def recover_matching_unitary(iso: IsometryJet,
                             tol: float = DEFAULT_TOL) -> RecoveredUnitary:
    """Recover U with U f = (w, plus-composites of f, 0), for k = 1 jets.

    Requires a rank-2 target whose minus generators are the coordinates, a
    source dimension up to the bound, and a passing pullback check (see
    ``_require_rank2_jet``).  U matches the two sides of the pullback
    equation (``_kernel_sides``).  At the bound the sides are unpadded,
    and exact jets with a full-rank coefficient matrix give an exact U;
    below it U is the polar factor of the float match.  Either way
    `match_unitary` has checked U f = target on the coefficient matrices.
    """
    _require_rank2_jet(iso, 1, "unitary recovery", max(tol, DEFAULT_TOL))
    u, mode = match_unitary(*_kernel_sides(iso), tol)
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
    d = sos.stack.degree
    forms = JetMap.from_linear([row[1:] for row in proj], d)
    return compose_truncate(forms, sos.stack, d).components


def build_k1_variety(u_rows, sos: SignedSOS) -> VarietySystem:
    """Variety of a k = 1 construction.

    The jet solves z = conj(full)^T (w, z^#(z), 0) for a unitary
    full = [A; U] whose bottom rows U are u_rows, so U z = (z^#(z), 0):
    row l of u pairs the coordinates against plus generator l for l < m2
    and against zero for the remaining rows.
    """
    _require_coordinate_minus_block(sos, u_rows)
    m2 = len(sos.even)
    exact = isinstance(u_rows, list)
    rows = u_rows if exact else np.asarray(u_rows, dtype=complex)
    m = len(rows)
    _require_orthonormal(rows)
    mode = "exact" if exact else "float"
    z0, minus = zero(mode), zero(mode) - one(mode)
    proj = [[z0] + list(rows[l]) + [minus if i == l else z0 for i in range(m2)]
            for l in range(m)]
    if not exact:
        proj = np.array(proj, dtype=complex)
    return VarietySystem(kind="k1", sos=sos,
                         equations=_projective_equations(proj, sos),
                         matrix=rows, projective=proj)


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

    Completes the rows U to a unitary full = [A; U] and solves from it
    (``_solve_from_unitary``).  A degree below 2 is refused before the
    completion, as the check refuses it.  Rows that are not orthonormal
    are refused by ``complete_to_unitary`` (exactly for exact rows).
    Exact rows stay exact when the completion stays in the field;
    otherwise their float copy is completed, and the jet solved from it.
    """
    _require_coordinate_minus_block(sos, u_rows)
    if degree < 2:
        raise TruncationError(
            f"truncation degree {degree} cannot see isometric constant 1: "
            f"need at least 2")
    try:
        full = complete_to_unitary(u_rows)
    except ExactCompletionError:  # raised for exact rows only
        full = complete_to_unitary(to_complex_matrix(u_rows))
    return _solve_from_unitary(full, sos, sos.nvars - len(u_rows), degree,
                               tol)


def _solve_from_unitary(full, sos: SignedSOS, n: int, degree: int,
                        tol: float) -> IsometryJet:
    """Solve z = conj(full)^T (w, z^#(z), 0) for z on C^n through
    ``degree``, z^# the plus generators, full a unitary (not re-tested).
    The plus generators have degree >= 2, so the degree-m part of the
    right side involves only parts of z below degree m: one
    ``solve_graded`` pass on the linear and plus blocks of conj(full)^T,
    exact when full is.  The jet keeps the stack the pass built, as
    ``generator_composites`` builds it, for the FE check, which decides.
    """
    m2 = len(sos.even)
    if isinstance(full, list):
        adjoint = ex_conj_t(full)
        linear = [row[:n] for row in adjoint]
        back = [row[n:n + m2] for row in adjoint]
    else:
        adjoint = to_complex_matrix(full).conj().T
        linear, back = adjoint[:, :n], adjoint[:, n:n + m2]
    jet, plus = solve_graded(linear, sos.higher, back, degree)
    iso = IsometryJet(jet, 1, sos)
    iso._stack[degree] = _stack_jets(jet, plus, degree)
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
    unitary, a k = 2 jet is matched one level up: after the checks of
    ``_require_rank2_jet``, a constant unitary takes the plus side of the
    pullback equation, (sqrt2 w, z^#(f), 0), to its minus side, (the
    degree-2 monomials of w weighted by 1 or sqrt2, f, 0) (see
    ``_kernel_sides``).  Its rows below the monomials, with the linear
    block replaced by (1/2) J conj(J)^T through the jacobian
    normalization, are the projective forms (hat - I) z + u22 z^#(z); the
    equations are those forms applied to (z, z^#) in the ambient
    coordinates.
    """
    _require_rank2_jet(iso, 2, "the quadric lift", tol)
    plus, minus = _kernel_sides(iso)
    u = to_complex_matrix(match_unitary(minus, plus, tol)[0])
    n, nbig, nstack = iso.source_dim, iso.spec.dim, plus.target_dim
    m1, m2 = len(iso.sos.odd), len(iso.sos.even)
    m0 = n * (n + 1) // 2
    jac = to_complex_matrix(iso.jet.jacobian0())
    u22 = u[m0:, n:]
    proj_half = 0.5 * (jac @ jac.conj().T)
    hat = np.zeros((nstack - m0, nbig), dtype=complex)
    hat[:nbig] = proj_half
    proj = np.hstack([np.zeros((nstack - m0, 1)), hat, u22[:, :m2]])
    proj[:m1, 1:1 + m1] -= np.eye(m1)
    return VarietySystem(kind="k2", sos=iso.sos,
                         equations=_projective_equations(proj, iso.sos),
                         matrix=np.hstack([hat, u22]), projective=proj,
                         meta={"stack_dim": nstack})


@dataclass(frozen=True)
class ExtensionResult:
    """A maximal-source extension F with the slice map rho, f = F o rho."""

    extended: IsometryJet
    slice_map: JetMap
    mode: str
    composition_residual: float


def extend_isometry(iso: IsometryJet, tol: float = DEFAULT_TOL) -> ExtensionResult:
    """Factor a non-maximal k = 1 jet through one of maximal source dimension.

    After the checks of ``_require_rank2_jet`` (a source dimension below
    the bound), matches the two sides of the pullback equation
    (``_kernel_sides``: (w, plus-composites, 0) and f, padded, so matched
    in floating point) and solves the maximal jet F from the matched
    unitary's rows that meet (w, plus-composites), not tested again,
    completed by ``row_complement``, so that F(w, 0) = f and the linear
    slice rho = conj(JF)^T Jf is the coordinate inclusion; F's FE check
    and the checks of rho and of f = F o rho decide.  Exact input is
    extended exactly when the plus-composites vanish and the first m2
    relation rows orthonormalize and complete inside the field.
    """
    _require_rank2_jet(iso, 1, "extension", tol, extending=True)
    n = iso.source_dim
    m2 = len(iso.sos.even)
    n_ext = iso.sos.nvars - m2  # F's source dimension
    d = iso.jet.degree
    full = None
    plus_composites = iso.composites(d).components[len(iso.sos.odd):]
    if iso.mode == "exact" and all(c.is_zero for c in plus_composites):
        # the plus rows are orthonormal relations among f's components; a
        # norm outside the field, in either step, takes the float route
        fmat, _ = coefficient_matrix(iso.jet)
        rows = ex_nullspace(ex_transpose(fmat))[:m2]
        if len(rows) == m2:
            with suppress(ExactCompletionError):
                rows = ex_gs_orthonormal(rows)
                full = complete_to_unitary(rows)
    if full is None:
        # Completing U's rows that meet (w, z^#(f)) and moving the plus rows
        # last gives full f = ((w, 0), z^#(f)), so F solved from full has
        # F(w, 0) = f: rho is the inclusion
        u, _ = match_unitary(*_kernel_sides(iso), tol)
        full = np.vstack([u[:n], row_complement(u[:n + m2]), u[n:n + m2]])
    ext = _solve_from_unitary(full, iso.sos, n_ext, d, tol)
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
        composition_residual=float(comp_res))
