"""Catalog of bounded symmetric domains and their discrete invariants.

Every number here is integer-exact: closed forms use only integer arithmetic
(`math.isqrt` comparisons instead of floating square roots), so the catalog is
safe at large parameters.

Families and parameters:

* ``I``        rectangular matrix domains, params (p, q) with 1 <= p <= q
* ``II``       antisymmetric matrix domains, param m >= 4
* ``III``      symmetric matrix domains, param m >= 1
* ``IV``       quadric (Lie ball) domains, param n >= 3
* ``V``        the 16-dimensional exceptional domain of rank 2
* ``VI``       the 27-dimensional exceptional domain of rank 3
* ``polydisk`` the p-fold product of unit disks, param p >= 1

Stored invariants: complex dimension ``dim``, ``rank``, the fiber dimension
``vmrt_dim`` of the variety of minimal rational tangents of the compact dual,
the null-space dimension table ``null_dims`` (entry k-1 holds the value for
rank-k vectors, k = 1..rank), the ambient dimension ``min_embedding_dim`` of
the minimal projective embedding of the compact dual, the signed-square counts
``sos_odd`` / ``sos_even`` where an expansion is implemented, and the tube-type
flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Tuple


class ParameterError(ValueError):
    """Invalid or unsupported family parameters."""


@dataclass(frozen=True)
class DomainSpec:
    family: str
    params: Tuple[int, ...]
    dim: int
    rank: int
    vmrt_dim: int
    null_dims: Tuple[int, ...]
    min_embedding_dim: int
    embedding_provenance: str  # "derived" or "external"
    sos_odd: Optional[int]
    sos_even: Optional[int]
    tube: bool

    @property
    def ball_dim_bound(self) -> int:
        """2*dim - min_embedding_dim: the largest source ball dimension the
        rank-2 co-isometry construction can reach."""
        return 2 * self.dim - self.min_embedding_dim

    @property
    def label(self) -> str:
        if self.family == "polydisk":
            return f"polydisk^{self.params[0]}"
        if self.params:
            return f"{self.family}({','.join(map(str, self.params))})"
        return self.family

    def null_dim(self, k: int) -> int:
        if not 1 <= k <= self.rank:
            raise ParameterError(f"k={k} outside 1..rank={self.rank}")
        return self.null_dims[k - 1]


def _spec_type_i(p: int, q: int) -> DomainSpec:
    if not (1 <= p <= q):
        raise ParameterError(f"type I needs 1 <= p <= q, got ({p}, {q})")
    null = tuple((p - k) * (q - k) for k in range(1, p + 1))
    sos_odd = sum(comb(p, k) * comb(q, k) for k in range(1, p + 1, 2))
    sos_even = sum(comb(p, k) * comb(q, k) for k in range(2, p + 1, 2))
    return DomainSpec(
        family="I", params=(p, q), dim=p * q, rank=p,
        vmrt_dim=p + q - 2, null_dims=null,
        min_embedding_dim=comb(p + q, p) - 1, embedding_provenance="derived",
        sos_odd=sos_odd, sos_even=sos_even, tube=(p == q),
    )


def _spec_type_ii(m: int) -> DomainSpec:
    if m < 4:
        raise ParameterError(f"type II needs m >= 4, got {m}")
    rank = m // 2
    null = tuple(max((m - 2 * k) * (m - 2 * k - 1) // 2, 0)
                 for k in range(1, rank + 1))
    return DomainSpec(
        family="II", params=(m,), dim=m * (m - 1) // 2, rank=rank,
        vmrt_dim=2 * m - 4, null_dims=null,
        min_embedding_dim=2 ** (m - 1) - 1, embedding_provenance="derived",
        sos_odd=None, sos_even=None, tube=(m % 2 == 0),
    )


def _spec_type_iii(m: int) -> DomainSpec:
    if m < 1:
        raise ParameterError(f"type III needs m >= 1, got {m}")
    null = tuple((m - k) * (m - k + 1) // 2 for k in range(1, m + 1))
    return DomainSpec(
        family="III", params=(m,), dim=m * (m + 1) // 2, rank=m,
        vmrt_dim=m - 1, null_dims=null,
        min_embedding_dim=comb(2 * m, m) - (comb(2 * m, m - 2) if m >= 2 else 0) - 1,
        embedding_provenance="external",
        sos_odd=None, sos_even=None, tube=True,
    )


def _spec_type_iv(n: int) -> DomainSpec:
    if n < 3:
        raise ParameterError(f"type IV needs n >= 3, got {n}")
    return DomainSpec(
        family="IV", params=(n,), dim=n, rank=2,
        vmrt_dim=n - 2, null_dims=(1, 0),
        min_embedding_dim=n + 1, embedding_provenance="derived",
        sos_odd=n, sos_even=1, tube=True,
    )


def _spec_type_v() -> DomainSpec:
    return DomainSpec(
        family="V", params=(), dim=16, rank=2,
        vmrt_dim=10, null_dims=(5, 0),
        min_embedding_dim=26, embedding_provenance="derived",
        sos_odd=None, sos_even=None, tube=False,
    )


def _spec_type_vi() -> DomainSpec:
    return DomainSpec(
        family="VI", params=(), dim=27, rank=3,
        vmrt_dim=16, null_dims=(10, 1, 0),
        min_embedding_dim=55, embedding_provenance="external",
        sos_odd=None, sos_even=None, tube=True,
    )


def _spec_polydisk(p: int) -> DomainSpec:
    if p < 1:
        raise ParameterError(f"polydisk needs p >= 1, got {p}")
    return DomainSpec(
        family="polydisk", params=(p,), dim=p, rank=p,
        vmrt_dim=0, null_dims=tuple(p - k for k in range(1, p + 1)),
        min_embedding_dim=2 ** p - 1, embedding_provenance="derived",
        sos_odd=2 ** (p - 1), sos_even=2 ** (p - 1) - 1, tube=True,
    )


# family -> (builder, the names of its parameters in the builder's order)
FAMILIES = {
    "I": (_spec_type_i, ("p", "q")),
    "II": (_spec_type_ii, ("m",)),
    "III": (_spec_type_iii, ("m",)),
    "IV": (_spec_type_iv, ("n",)),
    "V": (_spec_type_v, ()),
    "VI": (_spec_type_vi, ()),
    "polydisk": (_spec_polydisk, ("p",)),
}


def make_spec(family: str, **params) -> DomainSpec:
    """Build the invariant record for one domain.

    Examples: ``make_spec("I", p=2, q=3)``, ``make_spec("IV", n=5)``,
    ``make_spec("polydisk", p=3)``, ``make_spec("V")``.
    """
    fam = family.strip()
    fam_key = fam.upper() if fam.lower() != "polydisk" else "polydisk"
    if fam_key not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    builder, names = FAMILIES[fam_key]
    try:
        spec = builder(*[int(params.pop(name)) for name in names])
    except KeyError as exc:
        raise ParameterError(f"family {fam!r} missing parameter {exc}") from None
    if params:
        raise ParameterError(
            f"family {fam!r} got unexpected parameters {sorted(params)}")
    return spec


# -- derived invariants ------------------------------------------------------

def null_threshold(spec: DomainSpec) -> int:
    """Smallest k in 1..rank with null_dims[k] <= vmrt_dim (brute force).

    Always exists: the top null dimension is 0.
    """
    for k in range(1, spec.rank + 1):
        if spec.null_dims[k - 1] <= spec.vmrt_dim:
            return k
    raise AssertionError("null dimension table must end at 0")


def _ceil_shift_sqrt(a: int, b: int, c: int, upper: int) -> int:
    # smallest integer lam >= (a - sqrt(b)) / c, scanned with integer tests:
    # c*lam >= a - sqrt(b)  <=>  a - c*lam <= 0 or (a - c*lam)^2 <= b.
    for lam in range(1, upper + 1):
        rest = a - c * lam
        if rest <= 0 or rest * rest <= b:
            return lam
    raise AssertionError("threshold exceeded the rank bound")


def closed_form_null_threshold(spec: DomainSpec) -> Optional[int]:
    """Closed-form threshold for the three families where the null dimension
    exceeds the VMRT fiber dimension; None when the closed form does not apply
    (there the threshold is 1).

    All arithmetic is integer-exact.
    """
    if spec.family == "I":
        p, q = spec.params
        if 3 <= p <= q and (p, q) != (3, 3):
            return _ceil_shift_sqrt(p + q, (q - p) ** 2 + 4 * (p + q - 2), 2,
                                    spec.rank)
        return None
    if spec.family == "II":
        (m,) = spec.params
        if m >= 8:
            return _ceil_shift_sqrt(2 * m - 1, 16 * m - 31, 4, spec.rank)
        return None
    if spec.family == "III":
        (m,) = spec.params
        if m >= 3:
            return _ceil_shift_sqrt(2 * m + 1, 8 * m - 7, 2, spec.rank)
        return None
    return None


def null_le_vmrt(spec: DomainSpec) -> bool:
    """Whether the first null dimension is bounded by the VMRT fiber dimension."""
    return spec.null_dims[0] <= spec.vmrt_dim


def rank2_codim_inequality(spec: DomainSpec) -> bool:
    """Whether 2*dim > min_embedding_dim + 1 (the gate for the rank-2
    co-isometry construction)."""
    if spec.rank != 2:
        raise ParameterError(f"{spec.label} has rank {spec.rank}, need rank 2")
    return 2 * spec.dim > spec.min_embedding_dim + 1


def dim_upper_bound(spec: DomainSpec, k: int) -> int:
    """Upper bound for the source ball dimension of an isometry with
    isometric constant k: vmrt_dim + 1 at k = 1, the (k-1)-st null dimension
    for k >= 2."""
    if not 1 <= k <= spec.rank:
        raise ParameterError(f"isometric constant {k} outside 1..{spec.rank}")
    if k == 1:
        return spec.vmrt_dim + 1
    return spec.null_dims[k - 2]


def vmrt_certificate(spec: DomainSpec, k: int) -> bool:
    """Whether the k >= 2 bound is certified to be <= vmrt_dim: either the
    first null dimension already is, or k exceeds the null threshold."""
    if not 2 <= k <= spec.rank:
        return False
    return null_le_vmrt(spec) or k >= null_threshold(spec) + 1


def char_bundle_dims(spec: DomainSpec, k: int) -> Tuple[int, int]:
    """(fiber, total) dimensions of the k-th characteristic bundle:
    fiber = dim - null_dims[k] - 1, total = 2*dim - null_dims[k] - 1."""
    nk = spec.null_dim(k)
    return spec.dim - nk - 1, 2 * spec.dim - nk - 1


def sos_counts(spec: DomainSpec) -> Tuple[int, int]:
    """(odd, even) signed-square counts of the kernel expansion."""
    if spec.sos_odd is None or spec.sos_even is None:
        raise ParameterError(
            f"no signed-square expansion in the catalog for {spec.label}")
    return spec.sos_odd, spec.sos_even
