"""Output oracle for the benchmark, independent of ``symdom.kernels``.

A document's jet is evaluated in numpy and checked against the polarized
pullback identity

    h(f(w), conj f(v)) = (1 - <w, v>)^k

with the kernels written in closed form:

* type IV(n): h(z, conj xi) = 1 - 2<u, eta> + (u^T u) conj(eta^T eta) with
  u = z / sqrt2, eta = xi / sqrt2 -- the Lie-ball form 1 - 2|u|^2 + |u^T u|^2
  in the coordinates of the package's expansion 1 - |z|^2 + |z^T z / 2|^2;
* type I(p, q): h(z, conj xi) = det(I - Z Xi^*), Z the p x q matrix of the
  coordinates in row-major order.

The residual is sampled on circles w = r e^(i theta) a, v = r e^(i phi) b
for random unit directions a, b.  It is a polynomial in e^(i theta) and
e^(-i phi), so a 2-D FFT over enough samples returns its bidegree (p, q)
parts exactly.  For a degree-d jet of a true isometry every part with
p, q <= d vanishes, since it only involves jet coefficients up to degree
d; a wrong coefficient of any degree 1..d shows up in one of them.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

SQRT2 = math.sqrt(2.0)
RADIUS = 0.5
DIRECTIONS = 3
TOL = 1e-9


def coeff_value(obj: dict) -> complex:
    """A serialized scalar as a complex number (exact or float encoding)."""
    if "ar" in obj:
        re = float(Fraction(obj["ar"])) + float(Fraction(obj["br"])) * SQRT2
        im = float(Fraction(obj["ai"])) + float(Fraction(obj["bi"])) * SQRT2
        return complex(re, im)
    return complex(obj["re"], obj["im"])


class Jet:
    """A serialized jet as exponent and coefficient arrays per component."""

    def __init__(self, doc: dict):
        self.source_dim = doc["source_dim"]
        self.degree = doc["degree"]
        self.components = []
        for comp in doc["components"]:
            exps = np.array([t["exp"] for t in comp["terms"]], dtype=np.int64)
            exps = exps.reshape(len(comp["terms"]), self.source_dim)
            coeffs = np.array([coeff_value(t["coeff"]) for t in comp["terms"]],
                              dtype=complex)
            self.components.append((exps, coeffs))

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Values at points (S x n) as an S x target_dim array."""
        out = np.zeros((pts.shape[0], len(self.components)), dtype=complex)
        for i, (exps, coeffs) in enumerate(self.components):
            if coeffs.size:
                mono = np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)
                out[:, i] = mono @ coeffs
        return out


def kernel(family: str, params: dict, z: np.ndarray, xi: np.ndarray):
    """Closed-form h(z_j, conj xi_l) for all row pairs (j, l)."""
    if family == "IV":
        u, eta = z / SQRT2, xi / SQRT2
        sq_u = np.sum(u * u, axis=1)
        sq_eta = np.sum(eta * eta, axis=1)
        return 1 - 2 * (u @ eta.conj().T) + np.outer(sq_u, sq_eta.conj())
    if family == "I":
        p, q = params["p"], params["q"]
        zm = z.reshape(-1, 1, p, q)
        xm = xi.reshape(1, -1, p, q)
        prod = zm @ xm.conj().swapaxes(-1, -2)
        return np.linalg.det(np.eye(p) - prod)
    raise ValueError(f"no closed-form kernel for family {family!r}")


def kernel_degree(family: str, params: dict) -> int:
    """Degree of h(z, conj xi) in z."""
    return 2 if family == "IV" else params["p"]


def _unit(g: np.random.Generator, n: int) -> np.ndarray:
    v = g.normal(size=n) + 1j * g.normal(size=n)
    return v / np.linalg.norm(v)


def _circle(direction: np.ndarray, count: int) -> np.ndarray:
    phase = np.exp(2j * np.pi * np.arange(count) / count)
    return RADIUS * phase[:, None] * direction[None, :]


def box_residual(iso_doc: dict, seed: int = 0) -> float:
    """Largest bidegree-(p, q) part, p, q <= d, of the polarized residual,
    per unit radius, over a few random direction pairs."""
    jet = Jet(iso_doc["jet"])
    k = iso_doc["isometric_constant"]
    dom = iso_doc["domain"]
    d = jet.degree
    count = max(kernel_degree(dom["family"], dom["params"]) * d, k) + 1
    g = np.random.default_rng(seed)
    scale = RADIUS ** np.add.outer(np.arange(d + 1), np.arange(d + 1))
    worst = 0.0
    for _ in range(DIRECTIONS):
        w = _circle(_unit(g, jet.source_dim), count)
        v = _circle(_unit(g, jet.source_dim), count)
        lhs = kernel(dom["family"], dom["params"], jet.evaluate(w),
                        jet.evaluate(v))
        res = lhs - (1 - w @ v.conj().T) ** k
        # rows: e^(i p theta); columns: e^(-i q phi)
        parts = np.fft.ifft(np.fft.fft(res, axis=0), axis=1) / count
        box = np.abs(parts[:d + 1, :d + 1]) / scale
        worst = max(worst, float(np.max(box)))
    return worst


def check_isometry(iso_doc: dict, seed: int = 0) -> str:
    """'' when the jet satisfies the identity through its degree, else why."""
    res = box_residual(iso_doc, seed)
    if not res <= TOL:
        return f"oracle residual {res:.3e} exceeds {TOL:.0e}"
    return ""


def composition_gap(ext_doc: dict, input_doc: dict, seed: int = 0) -> float:
    """Largest degree-p part, p <= d, of F(rho(w)) - f(w) per unit radius."""
    big = Jet(ext_doc["extended"]["jet"])
    rho = Jet(ext_doc["slice"])
    small = Jet(input_doc["jet"])
    d = small.degree
    count = d + 1
    g = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(DIRECTIONS):
        w = _circle(_unit(g, small.source_dim), count)
        gap = big.evaluate(rho.evaluate(w)) - small.evaluate(w)
        parts = np.fft.fft(gap, axis=0) / count
        scale = RADIUS ** np.arange(d + 1)
        worst = max(worst, float(np.max(np.abs(parts) / scale[:, None])))
    return worst


def check_extension(ext_doc: dict, input_doc: dict, seed: int = 0) -> str:
    """The extended jet F must be an isometry and F o rho = f through
    degree d."""
    why = check_isometry(ext_doc["extended"], seed)
    if why:
        return "extended jet: " + why
    gap = composition_gap(ext_doc, input_doc, seed)
    if not gap <= TOL:
        return f"F o rho differs from f by {gap:.3e} (tol {TOL:.0e})"
    return ""


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def exact_part(command: str, doc: dict):
    """The exact jet content of an output document, or None if it has none.

    Only field arithmetic is pinned by golden digests; float documents and
    the float residuals inside reports may change in the last digits with
    the numpy build.
    """
    if command == "construct" and doc["jet"]["mode"] == "exact":
        return {k: doc[k] for k in ("domain", "isometric_constant", "jet")}
    if command == "extend" and doc["mode"] == "exact":
        ext = doc["extended"]
        return {"extended": {k: ext[k] for k in
                             ("domain", "isometric_constant", "jet")},
                "slice": doc["slice"]}
    return None
