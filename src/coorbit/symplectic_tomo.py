"""Symplectic (rotated-and-scaled quadrature) tomography.

The marginal w(X, mu, nu) is the probability density of the observable
mu q + nu p. It is evaluated in closed form through the Hermite-function
expansion of the state — writing mu q + nu p = s X_gamma with
s = sqrt(mu^2 + nu^2) and gamma = atan2(nu, mu), the density is

    w(X) = (1/s) sum_{mn} rho_mn e^{-i gamma (m - n)} psi_m(X/s) psi_n(X/s)

with psi_n the orthonormal Hermite functions. This is exact at truncation
(nonnegative, unit mass), which a kernel-density binning of the spectrum
cannot achieve at the tolerances used here.

Reconstruction inverts the marginals through the kernel operator

    K(X, mu, nu) = (1/2pi) e^{iX} e^{-i (mu q + nu p)} = (1/2pi) e^{iX} D(alpha),
    alpha = (nu - i mu) / sqrt 2

(Mancini, Man'ko & Tombesi, Phys. Lett. A 213, 1 (1996)), so the kernel
family is the homodyne displacement family and the measure dmu dnu / 2pi is
d^2 alpha / pi. The X integral of w against e^{iX} is the characteristic
function chi(mu, nu) = Tr(rho e^{i (mu q + nu p)}), taken by Gauss-Legendre
quadrature of the closed-form marginals at every node of a polar grid in
alpha: radius L / sqrt 2 (so s = sqrt(2) |alpha| <= L), n_mn radial nodes
and 2d angles, which keep every charge difference up to +-(d - 1) apart.
The samples chi R_delta(s), damped by a Gaussian regularizer, are resummed
by ``frame_core.synthesize`` over ``cv_tomo.homodyne_system``. A ladder of
widths delta shares one system and one chi; only the scaling changes. The
regularized vacuum fidelity is delta^2 / (delta^2 + 1) up to the disc and
Fock truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cv_tomo import FockSpace, PolarGrid, homodyne_system, wigner_points
from .frame_core import RegularizerSpec, SampleVector, gauss_legendre, synthesize
from .opalg import DensityMatrix, Operator, closest_density, fidelity


@dataclass(frozen=True)
class MarginalGrid:
    """Quadrature grid for the (X, mu, nu) reconstruction integral.

    X = s y with y on [-X_max, X_max] (n_X Gauss-Legendre nodes), and (mu, nu)
    on the disc s <= L: n_mn Gauss-Legendre radial nodes times 2d uniform
    angles for Fock dimension d. A Gaussian regularizer of width delta damps
    large s.
    """

    X_max: float
    n_X: int
    L: float
    n_mn: int
    regularizer: RegularizerSpec

    def __post_init__(self):
        extents = 0 < self.X_max < math.inf and 0 < self.L < math.inf
        if not extents or self.n_X < 2 or self.n_mn < 2:
            raise ValueError("grid extents and node counts must be positive")

    @property
    def X_quadrature(self):
        x, w = gauss_legendre(self.n_X)
        return x * self.X_max, w * self.X_max


def hermite_functions(n_max: int, y: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions psi_0..psi_{n_max-1} on the given nodes.

    Convention [q, p] = i, so psi_0 is the vacuum with position variance 1/2.
    """
    out = np.zeros((n_max, len(y)))
    out[0] = math.pi**-0.25 * np.exp(-(y**2) / 2)
    if n_max > 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for n in range(1, n_max - 1):
        out[n + 1] = (math.sqrt(2.0) * y * out[n] - math.sqrt(n) * out[n - 1]) / math.sqrt(n + 1)
    return out


def _diagonal_sums(rho: DensityMatrix, y: np.ndarray) -> np.ndarray:
    """D_k(y), the sum of rho_mn psi_m(y) psi_n(y) over m - n = k, in rows k = 1 - d .. d - 1.

    The density of (mu q + nu p) / s at y is sum_k e^{-i gamma k} D_k(y) with
    s = hypot(mu, nu) and gamma = atan2(nu, mu).
    """
    psi = hermite_functions(rho.dim, y)
    terms = rho.op.entries[:, :, None] * psi[:, None] * psi[None]
    return np.array([np.trace(terms, k) for k in range(rho.dim - 1, -rho.dim, -1)])


def marginal(rho: DensityMatrix, mu: float, nu: float, X_nodes: np.ndarray) -> np.ndarray:
    """Probability density of mu q + nu p at the given X nodes."""
    if not (math.isfinite(mu) and math.isfinite(nu)):
        raise ValueError(f"(mu, nu) = ({mu}, {nu}) must be finite")
    s = math.hypot(mu, nu)
    if s < 1e-14:
        raise ValueError("(mu, nu) = (0, 0) is a degenerate direction")
    phases = np.exp(-1j * math.atan2(nu, mu) * np.arange(1 - rho.dim, rho.dim))
    return (phases @ _diagonal_sums(rho, np.asarray(X_nodes, dtype=float) / s)).real / s


def _characteristic(rho: DensityMatrix, grid: MarginalGrid, f: FockSpace):
    """The grid's homodyne system, chi at each of its nodes from the marginals, and s there.

    Node (r, phi) is alpha = r e^{i phi}: s = sqrt(2) r and gamma = atan2(nu, mu) = phi + pi/2.
    With h(s, k) = sum_y w_y e^{i s y} D_k(y) in X = s y, one product per radial node, chi =
    sum_k e^{-i gamma k} h(s, k) is the DFT of h(s, k) (-i)^k over k mod 2d on the 2d angles.
    """
    d = rho.dim
    if f.d != d:
        raise ValueError(f"state dimension {d} does not match the Fock truncation {f.d}")
    polar = PolarGrid(grid.L / math.sqrt(2), grid.n_mn, 2 * d)
    sys, (y, yw) = homodyne_system(f, polar), grid.X_quadrature
    s = math.sqrt(2) * polar.radial[0]
    # einsum, not BLAS: OpenBLAS threads these thin products
    e_isy = yw[:, None] * np.exp(1j * np.multiply.outer(y, s))
    h = np.einsum("ky,ys->sk", _diagonal_sums(rho, y), e_isy)
    k = np.arange(1 - d, d)
    g = np.zeros((len(s), 2 * d), dtype=complex)
    g[:, k % (2 * d)] = h * np.array([1, -1j, -1, 1j])[k % 4]  # (-i)^k
    return sys, np.fft.fft(g).ravel(), np.repeat(s, 2 * d)


def _ladder(rho: DensityMatrix, grid: MarginalGrid, f: FockSpace, regularizers) -> list:
    """One reconstruction per regularizer, from one system and one chi scaled by each R(s)."""
    sys, chi, s = _characteristic(rho, grid, f)
    return [synthesize(sys, SampleVector(chi * reg(s), sys.grid.grid_id)) for reg in regularizers]


def reconstruct_symplectic(rho: DensityMatrix, grid: MarginalGrid, f: FockSpace) -> Operator:
    """Regularized inversion of the marginals back to an operator.

    The X integral against e^{iX} gives chi at each polar node, and the
    engine resums chi R_delta(s) over the displacement family.
    """
    return _ladder(rho, grid, f, [grid.regularizer])[0]


def delta_ladder(rho: DensityMatrix, f: FockSpace, deltas, L: float = 8.0, n_mn: int = 60):
    """Reconstruction report over a ladder of regularizer widths.

    Returns {"delta_ladder": [...], "fidelity": [...]} where fidelity is
    measured against the input state. Only the regularizer changes with delta.
    """
    grids = [MarginalGrid(6.5, 81, L, n_mn, RegularizerSpec(delta)) for delta in deltas]
    recs = _ladder(rho, grids[0], f, [g.regularizer for g in grids]) if grids else []
    fids = [fidelity(rho, closest_density(rec)) for rec in recs]
    return {"delta_ladder": [float(d) for d in deltas], "fidelity": fids}


def marginal_wigner_consistency(
    rho: DensityMatrix,
    f: FockSpace,
    mu: float = 1.0,
    nu: float = 0.0,
    X_nodes=None,
    n_t: int = 120,
) -> float:
    """Cross-check the marginal against a line integral of the Wigner density.

    w(X, mu, nu) = (1/s) * integral over |t| <= 5 of W((X/s) e + t e_perp) with
    e the unit vector along (mu, nu). Returns the max abs deviation over X_nodes.
    """
    if X_nodes is None:
        X_nodes = np.linspace(-3, 3, 13)
    x = np.asarray(X_nodes, dtype=float)
    direct = marginal(rho, mu, nu, x)  # rejects the degenerate direction before s divides
    s = math.hypot(mu, nu)
    tn, tw = gauss_legendre(n_t)
    t, tw = tn * 5.0, tw * 5.0
    # (x / s) e + t e_perp for every X node x and every t, with e = (mu, nu) / s
    e, e_perp = np.array([mu, nu]) / s, np.array([-nu, mu]) / s
    points = (x / s)[:, None, None] * e + t[:, None] * e_perp
    w = wigner_points(rho, points[..., 0].ravel(), points[..., 1].ravel()).reshape(len(x), n_t)
    return float(np.max(np.abs(w @ tw / s - direct), initial=0.0))
