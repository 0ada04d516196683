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

    K(X, mu, nu) = (1/2pi) e^{iX} e^{-i (mu q + nu p)}
                 = (1/2pi) e^{iX} e^{-i mu nu / 2} e^{-i nu p} e^{-i mu q},

with a Gaussian regularizer damping large (mu, nu). The scalar phase
e^{-i mu nu / 2} is fixed by the operator identity splitting
e^{-i(mu q + nu p)} with [q, p] = i; with it the regularized vacuum
fidelity equals delta^2 / (delta^2 + 1) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cv_tomo import FockSpace, PAD, lowering, wigner_points
from .frame_core import RegularizerSpec
from .opalg import DensityMatrix, Operator, closest_density, fidelity


@dataclass(frozen=True)
class MarginalGrid:
    """Quadrature grid for the (X, mu, nu) reconstruction integral.

    X on [-X_max, X_max] and (mu, nu) each on [-L, L], all Gauss-Legendre,
    with a Gaussian regularizer of width delta on the (mu, nu) radius.
    """

    X_max: float
    n_X: int
    L: float
    n_mn: int
    regularizer: RegularizerSpec

    def __post_init__(self):
        if self.X_max <= 0 or self.L <= 0 or self.n_X < 2 or self.n_mn < 2:
            raise ValueError("grid extents and node counts must be positive")

    @property
    def X_quadrature(self):
        x, w = np.polynomial.legendre.leggauss(self.n_X)
        return x * self.X_max, w * self.X_max

    @property
    def mn_quadrature(self):
        x, w = np.polynomial.legendre.leggauss(self.n_mn)
        return x * self.L, w * self.L


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
    s = math.hypot(mu, nu)
    if s < 1e-14:
        raise ValueError("(mu, nu) = (0, 0) is a degenerate direction")
    phases = np.exp(-1j * math.atan2(nu, mu) * np.arange(1 - rho.dim, rho.dim))
    return (phases @ _diagonal_sums(rho, np.asarray(X_nodes, dtype=float) / s)).real / s


def _quadrature_factors(d_pad: int):
    a = lowering(d_pad)
    q = (a + a.conj().T) / math.sqrt(2)
    p = (a - a.conj().T) / (1j * math.sqrt(2))
    wq, vq = np.linalg.eigh(q)
    wp, vp = np.linalg.eigh(p)
    return (wq, vq), (wp, vp)


def _exp_stack(factor, ts) -> np.ndarray:
    """e^{-i t X} = v diag(e^{-i t w}) v^dag for every t, with factor = (w, v) of X."""
    w, v = factor
    return (v * np.exp(-1j * np.multiply.outer(ts, w))[:, None, :]) @ v.conj().T


def kernel_K(f: FockSpace, X: float, mu: float, nu: float) -> Operator:
    """Kernel operator (1/2pi) e^{iX} e^{-i mu nu / 2} e^{-i nu p} e^{-i mu q}."""
    qf, pf = _quadrature_factors(f.d + PAD)
    eq, ep = _exp_stack(qf, [mu])[0], _exp_stack(pf, [nu])[0]
    mat = (np.exp(1j * X - 0.5j * mu * nu) / (2 * math.pi)) * (ep @ eq)
    return Operator(mat[: f.d, : f.d])


def _reconstructions(rho: DensityMatrix, grid: MarginalGrid, f: FockSpace, regularizers):
    """One reconstruction per regularizer, sharing the coefficients and the kernel factors.

    In the scaled variable X = s y the direction (mu_i, nu_j) has coefficient
    c = sum_k e^{-i gamma k} sum_y w_y e^{i s y} D_k(y): one product over
    every distinct s. The s = 0 node keeps the exact value Tr(rho). The kernel sum
    over directions is factored as sum_j ep_j (sum_i coef_ij reg(s_ij) eq_i)
    on the low d x d block.
    """
    d, (y, yw), (mus, mws) = rho.dim, grid.X_quadrature, grid.mn_quadrature
    mu, nu = np.meshgrid(mus, mus, indexing="ij")
    s2 = mu * mu + nu * nu
    # ~n_mn^2 / 8 distinct s (symmetric nodes); einsum: OpenBLAS threads this thin product
    s_values, s_index = np.unique(np.hypot(mu, nu), return_inverse=True)
    e_isy = yw[:, None] * np.exp(1j * np.multiply.outer(y, s_values))
    h = np.einsum("ky,ys->ks", _diagonal_sums(rho, y), e_isy)[:, s_index.ravel()]
    phases = np.exp(-1j * np.multiply.outer(np.arange(1 - d, d), np.arctan2(nu, mu).ravel()))
    c = np.sum(phases * h, axis=0).reshape(s2.shape)
    c[s2 < 1e-14] = np.trace(rho.op.entries)
    coef = np.outer(mws, mws) * c * np.exp(-0.5j * mu * nu) / (2 * math.pi)
    n, dp = len(mus), f.d + PAD
    qf, pf = _quadrature_factors(dp)
    eq = _exp_stack(qf, mus)[:, :, : f.d].reshape(n, dp * f.d)
    ep = _exp_stack(pf, mus)[:, : f.d].transpose(1, 0, 2).reshape(f.d, n * dp)
    regs = [coef * reg(np.sqrt(s2)) for reg in regularizers]
    return [Operator(ep @ (r.T @ eq).reshape(n * dp, f.d)) for r in regs]


def reconstruct_symplectic(rho: DensityMatrix, grid: MarginalGrid, f: FockSpace) -> Operator:
    """Regularized inversion of the marginals back to an operator.

    The X integral against e^{iX} is folded analytically into a scalar per
    (mu, nu) node; the remaining double quadrature applies the kernel with
    the Gaussian damping of the grid's regularizer.
    """
    return _reconstructions(rho, grid, f, [grid.regularizer])[0]


def delta_ladder(rho: DensityMatrix, f: FockSpace, deltas, L: float = 8.0, n_mn: int = 60):
    """Reconstruction report over a ladder of regularizer widths.

    Returns {"delta_ladder": [...], "fidelity": [...]} where fidelity is
    measured against the input state. Only the regularizer changes with delta.
    """
    grids = [MarginalGrid(6.5, 81, L, n_mn, RegularizerSpec(delta)) for delta in deltas]
    recs = _reconstructions(rho, grids[0], f, [g.regularizer for g in grids]) if grids else []
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
    s = math.hypot(mu, nu)
    tn, tw = np.polynomial.legendre.leggauss(n_t)
    t, tw = tn * 5.0, tw * 5.0
    # (x / s) e + t e_perp for every X node x and every t, with e = (mu, nu) / s
    e, e_perp = np.array([mu, nu]) / s, np.array([-nu, mu]) / s
    points = (x / s)[:, None, None] * e + t[:, None] * e_perp
    w = wigner_points(rho, points[..., 0].ravel(), points[..., 1].ravel()).reshape(len(x), n_t)
    return float(np.max(np.abs(w @ tw / s - marginal(rho, mu, nu, x)), initial=0.0))
