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

from .cv_tomo import FockSpace, PAD, lowering, wigner_point
from .frame_core import RegularizerSpec
from .opalg import DensityMatrix, Operator


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
        out[n + 1] = (math.sqrt(2.0) * y * out[n] - math.sqrt(n) * out[n - 1]) / math.sqrt(
            n + 1
        )
    return out


def _scaled_density(rho: DensityMatrix, mu: float, nu: float, y: np.ndarray) -> np.ndarray:
    """Density of y = (mu q + nu p) / s at the nodes y, with s = hypot(mu, nu)."""
    gamma = math.atan2(nu, mu)
    psi = hermite_functions(rho.dim, y)
    phases = np.exp(1j * gamma * np.arange(rho.dim))
    amp = phases[:, None] * psi
    return np.einsum("my,mn,ny->y", amp.conj(), rho.op.entries, amp).real


def marginal(rho: DensityMatrix, mu: float, nu: float, X_nodes: np.ndarray) -> np.ndarray:
    """Probability density of mu q + nu p at the given X nodes."""
    s = math.hypot(mu, nu)
    if s < 1e-14:
        raise ValueError("(mu, nu) = (0, 0) is a degenerate direction")
    return _scaled_density(rho, mu, nu, np.asarray(X_nodes, dtype=float) / s) / s


def _quadrature_factors(d_pad: int):
    a = lowering(d_pad)
    q = (a + a.conj().T) / math.sqrt(2)
    p = (a - a.conj().T) / (1j * math.sqrt(2))
    wq, vq = np.linalg.eigh(q)
    wp, vp = np.linalg.eigh(p)
    return (wq, vq), (wp, vp)


def kernel_K(f: FockSpace, X: float, mu: float, nu: float) -> Operator:
    """Kernel operator (1/2pi) e^{iX} e^{-i mu nu / 2} e^{-i nu p} e^{-i mu q}."""
    dp = f.d + PAD
    (wq, vq), (wp, vp) = _quadrature_factors(dp)
    eq = (vq * np.exp(-1j * mu * wq)) @ vq.conj().T
    ep = (vp * np.exp(-1j * nu * wp)) @ vp.conj().T
    mat = (np.exp(1j * X - 0.5j * mu * nu) / (2 * math.pi)) * (ep @ eq)
    return Operator(mat[: f.d, : f.d])


def reconstruct_symplectic(rho: DensityMatrix, grid: MarginalGrid, f: FockSpace) -> Operator:
    """Regularized inversion of the marginals back to an operator.

    The X integral against e^{iX} is folded analytically into a scalar per
    (mu, nu) node; the remaining double quadrature applies the kernel with
    the Gaussian damping of the grid's regularizer.
    """
    dp = f.d + PAD
    (wq, vq), (wp, vp) = _quadrature_factors(dp)
    # The X quadrature is applied in the scaled variable y = X / s for each
    # direction (exact change of variables), so one grid covers the support
    # of every rescaled marginal.
    y, yw = grid.X_quadrature
    mus, mws = grid.mn_quadrature
    eq_cache = [(vq * np.exp(-1j * mu * wq)) @ vq.conj().T for mu in mus]
    ep_cache = [(vp * np.exp(-1j * nu * wp)) @ vp.conj().T for nu in mus]
    acc = np.zeros((dp, dp), dtype=complex)
    for i, (mu, wm) in enumerate(zip(mus, mws)):
        for j, (nu, wn) in enumerate(zip(mus, mws)):
            s2 = mu * mu + nu * nu
            if s2 < 1e-14:
                c = complex(np.trace(rho.op.entries))
            else:
                # integral of w(X) e^{iX} dX in the scaled variable X = s y
                dens = _scaled_density(rho, mu, nu, y)
                c = complex(np.sum(yw * dens * np.exp(1j * math.hypot(mu, nu) * y)))
            reg = grid.regularizer(math.sqrt(s2))
            phase = np.exp(-0.5j * mu * nu) / (2 * math.pi)
            acc += (wm * wn * reg * c * phase) * (ep_cache[j] @ eq_cache[i])
    return Operator(acc[: f.d, : f.d])


def delta_ladder(rho: DensityMatrix, f: FockSpace, deltas, L: float = 8.0, n_mn: int = 60):
    """Reconstruction report over a ladder of regularizer widths.

    Returns {"delta_ladder": [...], "fidelity": [...]} where fidelity is
    measured against the input state.
    """
    from .opalg import closest_density, fidelity

    fids = []
    for delta in deltas:
        grid = MarginalGrid(6.5, 81, L, n_mn, RegularizerSpec(delta))
        rec = reconstruct_symplectic(rho, grid, f)
        fids.append(fidelity(rho, closest_density(rec)))
    return {"delta_ladder": [float(d) for d in deltas], "fidelity": fids}


def marginal_wigner_consistency(
    rho: DensityMatrix,
    f: FockSpace,
    mu: float = 1.0,
    nu: float = 0.0,
    X_nodes=None,
    t_max: float = 5.0,
    n_t: int = 120,
) -> float:
    """Cross-check the marginal against a line integral of the Wigner density.

    w(X, mu, nu) = (1/s) * integral over t of W((X/s) e + t e_perp) with e the
    unit vector along (mu, nu). Returns the max abs deviation over X_nodes.
    """
    if X_nodes is None:
        X_nodes = np.linspace(-3, 3, 13)
    s = math.hypot(mu, nu)
    e = (mu / s, nu / s)
    e_perp = (-nu / s, mu / s)
    tn, tw = np.polynomial.legendre.leggauss(n_t)
    t = tn * t_max
    tw = tw * t_max
    direct = marginal(rho, mu, nu, np.asarray(X_nodes))
    worst = 0.0
    for x, w_direct in zip(X_nodes, direct):
        line = sum(
            wt * wigner_point(rho, x / s * e[0] + ti * e_perp[0], x / s * e[1] + ti * e_perp[1])
            for ti, wt in zip(t, tw)
        )
        worst = max(worst, abs(line / s - w_direct))
    return worst
