"""Hyperbolic-ladder (SU(1,1)-type) tomography in the discrete series.

Generators at Bargmann index k act on levels |r>, r = 0, 1, ... via
K+|r> = sqrt((r+1)(r+2k))|r+1>, Kz|r> = (r+k)|r>. The analysis family B is
an anticommutator of a hyperbolic group element with Kz; the synthesis
family pi is the hyperbolically rotated Kz. Both are evaluated through
closed forms that are exact entrywise at truncation:

* the group exponential E = exp(xi K+ - conj(xi) K-) via the disentangled
  triangular product e^{zeta K+} sech(theta)^{2 Kz} e^{-conj(zeta) K-} with
  zeta = tanh(theta) e^{i(phi+pi)}, using 1 - |zeta|^2 = sech(theta)^2;
* pi(theta, phi) = cosh(theta) Kz
  + (i/2) sinh(theta) (-e^{i phi} K+ + e^{-i phi} K-).

Both families carry the charges +r: with U_phi = diag(e^{i phi r}),
B(theta, phi) = U_phi B(theta, 0) U_phi^dag and
pi(theta, phi) = U_phi pi(theta, 0) U_phi^dag, so both sit on the same orbit
point and the round trip is covariant, rec(U rho U^dag) = U rec(rho) U^dag
for U = diag(e^{i a r}). One phase is measured and not fixed: a real
rho[1, 0] = 0.02 comes back as rec[1, 0] = -0.01985i (cutoff 10, theta_max 6,
80 x 16 nodes; the same with pi at charges -r). The -i sits between the
(i/2) sinh(theta) term of pi and the (-1)^m sign of B.

The measure is (1/(4 pi)) dphi tanh(theta) dtheta with a configurable
theta_max; biorthogonality and probe admissibility are checked by
quadrature with convergence ladders in theta_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frame_core import IndexGrid, SliceFamily, TomographicSystem, roundtrip
from .frame_core import gauss_legendre, singular_admissibility, slice_major_grid
from .opalg import Operator

INTERIOR_MARGIN = 2  # top levels excluded from algebra assertions


@dataclass(frozen=True)
class DiscreteSeriesRep:
    """Discrete-series representation data: Bargmann index k and truncation."""

    k: float
    cutoff: int

    def __post_init__(self):
        if not 0 < self.k < math.inf:
            raise ValueError("Bargmann index must be positive")
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")


def _kplus(k: float, d: int) -> np.ndarray:
    r = np.arange(d - 1)
    return np.diag(np.sqrt((r + 1) * (r + 2 * k)), -1)


def generators(rep: DiscreteSeriesRep):
    """(K+, K-, Kz) as Operators; K- = K+^dag, Kz diagonal r + k."""
    kp = _kplus(rep.k, rep.cutoff)
    kz = np.diag(np.arange(rep.cutoff) + rep.k)
    return Operator(kp), Operator(kp.T), Operator(kz)


def _slices(rep: DiscreteSeriesRep, theta):
    """E, B and pi at phi = 0 for every theta, as (len(theta), d, d) stacks.

    E = L(-t) diag(sech(theta)^(2(r + k))) L(t)^T with t = tanh(theta) and
    L(x) = exp(x K+). K+ is nilpotent with a single subdiagonal, so
    L(x)[a, b] = x^(a - b) exp(K+)[a, b] exactly, and exp(K+) is its finite
    power series. sech^2 replaces 1 - tanh^2, which cancels at large theta.
    """
    d, kp = rep.cutoff, _kplus(rep.k, rep.cutoff)
    exp_kp = term = np.eye(d)
    for j in range(1, d):
        term = term @ kp / j
        exp_kp = exp_kp + term
    theta = np.asarray(theta, dtype=float)[:, None, None]
    m = np.arange(d)
    lower, t = np.maximum(np.subtract.outer(m, m), 0), np.tanh(theta)
    mid = np.cosh(theta) ** (-2 * (m + rep.k))
    # d powers per node, gathered by a - b: the same doubles as t ** lower
    neg, pos = ((-t) ** m)[:, 0][:, lower], (t**m)[:, 0][:, lower]
    e = (neg * exp_kp * mid) @ np.swapaxes(pos * exp_kp, 1, 2)
    b = (m[:, None] + m + 2 * rep.k) * ((-1.0) ** m)[:, None] * e
    return e, b, np.cosh(theta) * np.diag(m + rep.k) + 0.5j * np.sinh(theta) * (kp.T - kp)


def group_element(rep: DiscreteSeriesRep, theta: float, phi: float) -> Operator:
    """E = exp(theta (e^{-i phi} K- - e^{i phi} K+)), exact at truncation.

    Disentangled as a lower-triangular x diagonal x upper-triangular
    product, so every retained matrix element involves only retained levels;
    phi enters as the conjugation by diag(e^{i phi r}).
    """
    r = np.arange(rep.cutoff)
    return Operator(np.exp(1j * phi * np.subtract.outer(r, r)) * _slices(rep, [theta])[0][0])


@dataclass(frozen=True)
class SUGrid:
    """Quadrature for the measure (1/(4 pi)) dphi tanh(theta) dtheta.

    Gauss-Legendre theta nodes on [0, theta_max], uniform phi nodes; the
    tanh factor and measure prefactor are folded into the weights.
    """

    theta_max: float
    n_theta: int
    n_phi: int

    def __post_init__(self):
        if not 0 < self.theta_max < math.inf or self.n_theta < 1 or self.n_phi < 1:
            raise ValueError("need theta_max > 0 and positive node counts")

    def to_index_grid(self) -> IndexGrid:
        tn, tw = gauss_legendre(self.n_theta)
        theta = (tn + 1) * self.theta_max / 2
        weights = tw * self.theta_max / 2 * np.tanh(theta) * (2 * math.pi / self.n_phi)
        return slice_major_grid(theta, weights / (4 * math.pi), self.n_phi)


def su11_system(rep: DiscreteSeriesRep, grid: SUGrid) -> TomographicSystem:
    """System with analysis = B and synthesis = pi, both with charges +r."""
    if rep.cutoff < 6:
        raise ValueError("need cutoff >= 6")
    return _slice_system(rep, grid)


# one system: with n_phi 8, a tomo-run's thermal grid is the last grid of an ascending ladder
@lru_cache(maxsize=1)
def _slice_system(rep: DiscreteSeriesRep, grid: SUGrid) -> TomographicSystem:
    index_grid = grid.to_index_grid()
    theta = index_grid.nodes[:: grid.n_phi, 0]
    _, b, pi = _slices(rep, theta)
    return TomographicSystem(
        grid=index_grid,
        analysis_family=SliceFamily(b.astype(complex), np.arange(rep.cutoff)),
        synthesis_family=SliceFamily(pi, np.arange(rep.cutoff)),
        vacuum=Operator(np.eye(rep.cutoff)),
        test_functional=Operator(np.eye(rep.cutoff)),
    )


def _pairing(sys: TomographicSystem, indices) -> complex:
    """Quadrature of the pairing sum_x w_x <m|B^dag(x)|n> <l|pi(x)|q>.

    Entry (l, q) of the engine round trip of |m><n|. It converges to
    delta_{mq} delta_{nl}-type values as theta_max grows; indices near the
    truncation boundary are unreliable (top INTERIOR_MARGIN levels).
    """
    m, n, l, q = indices
    if max(indices) >= sys.dim - INTERIOR_MARGIN:
        raise ValueError("indices must sit at least two levels below the cutoff")
    unit = np.zeros((sys.dim, sys.dim))
    unit[m, n] = 1
    return complex(roundtrip(sys, Operator(unit))[0].entries[l, q])


def biorthogonality_ladder(
    rep: DiscreteSeriesRep, theta_maxes, n_theta: int = 80, n_phi: int = 16
):
    """Diagonal/off-diagonal biorthogonality values over a theta_max ladder.

    Returns {"theta_max": [...], "diag_value": [...], "offdiag_max": [...]}
    using the (0,0,0,0) diagonal entry and the (0,1,0,0) off-diagonal entry.
    """
    diag = []
    off = []
    for tm in theta_maxes:
        sys = _slice_system(rep, SUGrid(tm, n_theta, n_phi))
        diag.append(_pairing(sys, (0, 0, 0, 0)).real)
        off.append(abs(_pairing(sys, (0, 1, 0, 0))))
    return {
        "theta_max": [float(t) for t in theta_maxes],
        "diag_value": diag,
        "offdiag_max": off,
    }


def thermal_probe(rep: DiscreteSeriesRep, b: float) -> Operator:
    """Geometric diagonal probe p0 = sum_r b^r |r><r|."""
    if not 0 < b < 1:
        raise ValueError("thermal parameter must lie in (0, 1)")
    return Operator(np.diag(b ** np.arange(rep.cutoff, dtype=float)).astype(complex))


def thermal_admissibility(rep: DiscreteSeriesRep, b: float, grid: SUGrid) -> complex:
    """Probe admissibility with the analysis family (the group orbit side).

    C = sum_x w_x Tr(B(x)^dag p0) Tr(B(x)); equals 1/(1-b) = 2 at b = 1/2
    for large theta_max and cutoff.
    """
    sys = su11_system(rep, grid)
    return singular_admissibility(sys, thermal_probe(rep, b))
