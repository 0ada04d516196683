"""Spin phase-space kernels on the sphere.

For a spin-s system the index set is the unit sphere. The direct kernel
Delta_n is the spin-coherent projector along n; the dual kernel Delta^n is
diagonal in the rotated basis, with the signed binomial coefficients
(-1)^(s-m) C(2s+1, s-m+1) of :func:`dual_coefficients`.
Pairing a state against the dual kernel gives its spherical symbol, and the
weighted sum of symbols against the direct kernel reconstructs the state
exactly on a product Gauss-Legendre x uniform grid (the integrand is
band-limited to spherical-harmonic degree 4s, so (2s+1) x (4s+2) nodes give
machine-precision quadrature). Rotations come from one numpy eigh of Jy,
whose eigenvalues are exactly m: exp(-i theta Jy) = V diag(e^{-i theta m})
V^dag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frame_core import IndexGrid, SliceFamily, TomographicSystem
from .frame_core import gauss_legendre, slice_major_grid
from .opalg import Operator


@dataclass(frozen=True)
class SpinParams:
    """Spin magnitude stored as the integer 2s; dim = 2s + 1.

    The m-basis ordering is m = s, s-1, ..., -s (index 0 is m = +s).
    """

    two_s: int

    def __post_init__(self):
        if self.two_s < 0:
            raise ValueError("2s must be a nonnegative integer")

    @property
    def dim(self) -> int:
        return self.two_s + 1

    @property
    def s(self) -> float:
        return self.two_s / 2


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Product quadrature on the sphere with measure (2s+1)/(4pi) d(n).

    Gauss-Legendre nodes in cos(theta) times a uniform phi grid; the total
    weight is 2s+1.
    """

    theta_nodes: np.ndarray
    theta_weights: np.ndarray
    n_phi: int

    def to_index_grid(self, p: SpinParams) -> IndexGrid:
        scale = (p.two_s + 1) / (4 * math.pi)
        weights = scale * self.theta_weights * (2 * math.pi / self.n_phi)
        return slice_major_grid(self.theta_nodes, weights, self.n_phi)


def sphere_grid(p: SpinParams, n_theta: int | None = None, n_phi: int | None = None) -> SphereGrid:
    """Default exact grid: (2s+1) Gauss-Legendre x (4s+2) uniform nodes."""
    n_theta = n_theta if n_theta is not None else p.two_s + 1
    n_phi = n_phi if n_phi is not None else 2 * p.two_s + 2
    if n_theta < 1 or n_phi < 1:
        raise ValueError(f"sphere grid needs n_theta, n_phi >= 1, got {n_theta}, {n_phi}")
    x, w = gauss_legendre(n_theta)
    theta = np.arccos(x[::-1])
    return SphereGrid(theta, w[::-1].copy(), n_phi)


def _angular_momentum(p: SpinParams):
    """Jx, Jy matrices in the m = s..-s ordering."""
    m = p.s - np.arange(1, p.dim)  # J+ raises m: |m> -> |m+1>, i.e. index i -> i-1
    jp = np.diag(np.sqrt(p.s * (p.s + 1) - m * (m + 1)), 1)
    jm = jp.T
    jx = (jp + jm) / 2
    jy = (jp - jm) / (2j)
    return jx, jy


def _rotations(p: SpinParams, thetas, phi: float = 0.0) -> np.ndarray:
    """Z U(theta) Z^dag for every theta: U(theta) = exp(-i theta Jy), Z = diag(e^{-i phi m}).

    Conjugating by the z rotation Z turns the generator Jy into
    -sin(phi) Jx + cos(phi) Jy. U comes from one eigh of Jy; its eigenvalues
    are exactly the half-integers m, so they are rounded to them.
    """
    m, v = np.linalg.eigh(_angular_momentum(p)[1])
    phases = np.exp(-1j * np.multiply.outer(np.asarray(thetas, dtype=float), np.round(2 * m) / 2))
    u = (v * phases[:, None, :]) @ v.conj().T
    z = np.exp(-1j * phi * (p.s - np.arange(p.dim)))
    return z[:, None] * u * z.conj()


def rotation_operator(p: SpinParams, theta: float, phi: float) -> Operator:
    """Unitary rotating the north pole to direction (theta, phi).

    Rotation by theta about the in-plane axis perpendicular to both n_z and
    the target direction: generator -sin(phi) Jx + cos(phi) Jy.
    """
    return Operator(_rotations(p, [theta], phi)[0])


def _kernels(p: SpinParams, thetas, phi: float = 0.0) -> tuple:
    """Stacks of the dual kernels and coherent projectors at (theta, phi), one per theta."""
    u = _rotations(p, thetas, phi)
    dual = (u * np.array(dual_coefficients(p.two_s))) @ u.conj().transpose(0, 2, 1)
    top = u[:, :, 0]
    return dual, top[:, :, None] * top.conj()[:, None, :]


def kernel_direct(p: SpinParams, theta: float, phi: float) -> Operator:
    """Coherent projector |s, n><s, n| at n = (theta, phi); one node of moyal_system's kernels."""
    return Operator(_kernels(p, [theta], phi)[1][0])


def dual_coefficients(two_s: int) -> tuple:
    """Diagonal coefficients of the dual kernel, ordered m = s..-s.

    Delta^m = sum_l (2l+1)/n <s m; l 0|s m> / <s s; l 0|s s> with n = 2s + 1
    (Varilly & Gracia-Bondia, Ann. Phys. 190, 107 (1989)). The Clebsch-Gordan
    ratio is t_l(x) / t_l(0) at x = s - m, where t_l is the discrete Chebyshev
    polynomial on {0..n-1} (Nikiforov, Suslov & Uvarov, Classical Orthogonal
    Polynomials of a Discrete Variable, 1991). The sum is the integer
    (-1)^x C(n, x + 1). Summed against t_k over x = 0..n-1, the sum gives
    (2k+1)/n |t_k|^2 / t_k(0) by orthogonality, and the signed binomials give
    t_k(-1), since n-th differences of a lower-degree polynomial vanish. Both
    equal (-1)^k (n+k)! / n!, and t_0..t_{n-1} span the functions on
    {0..n-1}. Each coefficient is that integer rounded once.
    """
    n = two_s + 1
    return tuple(float((-1) ** x * math.comb(n, x + 1)) for x in range(n))


def kernel_dual(p: SpinParams, theta: float, phi: float) -> Operator:
    """Dual kernel Delta^n, diagonal in the rotated basis; one node of moyal_system's kernels."""
    return Operator(_kernels(p, [theta], phi)[0][0])


def tracial_overlap(p: SpinParams, theta: float) -> float:
    """Overlap Tr[Delta_{n_z} Delta^n] = sum_l (2l+1)/(2s+1) P_l(cos theta)."""
    coefficients = (2 * np.arange(p.two_s + 1) + 1) / (p.two_s + 1)
    return float(np.polynomial.legendre.legval(math.cos(theta), coefficients))


def moyal_system(
    p: SpinParams, grid: SphereGrid, allow_underresolved: bool = False
) -> TomographicSystem:
    """Spin system: analysis = dual kernels, synthesis = coherent projectors."""
    need_theta = p.two_s + 1
    need_phi = 2 * p.two_s + 2
    if not allow_underresolved and (
        len(grid.theta_nodes) < need_theta or grid.n_phi < need_phi
    ):
        raise ValueError(
            f"grid is under-resolved for 2s={p.two_s}: need at least "
            f"{need_theta} theta nodes and {need_phi} phi nodes"
        )
    # Rotating about z by phi conjugates both kernels by diag(e^{-i phi m}).
    charges = np.arange(p.dim) - p.s  # -m in the m = s..-s ordering
    # both kernels at phi = 0, one eigh for all theta; the last, at theta = 0,
    # gives the vacuum and the test functional
    dual, direct = _kernels(p, np.append(grid.theta_nodes, 0.0))
    return TomographicSystem(
        grid=grid.to_index_grid(p),
        analysis_family=SliceFamily(dual[:-1], charges),
        synthesis_family=SliceFamily(direct[:-1], charges),
        vacuum=Operator(direct[-1]),
        test_functional=Operator(dual[-1]),
    )
