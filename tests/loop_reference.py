"""Per-node loops of the solvers outside the engine (test oracles).

``symplectic_tomo``, ``discrete_ps`` and ``su11_tomo`` evaluate their
operators in closed form over whole grids. This module keeps the earlier
evaluation, one node at a time: the symplectic double sum over directions,
the lattice Wigner function and point reconstruction through 2N x 2N point
operators, each point operator as a Fourier sum over displacements, the
SU(1,1) group element through truncated power series of the ladder
operators, the ordered displacements and displaced parity of ``cv_tomo``
as products of padded matrices cropped to d, and the marginal/Wigner
line integrals one Wigner point at a time. It also keeps the scipy paths
that the package replaced with numpy: the Laguerre displacement from
``scipy.special`` and the spin rotation from ``scipy.linalg.expm``, and the
engine's sampling and resummation as they were before each system cached
its charge-difference layout: grouped, conjugated and exponentiated anew on
every call.
"""

import math

import numpy as np

import scipy.linalg
from scipy.special import eval_genlaguerre, gammaln

from coorbit.cv_tomo import PAD, FockSpace, displacement_cv, lowering, parity_operator, wigner_point
from coorbit.opalg import Operator, matrix_exp
from coorbit.discrete_ps import displacement_discrete, point_operator
from coorbit.spin_moyal import _angular_momentum
from coorbit.su11_tomo import _kplus, generators
from coorbit.symplectic_tomo import _quadrature_factors, hermite_functions, marginal


def _scaled_density(rho, mu, nu, y):
    """Density of (mu q + nu p) / s at the nodes y, from the phased Hermite functions."""
    phases = np.exp(1j * math.atan2(nu, mu) * np.arange(rho.dim))
    amp = phases[:, None] * hermite_functions(rho.dim, y)
    return np.einsum("my,mn,ny->y", amp.conj(), rho.op.entries, amp).real


def reconstruct_symplectic(rho, grid, f):
    """sum over (mu_i, nu_j) of the weighted coefficient times e^{-i nu p} e^{-i mu q}."""
    dp = f.d + PAD
    (wq, vq), (wp, vp) = _quadrature_factors(dp)
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
                dens = _scaled_density(rho, mu, nu, y)
                c = complex(np.sum(yw * dens * np.exp(1j * math.hypot(mu, nu) * y)))
            reg = grid.regularizer(math.sqrt(s2))
            phase = np.exp(-0.5j * mu * nu) / (2 * math.pi)
            acc += (wm * wn * reg * c * phase) * (ep_cache[j] @ eq_cache[i])
    return acc[: f.d, : f.d]


def discrete_wigner(rho, N):
    """W(q, p) = Tr(A(q, p) rho) on the 2N x 2N lattice, one point operator at a time."""
    w = np.empty((2 * N, 2 * N))
    for q in range(2 * N):
        for p in range(2 * N):
            w[q, p] = np.trace(point_operator(N, q, p).entries @ rho.op.entries).real
    return w


def reconstruct_point(rho, N):
    """4N sum over G_N of Tr(rho A(q, p)) A(q, p)."""
    acc = np.zeros((N, N), dtype=complex)
    for q in range(N):
        for p in range(N):
            a = point_operator(N, q, p).entries
            acc += np.trace(rho.op.entries @ a) * a
    return 4 * N * acc


def point_operator_fourier(N, q, p):
    """A(q, p) = (1/(2N)^2) sum_{m,k} U(m, k) e^{-2 pi i (k q - m p)/(2N)}."""
    acc = np.zeros((N, N), dtype=complex)
    for m in range(2 * N):
        for k in range(2 * N):
            # 2N-th roots of unity with exact integer angles
            ang = math.pi * ((k * q - m * p) % (2 * N)) / N
            acc += displacement_discrete(N, m, k).entries * np.exp(-1j * ang)
    return acc / (2 * N) ** 2


def group_element(rep, theta, phi):
    """e^{zeta K+} (1 - |zeta|^2)^{Kz} e^{-conj(zeta) K-}, zeta = -tanh(theta) e^{i phi}."""
    d = rep.cutoff
    if theta == 0:
        return np.eye(d, dtype=complex)
    zeta = -math.tanh(theta) * np.exp(1j * phi)
    kp = _kplus(rep.k, d).astype(complex)

    def tri_exp(m):
        out = np.eye(d, dtype=complex)
        term = np.eye(d, dtype=complex)
        for j in range(1, d):
            term = term @ m / j
            if not np.abs(term).max() > 0:
                break
            out += term
        return out

    mid = np.diag((1 - abs(zeta) ** 2) ** (np.arange(d) + rep.k)).astype(complex)
    return tri_exp(zeta * kp) @ mid @ tri_exp(-np.conj(zeta) * kp.T)


def analysis_B(rep, theta, phi):
    """B[m, n] = (m + n + 2k) (-1)^m E[m, n]."""
    m = np.arange(rep.cutoff)
    fac = m[:, None] + m[None, :] + 2 * rep.k
    return fac * ((-1.0) ** m)[:, None] * group_element(rep, theta, phi)


def synthesis_pi(rep, theta, phi):
    """cosh(theta) Kz + (i/2) sinh(theta) (-e^{-i phi} K+ + e^{i phi} K-)."""
    kp, km, kz = (g.entries.astype(complex) for g in generators(rep))
    return math.cosh(theta) * kz + 0.5j * math.sinh(theta) * (
        -np.exp(-1j * phi) * kp + np.exp(1j * phi) * km
    )


def ordered_displacement(d, alpha, ordering):
    """Products of matrix exponentials at dimension d + PAD, cropped to d."""
    if ordering.kind == "weyl":
        return displacement_cv(FockSpace(d), alpha).entries
    dp = d + PAD
    a = lowering(dp)
    ad = a.conj().T
    if ordering.kind in ("normal", "antinormal"):
        left = matrix_exp(Operator(alpha * ad)).entries
        right = matrix_exp(Operator(-np.conj(alpha) * a)).entries
        mat = left @ right if ordering.kind == "normal" else right @ left
    elif ordering.kind == "husimi":
        b = ordering.mu * a + ordering.nu * ad
        bd = b.conj().T
        mat = matrix_exp(Operator(alpha * bd)).entries @ matrix_exp(
            Operator(-np.conj(alpha) * b)
        ).entries
    else:  # standard / antistandard: split along the quadrature pair
        q = (a + ad) / math.sqrt(2)
        p = (a - ad) / (1j * math.sqrt(2))
        q0 = math.sqrt(2) * alpha.real
        p0 = math.sqrt(2) * alpha.imag
        eq = matrix_exp(Operator(1j * p0 * q)).entries
        ep = matrix_exp(Operator(-1j * q0 * p)).entries
        mat = eq @ ep if ordering.kind == "standard" else ep @ eq
    return mat[:d, :d]


def displaced_parity_closed(d, alpha):
    """2 D(2 alpha) P as a product at dimension d + PAD, cropped to d."""
    dp = d + PAD
    big = displacement_cv(FockSpace(dp), 2 * alpha).entries @ parity_operator(dp).entries
    return 2 * big[:d, :d]


def displacement_laguerre(d, alpha):
    """<m|D(alpha)|n> from scipy's generalized Laguerre polynomials and log-gamma."""
    x = abs(alpha) ** 2
    m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    k = m - n
    lo = np.minimum(m, n)
    kk = np.abs(k)
    log_pref = 0.5 * (gammaln(lo + 1) - gammaln(lo + kk + 1))
    amp = np.exp(log_pref - x / 2) * eval_genlaguerre(lo, kk, x)
    a = complex(alpha)
    return np.where(k >= 0, a**kk * amp, (-np.conj(a)) ** kk * amp)


def rotation_expm(p, theta, phi):
    """exp(-i theta (-sin(phi) Jx + cos(phi) Jy)) by scipy's Pade expm."""
    jx, jy = _angular_momentum(p)
    return scipy.linalg.expm(-1j * theta * (-math.sin(phi) * jx + math.cos(phi) * jy))


def marginal_wigner_consistency(rho, mu, nu, X_nodes, n_t):
    """Max deviation of (1/s) sum_t w_t W(x/s e + t e_perp) from the marginal, point by point."""
    s = math.hypot(mu, nu)
    e, e_perp = (mu / s, nu / s), (-nu / s, mu / s)
    tn, tw = np.polynomial.legendre.leggauss(n_t)
    worst = 0.0
    for x, w_direct in zip(X_nodes, marginal(rho, mu, nu, np.asarray(X_nodes))):
        line = sum(
            wt * wigner_point(rho, x / s * e[0] + ti * e_perp[0], x / s * e[1] + ti * e_perp[1])
            for ti, wt in zip(tn * 5.0, tw * 5.0)
        )
        worst = max(worst, abs(line / s - w_direct))
    return worst


def _charge_differences(charges):
    """Distinct values of c_a - c_b, and the index of each flat (a, b) entry's value."""
    return np.unique(np.subtract.outer(charges, charges).ravel(), return_inverse=True)


def samples(family, phis, o):
    """Tr(o F_k^dag) for node k = (s, phi): sum_delta G(s, delta) e^{-i phi delta}.

    G(s, delta) sums the entries (a, b) of conj(S_s) o with c_a - c_b = delta.
    """
    n_s = len(family.slices)
    deltas, inv = _charge_differences(family.charges)
    order = np.argsort(inv, kind="stable")
    m = np.reshape(family.slices, (n_s, -1))[:, order]
    np.conj(m, out=m)
    m *= o.entries.ravel()[order]
    g = np.add.reduceat(m, np.searchsorted(inv[order], np.arange(len(deltas))), axis=1)
    return (g @ np.exp(-1j * np.multiply.outer(deltas, phis))).ravel()


def resum(family, phis, c):
    """sum_k c_k F_k = sum_s S_s * C(s, c_a - c_b), C(s, delta) = sum_phi c e^{i phi delta}."""
    n_s, dim, _ = np.shape(family.slices)
    deltas, inv = _charge_differences(family.charges)
    p = (c.reshape(n_s, len(phis)) @ np.exp(1j * np.multiply.outer(phis, deltas)))[:, inv]
    p *= np.reshape(family.slices, (n_s, -1))
    return p.sum(axis=0).reshape(dim, dim)
