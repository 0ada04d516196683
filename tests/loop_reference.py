"""Per-node loops of the solvers outside the engine (test oracles).

``symplectic_tomo`` resums through the engine, and ``discrete_ps`` and
``su11_tomo`` evaluate their operators in closed form over whole grids.
This module keeps the earlier
evaluation, one node at a time: the symplectic double sum over a Cartesian
square of directions with padded q and p exponentials,
the lattice Wigner function and point reconstruction through 2N x 2N point
operators, each point operator as a Fourier sum over displacements, the
lattice displacements as products of the shift, clock and parity matrices,
the SU(1,1) group element through truncated power series of the ladder
operators, the batched SU(1,1) slices with every power of tanh taken entry
by entry, the ordered displacements and displaced parity of ``cv_tomo``
as products of padded matrices cropped to d (and in closed form, a BCH
scalar times ``displacement_cv``), the Q-function as one coherent-state
overlap per node at its exact angle, and the marginal/Wigner
line integrals one Wigner point at a time. It also keeps the scipy paths
that the package replaced with numpy: the Laguerre displacement from
``scipy.special`` and the spin rotation from ``scipy.linalg.expm``, and the
engine's sampling and resummation as they were before each system cached
its charge-difference layout: grouped, conjugated and exponentiated anew on
every call, the frame operator built one charge class at a time, each with
a BLAS-free ``einsum``, the frame bounds with one eigensolve call per frame
operator block, and the frame block product as a BLAS-free ``einsum``. For the l^d
frame bounds it keeps the ratios of seeded random operators and the analysis
family's l^2 bounds from one dense SVD. Of ``opalg`` it keeps the fidelity
through the d x d square root of either state, the PSD test of
``DensityMatrix`` by its full spectrum, and the repair that builds the
state's matrix at once, with the fidelity read from its spectrum. Of the
grids and the CLI it keeps the slice-major grid built node by node as
tuples of Python floats, and the ``emit`` CSV rows formatted one value at a
time. Of ``spin_moyal`` it keeps
the dual coefficients as the defining sum over l, by the three-term
recurrence of the discrete Chebyshev polynomials in exact rationals.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import scipy.linalg
from scipy.special import eval_genlaguerre, gammaln

from coorbit import cli, discrete_ps, frame_core, spin_moyal, symplectic_tomo
from coorbit.cli import _fmt
from coorbit.cv_tomo import (
    FockSpace,
    coherent_state,
    coherent_system,
    displacement_cv,
    wigner_point,
)
from coorbit.opalg import PSD_TOL, Operator, eig_hermitian, matrix_exp
from coorbit.discrete_ps import point_operator
from coorbit.spin_moyal import _angular_momentum
from coorbit.su11_tomo import _kplus, generators
from coorbit.symplectic_tomo import hermite_functions, marginal

PAD = 16  # extra Fock levels for products that suffer truncation edge effects


def lowering(d):
    """The Fock lowering operator a|n> = sqrt(n)|n-1> on levels 0..d-1."""
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1).astype(complex)


def _scaled_density(rho, mu, nu, y):
    """Density of (mu q + nu p) / s at the nodes y, from the phased Hermite functions."""
    phases = np.exp(1j * math.atan2(nu, mu) * np.arange(rho.dim))
    amp = phases[:, None] * hermite_functions(rho.dim, y)
    return np.einsum("my,mn,ny->y", amp.conj(), rho.op.entries, amp).real


def _quadrature_factors(d_pad):
    """Eigendecompositions (w, v) of q and p at dimension d_pad."""
    a = lowering(d_pad)
    q = (a + a.conj().T) / math.sqrt(2)
    p = (a - a.conj().T) / (1j * math.sqrt(2))
    return np.linalg.eigh(q), np.linalg.eigh(p)


def reconstruct_symplectic(rho, grid, f):
    """sum over the Cartesian square (mu_i, nu_j) in [-L, L]^2, n_mn Gauss-Legendre nodes a
    side, of the weighted coefficient times e^{-i nu p} e^{-i mu q} at dimension d + PAD."""
    dp = f.d + PAD
    (wq, vq), (wp, vp) = _quadrature_factors(dp)
    y, yw = grid.X_quadrature
    mus, mws = (grid.L * v for v in np.polynomial.legendre.leggauss(grid.n_mn))
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


def shift_q(N, m):
    """Cyclic position shift: Q^m |n> = |n + m mod N>."""
    return Operator(np.roll(np.eye(N, dtype=complex), m, axis=0))


def shift_v(N, m):
    """Clock operator: V^m |n> = e^{2 pi i m n / N} |n>."""
    return Operator(np.diag(np.exp(2j * math.pi * m * np.arange(N) / N)))


def parity(N):
    """Finite parity R |n> = |-n mod N>."""
    return Operator(np.eye(N, dtype=complex)[-np.arange(N) % N])


def displacement_discrete(N, q, p):
    """Discrete displacement U(q, p) = Q^q V^p e^{i pi p q / N}, as a matrix product."""
    phase = np.exp(1j * math.pi * ((p * q) % (2 * N)) / N)
    return Operator(shift_q(N, q).entries @ shift_v(N, p).entries * phase)


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


def su11_slices(rep, theta):
    """E, B and pi of ``su11_tomo._slices``, with (-t)^(a - b) and t^(a - b) as d^2 powers a node."""
    d, kp = rep.cutoff, _kplus(rep.k, rep.cutoff)
    exp_kp = term = np.eye(d)
    for j in range(1, d):
        term = term @ kp / j
        exp_kp = exp_kp + term
    theta = np.asarray(theta, dtype=float)[:, None, None]
    m = np.arange(d)
    lower, t = np.maximum(np.subtract.outer(m, m), 0), np.tanh(theta)
    mid = np.cosh(theta) ** (-2 * (m + rep.k))
    e = ((-t) ** lower * exp_kp * mid) @ np.swapaxes(t**lower * exp_kp, 1, 2)
    b = (m[:, None] + m + 2 * rep.k) * ((-1.0) ** m)[:, None] * e
    return e, b, np.cosh(theta) * np.diag(m + rep.k) + 0.5j * np.sinh(theta) * (kp.T - kp)


def analysis_B(rep, theta, phi):
    """B[m, n] = (m + n + 2k) (-1)^m E[m, n]."""
    m = np.arange(rep.cutoff)
    fac = m[:, None] + m[None, :] + 2 * rep.k
    return fac * ((-1.0) ** m)[:, None] * group_element(rep, theta, phi)


def synthesis_pi(rep, theta, phi):
    """cosh(theta) Kz + (i/2) sinh(theta) (-e^{i phi} K+ + e^{-i phi} K-)."""
    kp, km, kz = (g.entries.astype(complex) for g in generators(rep))
    return math.cosh(theta) * kz + 0.5j * math.sinh(theta) * (
        -np.exp(1j * phi) * kp + np.exp(-1j * phi) * km
    )


@dataclass(frozen=True)
class OrderingKind:
    """Operator-ordering label for characteristic functions.

    One of weyl, normal, antinormal, husimi, standard, antistandard; the
    husimi variant squeezes the mode through b = mu a + nu a^dag with
    mu^2 - nu^2 = 1.
    """

    kind: str
    mu: float | None = None
    nu: float | None = None

    _KINDS = ("weyl", "normal", "antinormal", "husimi", "standard", "antistandard")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown ordering {self.kind!r}")
        if self.kind == "husimi":
            mu = self.mu if self.mu is not None else math.cosh(0.5)
            nu = self.nu if self.nu is not None else math.sinh(0.5)
            if abs(mu * mu - nu * nu - 1) > 1e-12:
                raise ValueError("husimi ordering requires mu^2 - nu^2 = 1")
            object.__setattr__(self, "mu", mu)
            object.__setattr__(self, "nu", nu)


def ordered_displacement_bch(d, alpha, ordering):
    """A scalar times a displacement, by BCH, exact on the retained block.

    normal and antinormal are e^{+-|alpha|^2/2} D(alpha), standard and
    antistandard e^{+-i Re(alpha) Im(alpha)} D(alpha), and husimi
    e^{|alpha|^2/2} D(mu alpha - nu conj(alpha)).
    """
    a = complex(alpha)
    half, cross = abs(a) ** 2 / 2, 1j * a.real * a.imag
    exponent = {"weyl": 0, "normal": half, "antinormal": -half, "husimi": half,
                "standard": cross, "antistandard": -cross}[ordering.kind]
    if ordering.kind == "husimi":
        a = ordering.mu * a - ordering.nu * a.conjugate()
    return cmath.exp(exponent) * displacement_cv(FockSpace(d), a).entries


def char_function(rho, alpha, ordering):
    """Characteristic function Tr[rho U_ordering(alpha)^dag] from the BCH closed form."""
    return complex(np.vdot(ordered_displacement_bch(rho.dim, alpha, ordering), rho.op.entries))


def ordered_displacement(d, alpha, ordering, pad=PAD):
    """Products of matrix exponentials at dimension d + pad, cropped to d."""
    if ordering.kind == "weyl":
        return displacement_cv(FockSpace(d), alpha).entries
    dp = d + pad
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
    parity_dp = np.diag((-1.0) ** np.arange(dp)).astype(complex)
    big = displacement_cv(FockSpace(dp), 2 * alpha).entries @ parity_dp
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


def roundtrip(sys, o):
    """synthesize(analyze(o)) through the system's layout: every node sampled, then resummed."""
    return frame_core.synthesize(sys, frame_core.analyze(sys, o)).entries


def admissibility_constant(sys, b0p, l0p):
    """sum_k w_k <F_k, b0p> <l0p, G_k> from both families sampled at every node, per call."""
    a = samples(sys.analysis_family, sys.phis, b0p)
    g = samples(sys.synthesis_family, sys.phis, l0p)
    return complex(np.sum(sys.grid.weights * a * g.conj()))


def mixed_gram(sys):
    """(S + S^dag) / 2 from one dense product of the phase-0 slices and the charge mask."""
    dim, n_phi = sys.dim, len(sys.phis)
    g, f = sys.synthesis_family, sys.analysis_family
    w = n_phi * sys.grid.weights[::n_phi, None]
    vg, vf = (np.reshape(fam.slices, (-1, dim * dim)) for fam in (g, f))
    gram = (vg * w).T @ vf.conj()
    key_g, key_f = (np.subtract.outer(fam.charges, fam.charges).ravel() % n_phi for fam in (g, f))
    gram[key_g[:, None] != key_f[None, :]] = 0
    return (gram + gram.conj().T) / 2


def frame_bounds(sys):
    """A and B of ``frame_core.frame_bounds`` (d = 2), one eigvalsh per frame operator block."""
    frame = sys._frame
    sizes = np.count_nonzero(frame.index < sys.dim**2, 1)
    squares = (b[:k, :k] for b, k in zip(frame.blocks, sizes))
    evals = np.concatenate([np.linalg.eigvalsh((b + b.conj().T) / 2) for b in squares])
    return math.sqrt(max(float(evals.min()), 0.0)), math.sqrt(max(float(evals.max()), 0.0))


def sampled_frame_ratios(sys, d, sample_count=256, seed=0):
    """Smallest and largest l^d ratio ||analyze(m)||_d over seeded random unit-norm m.

    A random estimate of the l^d frame bounds: every ratio lies inside the
    certified bounds of ``frame_core.frame_bounds``.
    """
    dim, rng, ratios = sys.dim, np.random.default_rng(seed), []
    for _ in range(sample_count):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m /= np.linalg.norm(m)
        ratios.append(frame_core.coorbit_norm(frame_core.analyze(sys, Operator(m)), sys.grid, d))
    return min(ratios), max(ratios)


def analysis_singular_values(sys):
    """Smallest and largest singular value of o -> (sqrt(w_k) Tr(o F_k^dag))_k, one dense SVD.

    These are the l^2 frame bounds of the analysis family; the smallest is 0
    when there are fewer nodes than dim^2 entries.
    """
    fam = sys.analysis_family  # one matrix per node, U_phi F_s U_phi^dag
    u = np.exp(1j * np.multiply.outer(sys.phis, fam.charges))
    dense = (u[None, :, :, None] * fam.slices[:, None] * u.conj()[None, :, None, :])
    dense = dense.reshape(len(sys.grid), -1)
    sv = np.linalg.svd(np.sqrt(sys.grid.weights)[:, None] * dense.conj(), compute_uv=False)
    return (float(sv.min()) if len(sys.grid) >= sys.dim**2 else 0.0), float(sv.max())


def frame_operator(sys, synthesis):
    """(index, blocks) of ``frame_core._frame_operator``, one ``key == k`` pass and one
    BLAS-free ``einsum`` per charge class, packed first-fit, largest first."""
    n_phi, n = len(sys.phis), sys.dim**2
    w = n_phi * sys.grid.weights[::n_phi, None]
    vg, vf = (np.reshape(fam.slices, (len(w), n)) for fam in (synthesis, sys.analysis_family))
    diffs = np.subtract.outer(sys.analysis_family.charges, sys.analysis_family.charges).ravel()
    key = diffs % n_phi
    if n_phi == 1:  # key mod dim only if each slice lies inside one class
        key, held = diffs % sys.dim, (vg != 0) | (vf != 0)
        if np.any(held & (key != key[held.argmax(axis=1), None])):
            key = np.zeros(n)
    classes = [np.flatnonzero(key == k) for k in sorted(set(key.tolist()))]
    classes.sort(key=len, reverse=True)
    m, fill, places = len(classes[0]), [0] * len(classes), []
    for c in classes:
        i = next(i for i, a in enumerate(fill) if a + len(c) <= m)
        places.append((i, slice(fill[i], fill[i] + len(c))))
        fill[i] += len(c)
    index = np.full((len(fill) - fill.count(0), m), n)
    blocks = np.zeros(index.shape + (m,), dtype=complex)
    for c, (i, a) in zip(classes, places):
        index[i, a] = c
        blocks[i, a, a] = np.einsum("si,sj->ij", vg[:, c] * w, vf[:, c].conj())
    return index, blocks


def apply_frame(sys, o):
    """S vec(o) with the batched block product as an ``einsum``, off BLAS."""
    frame, n = sys._frame, sys.dim**2
    out = np.empty(n + 1, dtype=complex)
    out[frame.index] = np.einsum("kij,kj->ki", frame.blocks, np.append(o.entries, 0)[frame.index])
    return out[:n].reshape(sys.dim, sys.dim)


def _sqrt_state(rho):
    w, v = eig_hermitian(rho.op)
    return (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T


def fidelity(rho, sigma):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 through rho's eigendecomposition."""
    sqrt_rho = _sqrt_state(rho)
    inner = sqrt_rho @ sigma.op.entries @ sqrt_rho
    evals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    f = np.sqrt(np.clip(evals, 0, None)).sum() ** 2
    return float(min(max(f, 0.0), 1.0))


def fidelity_sqrt_sigma(rho, sigma):
    """Uhlmann fidelity through sigma's d x d square root, with the rank cut of ``opalg``."""
    sqrt_sigma = _sqrt_state(sigma)
    inner = sqrt_sigma @ rho.op.entries @ sqrt_sigma
    evals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    evals = evals[evals > rho.dim * np.finfo(float).eps * evals[-1]]
    f = np.sqrt(np.clip(evals, 0, None)).sum() ** 2
    return float(min(max(f, 0.0), 1.0))


def eager_closest_density(a):
    """The repair with sigma's matrix built at once: (sigma entries, p, V).

    The matrix is the symmetrized V diag(p) V^dag of the clipped,
    renormalized spectrum of (a + a^dag) / 2.
    """
    w, v = np.linalg.eigh((a.entries + a.entries.conj().T) / 2)
    w = np.clip(w, 0, None)
    p = w / w.sum()
    m = np.asarray((v * p) @ v.conj().T, dtype=complex)
    return (m + m.conj().T) / 2, p, v


def fidelity_in_range(rho, p, v):
    """Uhlmann fidelity in the range of sigma = V diag(p) V^dag, with the rank cut of ``opalg``."""
    keep = p > 0
    x = v[:, keep] * np.sqrt(p[keep])
    inner = x.conj().T @ rho.op.entries @ x
    evals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    evals = evals[evals > rho.dim * np.finfo(float).eps * evals[-1]]
    f = np.sqrt(np.clip(evals, 0, None)).sum() ** 2
    return float(min(max(f, 0.0), 1.0))


def psd_lowest(m):
    """Minimum eigenvalue of the symmetrized m, and whether it passes -PSD_TOL."""
    lowest = np.linalg.eigvalsh((m + m.conj().T) / 2)[0]
    return lowest, lowest >= -PSD_TOL


def slice_major_grid(radial, radial_weights, n_phi):
    """The slice-major grid built one node at a time, each node a tuple of Python floats."""
    nodes = tuple((float(r), float(ph)) for r in radial for ph in frame_core.phase_circle(n_phi))
    return frame_core.IndexGrid(nodes, np.repeat(np.asarray(radial_weights, dtype=float), n_phi))


def qfunction_nodes(rho, radii, n_phi):
    """Husimi Q(alpha) = <alpha| rho |alpha> one node (r, 2 pi p / n_phi) at a time, unclipped.

    Node (r, p), in r-major order, has the vector |r> e^{2 pi i (n p mod n_phi) / n_phi},
    its angle taken exactly from the integer p.
    """
    f, n, out = FockSpace(rho.dim), np.arange(rho.dim), []
    for r in radii:
        for p in range(n_phi):
            v = coherent_state(f, r) * np.exp(2j * math.pi * ((n * p) % n_phi) / n_phi)
            out.append(np.vdot(v, rho.op.entries @ v).real)
    return np.array(out)


def emit_rows(doc, kind):
    """The CSV rows of ``coorbit emit`` for a config typed by ``cli.load_config``, one
    ``_fmt`` call per value."""
    params = doc["params"]
    if kind == "wigner":
        N = params["N"]
        w = discrete_ps.discrete_wigner(cli._state(doc, N, kind="fock", n=0, d=N), N)
        return [f"{q},{p},{_fmt(w[q, p])}" for q in range(2 * N) for p in range(2 * N)]
    if kind == "qfunc":
        rho = cli._state(doc, params["d"], kind="fock", n=0, d=params["d"])
        sys = coherent_system(FockSpace(params["d"]), cli._polar_grid(params))
        r, ph = np.array(sys.grid.nodes.tolist()).T
        alphas = r * np.exp(1j * ph)
        q = np.clip(frame_core.analyze(sys, rho.op).values.real, 0.0, 1.0)
        return [f"{_fmt(a.real)},{_fmt(a.imag)},{_fmt(qa)},{_fmt(0.0)}"
                for a, qa in zip(alphas, q)]
    if kind == "marginal":
        rho = cli._state(doc, params["d"], kind="fock", n=0, d=params["d"])
        mu, nu = params["mu"], params["nu"]
        x_nodes = np.linspace(-4, 4, params["n_X"])
        w = symplectic_tomo.marginal(rho, mu, nu, x_nodes)
        return [f"{_fmt(x)},{_fmt(mu)},{_fmt(nu)},{_fmt(wi)}" for x, wi in zip(x_nodes, w)]
    p, grid = cli._spin_grid(params)
    rho = cli._state(doc, p.dim, kind="spin_coherent", two_s=p.two_s, theta=0.0, phi=0.0)
    samples = frame_core.analyze(spin_moyal.moyal_system(p, grid, allow_underresolved=True), rho.op)
    ig = grid.to_index_grid(p)
    return [f"{_fmt(th)},{_fmt(ph)},{_fmt(wt)},{_fmt(val.real)},{_fmt(val.imag)}"
            for (th, ph), wt, val in zip(ig.nodes, ig.weights, samples.values)]


def dual_coefficients(two_s):
    """sum_l (2l+1)/n t_l(x) / t_l(0) at x = 0..n-1, n = 2s + 1, as exact Fractions.

    t_0 = 1, t_1 = 2x - n + 1 and
    (l+1) t_{l+1} = (2l+1)(2x - n + 1) t_l - l(n^2 - l^2) t_{l-1}; the t_l are
    integers, so the division is exact.
    """
    n = two_s + 1
    u = [2 * x - n + 1 for x in range(n)]
    prev, t = [1] * n, u
    sums = [Fraction(1)] * n
    for l in range(1, n):
        sums = [c + Fraction((2 * l + 1) * tx, t[0]) for c, tx in zip(sums, t)]
        t, prev = [((2 * l + 1) * ux * tx - l * (n * n - l * l) * px) // (l + 1)
                   for ux, tx, px in zip(u, t, prev)], t
    return [c / n for c in sums]
