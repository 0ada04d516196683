"""Finite phase-space tomography on Z_N x Z_N.

Cyclic shift and clock operators generate a discrete displacement family
U(q, p) that forms an orthogonal operator basis, so reconstruction from the
N^2 sampled overlaps is exact. Phase-space point operators A(q, p) live on
the doubled 2N x 2N lattice and give the discrete Wigner function; both the
displacement route and the point-operator route rebuild the state to
machine precision. Each U(q, p) and A(q, p) moves every basis vector to one
other, so both are built as scatters of their nonzero entries.
"""

from __future__ import annotations

import math

import numpy as np

from .frame_core import IndexGrid, SliceFamily, TomographicSystem, roundtrip
from .opalg import DensityMatrix, Operator


def point_operator(N: int, q: int, p: int) -> Operator:
    """Phase-space point operator A(q, p) on the 2N x 2N lattice.

    The displaced-parity product A = (1/2N) Q^q R V^{-p} e^{i pi p q / N}
    (shift Q^q |n> = |n + q mod N>, clock V^p |n> = e^{2 pi i p n / N} |n>,
    parity R |n> = |-n mod N>), which maps |m> to
    e^{-2 pi i p m / N} e^{i pi p q / N} |q - m mod N> / 2N. It equals the
    Fourier sum over displacements
    A = (1/(2N)^2) sum_{m,k} U(m,k) e^{-2 pi i (k q - m p)/(2N)}.
    """
    if not (0 <= q <= 2 * N - 1 and 0 <= p <= 2 * N - 1):
        raise ValueError(f"lattice index ({q}, {p}) outside the 2N x 2N range")
    m = np.arange(N)
    phase = np.exp(1j * math.pi * ((p * q) % (2 * N)) / N)
    out = np.zeros((N, N), dtype=complex)
    out[(q - m) % N, m] = np.exp(2j * math.pi * -p * m / N) * phase / (2 * N)
    return Operator(out)


def _point_values(rho: DensityMatrix, N: int, n: int):
    """Tr(A(q, p) rho) and e^{i pi p q / N} (exact integer angles) for 0 <= q, p < n.

    A(q, p) maps |m> to e^{i pi p q / N} e^{-2 pi i p m / N} |q - m> / 2N, so
    Tr(A rho) = (e^{i pi p q / N} / 2N) FFT_m rho[m, q - m] at frequency p mod N.
    """
    if rho.dim != N:
        raise ValueError(f"dimension mismatch: state {rho.dim}, lattice {N}")
    m, k = np.arange(N), np.arange(n)
    phases = np.exp(1j * math.pi * (np.multiply.outer(k, k) % (2 * N)) / N)
    lines = np.fft.fft(rho.op.entries[m, np.subtract.outer(k, m) % N], axis=1)
    return phases * lines[:, k % N] / (2 * N), phases


def discrete_wigner(rho: DensityMatrix, N: int) -> np.ndarray:
    """Discrete Wigner function W(q, p) = Tr(A(q, p) rho) on the 2N lattice."""
    return _point_values(rho, N, 2 * N)[0].real


def reconstruct_displacement(rho: DensityMatrix, N: int) -> Operator:
    """rho = (1/N) sum_{G_N} Tr(rho U^dag(q,p)) U(q,p), through the engine."""
    return roundtrip(heisenberg_finite_system(N), rho.op)[0]


def reconstruct_point(rho: DensityMatrix, N: int) -> Operator:
    """rho = 4N sum_{G_N} Tr(rho A(q,p)) A(q,p).

    Entry (q - m, m) collects only the points on line q:
    2 sum_p Tr(rho A(q, p)) e^{i pi p q / N} e^{-2 pi i p m / N}, an FFT over p.
    """
    w, phases = _point_values(rho, N, N)
    m = np.arange(N)
    out = np.empty((N, N), dtype=complex)
    out[np.subtract.outer(m, m) % N, m] = 2 * np.fft.fft(w * phases, axis=1)
    return Operator(out)


def heisenberg_finite_system(N: int) -> TomographicSystem:
    """Displacement-family system over G_N with weights 1/N.

    One slice per node (n_phi = 1). With analysis = synthesis = U(q, p)
    and weight 1/N per node, the family {U / sqrt(N)} is an orthonormal
    operator basis, so the round trip is a Parseval identity (frame bounds
    A = B = 1 and P = 1). The charges arange(N) move no node (n_phi = 1);
    U(q, p) holds only entries with a - b = q mod N, so the frame operator
    splits into N classes keyed by (a - b) mod N. The slices are one scatter
    U[(b + q) mod N, b] = v_p[b] e^{i pi (pq mod 2N) / N}, with the clock rows
    v_p and the 2N phases evaluated as in the product Q^q V^p e^{i pi p q / N}
    that the test oracle ``loop_reference.displacement_discrete`` multiplies out.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    n, k = np.arange(N), np.arange(N * N)
    # Python-int p and m give the arithmetic, so the doubles, of the product form
    clock = np.array([np.exp(2j * math.pi * p * n / N) for p in range(N)])
    phase = np.array([np.exp(1j * math.pi * m / N) for m in range(2 * N)])
    q, p = np.divmod(k, N)
    slices = np.zeros((N * N, N, N), dtype=complex)
    slices[k[:, None], (n + q[:, None]) % N, n] = clock[p] * phase[q * p % (2 * N), None]
    family = SliceFamily(slices, n)
    return TomographicSystem(
        grid=IndexGrid(np.column_stack((q, p)), np.full(N * N, 1 / N)),
        analysis_family=family,
        synthesis_family=family,
        vacuum=Operator(np.eye(N)),
        test_functional=Operator(np.eye(N)),
    )
