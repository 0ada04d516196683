"""Dense complex operator algebra.

Everything downstream works with dense square complex matrices carrying a
dimension: states, kernels, displacement families. This module provides the
carrier types (:class:`Operator`, :class:`DensityMatrix`) and the handful of
linear-algebra primitives the reconstruction engines need — the
Hilbert-Schmidt pairing, tensor products, Hermitian eigendecomposition,
matrix exponentials and state fidelity. Fidelity runs in the range of one
state's clipped spectrum, cached on the :class:`DensityMatrix`. The state
:func:`closest_density` returns is held as that spectrum, checked as a
spectrum, and its matrix is built only when read; any other state's PSD check
is a Cholesky test of rho + PSD_TOL I, with eigenvalues only on failure.

All functions are pure; operators are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
_EPS = np.finfo(float).eps


def _as_square_complex(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operator entries must be square, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("operator dimension must be positive")
    if not np.isfinite(arr).all():
        raise ValueError("operator entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class Operator:
    """A dim x dim complex matrix with its dimension as metadata."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_square_complex(self.entries).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def _adopt(cls, entries: np.ndarray) -> "Operator":
        """An Operator over a fresh array that its maker no longer writes: checked, not copied."""
        arr = _as_square_complex(entries)
        arr.setflags(write=False)
        op = cls.__new__(cls)
        object.__setattr__(op, "entries", arr)
        return op

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2, after the Hermiticity and unit-trace checks of a state."""
    herm_gap = np.abs(m - m.conj().T).max()
    if herm_gap > HERMITICITY_TOL:
        raise ValueError(f"not Hermitian: deviation {herm_gap:.3e}")
    sym = (m + m.conj().T) / 2
    tr = np.trace(sym).real
    if abs(tr - 1) > 1e-12:
        raise ValueError(f"trace {tr!r} differs from 1 beyond tolerance")
    return sym


def _check_psd(lowest: float) -> None:
    if lowest < -PSD_TOL:
        raise ValueError(f"not positive semidefinite: min eigenvalue {lowest:.3e}")


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator.

    Inputs within tolerance (Hermiticity 1e-12, trace 1e-12, minimum
    eigenvalue >= -1e-10) are accepted and symmetrized; anything worse is
    rejected. Quadrature reconstructions return near-Hermitian matrices, so
    the small symmetrization step keeps round trips composable.

    A state holds its matrix ``op`` or its spectrum ``_spectrum`` (clipped
    eigenvalues p, eigenvectors V) and computes the other on first read: the
    repair (:func:`closest_density`) seeds the spectrum, so its matrix
    V diag(p) V^dag is built only when read. Equality is identity.
    """

    def __init__(self, op: Operator):
        sym = _symmetrized(op.entries)
        try:
            np.linalg.cholesky(sym + PSD_TOL * np.eye(len(sym)))
        except np.linalg.LinAlgError:
            _check_psd(np.linalg.eigvalsh(sym)[0])
        vars(self)["op"] = Operator(sym)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @classmethod
    def _from_spectrum(cls, p: np.ndarray, v: np.ndarray) -> "DensityMatrix":
        """The state V diag(p) V^dag held as (p, V), for p >= 0 summing to 1 and unitary V."""
        if not (np.isfinite(p).all() and np.isfinite(v).all()):
            raise ValueError("operator entries must be finite")
        total = p.sum()
        if abs(total - 1) > 1e-12:
            raise ValueError(f"trace {total!r} differs from 1 beyond tolerance")
        _check_psd(p.min())
        state = cls.__new__(cls)
        vars(state)["_spectrum"] = (p, v)
        return state

    @cached_property
    def op(self) -> Operator:
        p, v = self._spectrum
        return Operator(_symmetrized((v * p) @ v.conj().T))

    @property
    def dim(self) -> int:
        held = vars(self)
        return held["op"].dim if "op" in held else len(held["_spectrum"][0])

    @cached_property
    def _spectrum(self) -> tuple:
        """(eigenvalues clipped to >= 0, eigenvectors) of the state."""
        w, v = eig_hermitian(self.op)
        return np.maximum(w, 0), v


def hs_inner(a: Operator, b: Operator) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dag b)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.entries, b.entries))


def matrix_exp(a: Operator) -> Operator:
    """Matrix exponential exp(a) (scaling and squaring)."""
    # imported here: the only scipy use in the package, and slow to import
    import scipy.linalg

    return Operator(scipy.linalg.expm(a.entries))


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product a (x) b; the result has dim = a.dim * b.dim."""
    return Operator(np.kron(a.entries, b.entries))


def eig_hermitian(a: Operator):
    """Eigendecomposition of a Hermitian operator.

    Returns (eigenvalues ascending, unitary eigenvector matrix) with
    a = V diag(w) V^dag. Raises on input that is not Hermitian within 1e-10.
    """
    m = a.entries
    gap = np.abs(m - m.conj().T).max()
    if gap > 1e-10:
        raise ValueError(f"not Hermitian: deviation {gap:.3e}")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return w, v


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2, symmetric in rho and sigma.

    In sigma's range: the spectrum of X^dag rho X, X = V_r diag(sqrt(p_r)) over
    sigma's r nonzero eigenvalues. A state already holding its spectrum (sigma
    first) plays sigma.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    if "_spectrum" in vars(rho) and "_spectrum" not in vars(sigma):
        rho, sigma = sigma, rho
    p, v = sigma._spectrum
    keep = p > 0
    x = v[:, keep] * np.sqrt(p[keep])
    inner = x.conj().T @ rho.op.entries @ x
    evals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    # drop rounding (matrix_rank's cut): its roots would lift a pure rho's score by ~1e-7
    evals = evals[evals > rho.dim * _EPS * evals[-1]]
    f = np.sqrt(np.maximum(evals, 0)).sum() ** 2
    return float(min(max(f, 0.0), 1.0))


def closest_density(a: Operator) -> DensityMatrix:
    """Project a near-density operator onto the density-matrix set.

    Symmetrizes, clips negative eigenvalues to zero and renormalizes the
    trace. Quadrature round trips return operators a few parts in 1e9 away
    from positive semidefinite; this is the canonical repair before
    computing fidelities. The state holds the spectrum (p, V) of the one
    ``eigh``; :func:`fidelity` against a caller-built state never reads ``op``.
    """
    sym = (a.entries + a.entries.conj().T) / 2
    w, v = np.linalg.eigh(sym)
    w = np.maximum(w, 0)
    total = w.sum()
    if total <= 0:
        raise ValueError("operator has no positive spectral weight")
    return DensityMatrix._from_spectrum(w / total, v)

