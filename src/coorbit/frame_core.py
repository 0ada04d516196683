"""Generic analysis/synthesis engine over an index grid.

A :class:`TomographicSystem` pairs a quadrature grid with an analysis family
F (samples ``Tr(O F_k^dag)``) and a synthesis family G (``sum_k w_k s_k G_k``
rebuilds O). A family is stored as its phase-0 ``slices`` (n_s, d, d) and a
length-d ``charges`` vector: node k is slice ``k // n_phi`` conjugated by
diag(e^{i phi charges}) at phi = 2 pi (k % n_phi) / n_phi, the slice-major
order of :func:`slice_major_grid`. n_phi = len(grid) / n_s is derived, so
the circle is uniform by construction; families without that U(1) covariance
have one slice per node (n_phi = 1). A system checks that the weights do not
depend on phi and that charge differences are integers. Families are
normalized (admissibility constant 1), so the round trip needs no constant.
Each system builds one layout per family, once: the (a, b) entries in order
of c_a - c_b, the conjugated slices in that order and e^{-i phi delta}.
Sampling is a gather, a product, a segmented sum and one small GEMM, and
resummation its adjoint; the slice-sized contractions stay off BLAS. The
frame-bound Gram is diagonalized one connected block of its nonzero pattern
at a time. Instantiations supply grids, slices, charges; only the two-mode
builder expands a family to one matrix per node (:func:`expand_family`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .opalg import Operator, hs_inner

GRAM_DIM_LIMIT = 4096


@dataclass(frozen=True)
class IndexGrid:
    """Quadrature nodes over the index set with positive measure weights.

    Each node is a tuple of coordinates (the full group coordinates of the
    point); the node ordering is fixed at construction and preserved by
    serialization, so all reductions are deterministic.
    """

    nodes: tuple
    weights: np.ndarray

    def __post_init__(self):
        nodes = tuple(tuple(float(c) for c in node) for node in self.nodes)
        weights = np.asarray(self.weights, dtype=float).copy()
        if weights.ndim != 1 or len(nodes) != weights.shape[0]:
            raise ValueError("weights must be a vector aligned with nodes")
        if not np.all(weights > 0):
            raise ValueError("all grid weights must be positive")
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def grid_id(self) -> str:
        """Content hash of the serialized grid, computed on first read."""
        gid = self.__dict__.get("_grid_id")
        if gid is None:
            gid = hashlib.sha256(grid_to_json(self).encode()).hexdigest()[:16]
            object.__setattr__(self, "_grid_id", gid)
        return gid


def phase_circle(n_phi: int) -> np.ndarray:
    """The uniform circle 2 pi p / n_phi, p = 0..n_phi-1."""
    return np.arange(n_phi) * 2 * math.pi / n_phi


def slice_major_grid(radial, radial_weights, n_phi: int) -> IndexGrid:
    """Nodes (r_i, phi_j) on the phase circle with weight radial_weights[i], in r-major order."""
    nodes = tuple((float(r), float(ph)) for r in radial for ph in phase_circle(n_phi))
    return IndexGrid(nodes, np.repeat(np.asarray(radial_weights, dtype=float), n_phi))


@dataclass(frozen=True)
class SampleVector:
    """Complex samples of a transform, aligned with a grid's node order."""

    values: np.ndarray
    grid_id: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex).copy()
        if values.ndim != 1:
            raise ValueError("sample values must be a vector")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FrameReport:
    """Empirical frame bounds for a system."""

    A: float
    B: float
    gram_spectrum_min: float
    gram_spectrum_max: float

    def __post_init__(self):
        if not 0 <= self.A <= self.B < math.inf:
            raise ValueError(f"frame bounds need 0 <= A <= B < inf, got {self.A}, {self.B}")


@dataclass(frozen=True)
class RegularizerSpec:
    """Gaussian damping factor R_delta(x) = exp(-x^2 / (2 delta^2))."""

    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("regularizer width must be positive")

    def __call__(self, x):
        return np.exp(-x * x / (2 * self.delta**2))


class SliceFamily(NamedTuple):
    """Operators U_phi slices[s] U_phi^dag with U_phi = diag(exp(i phi charges))."""

    slices: np.ndarray
    charges: np.ndarray


@dataclass(frozen=True)
class TomographicSystem:
    """Grid plus paired analysis/synthesis operator families.

    Both families hold n_s slices in the module's node order; ``phis`` is the
    derived circle of len(grid) / n_s phases. ``analysis(node)`` and
    ``synthesis(node)`` are read-only views returning one node's Operator;
    the engine never calls them. ``vacuum`` (of dimension ``dim``) seeds the
    synthesis family, and the ``test_functional`` operator L0 realizes the
    analysis functional through the trace pairing. Each family's layout is
    cached on first use; a self-dual system (the same family object) has one.
    """

    grid: IndexGrid
    analysis_family: SliceFamily
    synthesis_family: SliceFamily
    vacuum: Operator
    test_functional: Operator

    def __post_init__(self):
        n_s = len(self.analysis_family.slices)
        rest = len(self.grid) % n_s if n_s else 1
        for name in ("analysis", "synthesis"):
            family = getattr(self, f"{name}_family")
            shape = (n_s, self.dim, self.dim)
            if rest or np.shape(family.slices) != shape or np.shape(family.charges) != shape[1:2]:
                raise ValueError(f"{name} family needs n_s >= 1 dividing len(grid), {shape} "
                                 f"slices and {self.dim} charges")
            if not (np.all(np.isfinite(family.slices)) and np.all(np.isfinite(family.charges))):
                raise ValueError(f"{name} family must be finite")
            diffs = _flat_differences(family.charges)
            if not np.array_equal(diffs, np.round(diffs)):
                raise ValueError(f"{name} family needs integer charge differences")
            object.__setattr__(self, name, _node_view(self.grid.nodes, self.phis, family))
        w = self.grid.weights.reshape(-1, len(self.phis))
        if not np.all(w == w[:, :1]):
            raise ValueError("grid weights must not depend on phi")

    @property
    def dim(self) -> int:
        return self.vacuum.dim

    @cached_property
    def phis(self) -> np.ndarray:
        return phase_circle(len(self.grid) // len(self.analysis_family.slices))

    @cached_property
    def _analysis_layout(self) -> _Layout:
        return _layout(self.analysis_family, self.phis)

    @cached_property
    def _synthesis_layout(self) -> _Layout:
        same = self.synthesis_family is self.analysis_family
        return self._analysis_layout if same else _layout(self.synthesis_family, self.phis)


def _node_view(nodes: tuple, phis: np.ndarray, family: SliceFamily):
    def at(node) -> Operator:
        s, p = divmod(nodes.index(tuple(node)), len(phis))
        u = np.exp(1j * phis[p] * np.asarray(family.charges))
        return Operator(u[:, None] * family.slices[s] * u.conj())

    return at


def _flat_differences(charges) -> np.ndarray:
    """c_a - c_b for each flat (a, b) entry."""
    return np.subtract.outer(charges, charges).ravel()


class _Layout(NamedTuple):
    """A family's flat (a, b) entries grouped by charge difference c_a - c_b."""

    order: np.ndarray  # stable order of the flat entries by charge difference
    starts: np.ndarray  # first position of each distinct difference in that order
    inverse: np.ndarray  # index of each flat entry's difference
    conj_slices: np.ndarray  # (n_s, d * d) conjugated slices, in that order
    phases: np.ndarray  # (n_delta, n_phi) e^{-i phi delta}


def _layout(family: SliceFamily, phis: np.ndarray) -> _Layout:
    deltas, inverse = np.unique(_flat_differences(family.charges), return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(len(deltas)))
    conj_slices = np.reshape(family.slices, (len(family.slices), -1))[:, order].conj()
    phases = np.exp(-1j * np.multiply.outer(deltas, phis))
    return _Layout(order, starts, inverse, conj_slices, phases)


def _samples(layout: _Layout, o: Operator) -> np.ndarray:
    """Tr(o F_k^dag) for node k = (s, phi): sum_delta G(s, delta) e^{-i phi delta}.

    G(s, delta) sums the entries (a, b) of conj(S_s) o with c_a - c_b = delta.
    """
    if o.dim**2 != len(layout.order):
        raise ValueError(f"dimension mismatch: operator {o.dim}, system dim^2 {len(layout.order)}")
    m = layout.conj_slices * o.entries.ravel()[layout.order]
    return (np.add.reduceat(m, layout.starts, axis=1) @ layout.phases).ravel()


def _resum(family: SliceFamily, layout: _Layout, c: np.ndarray) -> np.ndarray:
    """sum_k c_k F_k = sum_s S_s * C(s, c_a - c_b), C(s, delta) = sum_phi c e^{i phi delta}."""
    n_s, dim, _ = np.shape(family.slices)
    p = (c.reshape(n_s, -1) @ layout.phases.T.conj())[:, layout.inverse]
    return np.einsum("sj,sj->j", p, np.reshape(family.slices, (n_s, -1))).reshape(dim, dim)


def expand_family(family: SliceFamily, phis: np.ndarray) -> np.ndarray:
    """Dense (n_s * len(phis), d, d) stack of the family in node order."""
    n_s, d, _ = np.shape(family.slices)
    u = np.exp(1j * np.multiply.outer(phis, family.charges))
    dense = u[None, :, :, None] * family.slices[:, None]
    dense *= u.conj()[None, :, None, :]
    return dense.reshape(n_s * len(phis), d, d)


class AdmissibilityResult(NamedTuple):
    constant: complex
    projection: complex


def analyze(sys: TomographicSystem, o: Operator) -> SampleVector:
    """Sample an operator against the analysis family.

    values[k] = Tr(o F_k^dag); linear in o.
    """
    return SampleVector(_samples(sys._analysis_layout, o), sys.grid.grid_id)


def synthesize(sys: TomographicSystem, s: SampleVector) -> Operator:
    """Weighted resummation of samples over the synthesis family."""
    if s.grid_id != sys.grid.grid_id or len(s.values) != len(sys.grid):
        raise ValueError("sample vector is not aligned with the system grid")
    weighted = sys.grid.weights * s.values
    return Operator(_resum(sys.synthesis_family, sys._synthesis_layout, weighted))


def roundtrip(sys: TomographicSystem, o: Operator):
    """synthesize(analyze(o)) and its Hilbert-Schmidt error against o."""
    rec = synthesize(sys, analyze(sys, o))
    return rec, float(np.linalg.norm(rec.entries - o.entries))


def admissibility_constant(
    sys: TomographicSystem, b0p: Operator, l0p: Operator
) -> AdmissibilityResult:
    """Quadrature admissibility constant for a vacuum/functional pair.

    C = sum_k w_k <F_k, b0p> <l0p, G_k> over the analysis family F and the
    synthesis family G, together with the projection constant
    P = C / <l0p, sys.vacuum> when the denominator is nonzero (NaN
    otherwise). ``b0p`` replaces the system vacuum on the analysis side,
    covering the primed-vacuum variant.
    """
    a = _samples(sys._analysis_layout, b0p)
    g = _samples(sys._synthesis_layout, l0p)
    c = complex(np.sum(sys.grid.weights * a * g.conj()))
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError("admissibility quadrature diverged (non-admissible system)")
    denom = hs_inner(l0p, sys.vacuum)
    proj = c / denom if abs(denom) > 1e-14 else complex("nan")
    return AdmissibilityResult(c, proj)


def singular_admissibility(
    sys: TomographicSystem, probe: Operator, family: str = "synthesis"
) -> complex:
    """Probe-regularized admissibility constant for singular vacua.

    C(b0, p0) = < sum_k w_k <F_k, probe> F_k, L0 >, where the operator
    family F is the system's stored image of the group orbit through the
    vacuum (``synthesis`` by default; ``analysis`` for systems whose
    synthesis side is a dual family rather than the orbit itself).
    """
    if family not in ("synthesis", "analysis"):
        raise ValueError(f"unknown family {family!r}")
    layout = sys._synthesis_layout if family == "synthesis" else sys._analysis_layout
    p = _samples(layout, probe)
    l0 = _samples(layout, sys.test_functional)
    total = complex(np.sum(sys.grid.weights * p * l0.conj()))
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise ValueError("singular admissibility quadrature diverged")
    return total


def check_vacuum_invariance(
    sys: TomographicSystem, subgroup_samples: Sequence[Operator]
) -> list:
    """Verify the vacuum is fixed (up to phase) by stabilizer elements.

    Each sample h acts on the vacuum by conjugation; the report lists the
    best-fit proportionality factor chi(h) and the residual
    ||h b0 h^dag - chi b0||. Reporting only — nothing is asserted here.
    """
    b0 = sys.vacuum
    nsq = hs_inner(b0, b0).real
    report = []
    for h in subgroup_samples:
        moved = h.entries @ b0.entries @ h.entries.conj().T
        chi = complex(np.vdot(b0.entries, moved)) / nsq if nsq > 0 else 0j
        residual = float(np.linalg.norm(moved - chi * b0.entries))
        report.append({"chi": chi, "residual": residual})
    return report


def coorbit_norm(s: SampleVector, grid: IndexGrid, d: float) -> float:
    """Weighted l^d norm of a sample vector; d = inf gives the sup norm."""
    if len(s.values) != len(grid):
        raise ValueError("sample vector is not aligned with the grid")
    if d == math.inf:
        return float(np.abs(s.values).max()) if len(s.values) else 0.0
    if d < 1:
        raise ValueError("norm exponent must be >= 1")
    return float(np.sum(grid.weights * np.abs(s.values) ** d) ** (1 / d))


def _block_labels(pattern: np.ndarray) -> np.ndarray:
    """Connected-component label of each index of a symmetric boolean pattern.

    Components are numbered in the order of their smallest index. Each
    breadth-first step ORs the pattern rows of its frontier into one
    length-n vector, so every row is read once and no n x n temporary is
    made beside the pattern itself.
    """
    n = len(pattern)
    labels = np.full(n, -1)
    count = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = count
        frontier = [start]
        while len(frontier):
            reach = np.zeros(n, dtype=bool)
            for i in frontier:
                reach |= pattern[i]
            frontier = np.flatnonzero(reach & (labels < 0))
            labels[frontier] = count
        count += 1
    return labels


def _block_eigvalsh(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of Hermitian h, one connected block of its nonzero pattern at a time.

    The charge mask and the slices' zero pattern leave many small blocks
    (the lattice Gram couples only entries with equal (a - b) mod N); small
    blocks keep LAPACK single-threaded and the values free of the BLAS
    thread count. Each block keeps its indices in increasing order.
    """
    labels = _block_labels(h != 0)
    blocks = (np.flatnonzero(labels == k) for k in range(labels.max() + 1))
    return np.concatenate([np.linalg.eigvalsh(h[np.ix_(i, i)]) for i in blocks])


def _mixed_gram(sys: TomographicSystem) -> np.ndarray:
    """(S + S^dag) / 2 for S = sum_k w_k vec(G_k) vec(F_k)^dag, from the phase-0 slices.

    On the uniform phi circle the phi sum is n_phi times the phase-0 term
    where the charge differences of G and F agree modulo n_phi, and 0
    elsewhere.
    """
    dim, n_phi = sys.dim, len(sys.phis)
    g, f = sys.synthesis_family, sys.analysis_family
    w = n_phi * sys.grid.weights[::n_phi, None]
    vg, vf = (np.reshape(fam.slices, (-1, dim * dim)) for fam in (g, f))
    gram = (vg * w).T @ vf.conj()
    key_g, key_f = (_flat_differences(fam.charges) % n_phi for fam in (g, f))
    gram[key_g[:, None] != key_f[None, :]] = 0
    return (gram + gram.conj().T) / 2


def frame_bounds(
    sys: TomographicSystem, d: float = 2, sample_count: int = 256, seed: int = 0
) -> FrameReport:
    """Frame bounds of the analysis/synthesis pair.

    For d = 2 the mixed Gram superoperator S = sum_k w_k vec(G_k) vec(F_k)^dag
    is assembled as a dim^2 x dim^2 matrix, symmetrized and diagonalized one
    connected block at a time (:func:`_mixed_gram`); A and B are the square
    roots of its extreme eigenvalues. For d != 2 the bounds are sampled
    empirically over random unit-norm operators (estimates, not certificates).
    """
    dim = sys.dim
    if dim * dim > GRAM_DIM_LIMIT:
        raise ValueError(
            f"dim^2 = {dim * dim} exceeds the Gram limit {GRAM_DIM_LIMIT}; "
            "use a smaller system"
        )
    if d == 2:
        evals = _block_eigvalsh(_mixed_gram(sys))
        lo, hi = float(evals.min()), float(evals.max())
    else:
        rng = np.random.default_rng(seed)
        ratios = []
        for _ in range(sample_count):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m /= np.linalg.norm(m)
            ratios.append(coorbit_norm(analyze(sys, Operator(m)), sys.grid, d))
        lo, hi = min(ratios) ** 2, max(ratios) ** 2
    a = math.sqrt(max(lo, 0.0))
    b = math.sqrt(max(hi, 0.0))
    return FrameReport(a, b, lo, hi)


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact round trips: floats are emitted with the
# shortest representation that reparses to the identical double).


def grid_to_json(grid: IndexGrid) -> str:
    return json.dumps(
        {
            "nodes": [{"coords": list(node)} for node in grid.nodes],
            "weights": list(grid.weights),
        }
    )


def grid_from_json(text: str) -> IndexGrid:
    doc = json.loads(text)
    nodes = tuple(tuple(n["coords"]) for n in doc["nodes"])
    return IndexGrid(nodes, np.array(doc["weights"], dtype=float))


def sample_to_json(s: SampleVector) -> str:
    return json.dumps(
        {
            "grid_id": s.grid_id,
            "values": [[v.real, v.imag] for v in s.values],
        }
    )


def sample_from_json(text: str) -> SampleVector:
    doc = json.loads(text)
    values = np.array([complex(re, im) for re, im in doc["values"]], dtype=complex)
    return SampleVector(values, doc["grid_id"])
