"""Generic analysis/synthesis engine over an index grid.

An :class:`IndexGrid` holds its nodes as one read-only (n, k) coordinate
array beside the weights; its id hashes their bytes.
A :class:`TomographicSystem` pairs a quadrature grid with an analysis family
F (samples ``Tr(O F_k^dag)``) and a synthesis family G (``sum_k w_k s_k G_k``
rebuilds O). A family is stored as its phase-0 ``slices`` (n_s, d, d) and a
length-d ``charges`` vector: node k is slice ``k // n_phi`` conjugated by
diag(e^{i phi charges}) at phi = 2 pi (k % n_phi) / n_phi, the slice-major
order of :func:`slice_major_grid`. n_phi = len(grid) / n_s is derived, so
the circle is uniform by construction; families without that U(1) covariance
have one slice per node (n_phi = 1). A system checks that the weights do not
depend on phi and that the charge differences c_a - c_b are integers below
2^53 in size and the same in both families, and keeps them as one int array
that every later reader takes. Families are normalized (admissibility
constant 1), so the round trip needs no constant.

A system caches what it reads on first use. :func:`analyze`,
:func:`synthesize` and :func:`singular_admissibility` read one layout per
system, which serves the synthesis family too: the (a, b) entries in order of
their class (c_a - c_b) mod n_phi and the conjugated analysis slices in that
order. Sampling is a gather, a product, a sum per class and an n_phi-point DFT,
and resummation the inverse DFT at each entry's class (``np.fft``, no BLAS).
:func:`roundtrip`, :func:`admissibility_constant` and :func:`frame_bounds`
read the frame operator S = sum_k w_k vec(G_k) vec(F_k)^dag (analysis, then
synthesis); l^d bounds for d != 2 read the analysis family's own S_F (G = F),
the same object on a self-dual system. S couples two entries only where their
charge differences agree mod n_phi. With n_phi = 1 there is no phi sum: the
classes are keyed by (c_a - c_b) mod dim when every slice lies inside one of
them (the Z_N lattice, whose U(q, p) holds a - b = q mod N), and form one
class otherwise. These charge classes are the engine's only block structure.
They are found by one stable sort and packed first-fit, largest first, down
the diagonals of equal m x m blocks. All blocks are built from the phase-0
slices with factor n_phi w_s by one batched product, over every slice or,
on the keyed lattice, over each block's own slices. The round
trip is a gather, one batched block product and a scatter; admissibility is
<l0p, S b0p>; l^2 frame bounds are the spectrum of (S + S^dag) / 2 on each
block's occupied leading square, and the l^d bounds for d != 2 follow in
closed form from that of S_F. Slice-sized contractions stay off BLAS, except
the frame operator's: its blocks are built, and applied, by one batched
``matmul`` each. Instantiations supply grids, slices and charges.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .opalg import Operator, hs_inner

_ZERO = np.zeros(1, dtype=complex)  # _apply_frame's padding entry, read at flat index dim^2
FRAME_CHUNK = 1 << 12  # gathered entries per family in one step of the frame block product


@dataclass(frozen=True, eq=False)
class IndexGrid:
    """Quadrature nodes over the index set with positive measure weights.

    ``nodes`` is a read-only (n, k) float array whose row i holds the full
    group coordinates of node i (a sequence of tuples is accepted); the node
    order is fixed at construction, so all reductions are deterministic.
    Grids compare and hash by identity; ``grid_id`` compares their content.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 2 or weights.ndim != 1 or len(nodes) != len(weights):
            raise ValueError("nodes must be (n, k) coordinates with a weight per node")
        if not np.all((weights > 0) & np.isfinite(weights)):
            raise ValueError("all grid weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def grid_id(self) -> str:
        """SHA-256 of the coordinate bytes, then the weight bytes, computed on first read."""
        gid = self.__dict__.get("_grid_id")
        if gid is None:
            gid = hashlib.sha256(self.nodes.tobytes() + self.weights.tobytes()).hexdigest()[:16]
            object.__setattr__(self, "_grid_id", gid)
        return gid


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple:
    """Read-only (nodes, weights) of the n-node Gauss-Legendre rule on [-1, 1], made once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def phase_circle(n_phi: int) -> np.ndarray:
    """The uniform circle 2 pi p / n_phi, p = 0..n_phi-1."""
    return np.arange(n_phi) * 2 * math.pi / n_phi


def circle_phases(p, key: np.ndarray, n_phi: int) -> np.ndarray:
    """e^{i phi_p key} for integer keys at phi_p = 2 pi p / n_phi, from (p key) mod n_phi."""
    return np.exp(2j * math.pi * (np.multiply.outer(p, key % n_phi) % n_phi) / n_phi)


def slice_major_grid(radial, radial_weights, n_phi: int) -> IndexGrid:
    """Nodes (r_i, phi_j) on the phase circle with weight radial_weights[i], in r-major order."""
    nodes = np.column_stack((np.repeat(radial, n_phi), np.tile(phase_circle(n_phi), len(radial))))
    return IndexGrid(nodes, np.repeat(np.asarray(radial_weights, dtype=float), n_phi))


@dataclass(frozen=True, eq=False)
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
    """Frame bounds of a system and the ends of the l^2 spectrum they come from."""

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
        if not 0 < self.delta < math.inf:
            raise ValueError("regularizer width must be positive")

    def __call__(self, x):
        return np.exp(-x * x / (2 * self.delta**2))


class SliceFamily(NamedTuple):
    """Operators U_phi slices[s] U_phi^dag with U_phi = diag(exp(i phi charges))."""

    slices: np.ndarray
    charges: np.ndarray


@dataclass(frozen=True, eq=False)
class TomographicSystem:
    """Grid plus paired analysis/synthesis operator families.

    Both families hold n_s slices in the module's node order; ``phis`` is the
    derived circle of len(grid) / n_s phases. ``analysis(node)`` and
    ``synthesis(node)`` are read-only views returning one node's Operator;
    the engine never calls them. ``vacuum`` (of dimension ``dim``) seeds the
    synthesis family, and the ``test_functional`` operator L0 realizes the
    analysis functional through the trace pairing. One layout, the pair's frame
    operator and the analysis family's own (the same object on a self-dual
    system) are cached on first use. Systems compare and hash by identity.
    """

    grid: IndexGrid
    analysis_family: SliceFamily
    synthesis_family: SliceFamily
    vacuum: Operator
    test_functional: Operator

    def __post_init__(self):
        n_s = len(self.analysis_family.slices)
        shape, rest = (n_s, self.dim, self.dim), len(self.grid) % n_s if n_s else 1
        diffs = _checked_differences("analysis", self.analysis_family, shape, rest)
        same = self.synthesis_family is self.analysis_family  # one object is checked once
        if not (same or np.array_equal(diffs, _checked_differences(
                "synthesis", self.synthesis_family, shape, rest))):
            raise ValueError("analysis and synthesis families need the same charge differences")
        object.__setattr__(self, "_diffs", diffs)  # c_a - c_b per flat (a, b), read by the engine
        for name in ("analysis", "synthesis"):
            family = getattr(self, f"{name}_family")
            object.__setattr__(self, name, _node_view(self.grid.nodes, self.phis, family, diffs))
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
    def _layout(self) -> _Layout:
        return _layout(self)

    @cached_property
    def _frame(self) -> _FrameOperator:
        return _frame_operator(self, self.synthesis_family)

    @cached_property
    def _analysis_frame(self) -> _FrameOperator:
        same = self.synthesis_family is self.analysis_family
        return self._frame if same else _frame_operator(self, self.analysis_family)


def _checked_differences(name: str, family: SliceFamily, shape: tuple, rest: int) -> np.ndarray:
    """A family's flat c_a - c_b as ints, after its shape, finiteness, integer and range checks."""
    if rest or np.shape(family.slices) != shape or np.shape(family.charges) != shape[1:2]:
        raise ValueError(f"{name} family needs n_s >= 1 dividing len(grid), {shape} "
                         f"slices and {shape[1]} charges")
    if not (np.all(np.isfinite(family.slices)) and np.all(np.isfinite(family.charges))):
        raise ValueError(f"{name} family must be finite")
    diffs = np.subtract.outer(family.charges, family.charges, dtype=float).ravel()  # ints would wrap
    if not (np.array_equal(diffs, np.round(diffs)) and np.all(np.abs(diffs) < 2.0**53)):
        raise ValueError(f"{name} family needs integer charge differences below 2^53 in size")
    return diffs.astype(int)


def _node_view(nodes: np.ndarray, phis: np.ndarray, family: SliceFamily, diffs: np.ndarray):
    def at(node) -> Operator:
        k = np.flatnonzero((nodes == node).all(axis=1)) if len(node) == nodes.shape[1] else ()
        if not len(k):
            raise ValueError(f"{node} is not a grid node")
        s, p = divmod(int(k[0]), len(phis))
        u = circle_phases(p, diffs, len(phis)).reshape(family.slices[s].shape)
        return Operator(family.slices[s] * u)

    return at


class _Layout(NamedTuple):
    """The flat (a, b) entries grouped by class (c_a - c_b) mod n_phi, shared by both families."""

    key: np.ndarray  # class of each flat entry
    order: np.ndarray  # stable order of the flat entries by class
    starts: np.ndarray  # first position of each occupied class in that order
    held: np.ndarray  # (n_phi,) True where a class is occupied
    conj_slices: np.ndarray  # (n_s, d * d) conjugated analysis slices, in that order


def _layout(sys: TomographicSystem) -> _Layout:
    key = sys._diffs % len(sys.phis)
    order, counts = np.argsort(key, kind="stable"), np.bincount(key, minlength=len(sys.phis))
    starts = (np.cumsum(counts) - counts)[counts > 0]
    conj_slices = np.reshape(sys.analysis_family.slices, (-1, len(order)))[:, order].conj()
    return _Layout(key, order, starts, counts > 0, conj_slices)


def _samples(layout: _Layout, o: Operator) -> np.ndarray:
    """Tr(o F_k^dag) for node k = (s, p): the DFT over classes j of G(s, j) at p.

    G(s, j) sums the entries (a, b) of conj(S_s) o with (c_a - c_b) mod n_phi = j.
    """
    if o.dim**2 != len(layout.order):
        raise ValueError(f"dimension mismatch: operator {o.dim}, system dim^2 {len(layout.order)}")
    m = layout.conj_slices * o.entries.ravel()[layout.order]
    g = np.zeros((len(m), len(layout.held)), dtype=complex)
    g[:, layout.held] = np.add.reduceat(m, layout.starts, axis=1)
    return np.fft.fft(g).ravel()


def _resum(family: SliceFamily, layout: _Layout, c: np.ndarray) -> np.ndarray:
    """sum_k c_k F_k = sum_s S_s * C(s, (c_a - c_b) mod n_phi), C the unscaled inverse DFT of c."""
    n_s, dim, _ = np.shape(family.slices)
    p = np.fft.ifft(c.reshape(n_s, -1), norm="forward")[:, layout.key]
    return np.einsum("sj,sj->j", p, np.reshape(family.slices, (n_s, -1))).reshape(dim, dim)


class _FrameOperator(NamedTuple):
    """S = sum_k w_k vec(G_k) vec(F_k)^dag, its charge classes packed into square blocks."""

    index: np.ndarray  # (n_block, m) flat entries in each block, padded with dim^2
    blocks: np.ndarray  # (n_block, m, m) S[index, index], zero between classes and in the padding


def _frame_operator(sys: TomographicSystem, synthesis: SliceFamily) -> _FrameOperator:
    """S of the analysis family against ``synthesis``; the phi sum is n_phi where classes agree.

    The classes are the runs of one stable sort of the key. Each block is the
    product G^T conj(F) of its entries' columns over its slices, all blocks
    in one batched ``matmul`` per FRAME_CHUNK gathered entries, with the
    entries between two classes of a block and the padding set to zero. A
    block's slices are all n_s, or, when every slice lies inside one class
    (the keyed n_phi = 1 case), only the slices of its own classes.
    """
    n_phi, n, n_s = len(sys.phis), sys.dim**2, len(sys.analysis_family.slices)
    w = n_phi * sys.grid.weights[::n_phi]
    vg, vf = (np.reshape(fam.slices, (n_s, n)) for fam in (synthesis, sys.analysis_family))
    key, own = sys._diffs % n_phi, None
    if n_phi == 1:  # key mod dim only if each slice lies inside one class
        held = vf != 0 if synthesis is sys.analysis_family else (vg != 0) | (vf != 0)
        key = sys._diffs % sys.dim
        own = key[held.argmax(axis=1)]  # the class key of each slice
        if np.any(held & (key != own[:, None])):
            key, own = np.zeros_like(key), None
    order, counts = np.argsort(key, kind="stable"), np.bincount(key)
    keys = np.flatnonzero(counts)
    sizes = counts[keys]
    starts, size = np.cumsum(sizes) - sizes, sizes.tolist()
    m, fill, place = max(size), [0] * len(size), [0] * len(size)
    for c in sorted(range(len(size)), key=size.__getitem__, reverse=True):  # first-fit
        room = m - size[c]
        for i, a in enumerate(fill):
            if a <= room:
                break
        place[c], fill[i] = i * m + a, a + size[c]
    n_block = len(fill) - fill.count(0)
    at = np.repeat(np.subtract(place, starts), sizes) + np.arange(n)  # slot of each sorted entry
    index, label = np.full(n_block * m, n), np.full(n_block * m, -1)  # label: class, -1 padding
    index[at], label[at] = order, np.repeat(np.arange(len(size)), sizes)
    index, label = index.reshape(n_block, m), label.reshape(n_block, m)
    if own is None:
        rows, w = None, np.broadcast_to(w[:, None], (n_block, n_s, 1))
    else:  # each block's own slices, padded with a weightless repeat of the last
        by = np.floor_divide(place, m)[np.searchsorted(keys, own)]
        s = np.argsort(by, kind="stable")
        rows = np.full((n_block, np.bincount(by).max()), n_s)
        rows[by[s], np.arange(n_s) - np.searchsorted(by[s], by[s])] = s
        rows, w = np.minimum(rows, n_s - 1)[..., None], np.append(w, 0.0)[rows, None]
    cols = np.minimum(index, n - 1)
    blocks = np.empty((n_block, m, m), dtype=complex)
    step = max(1, FRAME_CHUNK // (w.shape[1] * m))
    for i in range(0, n_block, step):
        part = slice(i, i + step)
        if rows is None:  # every slice: one gather along the entries
            g, f = (v[:, cols[part]].swapaxes(0, 1) for v in (vg, vf))
        else:
            g, f = (v[rows[part], cols[part, None]] for v in (vg, vf))
        g *= w[part]
        np.matmul(g.swapaxes(1, 2), np.conj(f, out=f), out=blocks[part])
        del g, f  # before the next chunk is gathered
    blocks *= (label[:, :, None] == label[:, None, :]) & (label >= 0)[:, None]
    return _FrameOperator(index, blocks)


def _apply_frame(sys: TomographicSystem, o: Operator) -> np.ndarray:
    """S vec(o): a gather, one batched block product and a scatter."""
    if o.dim != sys.dim:
        raise ValueError(f"dimension mismatch: operator {o.dim}, system {sys.dim}")
    frame, n = sys._frame, sys.dim**2
    out = np.empty(n + 1, dtype=complex)
    padded = np.concatenate((o.entries.ravel(), _ZERO))
    out[frame.index] = np.matmul(frame.blocks, padded[frame.index, None])[..., 0]
    return out[:n].reshape(sys.dim, sys.dim)


class AdmissibilityResult(NamedTuple):
    constant: complex
    projection: complex


def analyze(sys: TomographicSystem, o: Operator) -> SampleVector:
    """Sample an operator against the analysis family.

    values[k] = Tr(o F_k^dag); linear in o.
    """
    return SampleVector(_samples(sys._layout, o), sys.grid.grid_id)


def synthesize(sys: TomographicSystem, s: SampleVector) -> Operator:
    """Weighted resummation of samples over the synthesis family."""
    if s.grid_id != sys.grid.grid_id or len(s.values) != len(sys.grid):
        raise ValueError("sample vector is not aligned with the system grid")
    weighted = sys.grid.weights * s.values
    return Operator._adopt(_resum(sys.synthesis_family, sys._layout, weighted))


def roundtrip(sys: TomographicSystem, o: Operator):
    """synthesize(analyze(o)), read from the frame operator, and its Hilbert-Schmidt error."""
    rec = Operator._adopt(_apply_frame(sys, o))
    return rec, float(np.linalg.norm(rec.entries - o.entries))


def admissibility_constant(
    sys: TomographicSystem, b0p: Operator, l0p: Operator
) -> AdmissibilityResult:
    """Quadrature admissibility constant for a vacuum/functional pair.

    C = sum_k w_k <F_k, b0p> <l0p, G_k> = <l0p, S b0p> over the analysis
    family F and the synthesis family G, together with the projection constant
    P = C / <l0p, sys.vacuum> when the denominator is nonzero (NaN
    otherwise). ``b0p`` replaces the system vacuum on the analysis side,
    covering the primed-vacuum variant.
    """
    denom = hs_inner(l0p, sys.vacuum)  # checks the dimension of l0p
    c = complex(np.einsum("ij,ij->", l0p.entries.conj(), _apply_frame(sys, b0p)))
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError("admissibility quadrature diverged (non-admissible system)")
    proj = c / denom if abs(denom) > 1e-14 else complex("nan")
    return AdmissibilityResult(c, proj)


def singular_admissibility(sys: TomographicSystem, probe: Operator) -> complex:
    """Probe-regularized admissibility constant for singular vacua.

    C(b0, p0) = < sum_k w_k <F_k, probe> F_k, L0 > over the analysis family F,
    the system's stored image of the group orbit through the vacuum.
    """
    p = _samples(sys._layout, probe)
    l0 = _samples(sys._layout, sys.test_functional)
    total = complex(np.sum(sys.grid.weights * p * l0.conj()))
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise ValueError("singular admissibility quadrature diverged")
    return total


def coorbit_norm(s: SampleVector, grid: IndexGrid, d: float) -> float:
    """Weighted l^d norm of a sample vector; d = inf gives the sup norm."""
    if s.grid_id != grid.grid_id or len(s.values) != len(grid):
        raise ValueError("sample vector is not aligned with the grid")
    if d == math.inf:
        return float(np.abs(s.values).max()) if len(s.values) else 0.0
    if not d >= 1:
        raise ValueError("norm exponent must be >= 1")
    return float(np.sum(grid.weights * np.abs(s.values) ** d) ** (1 / d))


def frame_bounds(sys: TomographicSystem, d: float = 2) -> FrameReport:
    """Frame bounds A <= ||analyze(o)||_d / ||o||_HS <= B (weighted l^d norm).

    For d = 2, A and B are the square roots of the extreme eigenvalues of the
    pair's mixed frame operator (S + S^dag) / 2, S = sum_k w_k vec(G_k)
    vec(F_k)^dag, taken over each block's occupied leading square, one
    stacked eigensolve per distinct square size. For d != 2 they are certified
    from the analysis family paired with itself, whose spectrum gives the l^2
    bounds A2, B2, with W = sum_k w_k and B_inf = max_k ||F_k||_HS (the l^inf
    bound, by Cauchy-Schwarz at each node). Hoelder between l^2, l^d and l^inf
    gives A = A2 W^(1/d - 1/2), B = B2^(2/d) B_inf^(1 - 2/d) for d > 2 and
    A = (A2^2 / B_inf^(2 - d))^(1/d), B = B2 W^(1/d - 1/2) for 1 <= d < 2.
    The gram_spectrum fields hold the ends of the spectrum used.
    """
    if not d >= 1:
        raise ValueError("norm exponent must be >= 1")
    frame = sys._frame if d == 2 else sys._analysis_frame
    sizes = np.count_nonzero(frame.index < sys.dim**2, 1)
    squares = (frame.blocks[sizes == k, :k, :k] for k in np.unique(sizes))
    evals = np.concatenate([np.linalg.eigvalsh((b + b.conj().swapaxes(1, 2)) / 2).ravel()
                            for b in squares])
    lo, hi = float(evals.min()), float(evals.max())
    a, b = math.sqrt(max(lo, 0.0)), math.sqrt(max(hi, 0.0))
    if d != 2:
        w = math.fsum(sys.grid.weights)
        b_inf = float(np.linalg.norm(sys.analysis_family.slices, axis=(1, 2)).max())
        if d > 2:
            a, b = a * w ** (1 / d - 0.5), b ** (2 / d) * b_inf ** (1 - 2 / d)
        else:
            a, b = (a * a / b_inf ** (2 - d)) ** (1 / d) if b_inf else 0.0, b * w ** (1 / d - 0.5)
    return FrameReport(min(a, b), b, lo, hi)  # min: A = B up to rounding on a tight family
