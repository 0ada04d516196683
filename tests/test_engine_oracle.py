"""The slice engine against the per-node Kahan reference, on every system.

Each case pairs a system with per-node callables built from the closed-form
operators (not from the slices), so the check covers the charges and the
node order as well as the contractions. Agreement is required to 1e-13
relative to the largest |value| or entry of the reference. The system's one
cached charge-difference layout is also checked against the per-call
regrouping of ``loop_reference`` on both families of every case, the cached
analysis frame operator S_F against the self-paired system's, and the cached
frame operator behind ``roundtrip``, ``admissibility_constant`` and
``frame_bounds`` against the sample path and the dense masked Gram kept
there, together with the way its charge classes are keyed and packed into
blocks. Its blocks are checked against the per-class ``einsum`` build kept
there, and its batched block product against the ``einsum`` product.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import kahan_reference as ref
import loop_reference
from coorbit.cv_tomo import FockSpace, PolarGrid, displacement_cv, homodyne_system, multimode_system
from coorbit.discrete_ps import heisenberg_finite_system
from coorbit import frame_core
from coorbit.frame_core import (
    SampleVector,
    admissibility_constant,
    analyze,
    frame_bounds,
    roundtrip,
    singular_admissibility,
    synthesize,
)
from coorbit.opalg import Operator
from coorbit.spin_moyal import SpinParams, kernel_direct, kernel_dual, moyal_system, sphere_grid
from coorbit.su11_tomo import DiscreteSeriesRep, SUGrid, su11_system

TOL = 1e-13


def _dps(N):
    def fam(node):
        return loop_reference.displacement_discrete(N, int(node[0]), int(node[1])).entries

    return heisenberg_finite_system(N), fam, fam


def _spin(two_s):
    p = SpinParams(two_s)
    return (
        moyal_system(p, sphere_grid(p)),
        lambda node: kernel_dual(p, *node).entries,
        lambda node: kernel_direct(p, *node).entries,
    )


def _displacement(f, r, ph):
    return displacement_cv(f, r * np.exp(1j * ph)).entries


def _homodyne(d):
    f = FockSpace(d)

    def fam(node):
        return _displacement(f, *node)

    return homodyne_system(f, PolarGrid(4.0, 12, 16)), fam, fam


def _su11(cutoff):
    # the per-node power series, not the slice code the system is built from
    rep = DiscreteSeriesRep(1.0, cutoff)
    return (
        su11_system(rep, SUGrid(3.0, 12, 8)),
        lambda node: loop_reference.analysis_B(rep, *node),
        lambda node: loop_reference.synthesis_pi(rep, *node),
    )


def _two_mode(d):
    f = FockSpace(d)
    g = PolarGrid(3.0, 4, 6)
    def fam(node):
        return np.kron(_displacement(f, *node[:2]), _displacement(f, *node[2:]))

    return multimode_system([f, f], [g, g]), fam, fam


CASES = {
    "dps-5": lambda: _dps(5),
    "spin-4": lambda: _spin(4),
    "spin-10": lambda: _spin(10),
    "homodyne-8": lambda: _homodyne(8),
    "su11-8": lambda: _su11(8),
    "two-mode-3": lambda: _two_mode(3),
}


def _random_operator(rng, d):
    return Operator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def _close(got, want):
    scale = np.abs(want).max()
    return np.abs(np.asarray(got) - want).max() <= TOL * scale


@pytest.fixture(params=sorted(CASES), scope="module")
def case(request):
    return CASES[request.param]()


def test_analyze_matches_reference(case):
    sys, analysis, _ = case
    o = _random_operator(np.random.default_rng(0), sys.dim)
    assert _close(analyze(sys, o).values, ref.analyze(sys.grid, analysis, o.entries))


def test_synthesize_matches_reference(case):
    sys, _, synthesis = case
    rng = np.random.default_rng(1)
    values = rng.normal(size=len(sys.grid)) + 1j * rng.normal(size=len(sys.grid))
    got = synthesize(sys, SampleVector(values, sys.grid.grid_id)).entries
    assert _close(got, ref.synthesize(sys.grid, synthesis, values, sys.dim))


def test_admissibility_matches_reference(case):
    sys, analysis, synthesis = case
    rng = np.random.default_rng(2)
    pairs = [
        (sys.vacuum, sys.test_functional),
        (_random_operator(rng, sys.dim), _random_operator(rng, sys.dim)),
    ]
    for b0p, l0p in pairs:
        got = admissibility_constant(sys, b0p, l0p).constant
        want = ref.admissibility_constant(sys.grid, analysis, synthesis, b0p.entries, l0p.entries)
        assert _close(got, want)


def test_singular_admissibility_matches_reference(case):
    sys, analysis, _ = case
    probe = _random_operator(np.random.default_rng(3), sys.dim)
    l0 = sys.test_functional.entries
    got = singular_admissibility(sys, probe)
    assert _close(got, ref.singular_admissibility(sys.grid, analysis, probe.entries, l0))


def test_frame_bounds_match_full_gram(case):
    # frame_bounds diagonalizes one charge sector at a time. Gram entries sum
    # terms far larger than the result for dual pairs (the spin dual kernel
    # has coefficients up to ~460 at 2s = 10), so the tolerance is relative
    # to the terms' norm bound.
    # A non-positive lower eigenvalue is reported as A = 0.
    sys, analysis, synthesis = case
    lo, hi, scale = ref.gram_extremes(sys.grid, analysis, synthesis, sys.dim)
    report = frame_bounds(sys)
    assert abs(report.gram_spectrum_min - lo) <= TOL * scale
    assert abs(report.gram_spectrum_max - hi) <= TOL * scale
    assert report.A == math.sqrt(max(report.gram_spectrum_min, 0.0))


def _straddling_lattice(N):
    """The Z_N lattice with U(1, 1), which holds a - b = 1 mod N, leaking into entry (0, 0)."""
    sys = heisenberg_finite_system(N)
    slices = sys.analysis_family.slices.copy()
    slices[N + 1, 0, 0] += 0.25
    family = sys.analysis_family._replace(slices=slices)
    return dataclasses.replace(sys, analysis_family=family, synthesis_family=family)


def _matrix_units(charges):
    """The matrix units E_ab, one node each, so S = I, in the classes of the charges mod dim."""
    d = len(charges)
    family = frame_core.SliceFamily(np.eye(d * d, dtype=complex).reshape(-1, d, d), charges)
    grid = frame_core.IndexGrid(tuple((float(i),) for i in range(d * d)), np.ones(d * d))
    return frame_core.TomographicSystem(grid, family, family, Operator(np.eye(d)),
                                        Operator(np.eye(d)))


LAYOUT_CASES = {
    **{name: (lambda build=build: build()[0]) for name, build in CASES.items()},
    # classes of 5, 2 and 2 entries: the second block is partly padding, which
    # frame_bounds must leave out of the spectrum of S = I
    "units-partial": lambda: _matrix_units(np.array([0.0, 0.0, 1.0])),
    # one slice straddles two classes mod N, so the lattice keeps one class
    "dps-5-straddling": lambda: _straddling_lattice(5),
    # n_phi 6 < 2d - 1 charge differences, so differences alias on the circle
    "homodyne-aliased": lambda: homodyne_system(FockSpace(8), PolarGrid(3.0, 5, 6)),
    # the size of the stream benchmark workload
    "homodyne-stream": lambda: homodyne_system(FockSpace(32), PolarGrid(6.0, 48, 64)),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_layout_matches_per_call_regrouping(name):
    sys = LAYOUT_CASES[name]()
    rng = np.random.default_rng(4)
    o = _random_operator(rng, sys.dim)
    c = rng.normal(size=len(sys.grid)) + 1j * rng.normal(size=len(sys.grid))
    assert _close(frame_core._samples(sys._layout, o),
                  loop_reference.samples(sys.analysis_family, sys.phis, o))
    for family in (sys.analysis_family, sys.synthesis_family):
        assert _close(frame_core._resum(family, sys._layout, c),
                      loop_reference.resum(family, sys.phis, c))


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_roundtrip_matches_reference(name):
    # Relative to the norm bound sum_k w_k |s_k| ||G_k|| of the resummed terms:
    # the spin 2s = 10 dual pair cancels terms 646 times the result's norm, and
    # both paths then err by ~2e-13 ||o|| from the exact identity.
    sys = LAYOUT_CASES[name]()
    o = _random_operator(np.random.default_rng(5), sys.dim)
    want = loop_reference.roundtrip(sys, o)
    s = analyze(sys, o).values
    g = np.repeat(np.linalg.norm(sys.synthesis_family.slices, axis=(1, 2)), len(sys.phis))
    rec, err = roundtrip(sys, o)
    assert np.linalg.norm(rec.entries - want) <= TOL * np.sum(sys.grid.weights * np.abs(s) * g)
    assert err == np.linalg.norm(rec.entries - o.entries)


@pytest.mark.parametrize("name", ["homodyne-stream", "dps-20", "spin-10", "su11-8"])
def test_block_product_matches_einsum(name):
    # the batched matmul of _apply_frame against the einsum it replaced, on
    # the largest blocks the CLI runs (32 x 32) and the dual pairs
    sys = heisenberg_finite_system(20) if name == "dps-20" else LAYOUT_CASES[name]()
    o = _random_operator(np.random.default_rng(7), sys.dim)
    assert _close(frame_core._apply_frame(sys, o), loop_reference.apply_frame(sys, o))


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_admissibility_matches_sample_path(name):
    # relative to the norm bound sum_k w_k |<F_k, b0p>| |<l0p, G_k>| of the summed terms
    sys = LAYOUT_CASES[name]()
    rng = np.random.default_rng(6)
    for b0p, l0p in ((sys.vacuum, sys.test_functional),
                     (_random_operator(rng, sys.dim), _random_operator(rng, sys.dim))):
        want = loop_reference.admissibility_constant(sys, b0p, l0p)
        a = loop_reference.samples(sys.analysis_family, sys.phis, b0p)
        g = loop_reference.samples(sys.synthesis_family, sys.phis, l0p)
        scale = np.sum(sys.grid.weights * np.abs(a * g))
        assert abs(admissibility_constant(sys, b0p, l0p).constant - want) <= TOL * scale


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_mixed_gram_matches_dense_product(name):
    # the blocks, scattered into the dense Gram, hold all of it; frame_bounds
    # reads its spectrum off the blocks
    sys = LAYOUT_CASES[name]()
    want = loop_reference.mixed_gram(sys)
    frame, n = sys._frame, sys.dim**2
    gram = np.zeros((n + 1, n + 1), dtype=complex)
    gram[frame.index[:, :, None], frame.index[:, None, :]] = frame.blocks
    assert _close((gram[:n, :n] + gram[:n, :n].conj().T) / 2, want)
    evals = np.linalg.eigvalsh(want)
    report = frame_bounds(sys)
    scale = np.abs(evals).max()
    assert abs(report.gram_spectrum_min - evals[0]) <= TOL * scale
    assert abs(report.gram_spectrum_max - evals[-1]) <= TOL * scale


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_analysis_frame_equals_self_pair_frame(name):
    # S_F, cached on the system, is bit for bit the frame operator of the
    # system rebuilt with the analysis family on both sides, and so are the
    # l^d bounds read from it
    sys = LAYOUT_CASES[name]()
    pair = dataclasses.replace(sys, synthesis_family=sys.analysis_family)
    got, want = sys._analysis_frame, frame_core._frame_operator(pair, pair.synthesis_family)
    assert np.array_equal(got.index, want.index)
    assert np.array_equal(got.blocks, want.blocks)
    for d in (1, 1.5, 3, math.inf):
        assert frame_bounds(sys, d) == frame_bounds(pair, d)


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_frame_blocks_hold_each_entry_once(name):
    # each block's entries lead and its padding trails, so its occupied part
    # is a leading square
    sys = LAYOUT_CASES[name]()
    frame, n = sys._frame, sys.dim**2
    held = frame.index < n
    assert np.array_equal(np.sort(frame.index[held]), np.arange(n))
    assert np.array_equal(held, np.arange(held.shape[1]) < held.sum(axis=1, keepdims=True))
    assert not frame.blocks[~held].any()
    assert not frame.blocks.transpose(0, 2, 1)[~held].any()


def _block_of(idx, n):
    """The block that holds each flat entry."""
    block = np.empty(n, dtype=int)
    held = idx < n
    block[idx[held]] = np.nonzero(held)[0]
    return block


def test_stream_frame_packs_classes_in_pairs():
    # 63 charge classes of 32 - |delta| entries: 32 alone, then a + (32 - a)
    sys = LAYOUT_CASES["homodyne-stream"]()
    frame, n, n_phi = sys._frame, sys.dim**2, len(sys.phis)
    assert frame.blocks.shape == (32, 32, 32)
    charges = sys.analysis_family.charges
    key = np.subtract.outer(charges, charges).ravel() % n_phi
    block = _block_of(frame.index, n)
    for k in set(key.tolist()):
        assert len(set(block[key == k].tolist())) == 1


def test_lattice_keyed_by_difference_mod_n():
    # U(q, p) holds a - b = q mod N: N classes of N entries, one per block,
    # unless a slice straddles two classes
    keyed = LAYOUT_CASES["dps-5"]()._frame
    a, b = np.divmod(keyed.index, 5)
    assert np.all((a - b) % 5 == (a - b)[:, :1] % 5)
    assert LAYOUT_CASES["dps-5-straddling"]()._frame.blocks.shape == (1, 25, 25)


def test_lattice_pair_straddling_on_synthesis_side_keeps_one_class():
    # the analysis slices lie inside one class each and the synthesis slices do
    # not: the pair's S falls back to one class, the analysis family's own S_F stays keyed
    sys = heisenberg_finite_system(5)
    leaky = _straddling_lattice(5).synthesis_family
    pair = dataclasses.replace(sys, synthesis_family=leaky)
    assert pair._frame.blocks.shape == (1, 25, 25)
    assert pair._analysis_frame.blocks.shape == (5, 5, 5)
    for frame, family in ((pair._frame, leaky), (pair._analysis_frame, sys.analysis_family)):
        index, blocks = loop_reference.frame_operator(pair, family)
        assert np.array_equal(frame.index, index)
        assert np.abs(frame.blocks - blocks).max() <= 1e-13


@pytest.mark.parametrize("N", [3, 8, 15])
def test_lattice_blocks_equal_one_class_entries(N):
    # keying the lattice only drops the zeros between classes: the keyed
    # frame, summed over each block's own N slices, and the one-class frame,
    # summed over all N^2, both match the per-class oracle and each other
    sys = heisenberg_finite_system(N)
    flat = sys.analysis_family._replace(charges=np.zeros(N))
    one_sys = dataclasses.replace(sys, analysis_family=flat, synthesis_family=flat)
    one, keyed = one_sys._frame, sys._frame
    assert one.blocks.shape == (1, N * N, N * N)
    assert keyed.blocks.shape == (N, N, N)
    for frame, system in ((one, one_sys), (keyed, sys)):
        index, blocks = loop_reference.frame_operator(system, system.synthesis_family)
        assert np.array_equal(frame.index, index)
        assert _close(frame.blocks, blocks)
    for idx, block in zip(keyed.index, keyed.blocks):
        assert _close(block, one.blocks[0][np.ix_(idx, idx)])


GATE_SYSTEMS = {
    "dps-3": lambda: heisenberg_finite_system(3),
    "dps-15": lambda: heisenberg_finite_system(15),
    "spin-4": lambda: moyal_system(SpinParams(4), sphere_grid(SpinParams(4))),
    "spin-10": lambda: moyal_system(SpinParams(10), sphere_grid(SpinParams(10))),
    "homodyne-32": lambda: homodyne_system(FockSpace(32), PolarGrid(6.0, 48, 64)),
    "homodyne-12": lambda: homodyne_system(FockSpace(12), PolarGrid(4.0, 32, 32)),
    "su11-8": lambda: su11_system(DiscreteSeriesRep(1.0, 8), SUGrid(6.0, 80, 16)),
    "two-mode-3": lambda: multimode_system([FockSpace(3)] * 2, [PolarGrid(3.0, 4, 6)] * 2),
}

BLOCK_CASES = {**{f"gate-{k}": v for k, v in GATE_SYSTEMS.items()},
               **{f"layout-{k}": v for k, v in LAYOUT_CASES.items()}}


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_frame_operator_matches_per_class_oracle(name):
    # one sort, one packing and one batched matmul against one einsum per
    # class: the same index, and blocks equal to rounding; for a dual pair
    # both the pair's S and the analysis family's own S_F
    sys = BLOCK_CASES[name]()
    for frame, family in ((sys._frame, sys.synthesis_family),
                          (sys._analysis_frame, sys.analysis_family)):
        index, blocks = loop_reference.frame_operator(sys, family)
        assert np.array_equal(frame.index, index)
        assert _close(frame.blocks, blocks)


@pytest.mark.parametrize("entries", [1, 130, 300])
@pytest.mark.parametrize("name", ["homodyne-aliased", "dps-5"])
def test_frame_chunks_bit_identical_to_one_product(monkeypatch, name, entries):
    # chunking only splits the batch of blocks (60 and 25 gathered entries a
    # block here): one block a step, a few, and all of them in one
    sys = LAYOUT_CASES[name]()
    monkeypatch.setattr(frame_core, "FRAME_CHUNK", 1 << 20)
    whole = frame_core._frame_operator(sys, sys.synthesis_family).blocks
    monkeypatch.setattr(frame_core, "FRAME_CHUNK", entries)
    assert np.array_equal(frame_core._frame_operator(sys, sys.synthesis_family).blocks, whole)


def test_stream_frame_build_memory_bounded():
    # the blocks take 0.52 MB; gathering every block at once peaked at 2.4 MB
    sys = LAYOUT_CASES["homodyne-stream"]()
    tracemalloc.start()
    try:
        frame_core._frame_operator(sys, sys.synthesis_family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0e6


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_largest_block_below_thread_dependence_order(name):
    # frame_bounds runs one eigensolve per block; LAPACK output was seen to
    # depend on the BLAS thread count from about order 200
    assert BLOCK_CASES[name]()._frame.blocks.shape[1] < 200
