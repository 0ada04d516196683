"""The slice engine against the per-node Kahan reference, on every system.

Each case pairs a system with per-node callables built from the closed-form
operators (not from the slices), so the check covers the charges and the
node order as well as the contractions. Agreement is required to 1e-13
relative to the largest |value| or entry of the reference. The cached
charge-difference layout is also checked against the per-call regrouping
of ``loop_reference`` on both families of every case.
"""

import math

import numpy as np
import pytest

import kahan_reference as ref
import loop_reference
from coorbit.cv_tomo import FockSpace, PolarGrid, displacement_cv, homodyne_system, multimode_system
from coorbit.discrete_ps import displacement_discrete, heisenberg_finite_system
from coorbit import frame_core
from coorbit.frame_core import (
    SampleVector,
    admissibility_constant,
    analyze,
    frame_bounds,
    singular_admissibility,
    synthesize,
)
from coorbit.opalg import Operator
from coorbit.spin_moyal import SpinParams, kernel_direct, kernel_dual, moyal_system, sphere_grid
from coorbit.su11_tomo import DiscreteSeriesRep, SUGrid, su11_system

TOL = 1e-13


def _dps(N):
    def fam(node):
        return displacement_discrete(N, int(node[0]), int(node[1])).entries

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
    # the per-node power series, since analysis_B and synthesis_pi share the slice code
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
    sys, analysis, synthesis = case
    probe = _random_operator(np.random.default_rng(3), sys.dim)
    l0 = sys.test_functional.entries
    for name, fam in (("analysis", analysis), ("synthesis", synthesis)):
        got = singular_admissibility(sys, probe, family=name)
        assert _close(got, ref.singular_admissibility(sys.grid, fam, probe.entries, l0))


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


LAYOUT_CASES = {
    **{name: (lambda build=build: build()[0]) for name, build in CASES.items()},
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
    for family, layout in ((sys.analysis_family, sys._analysis_layout),
                           (sys.synthesis_family, sys._synthesis_layout)):
        assert _close(frame_core._samples(layout, o),
                      loop_reference.samples(family, sys.phis, o))
        assert _close(frame_core._resum(family, layout, c),
                      loop_reference.resum(family, sys.phis, c))
