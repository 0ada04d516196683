import dataclasses
import hashlib
import math

import numpy as np
import pytest

from scipy.sparse.csgraph import connected_components

from coorbit import frame_core
from coorbit.cv_tomo import FockSpace, PolarGrid, homodyne_system, multimode_system
from coorbit.discrete_ps import heisenberg_finite_system
from coorbit.frame_core import (
    IndexGrid,
    RegularizerSpec,
    SampleVector,
    admissibility_constant,
    analyze,
    check_vacuum_invariance,
    coorbit_norm,
    frame_bounds,
    grid_from_json,
    grid_to_json,
    roundtrip,
    sample_from_json,
    sample_to_json,
    synthesize,
)
from coorbit.opalg import Operator, hs_inner
from coorbit.spin_moyal import SpinParams, kernel_direct, moyal_system, sphere_grid
from coorbit.su11_tomo import DiscreteSeriesRep, SUGrid, su11_system


def random_state(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return Operator(rho / np.trace(rho).real)


class TestIndexGrid:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            IndexGrid(((0.0,), (1.0,)), np.array([1.0, 0.0]))

    def test_rejects_misaligned_weights(self):
        with pytest.raises(ValueError):
            IndexGrid(((0.0,),), np.array([1.0, 1.0]))

    def test_grid_id_depends_on_content(self):
        g1 = IndexGrid(((0.0,), (1.0,)), np.array([1.0, 2.0]))
        g2 = IndexGrid(((0.0,), (1.0,)), np.array([1.0, 2.5]))
        assert g1.grid_id != g2.grid_id
        assert g1.grid_id == IndexGrid(g1.nodes, g1.weights).grid_id

    def test_grid_id_serializes_once(self, monkeypatch):
        grid = IndexGrid(((0.0, 1.5), (2.0, 0.25)), np.array([1.0, 3.0]))
        expect = hashlib.sha256(grid_to_json(grid).encode()).hexdigest()[:16]
        calls = []
        monkeypatch.setattr(
            frame_core, "grid_to_json", lambda g: calls.append(g) or grid_to_json(g)
        )
        assert grid.grid_id == expect
        assert grid.grid_id == expect
        assert len(calls) == 1


class TestSerialization:
    def test_grid_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        nodes = tuple((rng.normal(), rng.normal()) for _ in range(17))
        grid = IndexGrid(nodes, rng.random(17) + 0.1)
        text = grid_to_json(grid)
        back = grid_from_json(text)
        assert grid_to_json(back) == text
        assert back.nodes == grid.nodes
        assert np.array_equal(back.weights, grid.weights)

    def test_sample_round_trip_bit_exact(self):
        rng = np.random.default_rng(1)
        s = SampleVector(rng.normal(size=9) + 1j * rng.normal(size=9), "abc123")
        text = sample_to_json(s)
        back = sample_from_json(text)
        assert sample_to_json(back) == text
        assert np.array_equal(back.values, s.values)


class TestAnalyzeSynthesize:
    def test_analyze_identity_on_lattice(self):
        # Tr U(q,p)^dag vanishes except at the origin node
        sys = heisenberg_finite_system(2)
        s = analyze(sys, Operator(np.eye(2)))
        assert s.values[0] == pytest.approx(2)
        assert np.abs(s.values[1:]).max() < 1e-14

    def test_analyze_zero_operator(self):
        sys = heisenberg_finite_system(2)
        s = analyze(sys, Operator(np.zeros((2, 2))))
        assert np.abs(s.values).max() == 0

    def test_analyze_spin_north_pole(self):
        p = SpinParams(1)
        sys = moyal_system(p, sphere_grid(p))
        s = analyze(sys, kernel_direct(p, 0.0, 0.0))
        # the node closest to the pole pairs the direct and dual kernels
        thetas = np.array([n[0] for n in sys.grid.nodes])
        values = np.array([(1 + 3 * math.cos(t)) / 2 for t in thetas])
        assert np.abs(s.values - values).max() < 1e-10

    def test_analyze_linearity(self):
        rng = np.random.default_rng(2)
        sys = heisenberg_finite_system(3)
        a = Operator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        b = Operator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        al, be = 0.3 - 1j, 2.5 + 0.25j
        combo = analyze(sys, Operator(al * a.entries + be * b.entries))
        direct = al * analyze(sys, a).values + be * analyze(sys, b).values
        assert np.abs(combo.values - direct).max() < 1e-12

    def test_analyze_rejects_wrong_dimension(self):
        sys = heisenberg_finite_system(3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            analyze(sys, Operator(np.eye(2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            admissibility_constant(sys, sys.vacuum, Operator(np.eye(4)))

    def test_synthesize_zero_samples(self):
        sys = heisenberg_finite_system(2)
        s = SampleVector(np.zeros(4, dtype=complex), sys.grid.grid_id)
        assert np.abs(synthesize(sys, s).entries).max() == 0

    def test_synthesize_single_node(self):
        sys = heisenberg_finite_system(2)
        values = np.zeros(4, dtype=complex)
        values[2] = 1.5j
        s = SampleVector(values, sys.grid.grid_id)
        node = sys.grid.nodes[2]
        expect = sys.grid.weights[2] * 1.5j * sys.synthesis(node).entries
        assert np.abs(synthesize(sys, s).entries - expect).max() < 1e-15

    def test_synthesize_rejects_misaligned(self):
        sys = heisenberg_finite_system(2)
        with pytest.raises(ValueError):
            synthesize(sys, SampleVector(np.zeros(4, dtype=complex), "wrong"))

    def test_adjoint_consistency(self):
        # <synthesize(s), o> = sum_i w_i s_i conj(analyze(o)_i) for a
        # self-paired family
        rng = np.random.default_rng(3)
        sys = heisenberg_finite_system(3)
        o = Operator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        s = SampleVector(rng.normal(size=9) + 1j * rng.normal(size=9), sys.grid.grid_id)
        lhs = hs_inner(synthesize(sys, s), o)
        rhs = np.sum(sys.grid.weights * np.conj(s.values) * analyze(sys, o).values)
        assert abs(lhs - rhs) < 1e-10


class TestLayout:
    @pytest.fixture
    def layout_calls(self, monkeypatch):
        calls = []
        build = frame_core._layout

        def counted(family, phis):
            calls.append(family)
            return build(family, phis)

        monkeypatch.setattr(frame_core, "_layout", counted)
        return calls

    def test_self_dual_system_builds_one_layout(self, layout_calls):
        sys = homodyne_system(FockSpace(6), PolarGrid(3.0, 8, 12))
        assert layout_calls == []
        rho = random_state(np.random.default_rng(7), 6)
        analyze(sys, rho)
        synthesize(sys, analyze(sys, rho))
        admissibility_constant(sys, sys.vacuum, sys.test_functional)
        assert layout_calls == [sys.analysis_family]

    def test_dual_pair_builds_two_layouts(self, layout_calls):
        p = SpinParams(4)
        sys = moyal_system(p, sphere_grid(p))
        rho = random_state(np.random.default_rng(8), sys.dim)
        roundtrip(sys, rho)
        roundtrip(sys, rho)
        admissibility_constant(sys, sys.vacuum, sys.test_functional)
        assert layout_calls == [sys.analysis_family, sys.synthesis_family]


class TestRoundtrip:
    def test_lattice_parseval_exact(self):
        rng = np.random.default_rng(4)
        sys = heisenberg_finite_system(2)
        rho = random_state(rng, 2)
        _, err = roundtrip(sys, rho)
        assert err < 1e-12

    def test_spin_exact_grid(self):
        rng = np.random.default_rng(5)
        p = SpinParams(2)
        sys = moyal_system(p, sphere_grid(p))
        _, err = roundtrip(sys, random_state(rng, 3))
        assert err < 1e-10


class TestAdmissibility:
    def test_spin_constant_and_projection(self):
        p = SpinParams(1)
        sys = moyal_system(p, sphere_grid(p))
        res = admissibility_constant(sys, sys.vacuum, sys.test_functional)
        assert res.constant == pytest.approx(2, abs=1e-10)
        assert res.projection == pytest.approx(1, abs=1e-10)

    def test_zero_vacuum_gives_zero(self):
        p = SpinParams(1)
        sys = moyal_system(p, sphere_grid(p))
        res = admissibility_constant(sys, Operator(np.zeros((2, 2))), sys.test_functional)
        assert abs(res.constant) < 1e-14


class TestVacuumInvariance:
    def test_stabilizer_rotations_fix_spin_vacuum(self):
        from coorbit.opalg import matrix_exp

        p = SpinParams(1)
        sys = moyal_system(p, sphere_grid(p))
        jz = np.diag([0.5, -0.5])
        samples = [matrix_exp(Operator(-1j * a * jz)) for a in (0.3, 1.1, 2.0)]
        for entry in check_vacuum_invariance(sys, samples):
            assert entry["residual"] < 1e-12
            assert entry["chi"] == pytest.approx(1, abs=1e-12)

    def test_identity_vacuum_fixed_by_anything(self):
        sys = heisenberg_finite_system(2)
        report = check_vacuum_invariance(sys, [sys.analysis(n) for n in sys.grid.nodes])
        assert max(e["residual"] for e in report) < 1e-12

    def test_wrong_vacuum_detected(self):
        p = SpinParams(1)
        sys = moyal_system(p, sphere_grid(p))
        bad = dataclasses.replace(sys, vacuum=Operator(np.array([[0, 1], [1, 0]], dtype=complex)))
        from coorbit.opalg import matrix_exp

        jz = np.diag([0.5, -0.5])
        report = check_vacuum_invariance(bad, [matrix_exp(Operator(-1j * 1.0 * jz))])
        assert report[0]["residual"] > 0.1


class TestCoorbitNorm:
    def test_zero_samples(self):
        grid = IndexGrid(((0.0,),), np.array([2.0]))
        assert coorbit_norm(SampleVector(np.zeros(1, dtype=complex), grid.grid_id), grid, 2) == 0

    def test_parseval_matches_hs_norm(self):
        sys = heisenberg_finite_system(2)
        rho = Operator(np.diag([1.0, 0.0]))
        s = analyze(sys, rho)
        assert coorbit_norm(s, sys.grid, 2) == pytest.approx(1, abs=1e-12)

    def test_single_sample_weight_scaling(self):
        grid = IndexGrid(((0.0,),), np.array([0.7]))
        s = SampleVector(np.array([1.0 + 0j]), grid.grid_id)
        assert coorbit_norm(s, grid, 3) == pytest.approx(0.7 ** (1 / 3), abs=1e-14)

    def test_sup_norm(self):
        grid = IndexGrid(((0.0,), (1.0,)), np.array([0.5, 0.5]))
        s = SampleVector(np.array([1.0, -3.0j]), grid.grid_id)
        assert coorbit_norm(s, grid, math.inf) == 3

    def test_rejects_exponent_below_one(self):
        grid = IndexGrid(((0.0,),), np.array([1.0]))
        with pytest.raises(ValueError):
            coorbit_norm(SampleVector(np.array([1.0 + 0j]), grid.grid_id), grid, 0.5)


class TestFrameBounds:
    def test_lattice_parseval_bounds(self):
        for n in (2, 3, 4):
            report = frame_bounds(heisenberg_finite_system(n))
            assert abs(report.A - 1) < 1e-12
            assert abs(report.B - 1) < 1e-12

    def test_spin_bounds(self):
        p = SpinParams(1)
        report = frame_bounds(moyal_system(p, sphere_grid(p)))
        assert abs(report.A - 1) < 1e-10
        assert abs(report.B - 1) < 1e-10

    def test_weight_doubling_scales_bounds(self):
        sys = heisenberg_finite_system(2)
        doubled = dataclasses.replace(
            sys, grid=IndexGrid(sys.grid.nodes, 2 * np.asarray(sys.grid.weights))
        )
        report = frame_bounds(doubled)
        assert report.A == pytest.approx(math.sqrt(2), abs=1e-12)
        assert report.B == pytest.approx(math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("change, message", [("weights", "depend on phi"),
                                                 ("charges", "integer charge differences")])
    def test_system_needs_uniform_phase_circle(self, change, message):
        # frame_bounds sums the phi axis in closed form, which holds only on the
        # uniform circle (derived, so uniform by construction) with
        # phi-independent weights and integer charge differences
        p = SpinParams(1)
        sys = moyal_system(p, sphere_grid(p))
        n_phi = len(sys.phis)
        if change == "weights":
            w = sys.grid.weights * np.tile(1 + 0.1 * np.arange(n_phi), len(sys.grid) // n_phi)
            bad = {"grid": IndexGrid(sys.grid.nodes, w)}
        else:
            bad = {"analysis_family": sys.analysis_family._replace(charges=np.array([0.0, 0.5]))}
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(sys, **bad)

    def test_empirical_bounds_for_other_exponents(self):
        report = frame_bounds(heisenberg_finite_system(2), d=4, sample_count=32)
        assert 0 < report.A <= report.B

    def test_report_accepts_zero_lower_bound(self):
        # an under-resolved grid has A = 0; that is a value to report
        assert frame_core.FrameReport(0.0, 1.5, -0.1, 2.25).A == 0.0

    @pytest.mark.parametrize("a, b", [(-0.1, 1.0), (2.0, 1.0), (math.nan, 1.0),
                                      (0.5, math.nan), (0.5, math.inf)])
    def test_report_rejects_invalid_bounds(self, a, b):
        with pytest.raises(ValueError):
            frame_core.FrameReport(a, b, 0.0, 1.0)


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


class TestBlockLabels:
    # the numpy labelling against scipy's connected components: same blocks, same numbering
    @pytest.mark.parametrize("name", sorted(GATE_SYSTEMS))
    def test_gate_system_grams(self, name):
        pattern = frame_core._mixed_gram(GATE_SYSTEMS[name]()) != 0
        _, want = connected_components(pattern, directed=False)
        assert np.array_equal(frame_core._block_labels(pattern), want)

    @pytest.mark.parametrize("n,density", [(1, 0.5), (7, 0.2), (60, 0.02), (200, 0.005),
                                           (200, 0.05), (300, 0.0)])
    def test_random_sparse_symmetric_patterns(self, n, density):
        rng = np.random.default_rng(n)
        for _ in range(5):
            pattern = rng.random((n, n)) < density
            pattern |= pattern.T
            _, want = connected_components(pattern, directed=False)
            assert np.array_equal(frame_core._block_labels(pattern), want)


class TestRegularizer:
    def test_unit_at_zero(self):
        assert RegularizerSpec(2.0)(0.0) == 1.0

    def test_width(self):
        r = RegularizerSpec(3.0)
        assert r(3.0) == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RegularizerSpec(-1.0)
