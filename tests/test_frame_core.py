import dataclasses
import hashlib
import math
import types

import numpy as np
import pytest

import loop_reference
from coorbit import cv_tomo, frame_core, spin_moyal, su11_tomo
from coorbit.cv_tomo import FockSpace, PolarGrid, homodyne_system, multimode_system
from coorbit.discrete_ps import heisenberg_finite_system
from coorbit.frame_core import (
    IndexGrid,
    RegularizerSpec,
    SampleVector,
    admissibility_constant,
    analyze,
    coorbit_norm,
    frame_bounds,
    roundtrip,
    synthesize,
)
from coorbit.opalg import DensityMatrix, Operator, hs_inner
from coorbit.spin_moyal import SpinParams, kernel_direct, moyal_system, sphere_grid
from coorbit.su11_tomo import DiscreteSeriesRep, SUGrid, su11_system
from coorbit.symplectic_tomo import MarginalGrid, marginal
from test_engine_oracle import GATE_SYSTEMS


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

    def test_nodes_are_a_read_only_float_array(self):
        coords = np.array([[0, 1], [2, 3], [4, 5]])
        grid = IndexGrid(coords, [1.0, 2.0, 3.0])
        assert grid.nodes.dtype == float and grid.nodes.shape == (3, 2)
        assert not grid.nodes.flags.writeable and not grid.weights.flags.writeable
        with pytest.raises(ValueError):
            grid.nodes[0, 0] = 7.0
        assert coords.flags.writeable  # the grid holds its own copy
        assert np.array_equal(IndexGrid(((0, 1), (2, 3), (4, 5)), grid.weights).nodes, coords)
        with pytest.raises(ValueError):
            IndexGrid((0.0, 1.0), [1.0, 1.0])  # one coordinate row per node

    def test_grid_id_hashed_once(self, monkeypatch):
        grid = IndexGrid(((0.0, 1.5), (2.0, 0.25)), np.array([1.0, 3.0]))
        expect = hashlib.sha256(grid.nodes.tobytes() + grid.weights.tobytes()).hexdigest()[:16]
        calls = []
        counting = types.SimpleNamespace(sha256=lambda b: calls.append(b) or hashlib.sha256(b))
        monkeypatch.setattr(frame_core, "hashlib", counting)
        assert grid.grid_id == expect
        assert grid.grid_id == expect
        assert len(calls) == 1
        monkeypatch.undo()
        for index in np.ndindex(grid.nodes.shape):
            nodes = grid.nodes.copy()
            nodes[index] += 0.5
            assert IndexGrid(nodes, grid.weights).grid_id != expect
        for i in range(len(grid)):
            weights = grid.weights.copy()
            weights[i] += 0.5
            assert IndexGrid(grid.nodes, weights).grid_id != expect
        assert IndexGrid(grid.nodes, grid.weights).grid_id == expect

    @pytest.mark.parametrize(
        "build",
        [
            lambda: cv_tomo.PolarGrid(3.0, 7, 5).to_index_grid(),
            lambda: spin_moyal.sphere_grid(SpinParams(3)).to_index_grid(SpinParams(3)),
            lambda: spin_moyal.sphere_grid(SpinParams(2), 4, 1).to_index_grid(SpinParams(2)),
            lambda: su11_tomo.SUGrid(4.0, 9, 6).to_index_grid(),
        ],
        ids=["polar", "sphere", "sphere-one-phi", "su"],
    )
    def test_grids_equal_tuple_construction(self, build, monkeypatch):
        got = build()
        for module in (cv_tomo, spin_moyal, su11_tomo):
            monkeypatch.setattr(module, "slice_major_grid", loop_reference.slice_major_grid)
        want = build()
        assert got.nodes.tobytes() == want.nodes.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.grid_id == want.grid_id

    def test_node_views_find_every_node(self):
        sys = heisenberg_finite_system(4)
        for q in range(4):
            for p in range(4):
                want = loop_reference.displacement_discrete(4, q, p).entries
                assert np.array_equal(sys.analysis((q, p)).entries, want)
                assert np.array_equal(sys.synthesis(np.array([q, p])).entries, want)
        for node in [(0.5, 0.0), (0.0,), (0.0, 0.0, 0.0)]:
            with pytest.raises(ValueError, match="not a grid node"):
                sys.analysis(node)
        grids = [PolarGrid(2.0, 2, 3), PolarGrid(2.0, 2, 2)]
        s1, s2 = (homodyne_system(FockSpace(2), g) for g in grids)
        pair = multimode_system([FockSpace(2), FockSpace(2)], grids)
        nodes = iter(pair.grid.nodes)
        for n1 in s1.grid.nodes:
            for n2 in s2.grid.nodes:
                want = np.kron(s1.analysis(n1).entries, s2.analysis(n2).entries)
                assert np.abs(pair.analysis(next(nodes)).entries - want).max() < 1e-12

    def test_equality_is_identity(self):
        # array fields: compared by identity and hashed by id, never elementwise
        grid, twin = (PolarGrid(2.0, 2, 2).to_index_grid() for _ in range(2))
        assert grid == grid and not grid == twin and grid != twin
        sys, other = (homodyne_system(FockSpace(2), PolarGrid(2.0, 2, 2)) for _ in range(2))
        assert sys == sys and sys != other
        table = {grid: 1, twin: 2, sys: 3}
        assert (table[grid], table[twin], table[sys]) == (1, 2, 3)
        # the carriers of states, samples and sphere grids, likewise
        p = SpinParams(2)
        for make in (lambda: Operator(np.eye(2) / 2),
                     lambda: DensityMatrix(Operator(np.eye(2) / 2)),
                     lambda: SampleVector(np.ones(3), grid.grid_id),
                     lambda: sphere_grid(p)):
            one, two = make(), make()
            assert one == one and not one == two and one != two
            assert {one: 1, two: 2}[two] == 2


def test_gauss_legendre_is_one_shared_read_only_rule():
    x, w = frame_core.gauss_legendre(7)
    again = frame_core.gauss_legendre(7)
    assert again[0] is x and again[1] is w
    want_x, want_w = np.polynomial.legendre.leggauss(7)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    assert not x.flags.writeable and not w.flags.writeable


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

        def counted(sys):
            calls.append(sys)
            return build(sys)

        monkeypatch.setattr(frame_core, "_layout", counted)
        return calls

    @pytest.fixture
    def frame_calls(self, monkeypatch):
        calls = []
        build = frame_core._frame_operator

        def counted(sys, synthesis):
            calls.append((sys, synthesis))
            return build(sys, synthesis)

        monkeypatch.setattr(frame_core, "_frame_operator", counted)
        return calls

    @pytest.fixture
    def system_inits(self, monkeypatch):
        calls = []
        init = frame_core.TomographicSystem.__post_init__

        def counted(sys):
            calls.append(sys)
            init(sys)

        monkeypatch.setattr(frame_core.TomographicSystem, "__post_init__", counted)
        return calls

    def test_self_dual_system_builds_one_layout(self, layout_calls):
        sys = homodyne_system(FockSpace(6), PolarGrid(3.0, 8, 12))
        assert layout_calls == []
        rho = random_state(np.random.default_rng(7), 6)
        analyze(sys, rho)
        synthesize(sys, analyze(sys, rho))
        admissibility_constant(sys, sys.vacuum, sys.test_functional)
        assert layout_calls == [sys]

    def test_dual_pair_builds_one_layout(self, layout_calls):
        # the synthesis family resums through the analysis family's grouping and phases
        p = SpinParams(4)
        sys = moyal_system(p, sphere_grid(p))
        rho = random_state(np.random.default_rng(10), sys.dim)
        synthesize(sys, analyze(sys, rho))
        synthesize(sys, analyze(sys, rho))
        assert layout_calls == [sys]

    def test_dual_pair_builds_one_frame_operator(self, layout_calls, frame_calls):
        # roundtrip, admissibility_constant and frame_bounds read the cached S only
        p = SpinParams(4)
        sys = moyal_system(p, sphere_grid(p))
        rho = random_state(np.random.default_rng(8), sys.dim)
        roundtrip(sys, rho)
        roundtrip(sys, rho)
        admissibility_constant(sys, sys.vacuum, sys.test_functional)
        frame_bounds(sys)
        assert frame_calls == [(sys, sys.synthesis_family)]
        assert layout_calls == []

    def test_dual_pair_lp_bounds_build_analysis_frame_once(self, frame_calls, system_inits):
        # l^d bounds for d != 2 read the cached S_F of the system itself, not a rebuilt self-pair
        p = SpinParams(4)
        sys = moyal_system(p, sphere_grid(p))
        system_inits.clear()
        assert frame_bounds(sys, 3) == frame_bounds(sys, 3)
        assert frame_calls == [(sys, sys.analysis_family)]
        assert system_inits == []

    def test_self_dual_system_has_one_frame_operator(self, frame_calls):
        sys = homodyne_system(FockSpace(6), PolarGrid(3.0, 8, 12))
        frame_bounds(sys)
        frame_bounds(sys, 3)
        assert sys._analysis_frame is sys._frame
        assert frame_calls == [(sys, sys.analysis_family)]

    def test_two_mode_roundtrip_builds_no_layout(self, layout_calls, frame_calls):
        # a layout would hold a conjugated copy of the n1 * n_r2 expanded slices
        sys = multimode_system([FockSpace(4)] * 2, [PolarGrid(5.0, 12, 16)] * 2)
        rho = random_state(np.random.default_rng(9), sys.dim)
        _, err = roundtrip(sys, rho)
        assert err < 1e-3
        assert frame_calls == [(sys, sys.synthesis_family)]
        assert layout_calls == []


class TestSystemChecks:
    def test_one_family_object_checked_once(self, monkeypatch):
        # the lattice is self-dual (one object on both sides), the spin pair is not
        calls, check = [], frame_core._checked_differences
        monkeypatch.setattr(frame_core, "_checked_differences",
                            lambda name, *rest: calls.append(name) or check(name, *rest))
        heisenberg_finite_system(3)
        moyal_system(SpinParams(1), sphere_grid(SpinParams(1)))
        assert calls == ["analysis", "analysis", "synthesis"]

    @pytest.mark.parametrize("side", ["analysis", "synthesis"])
    @pytest.mark.parametrize("fault, message", [("shape", "family needs n_s >= 1"),
                                                ("finite", "family must be finite"),
                                                ("charges", "family needs integer charge")])
    def test_each_family_named_in_its_message(self, side, fault, message):
        sys = moyal_system(SpinParams(1), sphere_grid(SpinParams(1)))
        family = getattr(sys, f"{side}_family")
        if fault == "shape":
            bad = family._replace(slices=family.slices[:, :1, :1])
        elif fault == "finite":
            bad = family._replace(slices=np.where(np.eye(2), np.nan, family.slices))
        else:
            bad = family._replace(charges=np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match=f"{side} {message}"):
            dataclasses.replace(sys, **{f"{side}_family": bad})

    @pytest.mark.parametrize("charges", [[0.0, 1e19], [-2.0**52, 2.0**52], [-2**62, 2**62]])
    def test_rejects_differences_past_exact_integers(self, charges):
        # past 2^53 a float difference is no longer an exact integer (at [0, 1e19] roundtrip
        # and synthesize(analyze(.)) differed), and int64 charges of opposite sign at 2^62
        # wrap to -2^63 if subtracted as ints
        sys = heisenberg_finite_system(2)
        family = sys.analysis_family._replace(charges=np.array(charges))
        with pytest.raises(ValueError, match="analysis family needs integer charge differences"):
            dataclasses.replace(sys, analysis_family=family, synthesis_family=family)

    def test_keeps_differences_as_ints(self):
        sys = moyal_system(SpinParams(2), sphere_grid(SpinParams(2)))
        charges = sys.analysis_family.charges
        assert sys._diffs.dtype.kind == "i"
        assert np.array_equal(sys._diffs, np.subtract.outer(charges, charges).ravel())


class TestRoundtrip:
    def test_keeps_the_finiteness_scan(self, monkeypatch):
        # the engine's array is adopted, not copied, and still scanned
        monkeypatch.setattr(frame_core, "_apply_frame", lambda sys, o: np.full((2, 2), np.nan + 0j))
        with pytest.raises(ValueError, match="operator entries must be finite"):
            roundtrip(heisenberg_finite_system(2), Operator(np.eye(2)))

    def test_result_is_read_only(self):
        rec, _ = roundtrip(heisenberg_finite_system(2), Operator(np.eye(2)))
        assert not rec.entries.flags.writeable

    def test_synthesize_adopts_its_array(self, monkeypatch):
        # the resummed array is the engine's own: read-only, neither copied nor rescanned
        sys = heisenberg_finite_system(3)
        s = analyze(sys, Operator(np.eye(3)))
        monkeypatch.setattr(Operator, "__post_init__", lambda op: pytest.fail("copied"))
        rec = synthesize(sys, s)
        assert not rec.entries.flags.writeable
        assert np.abs(rec.entries - np.eye(3)).max() < 1e-14

    def test_synthesize_keeps_the_finiteness_scan(self, monkeypatch):
        sys = heisenberg_finite_system(2)
        s = analyze(sys, Operator(np.eye(2)))
        monkeypatch.setattr(frame_core, "_resum", lambda *args: np.full((2, 2), np.nan + 0j))
        with pytest.raises(ValueError, match="operator entries must be finite"):
            synthesize(sys, s)

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

    def test_rejects_nan_exponent(self):
        # a NaN exponent fails every comparison; on a unit sample it read 1.0
        grid = IndexGrid(((0.0,),), np.array([1.0]))
        with pytest.raises(ValueError, match="norm exponent must be >= 1"):
            coorbit_norm(SampleVector(np.array([1.0 + 0j]), grid.grid_id), grid, math.nan)


# su11 systems whose charge classes pack into blocks of three or more sizes
SEVERAL_BLOCK_SIZES = {
    "su11-6": lambda: su11_system(DiscreteSeriesRep(1.0, 6), SUGrid(4.0, 20, 8)),
    "su11-10": lambda: su11_system(DiscreteSeriesRep(1.0, 10), SUGrid(6.0, 80, 16)),
}


def _one_node(c, w):
    """One node of weight w whose 1 x 1 slice is c: every l^d ratio is |c| w^(1/d), so A = B."""
    family = frame_core.SliceFamily(np.full((1, 1, 1), c, dtype=complex), np.zeros(1))
    return frame_core.TomographicSystem(IndexGrid(((0.0, 0.0),), np.array([w])), family, family,
                                        Operator(np.eye(1)), Operator(np.eye(1)))


# the systems of the certified d != 2 bounds; su11 at cutoff 6 is not a frame (A = 0),
# and on the tight one-node family A and B round apart in either order
CERTIFIED = {
    "one-node": lambda: _one_node(3.0, 2.7),
    "dps-3": lambda: heisenberg_finite_system(3),
    "dps-5": lambda: heisenberg_finite_system(5),
    "homodyne-6": lambda: homodyne_system(FockSpace(6), PolarGrid(5.0, 16, 16)),
    "spin-3": lambda: moyal_system(SpinParams(3), sphere_grid(SpinParams(3))),
    "su11-6": SEVERAL_BLOCK_SIZES["su11-6"],
}


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

    def test_dual_pair_needs_equal_charge_differences(self):
        # pi at charges -r keys its entries to other classes than B at +r, so
        # S would not split along one set of blocks
        sys = su11_system(DiscreteSeriesRep(1.0, 8), SUGrid(3.0, 6, 8))
        flipped = sys.synthesis_family._replace(charges=-np.arange(8))
        with pytest.raises(ValueError, match="same charge differences"):
            dataclasses.replace(sys, synthesis_family=flipped)

    @pytest.mark.parametrize("name", [*sorted(GATE_SYSTEMS), *sorted(SEVERAL_BLOCK_SIZES)])
    def test_grouped_eigensolves_equal_per_block_loop(self, name):
        # the blocks of one size go to eigvalsh stacked, each through the LAPACK
        # call the per-block loop makes, so A and B keep their bits
        sys = {**GATE_SYSTEMS, **SEVERAL_BLOCK_SIZES}[name]()
        report = frame_bounds(sys)
        assert (report.A, report.B) == loop_reference.frame_bounds(sys)

    @pytest.mark.parametrize("name", sorted(SEVERAL_BLOCK_SIZES))
    def test_su11_blocks_come_in_several_sizes(self, name):
        sys = SEVERAL_BLOCK_SIZES[name]()
        sizes = np.count_nonzero(sys._frame.index < sys.dim**2, 1)
        assert len(np.unique(sizes)) >= 3

    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_certified_bounds_contain_sampled_ratios(self, name):
        # d != 2 bounds come from the analysis family's own l^2 spectrum, whose
        # ends match a dense SVD; every sampled ratio lies inside them
        sys = CERTIFIED[name]()
        low, high = loop_reference.analysis_singular_values(sys)
        for d in (1, 1.5, 3, 4, math.inf):
            report = frame_bounds(sys, d)
            assert abs(math.sqrt(max(report.gram_spectrum_min, 0.0)) - low) <= 1e-12 * high
            assert abs(math.sqrt(report.gram_spectrum_max) - high) <= 1e-12 * high
            smallest, largest = loop_reference.sampled_frame_ratios(sys, d)
            assert report.A <= smallest * (1 + 1e-12)
            assert largest <= report.B * (1 + 1e-12)
            if name == "su11-6":  # the analysis operator has a null direction: not a frame
                assert report.A == 0 and low <= 1e-12 * high
            if name == "one-node":  # tight: both bounds are the one ratio
                assert report.A == pytest.approx(smallest, rel=1e-12)
                assert report.B == pytest.approx(largest, rel=1e-12)

    @pytest.mark.parametrize("d", [0.5, math.nan])
    def test_rejects_exponent_below_one(self, d):
        with pytest.raises(ValueError, match="norm exponent must be >= 1"):
            frame_bounds(heisenberg_finite_system(2), d)

    def test_report_accepts_zero_lower_bound(self):
        # an under-resolved grid has A = 0; that is a value to report
        assert frame_core.FrameReport(0.0, 1.5, -0.1, 2.25).A == 0.0

    @pytest.mark.parametrize("a, b", [(-0.1, 1.0), (2.0, 1.0), (math.nan, 1.0),
                                      (0.5, math.nan), (0.5, math.inf)])
    def test_report_rejects_invalid_bounds(self, a, b):
        with pytest.raises(ValueError):
            frame_core.FrameReport(a, b, 0.0, 1.0)


class TestRegularizer:
    def test_unit_at_zero(self):
        assert RegularizerSpec(2.0)(0.0) == 1.0

    def test_width(self):
        r = RegularizerSpec(3.0)
        assert r(3.0) == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RegularizerSpec(-1.0)


VACUUM = DensityMatrix(Operator(np.diag([1.0, 0.0, 0.0])))
POSITIVE_PARAMETERS = {
    "PolarGrid.R": (lambda x: PolarGrid(x, 4, 4), "polar grid needs R > 0"),
    "SUGrid.theta_max": (lambda x: SUGrid(x, 4, 4), "need theta_max > 0"),
    "DiscreteSeriesRep.k": (lambda x: DiscreteSeriesRep(x, 6), "Bargmann index must be positive"),
    "probe_vector_cv": (lambda x: cv_tomo.probe_vector_cv(FockSpace(4), x),
                        "probe width must be positive"),
    "MarginalGrid.X_max": (lambda x: MarginalGrid(x, 9, 8.0, 6, RegularizerSpec(2.0)),
                           "grid extents"),
    "MarginalGrid.L": (lambda x: MarginalGrid(6.5, 9, x, 6, RegularizerSpec(2.0)), "grid extents"),
    "RegularizerSpec": (RegularizerSpec, "regularizer width must be positive"),
    "marginal.mu": (lambda x: marginal(VACUUM, x, 0.0, np.zeros(3)), "must be finite"),
    "marginal.nu": (lambda x: marginal(VACUUM, 1.0, x, np.zeros(3)), "must be finite"),
}


@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(POSITIVE_PARAMETERS))
def test_non_finite_parameter_rejected(name, x):
    # x <= 0 is false for NaN and +inf; each check names its own parameter
    build, message = POSITIVE_PARAMETERS[name]
    with pytest.raises(ValueError, match=message):
        build(x)


def test_infinite_grid_weight_rejected():
    with pytest.raises(ValueError, match="all grid weights must be positive"):
        IndexGrid(((0.0,), (1.0,)), np.array([1.0, math.inf]))
