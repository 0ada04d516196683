import math
import tracemalloc

import numpy as np
import pytest

import loop_reference
from coorbit import cv_tomo
from coorbit.frame_core import frame_bounds, roundtrip, singular_admissibility
from coorbit.cv_tomo import (
    FockSpace,
    OrderingKind,
    PolarGrid,
    admissibility_cv,
    char_function,
    coherent_state,
    coherent_states,
    displaced_parity,
    displaced_parity_closed,
    displacement_cv,
    displacements,
    homodyne_system,
    lowering,
    multimode_admissibility,
    multimode_system,
    parity_fit_report,
    parity_operator,
    probe_vector_cv,
    qfunction,
    qfunctions,
    quadrature_operator,
    wigner_point,
    wigner_points,
)
from coorbit.cv_tomo import _ordered_displacement
from coorbit.opalg import (
    DensityMatrix,
    Operator,
    closest_density,
    fidelity,
    matrix_exp,
)
from coorbit.symplectic_tomo import marginal_wigner_consistency


def fock_state(d, n):
    m = np.zeros((d, d), dtype=complex)
    m[n, n] = 1
    return DensityMatrix(Operator(m))


def coherent_density(d, beta):
    v = coherent_state(FockSpace(d), beta)
    return DensityMatrix(Operator(np.outer(v, v.conj())))


class TestDisplacement:
    def test_zero_is_identity(self):
        assert np.abs(displacement_cv(FockSpace(6), 0.0).entries - np.eye(6)).max() < 1e-15

    def test_vacuum_overlap(self):
        # <0|D(alpha)|0> = e^{-|alpha|^2 / 2}
        d = displacement_cv(FockSpace(12), 1.0).entries
        assert d[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-14)

    def test_column_is_coherent_state(self):
        beta = 0.4 + 0.3j
        d = displacement_cv(FockSpace(40), beta).entries
        v = coherent_state(FockSpace(40), beta)
        assert np.abs(d[:, 0] - v).max() < 1e-12

    def test_matches_padded_exponential(self):
        # independent construction: expm at a larger dimension, cropped
        d, pad = 8, 24
        alpha = 0.7 - 0.2j
        a = lowering(d + pad)
        gen = alpha * a.conj().T - np.conj(alpha) * a
        big = matrix_exp(Operator(gen)).entries[:d, :d]
        got = displacement_cv(FockSpace(d), alpha).entries
        assert np.abs(got - big).max() < 1e-12

    def test_composition_phase(self):
        # D(a) D(b) = e^{i Im(a conj(b))} D(a + b) on the retained block
        d, pad = 6, 30
        a, b = 0.5 + 0.1j, -0.3 + 0.4j
        fa = displacement_cv(FockSpace(d + pad), a).entries
        fb = displacement_cv(FockSpace(d + pad), b).entries
        fab = displacement_cv(FockSpace(d + pad), a + b).entries
        phase = np.exp(1j * (a * np.conj(b)).imag)
        assert np.abs((fa @ fb - phase * fab)[:d, :d]).max() < 1e-10

    def test_unitary_on_low_block(self):
        d, pad = 6, 30
        u = displacement_cv(FockSpace(d + pad), 1.2j).entries
        assert np.abs((u.conj().T @ u - np.eye(d + pad))[:d, :d]).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 8, 16, 32, 48])
    def test_matches_scipy_laguerre(self, d):
        # the numpy recurrence against scipy's Laguerre polynomials, |alpha|^2 up to 169
        rng = np.random.default_rng(d)
        alphas = np.sqrt(np.linspace(0, 169, 40)) * np.exp(2j * math.pi * rng.random(40))
        for got, alpha in zip(displacements(d, alphas), alphas):
            want = loop_reference.displacement_laguerre(d, alpha)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_stack_rows_equal_one_node(self):
        alphas = [0.0, 0.3 - 0.4j, 2.5j, -4.0]
        stack = displacements(12, alphas)
        for row, alpha in zip(stack, alphas):
            assert np.array_equal(row, displacement_cv(FockSpace(12), alpha).entries)


class TestOrderings:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            OrderingKind("symmetric")

    def test_husimi_constraint(self):
        with pytest.raises(ValueError):
            OrderingKind("husimi", mu=1.0, nu=1.0)
        ok = OrderingKind("husimi")
        assert ok.mu == pytest.approx(math.cosh(0.5))

    def test_normal_weyl_ratio(self):
        # chi_normal(alpha) = e^{|alpha|^2 / 2} chi_weyl(alpha)
        rho = coherent_density(24, 0.3)
        alpha = 0.4 + 0.2j
        cn = char_function(rho, alpha, OrderingKind("normal"))
        cw = char_function(rho, alpha, OrderingKind("weyl"))
        assert cn == pytest.approx(cw * math.exp(abs(alpha) ** 2 / 2), abs=1e-10)

    def test_antinormal_weyl_ratio(self):
        rho = fock_state(24, 1)
        alpha = 0.5
        ca = char_function(rho, alpha, OrderingKind("antinormal"))
        cw = char_function(rho, alpha, OrderingKind("weyl"))
        assert ca == pytest.approx(cw * math.exp(-abs(alpha) ** 2 / 2), abs=1e-10)

    def test_standard_antistandard_conjugate_pair(self):
        # the two factor orders differ by the scalar e^{+-i q0 p0}
        rho = coherent_density(24, 0.2 - 0.1j)
        alpha = 0.3 + 0.5j
        cs = char_function(rho, alpha, OrderingKind("standard"))
        ca = char_function(rho, alpha, OrderingKind("antistandard"))
        q0, p0 = math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag
        assert cs == pytest.approx(ca * np.exp(-1j * q0 * p0), abs=1e-9)

    @pytest.mark.parametrize("kind", OrderingKind._KINDS)
    def test_closed_form_matches_padded_products(self, kind):
        # the padded products converge to the BCH closed forms at small |alpha|
        ordering = OrderingKind(kind)
        for d in (1, 4, 10):
            for alpha in (0.0, 0.3, -0.2 + 0.4j, 0.5j, 0.35 - 0.35j):
                want = loop_reference.ordered_displacement(d, alpha, ordering)
                got = _ordered_displacement(d, alpha, ordering)
                assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("kind", OrderingKind._KINDS)
    @pytest.mark.parametrize("alpha", [1.5j, 1 + 1j])
    def test_scalar_times_weyl_on_random_state(self, kind, alpha):
        # chi_kind(alpha) = conj(c) chi_weyl(beta) for the BCH scalar c and point beta;
        # padded products cut their sums off at d + PAD levels and miss this
        rng = np.random.default_rng(7)
        m = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        rho = DensityMatrix(Operator(m @ m.conj().T / np.trace(m @ m.conj().T).real))
        ordering = OrderingKind(kind)
        half, cross = abs(alpha) ** 2 / 2, 1j * alpha.real * alpha.imag
        c = {"weyl": 1, "normal": math.exp(half), "antinormal": math.exp(-half),
             "husimi": math.exp(half), "standard": np.exp(cross),
             "antistandard": np.exp(-cross)}[kind]
        beta = ordering.mu * alpha - ordering.nu * np.conj(alpha) if kind == "husimi" else alpha
        want = np.conj(c) * char_function(rho, beta, OrderingKind("weyl"))
        assert abs(char_function(rho, alpha, ordering) - want) <= 1e-12

    def test_weyl_at_zero_is_trace(self):
        rho = fock_state(10, 3)
        assert char_function(rho, 0.0, OrderingKind("weyl")) == pytest.approx(1, abs=1e-14)

    def test_char_magnitude_bounded(self):
        rho = coherent_density(32, 0.5j)
        for alpha in (0.1, 0.7 + 0.7j, 1.5j):
            assert abs(char_function(rho, alpha, OrderingKind("weyl"))) <= 1 + 1e-10


class TestQuadrature:
    def test_phi_zero_is_position_like(self):
        x = quadrature_operator(FockSpace(3), 0.0).entries
        expect = np.array(
            [[0, 1, 0], [1, 0, math.sqrt(2)], [0, math.sqrt(2), 0]], dtype=complex
        ) / 2
        assert np.abs(x - expect).max() < 1e-14

    def test_hermitian(self):
        x = quadrature_operator(FockSpace(8), 1.1).entries
        assert np.abs(x - x.conj().T).max() < 1e-14

    def test_rotation_covariance(self):
        # X_phi = e^{i phi n} X_0 e^{-i phi n}  up to the opposite sign
        d = 8
        n = np.diag(np.arange(d))
        phi = 0.8
        u = np.diag(np.exp(1j * phi * np.arange(d)))
        x0 = quadrature_operator(FockSpace(d), 0.0).entries
        xphi = quadrature_operator(FockSpace(d), phi).entries
        assert np.abs(u @ x0 @ u.conj().T - xphi).max() < 1e-13


class TestHomodyneSystem:
    def test_coherent_roundtrip(self):
        f = FockSpace(24)
        sys = homodyne_system(f, PolarGrid(6.0, 40, 48))
        rho = coherent_density(24, 0.8 + 0.4j)
        rec, err = roundtrip(sys, rho.op)
        assert err < 1e-6

    def test_fock1_fidelity(self):
        f = FockSpace(24)
        sys = homodyne_system(f, PolarGrid(6.0, 40, 48))
        rho = fock_state(24, 1)
        rec, _ = roundtrip(sys, rho.op)
        assert fidelity(rho, closest_density(rec)) > 0.999

    def test_radius_ladder_monotone(self):
        f = FockSpace(12)
        rho = coherent_density(12, 0.5)
        errs = []
        for R in (2.0, 3.0, 4.0):
            sys = homodyne_system(f, PolarGrid(R, 32, 32))
            _, err = roundtrip(sys, rho.op)
            errs.append(err)
        assert errs[0] > errs[1] > errs[2]

    def test_grid_total_weight(self):
        g = PolarGrid(3.0, 16, 8).to_index_grid()
        assert np.sum(g.weights) * math.pi / (2 * math.pi) == pytest.approx(
            9 / 2, abs=1e-12
        )

    def test_phase_closure_matches_direct(self):
        # radial slices conjugated by e^{i phi n} equal a direct build at every node
        f = FockSpace(10)
        sys = homodyne_system(f, PolarGrid(2.0, 4, 4))
        for node in sys.grid.nodes:
            r, ph = node
            direct = displacement_cv(f, r * np.exp(1j * ph)).entries
            assert np.abs(sys.analysis(node).entries - direct).max() < 1e-12
            assert np.abs(sys.synthesis(node).entries - direct).max() < 1e-12


class TestProbeAdmissibility:
    def test_probe_diagonal_values(self):
        p = probe_vector_cv(FockSpace(4), 1.0).entries
        assert np.allclose(np.diag(p), [0.5, 0.25, 0.125, 0.0625])

    def test_probe_rejects_bad_width(self):
        with pytest.raises(ValueError):
            probe_vector_cv(FockSpace(4), 0.0)

    def test_admissibility_matches_probe_trace(self):
        f = FockSpace(32)
        delta = 2.0
        got = admissibility_cv(f, delta, PolarGrid(6.0, 40, 48))
        ratio = delta / (delta + 1)
        expect = delta * (1 - ratio**f.d)
        assert abs(got.real - expect) / expect < 1e-4
        assert abs(got.imag) < 1e-8

    def test_matches_generic_singular_path(self):
        f = FockSpace(16)
        grid = PolarGrid(5.0, 24, 24)
        via_helper = admissibility_cv(f, 1.5, grid)
        via_core = singular_admissibility(
            homodyne_system(f, grid), probe_vector_cv(f, 1.5)
        )
        assert abs(via_helper - via_core) < 1e-12


class TestDisplacedParity:
    def test_fit_constant_and_residual(self):
        c, residual = parity_fit_report(16)
        assert c.real == pytest.approx(2.0, abs=1e-6)
        assert abs(c.imag) < 1e-9
        assert residual < 1e-6

    def test_quadrature_matches_scaled_parity(self):
        u0 = displaced_parity(FockSpace(10), 0.0).entries
        assert np.abs(u0 - 2 * parity_operator(10).entries).max() < 1e-7

    @pytest.mark.parametrize("d", [4, 16])
    def test_closed_form_bit_equal_to_padded_product(self, d):
        for alpha in (0.0, 0.3 + 0.2j, -1.1j, 2.0):
            got = displaced_parity_closed(FockSpace(d), alpha).entries
            assert np.array_equal(got, loop_reference.displaced_parity_closed(d, alpha))

    def test_closed_form_matches_quadrature(self):
        f = FockSpace(10)
        for alpha in (0.0, 0.3 + 0.2j, -0.5j):
            quad = displaced_parity(f, alpha).entries
            assert np.abs(quad - displaced_parity_closed(f, alpha).entries).max() < 1e-11

    def test_wigner_vacuum_gaussian(self):
        rho = fock_state(24, 0)
        for q, p in ((0.0, 0.0), (1.0, 0.5), (0.3, -1.2)):
            expect = math.exp(-(q * q + p * p)) / math.pi
            assert wigner_point(rho, q, p) == pytest.approx(expect, abs=1e-10)

    def test_wigner_fock1_negative_at_origin(self):
        rho = fock_state(24, 1)
        assert wigner_point(rho, 0.0, 0.0) == pytest.approx(-1 / math.pi, abs=1e-10)

    def test_wigner_function_matches_closed_form_trace(self):
        # the batched trace against Tr[rho U(alpha)] / (2 pi) with the one-node closed form
        rho = coherent_density(12, 0.3 + 0.5j)
        q, p = np.array([0.0, 0.7, -1.2, 2.0]), np.array([0.0, -0.4, 0.9, 1.5])
        want = [np.trace(rho.op.entries @ displaced_parity_closed(
            FockSpace(12), (a + 1j * b) / math.sqrt(2)).entries).real / (2 * math.pi)
            for a, b in zip(q, p)]
        assert np.abs(wigner_points(rho, q, p) - want).max() < 1e-15

    def test_wigner_chunks_bit_identical_to_one_stack(self, monkeypatch):
        # every chunk size from 1 point (run as 2) to all 10, against one stack
        rho = coherent_density(6, 0.4 - 0.2j)
        q, p = np.linspace(-2, 2, 10), np.linspace(1.5, -1, 10)
        monkeypatch.setattr(cv_tomo, "WIGNER_CHUNK", 10 * 36)
        whole = wigner_points(rho, q, p)
        for points in range(1, 10):
            monkeypatch.setattr(cv_tomo, "WIGNER_CHUNK", points * 36)
            assert np.array_equal(wigner_points(rho, q, p), whole), points

    def test_wigner_consistency_memory_bounded(self):
        # 13 x 120 points at d 48 held about 139 MB as one displacement stack
        rho = coherent_density(48, 0.7 - 0.4j)
        tracemalloc.start()
        try:
            marginal_wigner_consistency(rho, FockSpace(48))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6


class TestQFunction:
    def test_vacuum(self):
        rho = fock_state(24, 0)
        for alpha in (0.0, 0.5, 1.0 + 0.5j):
            assert qfunction(rho, alpha) == pytest.approx(
                math.exp(-abs(alpha) ** 2), abs=1e-8
            )

    def test_coherent_peak(self):
        rho = coherent_density(32, 0.7 + 0.2j)
        assert qfunction(rho, 0.7 + 0.2j) == pytest.approx(1, abs=1e-8)

    def test_batched_matches_per_node_overlap(self):
        # one contraction over every alpha against <alpha|rho|alpha> one node at a time
        rho = coherent_density(16, -0.4 + 0.6j)
        alphas = np.array([0.0, 0.5, 1.0 + 0.5j, -2.0j, 3.5 - 1.0j])
        want = [np.vdot(v, rho.op.entries @ v).real for v in
                (coherent_state(FockSpace(16), a) for a in alphas)]
        assert np.abs(qfunctions(rho, alphas) - want).max() < 1e-15

    def test_coherent_states_rows_and_large_beta(self):
        betas = [0.0, 0.3 + 0.1j, 40.0, 1e6j]
        v = coherent_states(FockSpace(8), betas)
        for row, beta in zip(v, betas):
            assert np.array_equal(row, coherent_state(FockSpace(8), beta))
        # no row underflows: |beta| >> d leaves the state near the top level
        assert np.all(np.isfinite(v)) and np.allclose(np.linalg.norm(v, axis=1), 1)
        assert abs(v[2, -1]) > 0.5 and abs(v[3, -1]) > 0.99

    def test_disc_normalization(self):
        # integral Q d^2alpha / pi over a radius-6 disc = 1 up to tail
        rho = coherent_density(32, 0.5)
        grid = PolarGrid(6.0, 48, 64).to_index_grid()
        total = sum(
            w * qfunction(rho, r * np.exp(1j * ph))
            for (r, ph), w in zip(grid.nodes, grid.weights)
        )
        assert total == pytest.approx(1, abs=1e-3)


class TestMultimode:
    def test_rejects_three_modes(self):
        f = FockSpace(2)
        g = PolarGrid(2.0, 2, 2)
        with pytest.raises(ValueError):
            multimode_system([f, f, f], [g, g, g])

    def test_single_mode_passthrough(self):
        f = FockSpace(4)
        g = PolarGrid(3.0, 8, 8)
        sys = multimode_system([f], [g])
        assert sys.dim == 4

    def test_two_mode_roundtrip_small(self):
        f = FockSpace(4)
        g = PolarGrid(3.5, 10, 12)
        sys = multimode_system([f, f], [g, g])
        v1 = coherent_state(f, 0.3)
        v2 = coherent_state(f, -0.2 + 0.1j)
        v = np.kron(v1, v2)
        rho = Operator(np.outer(v, v.conj()))
        _, err = roundtrip(sys, rho)
        assert err < 1e-2

    def test_product_admissibility_factorizes(self):
        f = FockSpace(12)
        g = PolarGrid(5.0, 24, 24)
        prod = multimode_admissibility([f, f], 2.0, [g, g])
        single = admissibility_cv(f, 2.0, g)
        assert abs(prod - single**2) < 1e-12


class TestFrameQuality:
    def test_bounds_near_unity(self):
        f = FockSpace(6)
        report = frame_bounds(homodyne_system(f, PolarGrid(5.0, 32, 24)))
        assert abs(report.A - 1) < 1e-2
        assert abs(report.B - 1) < 1e-2
