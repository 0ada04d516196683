import math

import mpmath
import numpy as np
import pytest

import loop_reference
from coorbit.frame_core import analyze, frame_bounds, roundtrip
from coorbit.opalg import DensityMatrix, Operator, hs_inner
from coorbit.spin_moyal import (
    SpinParams,
    _angular_momentum,
    dual_coefficients,
    kernel_direct,
    kernel_dual,
    moyal_system,
    rotation_operator,
    sphere_grid,
    tracial_overlap,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_state(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return Operator(rho / np.trace(rho).real)


class TestDualCoefficients:
    @pytest.mark.parametrize("two_s", range(11))
    def test_equal_sympy_3j_ratio_sum(self, two_s):
        # the defining sum of exact 3j ratios, rounded once: equal bit for bit
        wigner = pytest.importorskip("sympy.physics.wigner")
        from sympy import Rational

        s = Rational(two_s, 2)
        want = []
        for i in range(two_s + 1):
            m = s - i
            total = sum(
                Rational(2 * l + 1, two_s + 1) * (-1) ** i
                * wigner.wigner_3j(s, l, s, m, 0, -m) / wigner.wigner_3j(s, l, s, s, 0, -s)
                for l in range(two_s + 1)
            )
            want.append(float(total))
        assert dual_coefficients(two_s) == tuple(want)

    def test_equal_exact_recurrence_sum(self):
        # the same sum by the discrete Chebyshev recurrence, rounded once
        for two_s in range(65):
            want = tuple(float(c) for c in loop_reference.dual_coefficients(two_s))
            assert dual_coefficients(two_s) == want

    @pytest.mark.parametrize("two_s", [58, 64])
    def test_large_spin_is_finite(self, two_s):
        # a floating-point factorial evaluation overflows from 2s = 58 on
        coeffs = dual_coefficients(two_s)
        assert len(coeffs) == two_s + 1
        assert all(isinstance(c, float) and math.isfinite(c) for c in coeffs)


class TestRotationOperator:
    def test_theta_zero_is_identity(self):
        assert np.allclose(rotation_operator(SpinParams(2), 0.0, 1.3).entries, np.eye(3))

    def test_flips_spin_half(self):
        u = rotation_operator(SpinParams(1), math.pi, 0.0).entries
        mapped = u @ np.array([1, 0])
        assert abs(abs(mapped[1]) - 1) < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rotation_operator(
                SpinParams(3), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            ).entries
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    @pytest.mark.parametrize("two_s", [1, 2, 5, 10, 16])
    @pytest.mark.parametrize("phi", [0.0, 1.3])
    def test_matches_scipy_expm(self, two_s, phi):
        p = SpinParams(two_s)
        for theta in np.linspace(0, math.pi, 7):
            got = rotation_operator(p, theta, phi).entries
            assert np.abs(got - loop_reference.rotation_expm(p, theta, phi)).max() < 1e-14

    @pytest.mark.parametrize("two_s", [1, 6, 16])
    def test_matches_extended_precision_expm(self, two_s):
        # 40-digit mpmath expm of the generator; the eigh route stays within 2e-15
        p = SpinParams(two_s)
        jx, jy = _angular_momentum(p)
        for theta, phi in ((0.4, 0.0), (2.9, 1.3)):
            gen = -math.sin(phi) * jx + math.cos(phi) * jy
            with mpmath.workdps(40):
                e = mpmath.expm(mpmath.matrix((-1j * theta * gen).tolist()))
                want = np.array(e.tolist(), dtype=complex)
            assert np.abs(rotation_operator(p, theta, phi).entries - want).max() <= 2e-15


class TestKernels:
    def test_direct_north_pole(self):
        k = kernel_direct(SpinParams(4), 0.0, 0.0).entries
        assert np.allclose(k, np.diag([1, 0, 0, 0, 0]))

    def test_direct_equator_spin_half(self):
        k = kernel_direct(SpinParams(1), math.pi / 2, 0.0).entries
        assert np.abs(k - (np.eye(2) + SX) / 2).max() < 1e-12

    def test_direct_idempotent(self):
        k = kernel_direct(SpinParams(3), 1.1, 2.2).entries
        assert np.abs(k @ k - k).max() < 1e-12

    def test_dual_coefficients_spin_half(self):
        assert dual_coefficients(1) == pytest.approx((2, -1), abs=1e-12)

    def test_dual_coefficients_by_duality_system(self):
        # independent determination: solve the duality condition
        # sum_n w_n tr[Delta^n Delta_m] Delta_n = Delta_m as a linear system
        # for the diagonal coefficients of Delta^n
        # unknowns c_b with Delta^n = U_n diag(c) U_n^dag; each target
        # Delta_m and entry (i, j) contributes one linear equation
        p = SpinParams(1)
        grid = sphere_grid(p).to_index_grid(p)
        directs = [kernel_direct(p, *n).entries for n in grid.nodes]
        rotations = [rotation_operator(p, *n).entries for n in grid.nodes]
        a_mat = []
        b_vec = []
        for target in (directs[0], directs[3]):
            for i in range(2):
                for j in range(2):
                    row = np.zeros(2, dtype=complex)
                    for w, u, dk in zip(grid.weights, rotations, directs):
                        for b in range(2):
                            basis_b = np.outer(u[:, b], u[:, b].conj())
                            row[b] += w * np.trace(basis_b @ target) * dk[i, j]
                    a_mat.append(row)
                    b_vec.append(target[i, j])
        coeffs, *_ = np.linalg.lstsq(np.array(a_mat), np.array(b_vec), rcond=None)
        assert np.abs(coeffs - np.array([2, -1])).max() < 1e-10

    def test_dual_trace_one(self):
        for two_s in (1, 2, 3):
            k = kernel_dual(SpinParams(two_s), 0.7, 1.9)
            assert k.trace() == pytest.approx(1, abs=1e-12)

    def test_dual_hermitian(self):
        k = kernel_dual(SpinParams(2), 1.2, 0.4).entries
        assert np.abs(k - k.conj().T).max() < 1e-12

    def test_pair_overlap_depends_only_on_angle(self):
        rng = np.random.default_rng(2)
        p = SpinParams(2)
        for _ in range(10):
            th1, ph1 = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            delta = rng.uniform(0, math.pi / 2)
            # rotate both directions about z by the same azimuth: the angle
            # between them is unchanged, so the overlap must match
            shift = rng.uniform(0, 2 * math.pi)
            o1 = hs_inner(kernel_direct(p, th1, ph1), kernel_dual(p, th1 + delta, ph1))
            o2 = hs_inner(
                kernel_direct(p, th1, ph1 + shift), kernel_dual(p, th1 + delta, ph1 + shift)
            )
            assert abs(o1 - o2) < 1e-10


class TestTracialOverlap:
    def test_north_pole_value(self):
        for two_s in (1, 2, 4):
            assert tracial_overlap(SpinParams(two_s), 0.0) == pytest.approx(two_s + 1, abs=1e-12)

    def test_equator_spin_half(self):
        assert tracial_overlap(SpinParams(1), math.pi / 2) == pytest.approx(0.5, abs=1e-12)

    def test_south_pole_spin_half(self):
        assert tracial_overlap(SpinParams(1), math.pi) == pytest.approx(-1, abs=1e-12)

    def test_matches_direct_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            two_s = int(rng.integers(1, 5))
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            p = SpinParams(two_s)
            direct = hs_inner(kernel_direct(p, 0.0, 0.0), kernel_dual(p, theta, phi))
            assert abs(direct - tracial_overlap(p, theta)) < 1e-10


class TestSphereGrid:
    def test_total_weight(self):
        for two_s in (1, 2, 5):
            p = SpinParams(two_s)
            grid = sphere_grid(p).to_index_grid(p)
            assert np.sum(grid.weights) == pytest.approx(two_s + 1, abs=1e-12)

    def test_under_resolved_rejected(self):
        p = SpinParams(4)
        with pytest.raises(ValueError, match="under-resolved"):
            moyal_system(p, sphere_grid(SpinParams(1)))

    def test_under_resolved_override(self):
        p = SpinParams(4)
        sys = moyal_system(p, sphere_grid(SpinParams(1)), allow_underresolved=True)
        assert sys.dim == 5


class TestMoyalSystem:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(4)
        for two_s in (1, 4):
            p = SpinParams(two_s)
            sys = moyal_system(p, sphere_grid(p))
            _, err = roundtrip(sys, random_state(rng, p.dim))
            assert err < 1e-10

    def test_frame_bounds_unity(self):
        p = SpinParams(1)
        report = frame_bounds(moyal_system(p, sphere_grid(p)))
        assert abs(report.A - 1) < 1e-10
        assert abs(report.B - 1) < 1e-10

    def test_phase_closure_matches_direct(self):
        # theta slices conjugated by diag(e^{-i phi m}) equal the kernels at every node
        p = SpinParams(4)
        sys = moyal_system(p, sphere_grid(p))
        for node in sys.grid.nodes:
            dual, direct = kernel_dual(p, *node).entries, kernel_direct(p, *node).entries
            assert np.abs(sys.analysis(node).entries - dual).max() < 1e-12
            assert np.abs(sys.synthesis(node).entries - direct).max() < 1e-12

    @pytest.mark.parametrize("two_s", [1, 2, 5, 10, 16])
    def test_slices_bit_equal_to_kernels(self, two_s):
        # one batched rotation stack over theta gives the same bytes as one rotation per kernel
        p = SpinParams(two_s)
        grid = sphere_grid(p)
        sys = moyal_system(p, grid)
        dual = np.array([kernel_dual(p, th, 0.0).entries for th in grid.theta_nodes])
        direct = np.array([kernel_direct(p, th, 0.0).entries for th in grid.theta_nodes])
        assert sys.analysis_family.slices.tobytes() == dual.tobytes()
        assert sys.synthesis_family.slices.tobytes() == direct.tobytes()

    def test_covariance_under_azimuthal_rotation(self):
        # rotating the state about z permutes the phi nodes of the symbol
        p = SpinParams(2)
        grid = sphere_grid(p)
        sys = moyal_system(p, grid)
        rng = np.random.default_rng(5)
        rho = random_state(rng, 3)
        n_phi = grid.n_phi
        shift = 2 * math.pi / n_phi
        jz = np.diag([1.0, 0.0, -1.0])
        u = np.diag(np.exp(-1j * shift * np.diag(jz)))
        rotated = Operator(u @ rho.entries @ u.conj().T)
        base = analyze(sys, rho).values.reshape(-1, n_phi)
        moved = analyze(sys, rotated).values.reshape(-1, n_phi)
        assert np.abs(np.roll(base, 1, axis=1) - moved).max() < 1e-10


def spin_symbols(p, rho, grid):
    """Spherical symbols Tr(rho Delta^n): the analysis samples, as ``emit symbols`` takes them."""
    return analyze(moyal_system(p, grid, allow_underresolved=True), rho.op)


class TestSpinSymbols:
    def test_maximally_mixed_constant(self):
        p = SpinParams(2)
        rho = DensityMatrix(Operator(np.eye(3) / 3))
        s = spin_symbols(p, rho, sphere_grid(p))
        assert np.abs(s.values - 1 / 3).max() < 1e-12

    def test_projector_symbol_profile(self):
        p = SpinParams(1)
        rho = DensityMatrix(kernel_direct(p, 0.0, 0.0))
        grid = sphere_grid(p)
        s = spin_symbols(p, rho, grid)
        thetas = [n[0] for n in grid.to_index_grid(p).nodes]
        expect = [(1 + 3 * math.cos(t)) / 2 for t in thetas]
        assert np.abs(s.values - expect).max() < 1e-10

    def test_symbol_integrates_to_trace(self):
        p = SpinParams(3)
        rng = np.random.default_rng(6)
        rho = DensityMatrix(random_state(rng, 4))
        grid = sphere_grid(p)
        s = spin_symbols(p, rho, grid)
        ig = grid.to_index_grid(p)
        assert np.sum(ig.weights * s.values).real == pytest.approx(1, abs=1e-10)

    def test_symbols_real_for_hermitian_input(self):
        p = SpinParams(2)
        rng = np.random.default_rng(7)
        rho = DensityMatrix(random_state(rng, 3))
        s = spin_symbols(p, rho, sphere_grid(p))
        assert np.abs(s.values.imag).max() < 1e-10
