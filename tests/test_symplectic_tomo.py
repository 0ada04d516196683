import math

import numpy as np
import pytest

import loop_reference
from coorbit import symplectic_tomo
from coorbit.cv_tomo import FockSpace, coherent_state, displacement_cv
from coorbit.frame_core import RegularizerSpec, analyze
from coorbit.opalg import DensityMatrix, Operator, closest_density, fidelity
from coorbit.symplectic_tomo import (
    MarginalGrid,
    delta_ladder,
    hermite_functions,
    marginal,
    marginal_wigner_consistency,
    reconstruct_symplectic,
)


def fock_state(d, n):
    m = np.zeros((d, d), dtype=complex)
    m[n, n] = 1
    return DensityMatrix(Operator(m))


def random_density(d, seed):
    m = np.random.default_rng(seed).normal(size=(d, d, 2)) @ [1, 1j]
    return DensityMatrix(Operator(m @ m.conj().T / np.trace(m @ m.conj().T).real))


def coherent_density(d, beta):
    v = coherent_state(FockSpace(d), beta)
    return DensityMatrix(Operator(np.outer(v, v.conj())))


class TestHermiteFunctions:
    def test_vacuum_profile(self):
        y = np.linspace(-2, 2, 9)
        psi = hermite_functions(1, y)
        assert np.abs(psi[0] - math.pi**-0.25 * np.exp(-(y**2) / 2)).max() < 1e-14

    def test_orthonormality(self):
        x, w = np.polynomial.legendre.leggauss(200)
        y = x * 12
        wy = w * 12
        psi = hermite_functions(10, y)
        gram = (psi * wy) @ psi.T
        assert np.abs(gram - np.eye(10)).max() < 1e-10

    def test_parity(self):
        y = np.linspace(0.1, 3, 5)
        psi_p = hermite_functions(6, y)
        psi_m = hermite_functions(6, -y)
        signs = (-1.0) ** np.arange(6)
        assert np.abs(psi_m - signs[:, None] * psi_p).max() < 1e-12


class TestMarginal:
    def test_vacuum_gaussian(self):
        rho = fock_state(12, 0)
        x = np.linspace(-3, 3, 21)
        got = marginal(rho, 1.0, 0.0, x)
        expect = np.exp(-(x**2)) / math.sqrt(math.pi)
        assert np.abs(got - expect).max() < 1e-12

    def test_rotation_invariance_of_vacuum(self):
        rho = fock_state(12, 0)
        x = np.linspace(-2, 2, 11)
        a = marginal(rho, 1.0, 0.0, x)
        b = marginal(rho, 0.6, 0.8, x)
        assert np.abs(a - b).max() < 1e-12

    def test_coherent_mean_shift(self):
        # <q> of |beta> is sqrt(2) Re beta; check the first moment
        rho = coherent_density(32, 0.7)
        x, w = np.polynomial.legendre.leggauss(160)
        x, w = x * 8, w * 8
        dens = marginal(rho, 1.0, 0.0, x)
        mean = np.sum(w * x * dens)
        assert mean == pytest.approx(math.sqrt(2) * 0.7, abs=1e-8)

    def test_unit_mass(self):
        rho = coherent_density(24, 0.4 - 0.3j)
        x, w = np.polynomial.legendre.leggauss(160)
        x, w = x * 9, w * 9
        for mu, nu in ((1.0, 0.0), (0.0, 1.0), (1.5, -0.5)):
            dens = marginal(rho, mu, nu, x * math.hypot(mu, nu))
            total = np.sum(w * math.hypot(mu, nu) * dens)
            assert total == pytest.approx(1, abs=1e-8)

    def test_nonnegative(self):
        rho = fock_state(16, 2)
        dens = marginal(rho, 0.8, 0.6, np.linspace(-5, 5, 41))
        assert dens.min() > -1e-14

    def test_scaling_homogeneity(self):
        # w(X; 2mu, 2nu) = w(X/2; mu, nu) / 2
        rho = coherent_density(20, 0.3 + 0.2j)
        x = np.linspace(-3, 3, 13)
        a = marginal(rho, 2.0, 0.0, x)
        b = marginal(rho, 1.0, 0.0, x / 2) / 2
        assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("check", [
        lambda rho: marginal(rho, 0.0, 0.0, np.array([0.0])),
        lambda rho: marginal_wigner_consistency(rho, FockSpace(4), 0.0, 0.0),
    ], ids=["marginal", "marginal_wigner_consistency"])
    def test_degenerate_direction_rejected(self, check):
        with pytest.raises(ValueError, match="degenerate direction"):
            check(fock_state(4, 0))


def padded_exponentials(d, mu, nu):
    """e^{-i mu q} and e^{-i nu p} at dimension d + PAD, from the oracle's eigendecompositions."""
    (wq, vq), (wp, vp) = loop_reference._quadrature_factors(d + loop_reference.PAD)
    return (vq * np.exp(-1j * mu * wq)) @ vq.conj().T, (vp * np.exp(-1j * nu * wp)) @ vp.conj().T


def kernel_K(f, X, mu, nu):
    """The kernel operator (1/2pi) e^{iX} D((nu - i mu) / sqrt 2) at one (X, mu, nu)."""
    alpha = (nu - 1j * mu) / math.sqrt(2)
    return np.exp(1j * X) / (2 * math.pi) * displacement_cv(f, alpha).entries


class TestKernel:
    def test_origin_value(self):
        k = kernel_K(FockSpace(5), 0.0, 0.0, 0.0)
        assert np.abs(k - np.eye(5) / (2 * math.pi)).max() < 1e-14

    def test_X_dependence_is_scalar_phase(self):
        f = FockSpace(6)
        k0 = kernel_K(f, 0.0, 0.7, -0.4)
        k1 = kernel_K(f, 1.3, 0.7, -0.4)
        assert np.abs(k1 - np.exp(1.3j) * k0).max() < 1e-13

    def test_factor_order_phase(self):
        # swapping e^{-i nu p} e^{-i mu q} costs exactly e^{-i mu nu}; the
        # built-in e^{-i mu nu / 2} phase symmetrizes the two orders
        f = FockSpace(6)
        mu, nu = 0.9, 0.5
        eq, ep = padded_exponentials(f.d, mu, nu)
        lhs = (ep @ eq)[: f.d, : f.d]
        rhs = (np.exp(1j * mu * nu) * (eq @ ep))[: f.d, : f.d]
        assert np.abs(lhs - rhs).max() < 1e-10

    @pytest.mark.parametrize("X, mu, nu", [(0.0, 0.9, 0.5), (1.3, 0.7, -0.4), (-0.6, -1.2, 0.8)])
    def test_displacement_matches_padded_product(self, X, mu, nu):
        # (1/2pi) e^{iX} e^{-i mu nu / 2} e^{-i nu p} e^{-i mu q}, padded and cropped to d
        f = FockSpace(8)
        eq, ep = padded_exponentials(f.d, mu, nu)
        want = (np.exp(1j * X - 0.5j * mu * nu) / (2 * math.pi) * (ep @ eq))[: f.d, : f.d]
        assert np.abs(kernel_K(f, X, mu, nu) - want).max() < 1e-13

    def test_scaled_unitary_on_low_block(self):
        d = 4
        u = 2 * math.pi * kernel_K(FockSpace(d + 12), 0.4, 0.6, 0.3)
        assert np.abs((u.conj().T @ u - np.eye(d + 12))[:d, :d]).max() < 1e-8


class TestReconstruction:
    def test_vacuum_fidelity_formula(self):
        # with Gaussian damping of width delta the vacuum comes back with
        # fidelity delta^2 / (delta^2 + 1)
        from coorbit.opalg import closest_density, fidelity

        rho = fock_state(10, 0)
        f = FockSpace(10)
        delta = 4.0
        grid = MarginalGrid(6.5, 81, 8.0, 60, RegularizerSpec(delta))
        rec = reconstruct_symplectic(rho, grid, f)
        fid = fidelity(rho, closest_density(rec))
        assert fid == pytest.approx(delta**2 / (delta**2 + 1), abs=2e-3)

    def test_linearity(self):
        f = FockSpace(6)
        grid = MarginalGrid(6.5, 61, 6.0, 40, RegularizerSpec(3.0))
        a = fock_state(6, 0)
        b = fock_state(6, 1)
        mix = DensityMatrix(Operator(0.5 * a.op.entries + 0.5 * b.op.entries))
        rec_mix = reconstruct_symplectic(mix, grid, f).entries
        rec_sum = 0.5 * (
            reconstruct_symplectic(a, grid, f).entries
            + reconstruct_symplectic(b, grid, f).entries
        )
        assert np.abs(rec_mix - rec_sum).max() < 1e-10

    def test_delta_ladder_monotone(self):
        rho = fock_state(8, 0)
        report = delta_ladder(rho, FockSpace(8), (2.0, 4.0, 8.0), L=8.0, n_mn=48)
        fids = report["fidelity"]
        assert fids[0] < fids[1] < fids[2]
        assert fids[-1] > 0.98

    def test_ladder_matches_cartesian_loop(self):
        # the padded Cartesian (mu, nu) loop is off delta^2 / (delta^2 + 1) by
        # about 2e-5 at d 10, n_mn 60; the polar ladder by about 1e-7
        rho, f, deltas = fock_state(10, 0), FockSpace(10), (2.0, 4.0, 8.0, 12.0)
        got = delta_ladder(rho, f, deltas, n_mn=60)["fidelity"]
        for delta, fid in zip(deltas, got):
            grid = MarginalGrid(6.5, 81, 8.0, 60, RegularizerSpec(delta))
            rec = Operator(loop_reference.reconstruct_symplectic(rho, grid, f))
            assert abs(fid - fidelity(rho, closest_density(rec))) <= 1e-4

    def test_random_state_matches_cartesian_loop(self):
        # every charge difference up to +-(d - 1) needs its own angle: with d
        # angles instead of 2d this reads 0.41. The loop integrates over the
        # square [-L, L]^2, whose corners beyond the disc s <= L give 3.6e-3.
        rho, f = random_density(6, 3), FockSpace(6)
        grid = MarginalGrid(6.5, 81, 8.0, 30, RegularizerSpec(4.0))
        got = reconstruct_symplectic(rho, grid, f).entries
        assert np.linalg.norm(got - loop_reference.reconstruct_symplectic(rho, grid, f)) <= 1e-2

    @pytest.mark.parametrize("n_mn", [30, 60])
    def test_vacuum_ladder_closed_form(self, n_mn):
        deltas = (2.0, 4.0, 8.0, 12.0)
        got = delta_ladder(fock_state(10, 0), FockSpace(10), deltas, n_mn=n_mn)["fidelity"]
        for delta, fid in zip(deltas, got):
            assert abs(fid - delta**2 / (delta**2 + 1)) <= 1e-6

    @pytest.mark.parametrize("d", [6, 10])
    def test_characteristic_matches_analyze(self, d):
        # chi from the marginals' X quadrature against Tr(rho D(alpha)^dag) on the same nodes
        rho = random_density(d, d)
        grid = MarginalGrid(6.5, 81, 8.0, 30, RegularizerSpec(4.0))
        sys, chi, s = symplectic_tomo._characteristic(rho, grid, FockSpace(d))
        assert np.abs(chi - analyze(sys, rho.op).values).max() <= 1e-8
        assert np.array_equal(s, np.sqrt(2) * sys.grid.nodes[:, 0])

    def test_radial_quadrature_converged(self):
        # n_mn 30 radial nodes against 200 on the same disc s <= L
        rho, f = random_density(10, 11), FockSpace(10)
        grids = (MarginalGrid(6.5, 81, 8.0, n, RegularizerSpec(4.0)) for n in (30, 200))
        got, want = (reconstruct_symplectic(rho, grid, f) for grid in grids)
        assert np.linalg.norm(got.entries - want.entries) <= 1e-8

    def test_ladder_equals_one_reconstruction_per_delta(self, monkeypatch):
        # the ladder evaluates the Hermite functions once and shares the coefficients
        calls = []
        hermite = symplectic_tomo.hermite_functions
        monkeypatch.setattr(symplectic_tomo, "hermite_functions",
                            lambda *a: calls.append(a) or hermite(*a))
        rho, f = coherent_density(8, 0.3 - 0.2j), FockSpace(8)
        report = delta_ladder(rho, f, (2.0, 6.0), L=6.0, n_mn=20)
        assert len(calls) == 1
        for delta, fid in zip(report["delta_ladder"], report["fidelity"]):
            grid = MarginalGrid(6.5, 81, 6.0, 20, RegularizerSpec(delta))
            assert fid == fidelity(rho, closest_density(reconstruct_symplectic(rho, grid, f)))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            MarginalGrid(0.0, 10, 5.0, 10, RegularizerSpec(1.0))
        with pytest.raises(ValueError):
            MarginalGrid(5.0, 1, 5.0, 10, RegularizerSpec(1.0))

    @pytest.mark.parametrize("fock_d", [4, 8])
    def test_fock_truncation_must_match_state(self, fock_d):
        # the reconstruction lives in f's Fock space: a smaller one would alias the state
        rho, f = random_density(6, 1), FockSpace(fock_d)
        grid = MarginalGrid(6.5, 81, 8.0, 30, RegularizerSpec(4.0))
        with pytest.raises(ValueError, match=f"dimension 6 .* truncation {fock_d}"):
            reconstruct_symplectic(rho, grid, f)
        with pytest.raises(ValueError, match=f"dimension 6 .* truncation {fock_d}"):
            delta_ladder(rho, f, (2.0, 4.0), n_mn=30)


class TestWignerConsistency:
    def test_vacuum(self):
        rho = fock_state(16, 0)
        assert marginal_wigner_consistency(rho, FockSpace(16)) < 1e-9

    def test_coherent_rotated_direction(self):
        rho = coherent_density(20, 0.5 + 0.3j)
        dev = marginal_wigner_consistency(rho, FockSpace(20), mu=0.6, nu=0.8)
        assert dev < 1e-3

    def test_mixed_state(self):
        a = fock_state(16, 0).op.entries
        b = fock_state(16, 1).op.entries
        rho = DensityMatrix(Operator(0.7 * a + 0.3 * b))
        assert marginal_wigner_consistency(rho, FockSpace(16)) < 1e-3

    @pytest.mark.parametrize("mu,nu", [(1.0, 0.0), (0.6, 0.8), (-0.9, 1.4)])
    def test_batched_points_match_point_loop(self, mu, nu):
        # one displacement stack for every point against one wigner_point call per point
        rho = coherent_density(16, 0.4 - 0.2j)
        x_nodes = np.linspace(-3, 3, 13)
        got = marginal_wigner_consistency(rho, FockSpace(16), mu, nu, x_nodes, n_t=40)
        want = loop_reference.marginal_wigner_consistency(rho, mu, nu, x_nodes, 40)
        assert abs(got - want) <= 1e-13
