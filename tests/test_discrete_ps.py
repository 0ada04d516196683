import itertools
import math

import numpy as np
import pytest

import loop_reference
from coorbit import discrete_ps
from coorbit.discrete_ps import (
    discrete_wigner,
    heisenberg_finite_system,
    point_operator,
    reconstruct_displacement,
    reconstruct_point,
)
from coorbit.opalg import DensityMatrix, Operator
from loop_reference import displacement_discrete, parity, shift_q, shift_v


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return DensityMatrix(Operator(rho / np.trace(rho).real))


class TestGenerators:
    def test_shift_q_example(self):
        assert np.array_equal(
            shift_q(3, 1).entries, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        )

    def test_shift_v_example(self):
        w = np.exp(2j * math.pi / 3)
        assert np.allclose(shift_v(3, 1).entries, np.diag([1, w, w**2]))

    def test_order_N(self):
        for n in (2, 3, 5):
            assert np.allclose(
                np.linalg.matrix_power(shift_q(n, 1).entries, n), np.eye(n)
            )
            assert np.allclose(
                np.linalg.matrix_power(shift_v(n, 1).entries, n), np.eye(n)
            )

    def test_commutation_phase(self):
        # V Q = e^{2 pi i / N} Q V
        for n in (2, 3, 4):
            lhs = shift_v(n, 1).entries @ shift_q(n, 1).entries
            rhs = np.exp(2j * math.pi / n) * shift_q(n, 1).entries @ shift_v(n, 1).entries
            assert np.abs(lhs - rhs).max() < 1e-14

    def test_dft_conjugation_swaps_shift_and_clock(self):
        # F Q F^dag = V with F_{jk} = e^{2 pi i jk/N} / sqrt(N)
        for n in (2, 3, 5):
            j = np.arange(n)
            f = np.exp(2j * math.pi * np.outer(j, j) / n) / math.sqrt(n)
            got = f @ shift_q(n, 1).entries @ f.conj().T
            assert np.abs(got - shift_v(n, 1).entries).max() < 1e-13

    def test_parity_involution(self):
        for n in (2, 3, 4):
            r = parity(n).entries
            assert np.allclose(r @ r, np.eye(n))

    def test_parity_conjugates_shift(self):
        for n in (2, 5):
            r = parity(n).entries
            assert np.allclose(
                r @ shift_q(n, 1).entries @ r, shift_q(n, -1).entries
            )


class TestDisplacement:
    def test_origin_is_identity(self):
        assert np.array_equal(displacement_discrete(4, 0, 0).entries, np.eye(4))

    def test_qubit_diagonal_displacement(self):
        # U(1, 1) on N = 2 is the second Pauli matrix
        sy = np.array([[0, -1j], [1j, 0]])
        assert np.abs(displacement_discrete(2, 1, 1).entries - sy).max() < 1e-15

    def test_unitarity(self):
        for n in (2, 3, 4):
            for q in range(n):
                for p in range(n):
                    u = displacement_discrete(n, q, p).entries
                    assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-14

    def test_orthogonality_brute_force(self):
        # Tr U(q,p)^dag U(q',p') = N delta_{qq'} delta_{pp'} over G_N
        for n in (2, 3, 5):
            ops = [
                displacement_discrete(n, q, p).entries
                for q in range(n)
                for p in range(n)
            ]
            gram = np.array([[np.vdot(a, b) for b in ops] for a in ops])
            assert np.abs(gram - n * np.eye(n * n)).max() < 1e-12

    def test_phase_is_exact_root_of_unity(self):
        # integer-angle phases: U(q, p)^{2N} returns exactly to the identity
        n = 3
        u = displacement_discrete(n, 1, 1).entries
        acc = np.linalg.matrix_power(u, 2 * n)
        assert np.abs(acc - np.eye(n)).max() < 1e-13


class TestPointOperator:
    def test_routes_agree(self):
        for n in (2, 3):
            for q in range(2 * n):
                for p in range(2 * n):
                    a1 = point_operator(n, q, p).entries
                    a2 = loop_reference.point_operator_fourier(n, q, p)
                    assert np.abs(a1 - a2).max() < 1e-13

    def test_scatter_bit_equal_to_product(self):
        # (1/2N) Q^q R V^{-p} e^{i pi p q / N} multiplied out; a zero may differ only in sign
        for n in range(2, 25):
            for q, p in itertools.product(range(2 * n), repeat=2):
                phase = np.exp(1j * math.pi * ((p * q) % (2 * n)) / n)
                want = shift_q(n, q).entries @ parity(n).entries @ shift_v(n, -p).entries
                assert np.array_equal(point_operator(n, q, p).entries, want * phase / (2 * n))

    def test_hermitian(self):
        for n in (2, 3):
            for q, p in itertools.product(range(2 * n), repeat=2):
                a = point_operator(n, q, p).entries
                assert np.abs(a - a.conj().T).max() < 1e-14

    def test_fine_lattice_sums_to_identity(self):
        for n in (2, 3):
            acc = sum(
                point_operator(n, q, p).entries
                for q, p in itertools.product(range(2 * n), repeat=2)
            )
            assert np.abs(acc - np.eye(n)).max() < 1e-12

    def test_origin_is_parity(self):
        n = 3
        a = point_operator(n, 0, 0).entries
        assert np.allclose(a, parity(n).entries / (2 * n))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            point_operator(2, 4, 0)
        with pytest.raises(ValueError):
            point_operator(2, 0, -1)


class TestDiscreteWigner:
    def test_real_and_normalized(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            rho = random_density(rng, n)
            w = discrete_wigner(rho, n)
            assert w.shape == (2 * n, 2 * n)
            # point operators over the doubled lattice sum to the identity
            assert np.sum(w) == pytest.approx(1, abs=1e-10)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        n = 2
        rho = random_density(rng, n)
        w = discrete_wigner(rho, n)
        for q in range(2 * n):
            for p in range(2 * n):
                val = np.trace(point_operator(n, q, p).entries @ rho.op.entries).real
                assert abs(w[q, p] - val) < 1e-14

    def test_dimension_mismatch(self):
        rho = DensityMatrix(Operator(np.eye(2) / 2))
        with pytest.raises(ValueError):
            discrete_wigner(rho, 3)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_matches_point_operator_loop(self, n, monkeypatch):
        rho = random_density(np.random.default_rng(20 + n), n)
        want = loop_reference.discrete_wigner(rho, n)
        monkeypatch.setattr(discrete_ps, "point_operator", None)  # the FFT path needs none
        assert np.abs(discrete_wigner(rho, n) - want).max() <= 1e-13


class TestReconstruction:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_displacement_route_exact(self, n):
        rng = np.random.default_rng(n)
        rho = random_density(rng, n)
        rec = reconstruct_displacement(rho, n)
        assert np.abs(rec.entries - rho.op.entries).max() < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_point_route_exact(self, n):
        rng = np.random.default_rng(10 + n)
        rho = random_density(rng, n)
        rec = reconstruct_point(rho, n)
        assert np.abs(rec.entries - rho.op.entries).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 16])
    def test_point_route_matches_point_operator_sum(self, n):
        rho = random_density(np.random.default_rng(40 + n), n)
        got = reconstruct_point(rho, n).entries
        assert np.abs(got - loop_reference.reconstruct_point(rho, n)).max() <= 1e-13

    def test_reconstruction_idempotent(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 3)
        once = reconstruct_displacement(rho, 3)
        twice = reconstruct_displacement(DensityMatrix(once), 3)
        assert np.abs(twice.entries - once.entries).max() < 1e-12

    def test_dimension_mismatch(self):
        rho = DensityMatrix(Operator(np.eye(2) / 2))
        with pytest.raises(ValueError):
            reconstruct_displacement(rho, 3)
        with pytest.raises(ValueError):
            reconstruct_point(rho, 3)


class TestSystem:
    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            heisenberg_finite_system(1)

    def test_grid_weights(self):
        sys = heisenberg_finite_system(3)
        assert len(sys.grid.nodes) == 9
        assert np.allclose(sys.grid.weights, 1 / 3)

    def test_slices_equal_displacement_discrete(self):
        # Exact equality: every nonzero component is the same double. A zero
        # may differ only in sign, which the oracle's matrix product takes
        # from its BLAS kernel.
        for n in range(2, 25):
            sys = heisenberg_finite_system(n)
            want = np.array([displacement_discrete(n, q, p).entries
                             for q in range(n) for p in range(n)])
            assert np.array_equal(sys.analysis_family.slices, want)
            assert np.array_equal(sys.grid.nodes, [(q, p) for q in range(n) for p in range(n)])
