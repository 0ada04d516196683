import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import loop_reference
from coorbit.cv_tomo import FockSpace, PolarGrid, coherent_state, homodyne_system
from coorbit.frame_core import roundtrip
from coorbit.opalg import (
    PSD_TOL,
    DensityMatrix,
    Operator,
    closest_density,
    eig_hermitian,
    fidelity,
    hs_inner,
    matrix_exp,
    tensor,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_unitary(rng, d):
    q, _ = np.linalg.qr(random_matrix(rng, d))
    return q


def full_rank_state(rng, d):
    """0.9 A A^dag / Tr + 0.1 I / d: minimum eigenvalue at least 0.1 / d."""
    x = random_matrix(rng, d)
    x = x @ x.conj().T
    return Operator(0.9 * x / np.trace(x).real + 0.1 * np.eye(d) / d)


def unit_vector(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def with_spectrum(rng, w):
    """U diag(w) U^dag for a random unitary U."""
    u = random_unitary(rng, len(w))
    return (u * w) @ u.conj().T


DIMS = [2, 3, 5, 8, 16, 32]


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Operator(np.array([[np.nan, 0], [0, 1]]))

    def test_entries_immutable(self):
        op = Operator(np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5

    def test_dim(self):
        assert Operator(np.eye(3)).dim == 3


class TestDensityMatrix:
    def test_accepts_valid(self):
        rho = DensityMatrix(Operator(np.diag([0.5, 0.5])))
        assert rho.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(Operator(np.array([[0.5, 1], [0, 0.5]])))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(Operator(np.diag([0.6, 0.6])))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(Operator(np.diag([1.5, -0.5])))

    @pytest.mark.parametrize("lowest, accepted", [(-0.5e-10, True), (-2e-10, False)])
    def test_psd_boundary(self, lowest, accepted):
        rng = np.random.default_rng(11)
        m = with_spectrum(rng, np.array([lowest, 0.2, 0.3, 0.5 - lowest]))
        if accepted:
            DensityMatrix(Operator(m))
            return
        named = loop_reference.psd_lowest(m)[0]
        assert f"{named:.3e}" == "-2.000e-10"
        with pytest.raises(ValueError, match=re.escape(f"min eigenvalue {named:.3e}")):
            DensityMatrix(Operator(m))

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        lowest=st.one_of(st.floats(-3e-10, 1e-10), st.floats(-1.002e-10, -0.998e-10)),
    )
    def test_cholesky_decision_matches_eigvalsh(self, d, seed, lowest):
        # outside rounding of the boundary, the Cholesky test of rho + PSD_TOL I
        # accepts exactly the states whose minimum eigenvalue is >= -PSD_TOL
        rng = np.random.default_rng(seed)
        rest = rng.random(d - 1) + 1e-3
        m = with_spectrum(rng, np.concatenate([[lowest], (1 - lowest) * rest / rest.sum()]))
        named, want = loop_reference.psd_lowest(m)
        assume(abs(named + PSD_TOL) > 1e-13)
        try:
            DensityMatrix(Operator(m))
            got = True
        except ValueError as err:
            assert str(err) == f"not positive semidefinite: min eigenvalue {named:.3e}"
            got = False
        assert got == want

    def test_valid_pure_state_skips_the_spectrum(self, monkeypatch):
        # a pure state is singular: the PSD_TOL shift lets Cholesky pass it,
        # and only a failed Cholesky test may pay for eigvalsh
        def spectrum(_):
            raise AssertionError("eigvalsh called on a valid state")

        v = unit_vector(np.random.default_rng(13), 32)
        monkeypatch.setattr(np.linalg, "eigvalsh", spectrum)
        DensityMatrix(Operator(np.outer(v, v.conj())))

    def test_only_the_repair_skips_cholesky(self, monkeypatch):
        # the repair's PSD test reads its clipped eigenvalues; a caller-built
        # state just below -PSD_TOL still meets the Cholesky test and fails it
        rng = np.random.default_rng(14)
        m = with_spectrum(rng, np.array([-1e-9, 0.3, 0.7 + 1e-9]))
        with pytest.raises(ValueError, match=re.escape("min eigenvalue -1.000e-09")):
            DensityMatrix(Operator(m))

        def cholesky(_):
            raise AssertionError("Cholesky test on a repaired state")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        assert np.linalg.eigvalsh(closest_density(Operator(m)).op.entries)[0] >= -1e-15
        with pytest.raises(AssertionError):
            DensityMatrix(Operator(m))

    def test_seeded_spectrum_below_tolerance_rejected(self):
        v = random_unitary(np.random.default_rng(15), 3)
        with pytest.raises(ValueError, match=re.escape("min eigenvalue -1.000e-09")):
            DensityMatrix._from_spectrum(np.array([-1e-9, 0.3, 0.7 + 1e-9]), v)

    @pytest.mark.parametrize("fault", ["trace", "nan-p", "nan-v"])
    def test_bad_seed_rejected(self, fault):
        p, v = np.array([0.3, 0.7]), random_unitary(np.random.default_rng(16), 2)
        if fault == "trace":
            p[1] += 2e-12
        else:
            (p if fault == "nan-p" else v)[0, ...] = np.nan
        want = "trace .* differs from 1" if fault == "trace" else "operator entries must be finite"
        with pytest.raises(ValueError, match=want):
            DensityMatrix._from_spectrum(p, v)

    def test_symmetrizes_tiny_asymmetry(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 1e-13j
        rho = DensityMatrix(Operator(m))
        assert np.abs(rho.op.entries - rho.op.entries.conj().T).max() == 0


class TestHsInner:
    def test_identity(self):
        assert hs_inner(Operator(np.eye(2)), Operator(np.eye(2))) == 2

    def test_pauli_orthogonality(self):
        assert hs_inner(Operator(SX), Operator(SZ)) == 0

    def test_matches_elementwise_sum(self):
        rng = np.random.default_rng(1)
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        direct = sum(np.conj(a[i, j]) * b[i, j] for i in range(3) for j in range(3))
        assert abs(hs_inner(Operator(a), Operator(b)) - direct) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(Operator(np.eye(2)), Operator(np.eye(3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry_and_norm(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_matrix(rng, 4), random_matrix(rng, 4)
        lhs = hs_inner(Operator(a), Operator(b))
        rhs = np.conj(hs_inner(Operator(b), Operator(a)))
        assert abs(lhs - rhs) < 1e-10
        nsq = hs_inner(Operator(a), Operator(a))
        assert abs(nsq.imag) < 1e-12 and nsq.real > 0


class TestMatrixExp:
    def test_exp_zero(self):
        assert np.allclose(matrix_exp(Operator(np.zeros((2, 2)))).entries, np.eye(2))

    def test_exp_diagonal(self):
        got = matrix_exp(Operator(1j * np.pi * SZ / 2)).entries
        assert np.allclose(got, np.diag([1j, -1j]), atol=1e-14)

    def test_inverse_property(self):
        rng = np.random.default_rng(2)
        m = random_matrix(rng, 5)
        h = (m + m.conj().T) / 2
        h *= 2 / np.linalg.norm(h)
        prod = matrix_exp(Operator(h)).entries @ matrix_exp(Operator(-h)).entries
        assert np.abs(prod - np.eye(5)).max() < 1e-12

    def test_anti_hermitian_gives_unitary(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, 6)
        a = (m - m.conj().T) / 2
        u = matrix_exp(Operator(a)).entries
        assert np.abs(u.conj().T @ u - np.eye(6)).max() < 1e-10


class TestTensor:
    def test_identity_product(self):
        assert np.array_equal(tensor(Operator(np.eye(2)), Operator(np.eye(2))).entries, np.eye(4))

    def test_block_structure(self):
        got = tensor(Operator(SX), Operator(SZ)).entries
        expect = np.zeros((4, 4), dtype=complex)
        expect[0:2, 2:4] = SZ
        expect[2:4, 0:2] = SZ
        assert np.array_equal(got, expect)

    def test_trace_multiplicativity(self):
        rng = np.random.default_rng(4)
        a, b = random_matrix(rng, 3), random_matrix(rng, 2)
        prod = tensor(Operator(a), Operator(b))
        assert abs(prod.trace() - np.trace(a) * np.trace(b)) < 1e-12


class TestEigHermitian:
    def test_diagonal_sorted(self):
        w, _ = eig_hermitian(Operator(np.diag([3.0, 1.0, 2.0])))
        assert np.array_equal(w, [1, 2, 3])

    def test_pauli_x(self):
        w, _ = eig_hermitian(Operator(SX))
        assert np.allclose(w, [-1, 1])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 8)
        h = (m + m.conj().T) / 2
        w, v = eig_hermitian(Operator(h))
        assert np.abs((v * w) @ v.conj().T - h).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(Operator(np.array([[0, 1], [0, 0]])))


class TestFidelity:
    def test_self_fidelity(self):
        rho = DensityMatrix(Operator(np.diag([1.0, 0.0])))
        assert fidelity(rho, rho) == pytest.approx(1, abs=1e-10)

    def test_orthogonal_states(self):
        a = DensityMatrix(Operator(np.diag([1.0, 0.0])))
        b = DensityMatrix(Operator(np.diag([0.0, 1.0])))
        assert fidelity(a, b) == pytest.approx(0, abs=1e-12)

    def test_pure_vs_mixed(self):
        a = DensityMatrix(Operator(np.diag([1.0, 0.0])))
        b = DensityMatrix(Operator(np.eye(2) / 2))
        assert fidelity(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        a = DensityMatrix(Operator(np.diag([1.0, 0.0])))
        b = DensityMatrix(Operator(np.eye(3) / 3))
        with pytest.raises(ValueError):
            fidelity(a, b)

    @pytest.mark.parametrize("d", DIMS)
    def test_full_rank_matches_sqrt_rho_form(self, d):
        rng = np.random.default_rng(d)
        for _ in range(8):
            rho = DensityMatrix(full_rank_state(rng, d))
            repaired = closest_density(full_rank_state(rng, d))
            plain = DensityMatrix(repaired.op)  # no seeded spectrum
            for sigma in (repaired, plain):
                assert np.linalg.eigvalsh(sigma.op.entries)[0] >= 1e-6
                assert abs(fidelity(rho, sigma) - loop_reference.fidelity(rho, sigma)) <= 1e-13

    @pytest.mark.parametrize("d", DIMS)
    def test_symmetric(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(8):
            rho = DensityMatrix(full_rank_state(rng, d))
            sigma = closest_density(full_rank_state(rng, d))
            assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) <= 1e-13

    @pytest.mark.parametrize("d", DIMS)
    def test_near_pure_no_farther_from_closed_form(self, d):
        # rho = |psi><psi| against a repaired near-pure sigma: F = <psi|sigma|psi>.
        # The sqrt(rho) form adds the square roots of rounding-level eigenvalues
        # (~1e-7 in total at d 32); the new form must be no farther off.
        rng = np.random.default_rng(200 + d)
        for _ in range(8):
            psi = unit_vector(rng, d)
            phi = psi + 0.05 * unit_vector(rng, d)
            noise = random_matrix(rng, d)
            noise = 1e-9 * (noise + noise.conj().T)
            rec = np.outer(phi, phi.conj()) / np.vdot(phi, phi).real + noise
            rho = DensityMatrix(Operator(np.outer(psi, psi.conj())))
            sigma = closest_density(Operator(rec))
            exact = np.vdot(psi, sigma.op.entries @ psi).real
            oracle_error = abs(loop_reference.fidelity(rho, sigma) - exact)
            assert abs(fidelity(rho, sigma) - exact) <= oracle_error + 1e-12
            assert abs(fidelity(sigma, rho) - exact) <= oracle_error + 1e-12

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("rank", ["full", "clipped", "one"])
    def test_matches_sqrt_sigma_form(self, d, rank):
        # in sigma's range against the d x d sqrt(sigma) rho sqrt(sigma), in
        # both argument orders, for the repair's seeded spectrum and for a
        # spectrum computed on first use
        rng = np.random.default_rng(400 + d)
        r = {"full": d, "clipped": (d + 1) // 2, "one": 1}[rank]
        for _ in range(4):
            w = np.concatenate([-1e-3 * rng.random(d - r), rng.random(r) + 0.1])
            repaired = closest_density(Operator(with_spectrum(rng, w)))
            assert np.count_nonzero(repaired._spectrum[0]) == r
            psi = unit_vector(rng, d)
            pure = DensityMatrix(Operator(np.outer(psi, psi.conj())))
            for rho in (DensityMatrix(full_rank_state(rng, d)), pure):
                want = loop_reference.fidelity_sqrt_sigma(rho, repaired)
                for sigma in (repaired, DensityMatrix(repaired.op)):
                    assert abs(fidelity(rho, sigma) - want) <= 1e-13
                    assert abs(fidelity(sigma, rho) - want) <= 1e-13

    @pytest.mark.parametrize("d", DIMS)
    def test_seeded_root_matches_fresh_eigh(self, d):
        # the repair's (p, V) rebuild sigma and agree with a fresh eigh: same
        # eigenvalues, and the same state and square root from either
        rng = np.random.default_rng(300 + d)
        scaled = Operator(full_rank_state(rng, d).entries * 2.5)
        sigma = closest_density(scaled)  # renormalized by the repair
        (p, v), (fresh_p, fresh_v) = sigma._spectrum, DensityMatrix(sigma.op)._spectrum
        assert np.abs(p - fresh_p).max() <= 1e-13
        for u, q in ((v, p), (fresh_v, fresh_p)):
            assert np.abs((u * q) @ u.conj().T - sigma.op.entries).max() <= 1e-13
        root, fresh = ((u * np.sqrt(q)) @ u.conj().T for u, q in ((v, p), (fresh_v, fresh_p)))
        assert np.abs(root - fresh).max() <= 1e-13

    def test_root_clips_negative_eigenvalues(self):
        rng = np.random.default_rng(12)
        m = with_spectrum(rng, np.array([-0.5e-10, 0.25, 0.75 + 0.5e-10]))
        p, v = DensityMatrix(Operator(m))._spectrum
        assert p[0] == 0 and np.all(p >= 0)
        assert np.abs((v * p) @ v.conj().T - m).max() <= 1e-10


@pytest.fixture(scope="module")
def stream_system():
    """The homodyne system of the stream benchmark workload (d 32, R 6, 48 x 64)."""
    return homodyne_system(FockSpace(32), PolarGrid(6.0, 48, 64))


@pytest.mark.parametrize("state", ["coherent", "fock-0", "fock-1"])
def test_stream_reconstruction_matches_sqrt_sigma_form(stream_system, state):
    if state == "coherent":
        psi = coherent_state(FockSpace(32), 0.5 + 0.3j)
    else:
        psi = np.eye(32)[int(state[-1])]
    rho = DensityMatrix(Operator(np.outer(psi, psi.conj())))
    sigma = closest_density(roundtrip(stream_system, rho.op)[0])
    assert np.count_nonzero(sigma._spectrum[0]) < 32
    want = loop_reference.fidelity_sqrt_sigma(rho, sigma)
    assert abs(fidelity(rho, sigma) - want) <= 1e-13
    assert abs(fidelity(sigma, rho) - want) <= 1e-13


def _eager_cases(system):
    """(rho, reconstruction) pairs: the stream system's three and random operators."""
    for psi in (coherent_state(FockSpace(32), 0.5 + 0.3j), np.eye(32)[0], np.eye(32)[1]):
        rho = DensityMatrix(Operator(np.outer(psi, psi.conj())))
        yield rho, roundtrip(system, rho.op)[0]
    rng = np.random.default_rng(17)
    for d in (2, 5, 16, 32):
        yield DensityMatrix(full_rank_state(rng, d)), Operator(random_matrix(rng, d))


def test_repair_matches_eager_build(stream_system):
    # sigma's matrix, built on first read, and the fidelity read from its
    # spectrum are bit-equal to the repair that built the matrix at once
    for rho, rec in _eager_cases(stream_system):
        entries, p, v = loop_reference.eager_closest_density(rec)
        sigma = closest_density(rec)
        want = loop_reference.fidelity_in_range(rho, p, v)
        assert fidelity(rho, sigma) == want and fidelity(sigma, rho) == want
        assert sigma.op.entries.tobytes() == entries.tobytes()


def test_scoring_builds_no_matrix(stream_system, monkeypatch):
    # the scored path reads sigma's spectrum only; one read of op builds one Operator
    psi = coherent_state(FockSpace(32), 0.5 + 0.3j)
    rho = DensityMatrix(Operator(np.outer(psi, psi.conj())))
    rec = roundtrip(stream_system, rho.op)[0]
    built = []
    init = Operator.__post_init__
    monkeypatch.setattr(Operator, "__post_init__", lambda op: built.append(op) or init(op))
    sigma = closest_density(rec)
    assert fidelity(rho, sigma) >= 0.999 and sigma.dim == 32
    assert built == [] and "op" not in vars(sigma)
    assert sigma.op is sigma.op and len(built) == 1


class TestClosestDensity:
    def test_clips_small_negatives(self):
        m = np.diag([1.0, -1e-6])
        rho = closest_density(Operator(m))
        w = np.linalg.eigvalsh(rho.op.entries)
        assert w[0] >= 0 and abs(np.trace(rho.op.entries) - 1) < 1e-14

    def test_idempotent_on_valid_state(self):
        rho = DensityMatrix(Operator(np.diag([0.25, 0.75])))
        again = closest_density(rho.op)
        assert np.abs(again.op.entries - rho.op.entries).max() < 1e-15

