import json
import math

import mpmath
import numpy as np
import pytest

import loop_reference
from coorbit import cli, su11_tomo
from coorbit.frame_core import roundtrip
from coorbit.opalg import DensityMatrix, Operator
from coorbit.su11_tomo import (
    INTERIOR_MARGIN,
    DiscreteSeriesRep,
    SUGrid,
    biorthogonality_ladder,
    generators,
    group_element,
    su11_system,
    thermal_admissibility,
    thermal_probe,
)


def biorthogonality_check(rep, grid, indices):
    """The pairing at indices (m, n, l, q) through the engine, at any cutoff."""
    return su11_tomo._pairing(su11_tomo._slice_system(rep, grid), indices)


def families(rep, theta, phi):
    """E, B and pi at (theta, phi): the phi = 0 slices conjugated by diag(e^{i phi r})."""
    r = np.arange(rep.cutoff)
    return [np.exp(1j * phi * np.subtract.outer(r, r)) * x[0]
            for x in su11_tomo._slices(rep, [theta])]


class TestGenerators:
    def test_kz_diagonal_k1(self):
        _, _, kz = generators(DiscreteSeriesRep(1.0, 4))
        assert np.allclose(kz.entries, np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_kplus_matrix_elements(self):
        kp, _, _ = generators(DiscreteSeriesRep(0.5, 4))
        # sqrt((r+1)(r+2k)) with 2k = 1
        assert kp.entries[1, 0] == pytest.approx(1.0)
        assert kp.entries[2, 1] == pytest.approx(2.0)

    def test_adjoint_pair(self):
        kp, km, _ = generators(DiscreteSeriesRep(1.5, 6))
        assert np.array_equal(km.entries, kp.entries.conj().T)

    def test_commutators_interior(self):
        for k in (0.5, 1.0, 2.0):
            rep = DiscreteSeriesRep(k, 12)
            kp, km, kz = (g.entries for g in generators(rep))
            lo = rep.cutoff - INTERIOR_MARGIN
            # [Kz, K+] = K+ and [K-, K+] = 2 Kz on the retained interior
            c1 = kz @ kp - kp @ kz - kp
            c2 = km @ kp - kp @ km - 2 * kz
            assert np.abs(c1[:lo, :lo]).max() < 1e-12
            assert np.abs(c2[:lo, :lo]).max() < 1e-12

    def test_rejects_bad_rep(self):
        with pytest.raises(ValueError):
            DiscreteSeriesRep(0.0, 8)
        with pytest.raises(ValueError):
            DiscreteSeriesRep(1.0, 1)


class TestCasimir:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_scalar_value(self, k):
        # the interior diagonal of Kz^2 - (K+K- + K-K+)/2 is k(k - 1) in this realization
        rep = DiscreteSeriesRep(k, 16)
        kp, km, kz = (g.entries for g in generators(rep))
        cas = np.diag(kz @ kz - (kp @ km + km @ kp) / 2)[: rep.cutoff - INTERIOR_MARGIN]
        assert cas.mean() == pytest.approx(k * (k - 1), abs=1e-10)


class TestGroupElement:
    def test_identity_at_zero(self):
        e = group_element(DiscreteSeriesRep(1.0, 6), 0.0, 0.3)
        assert np.array_equal(e.entries, np.eye(6))

    def test_matches_padded_exponential(self):
        # independent oracle: expm of the generator at a larger cutoff
        from scipy.linalg import expm

        k, d, pad = 1.0, 8, 40
        theta, phi = 0.6, 1.1
        big = DiscreteSeriesRep(k, d + pad)
        kp, km, _ = (g.entries.astype(complex) for g in generators(big))
        gen = theta * (np.exp(-1j * phi) * km - np.exp(1j * phi) * kp)
        ref = expm(gen)[:d, :d]
        got = group_element(DiscreteSeriesRep(k, d), theta, phi).entries
        assert np.abs(got - ref).max() < 1e-10

    def test_vacuum_column_profile(self):
        # |<0|E|0>| = sech(theta)^{2k}
        k, theta = 1.5, 0.9
        e = group_element(DiscreteSeriesRep(k, 10), theta, 0.4).entries
        assert abs(e[0, 0]) == pytest.approx((1 / math.cosh(theta)) ** (2 * k), abs=1e-12)


class TestFamilies:
    def test_analysis_diag_at_theta_zero(self):
        _, b, _ = families(DiscreteSeriesRep(1.0, 4), 0.0, 0.0)
        assert np.allclose(b, np.diag([2.0, -4.0, 6.0, -8.0]))

    def test_analysis_entrywise_form(self):
        rep = DiscreteSeriesRep(0.5, 6)
        theta, phi = 0.7, 2.1
        e = group_element(rep, theta, phi).entries
        _, b, _ = families(rep, theta, phi)
        m = np.arange(6)
        expect = (m[:, None] + m[None, :] + 1) * ((-1.0) ** m)[:, None] * e
        assert np.abs(b - expect).max() < 1e-14

    def test_synthesis_at_theta_zero_is_kz(self):
        rep = DiscreteSeriesRep(2.0, 5)
        _, _, kz = generators(rep)
        p = families(rep, 0.0, 1.0)[2]
        assert np.abs(p - kz.entries).max() < 1e-14

    def test_synthesis_hermitian(self):
        p = families(DiscreteSeriesRep(1.0, 8), 1.2, 0.7)[2]
        assert np.abs(p - p.conj().T).max() < 1e-14

    def test_synthesis_spans_three_generators(self):
        # pi is a real combination of Kz, i(K- - K+)-type terms only
        rep = DiscreteSeriesRep(1.0, 6)
        kp, km, kz = (g.entries.astype(complex) for g in generators(rep))
        theta, phi = 0.8, 0.3
        p = families(rep, theta, phi)[2]
        coeffs = np.linalg.lstsq(
            np.stack([kz.ravel(), kp.ravel(), km.ravel()], axis=1),
            p.ravel(),
            rcond=None,
        )
        residual = np.abs(
            np.stack([kz.ravel(), kp.ravel(), km.ravel()], axis=1) @ coeffs[0] - p.ravel()
        ).max()
        assert residual < 1e-12
        assert coeffs[0][0].real == pytest.approx(math.cosh(theta), abs=1e-12)


def _theta_nodes(theta_max, n_theta):
    return np.array(SUGrid(theta_max, n_theta, 1).to_index_grid().nodes)[:, 0]


def _exact_analysis(rep, theta, digits=40):
    """B(theta, 0) from the disentangled product in mpmath at the given precision."""
    with mpmath.workdps(digits):
        k, th = mpmath.mpf(rep.k), mpmath.mpf(float(theta))
        t, s = mpmath.tanh(th), mpmath.sech(th) ** 2
        g = [mpmath.sqrt((r + 1) * (r + 2 * k)) for r in range(rep.cutoff)]

        def exp_kplus(a, b):
            return mpmath.fprod(g[b:a]) / mpmath.factorial(a - b)

        def entry(m, n):
            e = mpmath.fsum((-t) ** (m - j) * exp_kplus(m, j) * s ** (j + k) * t ** (n - j)
                            * exp_kplus(n, j) for j in range(min(m, n) + 1))
            return float((m + n + 2 * k) * (-1) ** m * e)

        return np.array([[entry(m, n) for n in range(rep.cutoff)] for m in range(rep.cutoff)])


class TestBatchedSlices:
    @pytest.mark.parametrize("cutoff, theta_max", [(6, 3.0), (8, 6.0), (10, 2.0), (10, 6.0)])
    def test_stacks_match_per_node_loop(self, cutoff, theta_max, monkeypatch):
        rep = DiscreteSeriesRep(1.0, cutoff)
        monkeypatch.setattr(su11_tomo, "group_element", None)  # the system needs no node calls
        sys = su11_system(rep, SUGrid(theta_max, 40, 8))
        for family, per_node in ((sys.analysis_family, loop_reference.analysis_B),
                                 (sys.synthesis_family, loop_reference.synthesis_pi)):
            want = np.array([per_node(rep, th, 0.0) for th in _theta_nodes(theta_max, 40)])
            assert np.abs(family.slices - want).max() <= 1e-13 * np.abs(want).max()

    def test_no_less_accurate_than_per_node_loop_at_large_theta(self):
        # Both paths sum the same alternating product, which costs digits near
        # theta ~ 1 (about 1e-12 of the stack's largest entry either way). At
        # large theta the per-node 1 - tanh^2 also cancels (1e-7 of the node's
        # own scale at theta 12); sech^2 does not.
        rep = DiscreteSeriesRep(1.0, 16)
        theta = _theta_nodes(12.0, 24)
        exact = np.array([_exact_analysis(rep, th) for th in theta])
        scale = np.abs(exact).max(axis=(1, 2))
        batched = su11_tomo._slices(rep, theta)[1]
        per_node = np.array([loop_reference.analysis_B(rep, th, 0.0) for th in theta])
        node_error = [np.max(np.abs(x - exact).max(axis=(1, 2)) / scale)
                      for x in (batched, per_node)]
        assert node_error[0] <= node_error[1]
        assert node_error[0] <= 1e-11
        assert np.abs(batched - exact).max() <= 1e-12 * scale.max()

    @pytest.mark.parametrize("theta_max", [6.0, 12.0])
    @pytest.mark.parametrize("cutoff", range(6, 17))
    def test_power_tables_bit_identical_to_entrywise_powers(self, cutoff, theta_max):
        # d powers of tanh per node, gathered by a - b, are the d^2 powers it took
        rep = DiscreteSeriesRep(1.0, cutoff)
        theta = _theta_nodes(theta_max, 40)
        for got, want in zip(su11_tomo._slices(rep, theta), loop_reference.su11_slices(rep, theta)):
            assert np.array_equal(got, want)

    def test_single_node_is_the_batched_case(self):
        rep = DiscreteSeriesRep(1.5, 8)
        e = su11_tomo._slices(rep, [0.7, 1.3])[0]
        assert np.array_equal(group_element(rep, 1.3, 0.0).entries, e[1])
        r = np.arange(rep.cutoff)
        moved = np.exp(0.4j * np.subtract.outer(r, r)) * e[0]
        assert np.array_equal(group_element(rep, 0.7, 0.4).entries, moved)


class TestGrid:
    def test_total_weight(self):
        # integral of tanh over [0, T] is log cosh T; times the phi average 1/2
        g = SUGrid(3.0, 60, 8).to_index_grid()
        assert np.sum(g.weights) == pytest.approx(math.log(math.cosh(3.0)) / 2, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            SUGrid(0.0, 10, 4)


class TestBiorthogonality:
    def test_diag_matches_closed_form(self):
        # the (0,0,0,0) pairing equals 1 - sech(theta_max) exactly for k = 1
        rep = DiscreteSeriesRep(1.0, 10)
        for tm in (2.0, 4.0):
            val = biorthogonality_check(rep, SUGrid(tm, 80, 8), (0, 0, 0, 0))
            assert val.real == pytest.approx(1 - 1 / math.cosh(tm), abs=1e-8)
            assert abs(val.imag) < 1e-10

    def test_offdiag_vanishes_by_phi_average(self):
        rep = DiscreteSeriesRep(1.0, 10)
        val = biorthogonality_check(rep, SUGrid(4.0, 60, 16), (0, 1, 0, 0))
        assert abs(val) < 1e-10

    def test_matches_per_node_sum(self):
        # the engine round trip equals the direct sum over B and pi at every
        # node, also below su11_system's cutoff guard
        for cutoff, indices in ((4, (0, 1, 1, 0)), (8, (2, 1, 2, 3))):
            rep = DiscreteSeriesRep(1.0, cutoff)
            grid = SUGrid(2.5, 10, 6)
            m, n, l, q = indices
            ig = grid.to_index_grid()
            terms = [
                w * np.conj(loop_reference.analysis_B(rep, *x)[m, n])
                * loop_reference.synthesis_pi(rep, *x)[l, q]
                for x, w in zip(ig.nodes, ig.weights)
            ]
            assert abs(biorthogonality_check(rep, grid, indices) - sum(terms)) < 1e-13

    def test_boundary_indices_rejected(self):
        rep = DiscreteSeriesRep(1.0, 8)
        with pytest.raises(ValueError):
            biorthogonality_check(rep, SUGrid(2.0, 10, 4), (0, 7, 0, 0))

    def test_ladder_monotone_to_one(self):
        rep = DiscreteSeriesRep(1.0, 10)
        report = biorthogonality_ladder(rep, (2.0, 4.0, 6.0), n_theta=60, n_phi=8)
        d = report["diag_value"]
        assert d[0] < d[1] < d[2] < 1.0
        assert 1 - d[2] < 0.05
        assert max(report["offdiag_max"]) < 1e-8

    def test_ladder_bit_equal_to_check_per_entry(self):
        # the ladder reads both entries from one system per theta_max; the
        # values must be exactly those of one biorthogonality_check per entry
        for cutoff in (4, 8):
            rep = DiscreteSeriesRep(1.0, cutoff)
            report = biorthogonality_ladder(rep, (2.0, 3.5), n_theta=12, n_phi=6)
            for tm, diag, off in zip(report["theta_max"], report["diag_value"],
                                     report["offdiag_max"]):
                grid = SUGrid(tm, 12, 6)
                assert diag == biorthogonality_check(rep, grid, (0, 0, 0, 0)).real
                assert off == abs(biorthogonality_check(rep, grid, (0, 1, 0, 0)))


class TestSystem:
    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError):
            su11_system(DiscreteSeriesRep(1.0, 4), SUGrid(2.0, 10, 4))

    def test_phase_closure_matches_direct(self):
        # B and pi both carry charges +r: both equal direct builds at every node
        rep = DiscreteSeriesRep(1.0, 8)
        sys = su11_system(rep, SUGrid(3.0, 6, 8))
        for node in sys.grid.nodes:
            b, pi = loop_reference.analysis_B(rep, *node), loop_reference.synthesis_pi(rep, *node)
            assert np.abs(sys.analysis(node).entries - b).max() < 1e-12
            assert np.abs(sys.synthesis(node).entries - pi).max() < 1e-12

    def test_reconstruction_linearity(self):
        rep = DiscreteSeriesRep(1.0, 8)
        grid = SUGrid(3.0, 20, 8)
        a = DensityMatrix(Operator(np.diag([1.0] + [0.0] * 7)))
        b = DensityMatrix(Operator(np.diag([0.0, 1.0] + [0.0] * 6)))
        mix = DensityMatrix(
            Operator(0.5 * a.op.entries + 0.5 * b.op.entries)
        )
        sys = su11_system(rep, grid)
        rec = roundtrip(sys, mix.op)[0].entries
        rec_sum = 0.5 * (roundtrip(sys, a.op)[0].entries + roundtrip(sys, b.op)[0].entries)
        assert np.abs(rec - rec_sum).max() < 1e-10

    def test_roundtrip_matches_sample_path_aliased(self):
        # n_phi 8 aliases the charge differences r_a - r_b of B and pi (both +r) at
        # cutoff 10; the pairings and the reconstruction read the frame operator
        rep = DiscreteSeriesRep(1.0, 10)
        grid = SUGrid(4.0, 30, 8)
        sys = su11_system(rep, grid)
        rho = DensityMatrix(Operator(np.diag(np.linspace(1.0, 0.1, 10) / 5.5)))
        want = loop_reference.roundtrip(sys, rho.op)
        rec = roundtrip(sys, rho.op)[0].entries
        assert np.linalg.norm(rec - want) <= 1e-13 * np.linalg.norm(want)
        for indices in ((0, 0, 0, 0), (0, 1, 0, 0), (2, 1, 2, 3), (1, 3, 3, 1)):
            m, n, l, q = indices
            unit = np.zeros((10, 10))
            unit[m, n] = 1
            want = loop_reference.roundtrip(sys, Operator(unit))
            got = biorthogonality_check(rep, grid, indices)
            assert abs(got - want[l, q]) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("cutoff", [8, 10])
    def test_reconstruction_is_covariant(self, cutoff):
        # both families carry charges +r, so conjugating rho by U = diag(e^{0.7 i r})
        # conjugates the reconstruction; with pi at charges -r it is 0.20 and 0.09
        # off relative to the reconstruction
        rep, grid = DiscreteSeriesRep(1.0, cutoff), SUGrid(6.0, 80, 16)
        rng = np.random.default_rng(0)
        m = rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))
        rho = m @ m.conj().T / np.trace(m @ m.conj().T).real
        u = np.exp(0.7j * np.arange(cutoff))
        sys = su11_system(rep, grid)
        rec = roundtrip(sys, Operator(rho))[0].entries
        moved = roundtrip(sys, Operator(u[:, None] * rho * u.conj()))[0]
        assert np.linalg.norm(moved.entries - u[:, None] * rec * u.conj()) <= (
            1e-13 * np.linalg.norm(rec))

    def test_reconstruction_lies_in_algebra_span(self):
        # output is always a combination of Kz, K+, K- (plus nothing else)
        rep = DiscreteSeriesRep(1.0, 8)
        grid = SUGrid(3.0, 20, 8)
        rho = DensityMatrix(Operator(np.diag([0.5, 0.3, 0.2] + [0.0] * 5)))
        rec = roundtrip(su11_system(rep, grid), rho.op)[0].entries
        kp, km, kz = (g.entries.astype(complex) for g in generators(rep))
        basis = np.stack([kz.ravel(), kp.ravel(), km.ravel()], axis=1)
        coeffs, *_ = np.linalg.lstsq(basis, rec.ravel(), rcond=None)
        assert np.abs(basis @ coeffs - rec.ravel()).max() < 1e-10


class TestThermal:
    def test_probe_values(self):
        p = thermal_probe(DiscreteSeriesRep(1.0, 4), 0.5).entries
        assert np.allclose(np.diag(p), [1.0, 0.5, 0.25, 0.125])

    def test_probe_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            thermal_probe(DiscreteSeriesRep(1.0, 4), 1.0)
        with pytest.raises(ValueError):
            thermal_probe(DiscreteSeriesRep(1.0, 4), 0.0)

    def test_tomo_run_builds_one_system(self, tmp_path, monkeypatch):
        # one system per grid: the thermal grid is the last grid of an ascending ladder
        for n_phi in (8, 16):
            config = tmp_path / "su11.json"
            config.write_text(json.dumps({"system": "su11", "params": {
                "k": 1.0, "cutoff": 10, "theta_max_ladder": [2.0, 4.0, 6.0], "n_theta": 40,
                "n_phi": n_phi}}))
            calls = []
            build = su11_tomo._slices
            monkeypatch.setattr(su11_tomo, "_slices", lambda *a: calls.append(a) or build(*a))
            su11_tomo._slice_system.cache_clear()
            out = str(tmp_path / "o")
            assert cli.main(["tomo-run", "--config", str(config), "--out", out]) == 0
            monkeypatch.undo()
            assert len(calls) == 3, n_phi

    def test_admissibility_independent_of_n_phi(self):
        # p0 and L0 are diagonal, so only the charge class 0 enters: any n_phi gives the value
        rep = DiscreteSeriesRep(1.0, 10)
        values = [thermal_admissibility(rep, 0.5, SUGrid(6.0, 40, n)) for n in (4, 8, 16)]
        assert values[0].real > 1
        for val in values[1:]:
            assert abs(val - values[0]) <= 1e-14 * abs(values[0])

    def test_admissibility_half(self):
        rep = DiscreteSeriesRep(1.0, 32)
        val = thermal_admissibility(rep, 0.5, SUGrid(12.0, 160, 8))
        assert val.real == pytest.approx(2.0, rel=0.05)
        assert abs(val.imag) < 1e-6
