import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coorbit
from coorbit.cli import build_state, load_config, main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def dps_config(tmp_path, **extra):
    doc = {"system": "dps", "params": {"N": 3}}
    doc.update(extra)
    return write_config(tmp_path, doc)


class TestConfigLoading:
    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"system": "dps", "params": {"N": 2}, "extra": 1})
        assert main(["tomo-run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_missing_params_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"system": "dps"})
        assert main(["tomo-run", "--config", path, "--out", str(tmp_path / "o")]) == 1

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["tomo-run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path, capsys):
        assert (
            main(["tomo-run", "--config", str(tmp_path / "absent.json"),
                  "--out", str(tmp_path / "o")])
            == 1
        )

    def test_unknown_system_rejected(self, tmp_path):
        path = write_config(tmp_path, {"system": "optical", "params": {}})
        with pytest.raises(Exception):
            load_config(path, {})

    def test_system_override(self, tmp_path):
        path = write_config(tmp_path, {"system": "dps", "params": {"N": 2}})
        doc = load_config(path, {"system": "spin"})
        assert doc["system"] == "spin"


class TestStateMake:
    def test_fock_state_file(self, tmp_path):
        path = write_config(
            tmp_path, {"system": "dps", "params": {"N": 2},
                       "state": {"kind": "fock", "n": 1, "d": 2}}
        )
        out = tmp_path / "state.json"
        assert main(["state-make", "--config", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["dim"] == 2
        entries = np.array(doc["entries"])
        assert entries[3][0] == 1.0 and entries[0][0] == 0.0

    def test_coherent_diagonal_is_poisson(self, tmp_path):
        beta = 0.7
        rho = build_state({"kind": "coherent", "d": 24, "beta_re": beta, "beta_im": 0.0})
        diag = np.diag(rho.op.entries).real
        n = np.arange(24)
        expect = np.exp(-beta**2) * beta ** (2 * n) / np.array(
            [math.factorial(int(i)) for i in n]
        )
        assert np.abs(diag - expect).max() < 1e-10

    def test_thermal_mean_occupation(self):
        rho = build_state({"kind": "thermal", "d": 64, "nbar": 1.5})
        diag = np.diag(rho.op.entries).real
        assert np.sum(diag * np.arange(64)) == pytest.approx(1.5, abs=1e-6)

    def test_fock_level_out_of_range(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"system": "dps", "params": {"N": 2},
                       "state": {"kind": "fock", "n": 5, "d": 2}}
        )
        assert main(["state-make", "--config", path, "--out", str(tmp_path / "o")]) == 1

    def test_random_state_seed_reproducible(self):
        a = build_state({"kind": "random", "d": 5, "seed": 11})
        b = build_state({"kind": "random", "d": 5, "seed": 11})
        assert np.array_equal(a.op.entries, b.op.entries)


class TestTomoRun:
    def test_dps_success_and_report(self, tmp_path):
        path = dps_config(tmp_path)
        out = tmp_path / "report.json"
        assert main(["tomo-run", "--config", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["hs_error"] < 1e-12
        assert doc["fidelity"] == pytest.approx(1, abs=1e-10)
        assert abs(doc["frame_A"] - 1) < 1e-12

    def test_byte_identical_determinism(self, tmp_path):
        path = dps_config(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["tomo-run", "--config", path, "--out", str(out1)]) == 0
        assert main(["tomo-run", "--config", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_byte_identical_across_blas_threads(self, tmp_path):
        # the engine and frame_bounds go through BLAS and LAPACK; the thread
        # count must not change a byte of the report
        path = write_config(
            tmp_path,
            {"system": "homodyne",
             "params": {"d": 16, "R": 5.5, "n_r": 24, "n_phi": 40},
             "state": {"kind": "coherent", "d": 16, "beta_re": 0.6, "beta_im": -0.3},
             "frame_bounds": True},
        )
        src = str(Path(coorbit.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"r{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run(
                [sys.executable, "-m", "coorbit.cli", "tomo-run", "--config", path,
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert "frame_A" in json.loads(outputs[0])
        assert outputs[0] == outputs[1]

    def test_tolerance_failure_exit_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"system": "homodyne",
             "params": {"d": 8, "R": 2.0, "n_r": 8, "n_phi": 8},
             "frame_bounds": False,
             "tolerances": {"hs_error": 1e-12}},
        )
        assert main(["tomo-run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "tolerance failure" in capsys.readouterr().err

    def test_tolerance_flag_override(self, tmp_path):
        path = write_config(
            tmp_path,
            {"system": "homodyne",
             "params": {"d": 8, "R": 2.0, "n_r": 8, "n_phi": 8},
             "frame_bounds": False},
        )
        assert (
            main(["tomo-run", "--config", path, "--out", str(tmp_path / "o"),
                  "--tolerance", "1e-12"])
            == 2
        )

    def test_symplectic_ladder_report(self, tmp_path):
        path = write_config(
            tmp_path,
            {"system": "symplectic",
             "params": {"d": 6, "delta_ladder": [2.0, 4.0], "n_mn": 40, "L": 6.0}},
        )
        out = tmp_path / "r.json"
        assert main(["tomo-run", "--config", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        fids = doc["ladder"]["fidelity"]
        assert fids[0] < fids[1]

    def test_su11_ladder_report(self, tmp_path):
        path = write_config(
            tmp_path,
            {"system": "su11",
             "params": {"k": 1.0, "cutoff": 10, "theta_max_ladder": [2.0, 4.0],
                        "n_theta": 40, "n_phi": 8}},
        )
        out = tmp_path / "r.json"
        assert main(["tomo-run", "--config", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        d = doc["ladder"]["diag_value"]
        assert d[0] < d[1] < 1.0

    def test_state_dim_mismatch(self, tmp_path):
        path = write_config(
            tmp_path,
            {"system": "dps", "params": {"N": 3},
             "state": {"kind": "fock", "n": 0, "d": 2}},
        )
        assert main(["tomo-run", "--config", path, "--out", str(tmp_path / "o")]) == 1


class TestEmit:
    def test_requires_kind(self, tmp_path, capsys):
        path = dps_config(tmp_path)
        assert main(["emit", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "emit requires --kind" in capsys.readouterr().err

    def test_wigner_csv_shape(self, tmp_path):
        path = dps_config(tmp_path)
        out = tmp_path / "w.csv"
        assert main(["emit", "--config", path, "--out", str(out),
                     "--kind", "wigner"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,p,W"
        assert len(lines) == 1 + 36  # (2N)^2 rows for N = 3

    def test_symbols_column_profile(self, tmp_path):
        path = write_config(
            tmp_path,
            {"system": "spin", "params": {"two_s": 1},
             "state": {"kind": "spin_coherent", "two_s": 1, "theta": 0.0, "phi": 0.0}},
        )
        out = tmp_path / "s.csv"
        assert main(["emit", "--config", path, "--out", str(out),
                     "--kind", "symbols"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,phi,weight,symbol_re,symbol_im"
        for line in lines[1:]:
            th, ph, wt, re, im = (float(x) for x in line.split(","))
            assert re == pytest.approx((1 + 3 * math.cos(th)) / 2, abs=1e-10)
            assert abs(im) < 1e-12

    def test_marginal_row_count(self, tmp_path):
        path = write_config(
            tmp_path,
            {"system": "symplectic", "params": {"d": 6, "n_X": 21}},
        )
        out = tmp_path / "m.csv"
        assert main(["emit", "--config", path, "--out", str(out),
                     "--kind", "marginal"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "X,mu,nu,w"
        assert len(lines) == 22

    def test_unsupported_combination(self, tmp_path, capsys):
        path = dps_config(tmp_path)
        assert main(["emit", "--config", path, "--out", str(tmp_path / "o"),
                     "--kind", "qfunc"]) == 1

