import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coorbit
import loop_reference
from coorbit import cli
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
            load_config(path, "tomo-run")


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

    def test_thermal_limit_of_large_occupation(self):
        # at nbar 1e16, b = nbar / (1 + nbar) rounds to 1: the maximally mixed state
        rho = build_state({"kind": "thermal", "d": 4, "nbar": 1e16})
        assert np.array_equal(rho.op.entries, np.eye(4) / 4)

    def test_fock_level_out_of_range(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"system": "dps", "params": {"N": 2},
                       "state": {"kind": "fock", "n": 5, "d": 2}}
        )
        assert main(["state-make", "--config", path, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("params, field", [
        ({"N": 3, "bogus": 1}, "unknown keys in params: ['bogus']"),
        ({"N": "x"}, "params.N must be a non-negative integer"),
    ], ids=["unknown", "mistyped"])
    def test_params_checked_as_for_other_commands(self, tmp_path, params, field):
        doc = {"system": "dps", "params": params, "state": {"kind": "fock", "n": 0, "d": 3}}
        rc, err = run_main(write_config(tmp_path, doc), "state-make", None, tmp_path / "o")
        assert rc == 1
        assert len(err) == 1 and field in err[0], err

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

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"system": "homodyne",
              "params": {"d": 16, "R": 5.5, "n_r": 24, "n_phi": 40},
              "state": {"kind": "coherent", "d": 16, "beta_re": 0.6, "beta_im": -0.3},
              "frame_bounds": True}, "frame_A"),
            # one phi node: the lattice's classes are keyed by (a - b) mod N,
            # so frame_bounds runs 15 eigensolves of order 15, not one of 225
            ({"system": "dps", "params": {"N": 15}}, "frame_A"),
            # the keyed lattice build: 20 blocks, each a GEMM over its own 20 slices
            ({"system": "dps", "params": {"N": 20}}, "frame_A"),
            ({"system": "spin", "params": {"two_s": 10}, "frame_bounds": True}, "frame_A"),
            # characteristic samples on the polar homodyne system, resummed by the engine
            ({"system": "symplectic", "params": {"d": 10, "delta_ladder": [4.0], "n_mn": 30}},
             "ladder"),
            # GEMMs over every theta node
            ({"system": "su11", "params": {"k": 1.0, "cutoff": 10, "theta_max_ladder": [6.0],
                                           "n_theta": 40, "n_phi": 8}},
             "thermal_admissibility"),
            # the stream benchmark size: the frame operator's batched block products
            ({"system": "homodyne",
              "params": {"d": 32, "R": 6.0, "n_r": 48, "n_phi": 64},
              "state": {"kind": "coherent", "d": 32, "beta_re": 0.6, "beta_im": -0.3},
              "frame_bounds": False}, "fidelity"),
        ],
        ids=["homodyne", "dps", "dps20", "spin", "symplectic", "su11", "homodyne-stream"],
    )
    def test_byte_identical_across_blas_threads(self, tmp_path, doc, field):
        # the engine, frame_bounds and the solvers go through BLAS and LAPACK;
        # the thread count must not change a byte of the report
        path = write_config(tmp_path, doc)
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
        assert field in json.loads(outputs[0])
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

    def test_seed_flag_replaces_config_seed(self, tmp_path):
        # one --seed gives the same bytes twice and the config's own seed's; another seed
        # draws another default random state
        doc = {"system": "homodyne", "params": {"d": 4, "R": 3.0, "n_r": 6, "n_phi": 8},
               "frame_bounds": False, "seed": 1}
        path, pinned = write_config(tmp_path, doc), write_config(tmp_path, {**doc, "seed": 5}, "5")
        runs = [(path, "5"), (path, "5"), (pinned, None), (path, "6")]
        for i, (config, seed) in enumerate(runs):
            argv = ["tomo-run", "--config", config, "--out", str(tmp_path / f"out{i}")]
            assert main(argv + (["--seed", seed] if seed else [])) == 0
        a, b, c, other = ((tmp_path / f"out{i}").read_bytes() for i in range(len(runs)))
        assert a == b == c
        assert json.loads(a)["hs_error"] != json.loads(other)["hs_error"]

    def test_negative_seed_flag_named(self, tmp_path, capsys):
        # the flag is at fault, not a config key: the config holds no seed
        out = tmp_path / "o"
        assert main(["tomo-run", "--config", dps_config(tmp_path), "--out", str(out),
                     "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err == "config error: --seed must be a non-negative integer: -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_rejected(self, tmp_path, capsys, value):
        # the config fails at 1e-12; a non-finite override must not switch the check off
        path = write_config(
            tmp_path,
            {"system": "homodyne",
             "params": {"d": 8, "R": 2.0, "n_r": 8, "n_phi": 8},
             "frame_bounds": False},
        )
        out = tmp_path / "o"
        assert main(["tomo-run", "--config", path, "--out", str(out), "--tolerance", value]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--tolerance must be a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("tolerances, flag, key", [
        ({"hs_error": -1.0}, [], "tolerances.hs_error"),
        ({"fidelity": 1.5}, [], "tolerances.fidelity"),
        ({"fidelity": -0.5}, [], "tolerances.fidelity"),
        ({}, ["--tolerance", "-1"], "--tolerance"),
    ])
    def test_out_of_range_tolerance_is_config_error(self, tmp_path, capsys, tolerances, flag, key):
        # hs_error < 0 and fidelity > 1 fail every run, and fidelity < 0 checks nothing
        path = write_config(tmp_path, {"system": "dps", "params": {"N": 3},
                                       "tolerances": tolerances})
        out = tmp_path / "o"
        assert main(["tomo-run", "--config", path, "--out", str(out), *flag]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: {key} must")
        assert not out.exists()

    @pytest.mark.parametrize("command",
                             [["state-make"], ["tomo-run"], ["emit", "--kind", "wigner"]])
    def test_unwritable_out_exit_1(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {"system": "dps", "params": {"N": 3},
                                       "state": {"kind": "fock", "d": 3, "n": 0}})
        out = tmp_path / "absent" / "o.json"
        assert main([command[0], "--config", path, "--out", str(out), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: cannot write --out:")

    def test_zero_lower_frame_bound_reported(self, tmp_path):
        # an under-resolved but valid grid: A = 0 is a result, not a config error
        path = write_config(tmp_path, {"system": "homodyne",
                                       "params": {"d": 4, "R": 2.5, "n_r": 4, "n_phi": 4}})
        out = tmp_path / "o.json"
        assert main(["tomo-run", "--config", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["frame_A"] == 0.0 and report["frame_B"] > 0

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

    @pytest.mark.parametrize("kind, doc", [
        ("wigner", {"system": "dps", "params": {"N": 5}}),
        ("qfunc", {"system": "homodyne", "params": {"d": 6, "R": 3.0, "n_r": 7, "n_phi": 9}}),
        ("marginal", {"system": "symplectic", "params": {"d": 6, "n_X": 21, "mu": -0.7,
                                                          "nu": 1.3}}),
        ("symbols", {"system": "spin", "params": {"two_s": 3}}),
    ], ids=["wigner", "qfunc", "marginal", "symbols"])
    def test_rows_equal_per_value_formatting(self, tmp_path, kind, doc):
        path = write_config(tmp_path, doc)
        out = tmp_path / "rows.csv"
        assert main(["emit", "--config", path, "--out", str(out), "--kind", kind]) == 0
        want = loop_reference.emit_rows(load_config(path, "emit"), kind)
        assert out.read_text().splitlines()[1:] == want

    @pytest.mark.parametrize("kind, doc, state_dim, system_dim", [
        ("wigner", {"system": "dps", "params": {"N": 3}}, 4, 3),
        ("qfunc", {"system": "homodyne", "params": {"d": 6, "R": 3.0, "n_r": 4, "n_phi": 4}}, 4, 6),
        ("marginal", {"system": "symplectic", "params": {"d": 6, "n_X": 9}}, 4, 6),
        ("symbols", {"system": "spin", "params": {"two_s": 4}}, 3, 5),
    ], ids=["wigner", "qfunc", "marginal", "symbols"])
    def test_state_of_another_dim_one_line(self, tmp_path, kind, doc, state_dim, system_dim):
        if kind == "symbols":
            state = {"kind": "spin_coherent", "two_s": state_dim - 1, "theta": 0.0, "phi": 0.0}
        else:
            state = {"kind": "fock", "d": state_dim, "n": 0}
        rc, err = run_main(write_config(tmp_path, {**doc, "state": state}), "emit", kind,
                           tmp_path / "o")
        assert rc == 1
        assert err == [f"config error: state dim {state_dim} does not match system dim "
                       f"{system_dim}"]

    def test_cells_format_each_bit_pattern(self):
        # -0.0 == 0.0, yet they print apart, so a cell is keyed on the float's bits
        column = np.array([0.0, -0.0, 1.5, 0.0, -0.0, 1e-300, 1.5])
        assert cli._cells(column).tolist() == [cli._fmt(x) for x in column]
        assert cli._cells(column)[:2].tolist() == ["0", "-0"]
        assert cli._cells(np.array([3, -1, 3])).tolist() == ["3", "-1", "3"]

    def test_unsupported_combination(self, tmp_path, capsys):
        path = dps_config(tmp_path)
        assert main(["emit", "--config", path, "--out", str(tmp_path / "o"),
                     "--kind", "qfunc"]) == 1



# Each malformed config names the field at fault: (command, kind, config, field).
MALFORMED = [
    ("tomo-run", None, {"system": "dps", "params": {"N": 3}, "tolerances": 5}, "tolerances"),
    ("tomo-run", None, {"system": "dps", "params": 5}, "params"),
    ("tomo-run", None, {"system": "dps", "params": {"N": 3}, "state": 5}, "state"),
    ("tomo-run", None, {"system": "dps", "params": {"N": None}}, "params.N"),
    ("tomo-run", None, {"system": "symplectic", "params": {"d": 4, "delta_ladder": 5}},
     "params.delta_ladder"),
    ("tomo-run", None, {"system": "dps", "params": {"N": 3}, "state": {"kind": "fock", "d": 3}},
     "state.n"),
    ("tomo-run", None, {"system": "dps", "params": {"N": 3},
                        "state": {"kind": "thermal", "d": 3}}, "state.nbar"),
    ("state-make", None, {"system": "spin", "params": {"two_s": 2},
                          "state": {"kind": "spin_coherent", "two_s": 2, "phi": 0.0}},
     "state.theta"),
    ("emit", "wigner", {"system": "dps", "params": {}}, "params.N"),
    ("emit", "qfunc", {"system": "homodyne", "params": {"d": 4, "n_r": 4, "n_phi": 4}},
     "params.R"),
    ("emit", "symbols", {"system": "spin", "params": {}}, "params.two_s"),
    ("tomo-run", None, {"system": "homodyne",
                        "params": {"d": 4, "R": "inf", "n_r": 4, "n_phi": 4}}, "params.R"),
    ("tomo-run", None, {"system": "symplectic", "params": {"d": 4, "delta_ladder": []}},
     "params.delta_ladder"),
    ("tomo-run", None, {"system": "su11",
                        "params": {"k": 1.0, "cutoff": 6, "theta_max_ladder": []}},
     "params.theta_max_ladder"),
    ("tomo-run", None, {"system": "dps", "params": {"N": 3}, "frame_bounds": "no"},
     "frame_bounds"),
    ("tomo-run", None, {"system": "dps", "params": {"N": 2.7}}, "params.N"),
    ("emit", "wigner", {"system": "dps", "params": {"N": 3, "bogus": 1}}, "bogus"),
    ("tomo-run", None, {"system": "dps", "params": {"N": 3},
                        "state": {"kind": "random", "d": 3, "nbar": 1.0}}, "nbar"),
    ("tomo-run", None, {"system": "dps", "params": {"N": 3}, "seed": -1}, "config.seed"),
    ("tomo-run", None, {"system": "spin", "params": {"two_s": 2, "n_phi": 0}}, "n_phi"),
    # finite values whose arithmetic overflows: the error names the keys behind it
    ("state-make", None, {"system": "dps", "params": {"N": 3},
                          "state": {"kind": "coherent", "d": 4, "beta_re": 1e200}},
     "state.beta_re"),
    ("tomo-run", None, {"system": "su11",
                        "params": {"k": 1.0, "cutoff": 6, "theta_max_ladder": [800.0]}},
     "theta_max_ladder"),
    ("tomo-run", None, {"system": "homodyne",
                        "params": {"d": 4, "R": 1e308, "n_r": 4, "n_phi": 4}}, "params.R"),
    # an empty marginal is a config error, as a zero count of any other nodes is
    ("emit", "marginal", {"system": "symplectic", "params": {"d": 4, "n_X": 0}}, "params.n_X"),
    # a range is checked where the value enters, and the message names the value given
    *[("tomo-run", None, {"system": "su11",
                          "params": {"k": 1.0, "cutoff": c, "theta_max_ladder": [2.0]}},
       f"params.cutoff must be at least 6, got {c}") for c in range(6)],
    ("emit", "marginal", {"system": "symplectic", "params": {"d": 4, "mu": 1e-300}},
     "(mu, nu) = (1e-300, 0.0)"),
]


def run_main(path, command, kind, out):
    """main's return code and stderr lines; warnings raise, so none can pass silently."""
    argv = [command, "--config", str(path), "--out", str(out)]
    if kind is not None:
        argv += ["--kind", kind]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(argv)
    return rc, err.getvalue().splitlines()


class TestRepeatedCalls:
    def test_parser_built_once(self, tmp_path):
        cli._parser.cache_clear()
        path = dps_config(tmp_path)
        for out in ("a", "b", "c"):
            assert main(["tomo-run", "--config", path, "--out", str(tmp_path / out)]) == 0
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_usage_error_then_help_then_run(self, tmp_path, capsys):
        # the cached parser keeps no state from one call to the next
        path, out = dps_config(tmp_path), tmp_path / "o"
        assert main(["tomo-run", "--config", path, "--out", str(out), "--bogus"]) == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert "usage: coorbit" in capsys.readouterr().out
        assert main(["tomo-run", "--config", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["system"] == "dps"

    def test_short_report_over_longer_out(self, tmp_path):
        # --out is rewritten in place and cut to the new length
        out, fresh = tmp_path / "o.json", tmp_path / "fresh.json"
        long_cfg = write_config(tmp_path, {"system": "dps", "params": {"N": 8}}, "long.json")
        short_cfg = dps_config(tmp_path, frame_bounds=False)
        assert main(["tomo-run", "--config", long_cfg, "--out", str(out)]) == 0
        longer = out.stat().st_size
        assert main(["tomo-run", "--config", short_cfg, "--out", str(out)]) == 0
        assert main(["tomo-run", "--config", short_cfg, "--out", str(fresh)]) == 0
        assert out.stat().st_size < longer
        assert out.read_bytes() == fresh.read_bytes()

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_out_null_device(self, tmp_path):
        assert main(["tomo-run", "--config", dps_config(tmp_path), "--out", os.devnull]) == 0

    def test_out_directory_exit_1(self, tmp_path, capsys):
        assert main(["tomo-run", "--config", dps_config(tmp_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: cannot write --out:")


# every tomo-run system (frame bounds on) and every emit kind, at small sizes
NUMPY_ONLY_RUNS = [
    ("tomo-run", None, {"system": "dps", "params": {"N": 4}}),
    ("tomo-run", None, {"system": "spin", "params": {"two_s": 6}}),
    ("tomo-run", None, {"system": "homodyne", "params": {"d": 8, "R": 5.0, "n_r": 16, "n_phi": 20},
                        "state": {"kind": "coherent", "d": 8, "beta_re": 0.4, "beta_im": 0.2}}),
    ("tomo-run", None, {"system": "symplectic",
                        "params": {"d": 6, "delta_ladder": [2.0, 4.0], "n_mn": 12}}),
    ("tomo-run", None, {"system": "su11", "params": {
        "k": 1.0, "cutoff": 6, "theta_max_ladder": [2.0, 4.0], "n_theta": 20, "n_phi": 8}}),
    ("emit", "wigner", {"system": "dps", "params": {"N": 4}}),
    ("emit", "qfunc", {"system": "homodyne", "params": {"d": 8, "R": 4.0, "n_r": 8, "n_phi": 8}}),
    ("emit", "marginal", {"system": "symplectic",
                          "params": {"d": 6, "mu": 0.6, "nu": 0.8, "n_X": 21}}),
    ("emit", "symbols", {"system": "spin", "params": {"two_s": 4}}),
]


def test_commands_run_without_scipy(tmp_path):
    # one interpreter in which scipy cannot be imported runs every command; no
    # scipy module gets loaded, and each output equals that of an unblocked run
    argvs = []
    for i, (command, kind, doc) in enumerate(NUMPY_ONLY_RUNS):
        argv = [command, "--config", write_config(tmp_path, doc, f"c{i}.json")]
        argvs.append(argv + (["--kind", kind] if kind else []))
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import coorbit.cli\n"
        "argvs, out = json.loads(sys.argv[1]), sys.argv[2]\n"
        "codes = [coorbit.cli.main(a + ['--out', f'{out}{i}']) for i, a in enumerate(argvs)]\n"
        "loaded = [m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod]\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    src = str(Path(coorbit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs), str(tmp_path / "blocked")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0] * len(argvs) and loaded == [], proc.stderr
    for i, argv in enumerate(argvs):
        out = tmp_path / f"unblocked{i}"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / f"blocked{i}").read_bytes()


class TestConfigTable:
    @pytest.mark.parametrize("command,kind,doc,field", MALFORMED,
                             ids=[f"{c[2]['system']}-{c[3]}" for c in MALFORMED])
    def test_malformed_config_one_line(self, tmp_path, command, kind, doc, field):
        rc, err = run_main(write_config(tmp_path, doc), command, kind, tmp_path / "o")
        assert rc == 1
        assert len(err) == 1 and field in err[0], err

    def test_exhausted_memory_one_line(self, tmp_path, monkeypatch):
        def exhausted(*args):
            raise MemoryError
        monkeypatch.setattr(cli.discrete_ps, "heisenberg_finite_system", exhausted)
        rc, err = run_main(dps_config(tmp_path), "tomo-run", None, tmp_path / "o")
        assert rc == 1
        assert err == ["config error: too large for memory: allocation failed"]

    @pytest.mark.parametrize("command, kind", [("tomo-run", None), ("emit", "qfunc")])
    def test_oversized_homodyne_one_line(self, tmp_path, command, kind):
        # d 10^7: the Laguerre table (tomo-run) and the Fock state (emit) are
        # petabyte and terabyte arrays, refused at once whatever the overcommit policy
        doc = {"system": "homodyne", "params": {"d": 10**7, "R": 5.0, "n_r": 4, "n_phi": 4}}
        rc, err = run_main(write_config(tmp_path, doc), command, kind, tmp_path / "o")
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("config error: too large for memory:"), err

    def test_integer_accepted_for_float_field(self, tmp_path):
        # a JSON integer is a finite number, and the report is the same as for 3.0
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        doc = {"system": "homodyne", "params": {"d": 4, "R": 3, "n_r": 4, "n_phi": 8},
               "frame_bounds": False}
        assert main(["tomo-run", "--config", write_config(tmp_path, doc), "--out", str(out1)]) == 0
        doc["params"]["R"] = 3.0
        assert main(["tomo-run", "--config", write_config(tmp_path, doc), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


# Small valid configs: every replacement below keeps each system tiny.
FUZZ_BASES = [
    ("tomo-run", None, {"system": "dps", "params": {"N": 3}, "seed": 1, "frame_bounds": True,
                        "tolerances": {"hs_error": 1e-6, "fidelity": 0.5}}),
    ("tomo-run", None, {"system": "spin", "params": {"two_s": 2, "n_theta": 3, "n_phi": 6},
                        "state": {"kind": "spin_coherent", "two_s": 2, "theta": 0.5,
                                  "phi": 1.0}}),
    ("tomo-run", None, {"system": "homodyne", "params": {"d": 4, "R": 3.0, "n_r": 4, "n_phi": 4},
                        "state": {"kind": "coherent", "d": 4, "beta_re": 0.2, "beta_im": 0.1}}),
    ("tomo-run", None, {"system": "symplectic",
                        "params": {"d": 4, "delta_ladder": [2.0], "n_mn": 6, "L": 6.0},
                        "state": {"kind": "fock", "d": 4, "n": 1}}),
    ("tomo-run", None, {"system": "su11", "params": {
        "k": 1.0, "cutoff": 6, "theta_max_ladder": [2.0], "n_theta": 4, "n_phi": 4,
        "thermal_b": 0.5}}),
    ("emit", "wigner", {"system": "dps", "params": {"N": 3},
                        "state": {"kind": "thermal", "d": 3, "nbar": 0.5}}),
    ("emit", "qfunc", {"system": "homodyne", "params": {"d": 4, "R": 2.0, "n_r": 4, "n_phi": 4}}),
    ("emit", "marginal", {"system": "symplectic",
                          "params": {"d": 4, "mu": 1.0, "nu": 0.5, "n_X": 9}}),
    ("emit", "symbols", {"system": "spin", "params": {"two_s": 2}}),
    ("state-make", None, {"system": "dps", "params": {"N": 3},
                          "state": {"kind": "random", "d": 3, "seed": 2}}),
]
FUZZ_VALUES = [None, "1", [], {}, True, -1, 0, 2.5, 1e308, 1e-300, float("nan"), float("inf")]


def _key_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))
        elif isinstance(value, list):
            yield from (prefix + (key, i) for i in range(len(value)))


@st.composite
def mutated_configs(draw):
    command, kind, base = draw(st.sampled_from(FUZZ_BASES))
    path = draw(st.sampled_from(list(_key_paths(base))))
    doc = json.loads(json.dumps(base))
    node = doc
    for key in path[:-1]:
        node = node[key]
    value = draw(st.sampled_from(["drop"] + FUZZ_VALUES))
    if value == "drop" and isinstance(node, dict):
        del node[path[-1]]
    else:
        node[path[-1]] = None if value == "drop" else value
    return command, kind, doc


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=mutated_configs())
def test_fuzzed_config_exits_cleanly(tmp_path_factory, case):
    command, kind, doc = case
    tmp = tmp_path_factory.mktemp("fuzz")
    rc, err = run_main(write_config(tmp, doc), command, kind, tmp / "o")
    assert rc in (0, 1, 2)
    assert len(err) == (0 if rc == 0 else 1), err
