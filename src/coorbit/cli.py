"""Command-line front end.

Three subcommands driven by a strictly validated JSON config:

* ``state-make``  — build a density matrix and write it as JSON;
* ``tomo-run``    — run an analyze/synthesize round trip and write a report;
* ``emit``        — export distributions (wigner / qfunc / marginal / symbols)
  as CSV.

Exit codes: 0 success, 1 usage or config error, 2 tolerance failure.
All floating-point output is printed with 17 significant digits, and node
orders and reduction orders are fixed, so identical configs yield
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

import numpy as np

from . import cv_tomo, discrete_ps, spin_moyal, su11_tomo, symplectic_tomo
from .frame_core import admissibility_constant, frame_bounds, roundtrip
from .opalg import DensityMatrix, Operator, closest_density, fidelity

SYSTEMS = ("spin", "dps", "homodyne", "symplectic", "su11")
STATE_KINDS = ("fock", "coherent", "thermal", "spin_coherent", "random")


class ConfigError(Exception):
    pass


class ToleranceError(Exception):
    pass


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _json_17(obj, indent=0) -> str:
    """Render JSON with every float printed to 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  "{k}": {_json_17(v, indent + 1).lstrip()}' for k, v in obj.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        items = ",\n".join(f"{pad}  {_json_17(v, indent + 1).lstrip()}" for v in obj)
        return f"{pad}[\n{items}\n{pad}]"
    if isinstance(obj, bool):
        return f"{pad}{str(obj).lower()}"
    if isinstance(obj, (int, np.integer)):
        return f"{pad}{int(obj)}"
    if isinstance(obj, (float, np.floating)):
        return f"{pad}{_fmt(obj)}"
    if obj is None:
        return f"{pad}null"
    return pad + json.dumps(str(obj))


def _require_keys(doc: dict, allowed: set, required: set, where: str):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def build_state(state_cfg: dict) -> DensityMatrix:
    _require_keys(state_cfg, {"kind", "n", "d", "beta_re", "beta_im", "nbar", "two_s",
                         "theta", "phi", "seed"}, {"kind"}, "state")
    kind = state_cfg["kind"]
    if kind not in STATE_KINDS:
        raise ConfigError(f"unknown state kind {kind!r}")
    if kind == "fock":
        d, n = int(state_cfg["d"]), int(state_cfg["n"])
        if not 0 <= n < d:
            raise ConfigError("fock level must satisfy 0 <= n < d")
        v = np.zeros(d)
        v[n] = 1
        return DensityMatrix(Operator(np.outer(v, v)))
    if kind == "coherent":
        d = int(state_cfg["d"])
        beta = complex(float(state_cfg.get("beta_re", 0.0)), float(state_cfg.get("beta_im", 0.0)))
        v = cv_tomo.coherent_state(cv_tomo.FockSpace(d), beta)
        return DensityMatrix(Operator(np.outer(v, v.conj())))
    if kind == "thermal":
        d, nbar = int(state_cfg["d"]), float(state_cfg["nbar"])
        if nbar <= 0:
            raise ConfigError("thermal occupation must be positive")
        b = nbar / (1 + nbar)
        diag = (1 - b) * b ** np.arange(d)
        return DensityMatrix(Operator(np.diag(diag / diag.sum())))
    if kind == "spin_coherent":
        p = spin_moyal.SpinParams(int(state_cfg["two_s"]))
        return DensityMatrix(
            spin_moyal.kernel_direct(p, float(state_cfg["theta"]), float(state_cfg["phi"]))
        )
    # random
    d = int(state_cfg["d"])
    rng = np.random.default_rng(int(state_cfg.get("seed", 0)))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return DensityMatrix(Operator(rho / np.trace(rho).real))


def load_config(path: str, overrides: dict) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _require_keys(
        doc,
        {"system", "params", "state", "tolerances", "seed", "frame_bounds"},
        {"system", "params"},
        "config",
    )
    doc = dict(doc)
    for key, value in overrides.items():
        if value is not None:
            doc[key] = value
    if doc["system"] not in SYSTEMS:
        raise ConfigError(f"unknown system {doc['system']!r}")
    tol = doc.get("tolerances", {})
    _require_keys(tol, {"hs_error", "fidelity"}, set(), "tolerances")
    return doc


def _build_system(doc: dict):
    name = doc["system"]
    params = doc["params"]
    if name == "dps":
        _require_keys(params, {"N"}, {"N"}, "params")
        return discrete_ps.heisenberg_finite_system(int(params["N"]))
    if name == "spin":
        _require_keys(params, {"two_s", "n_theta", "n_phi"}, {"two_s"}, "params")
        p = spin_moyal.SpinParams(int(params["two_s"]))
        grid = spin_moyal.sphere_grid(
            p,
            int(params["n_theta"]) if "n_theta" in params else None,
            int(params["n_phi"]) if "n_phi" in params else None,
        )
        return spin_moyal.moyal_system(p, grid)
    if name == "homodyne":
        _require_keys(params, {"d", "R", "n_r", "n_phi"}, {"d", "R", "n_r", "n_phi"}, "params")
        return cv_tomo.homodyne_system(
            cv_tomo.FockSpace(int(params["d"])),
            cv_tomo.PolarGrid(float(params["R"]), int(params["n_r"]), int(params["n_phi"])),
        )
    raise ConfigError(f"system {name!r} has no generic grid system")


def cmd_state_make(doc: dict, out_path: str) -> int:
    if "state" not in doc:
        raise ConfigError("state-make needs a 'state' section")
    rho = build_state(doc["state"])
    payload = {
        "dim": rho.dim,
        "entries": [[v.real, v.imag] for v in rho.op.entries.ravel()],
    }
    with open(out_path, "w") as fh:
        fh.write(_json_17(payload) + "\n")
    return 0


def _check_tolerances(report: dict, tolerances: dict):
    if "hs_error" in tolerances and report.get("hs_error") is not None:
        if report["hs_error"] > float(tolerances["hs_error"]):
            raise ToleranceError(
                f"hs_error {report['hs_error']:.3e} exceeds "
                f"{float(tolerances['hs_error']):.3e}; enlarge the grid or cutoff"
            )
    if "fidelity" in tolerances and report.get("fidelity") is not None:
        if report["fidelity"] < float(tolerances["fidelity"]):
            raise ToleranceError(
                f"fidelity {report['fidelity']:.6f} below "
                f"{float(tolerances['fidelity']):.6f}; enlarge the grid or cutoff"
            )


def cmd_tomo_run(doc: dict, out_path: str) -> int:
    name = doc["system"]
    params = doc["params"]
    report: dict = {"system": name}
    if name in ("dps", "spin", "homodyne"):
        sys_obj = _build_system(doc)
        rho = build_state(doc.get("state", {"kind": "random", "d": sys_obj.dim, "seed": doc.get("seed", 0)}))
        if rho.dim != sys_obj.dim:
            raise ConfigError(f"state dim {rho.dim} does not match system dim {sys_obj.dim}")
        rec, hs_error = roundtrip(sys_obj, rho.op)
        report["hs_error"] = hs_error
        report["fidelity"] = fidelity(rho, closest_density(rec))
        adm = admissibility_constant(sys_obj, sys_obj.vacuum, sys_obj.test_functional)
        report["admissibility"] = [adm.constant.real, adm.constant.imag]
        if doc.get("frame_bounds", True):
            fr = frame_bounds(sys_obj)
            report["frame_A"] = fr.A
            report["frame_B"] = fr.B
    elif name == "symplectic":
        _require_keys(params, {"d", "delta_ladder", "L", "n_mn"}, {"d", "delta_ladder"}, "params")
        f = cv_tomo.FockSpace(int(params["d"]))
        rho = build_state(doc.get("state", {"kind": "fock", "n": 0, "d": f.d}))
        if rho.dim != f.d:
            raise ConfigError(f"state dim {rho.dim} does not match d={f.d}")
        ladder = symplectic_tomo.delta_ladder(
            rho,
            f,
            [float(x) for x in params["delta_ladder"]],
            L=float(params.get("L", 8.0)),
            n_mn=int(params.get("n_mn", 60)),
        )
        report["ladder"] = ladder
        report["fidelity"] = max(ladder["fidelity"])
        report["hs_error"] = None
    else:  # su11
        _require_keys(
            params,
            {"k", "cutoff", "theta_max_ladder", "n_theta", "n_phi", "thermal_b"},
            {"k", "cutoff", "theta_max_ladder"},
            "params",
        )
        rep = su11_tomo.DiscreteSeriesRep(float(params["k"]), int(params["cutoff"]))
        ladder = su11_tomo.biorthogonality_ladder(
            rep,
            [float(x) for x in params["theta_max_ladder"]],
            n_theta=int(params.get("n_theta", 80)),
            n_phi=int(params.get("n_phi", 16)),
        )
        report["ladder"] = ladder
        b = float(params.get("thermal_b", 0.5))
        grid = su11_tomo.SUGrid(max(ladder["theta_max"]), int(params.get("n_theta", 80)), 8)
        c = su11_tomo.thermal_admissibility(rep, b, grid)
        report["thermal_admissibility"] = [c.real, c.imag]
        report["fidelity"] = None
        report["hs_error"] = None
    _check_tolerances(report, doc.get("tolerances", {}))
    with open(out_path, "w") as fh:
        fh.write(_json_17(report) + "\n")
    return 0


def cmd_emit(doc: dict, kind: str, out_path: str) -> int:
    name = doc["system"]
    rows = []
    if kind == "wigner" and name == "dps":
        N = int(doc["params"]["N"])
        rho = build_state(doc.get("state", {"kind": "fock", "n": 0, "d": N}))
        w = discrete_ps.discrete_wigner(rho, N)
        header = "q,p,W"
        for q in range(2 * N):
            for p in range(2 * N):
                rows.append(f"{q},{p},{_fmt(w[q, p])}")
    elif kind == "qfunc" and name == "homodyne":
        params = doc["params"]
        d = int(params["d"])
        rho = build_state(doc.get("state", {"kind": "fock", "n": 0, "d": d}))
        grid = cv_tomo.PolarGrid(float(params["R"]), int(params["n_r"]), int(params["n_phi"]))
        header = "alpha_re,alpha_im,value_re,value_im"
        for node in grid.to_index_grid().nodes:
            alpha = node[0] * np.exp(1j * node[1])
            q = cv_tomo.qfunction(rho, alpha)
            rows.append(f"{_fmt(alpha.real)},{_fmt(alpha.imag)},{_fmt(q)},{_fmt(0.0)}")
    elif kind == "marginal" and name == "symplectic":
        params = doc["params"]
        d = int(params["d"])
        rho = build_state(doc.get("state", {"kind": "fock", "n": 0, "d": d}))
        mu, nu = float(params.get("mu", 1.0)), float(params.get("nu", 0.0))
        x_nodes = np.linspace(-4, 4, int(params.get("n_X", 81)))
        w = symplectic_tomo.marginal(rho, mu, nu, x_nodes)
        header = "X,mu,nu,w"
        for x, wi in zip(x_nodes, w):
            rows.append(f"{_fmt(x)},{_fmt(mu)},{_fmt(nu)},{_fmt(wi)}")
    elif kind == "symbols" and name == "spin":
        params = doc["params"]
        p = spin_moyal.SpinParams(int(params["two_s"]))
        rho = build_state(doc.get("state", {"kind": "spin_coherent", "two_s": p.two_s,
                                            "theta": 0.0, "phi": 0.0}))
        grid = spin_moyal.sphere_grid(
            p,
            int(params["n_theta"]) if "n_theta" in params else None,
            int(params["n_phi"]) if "n_phi" in params else None,
        )
        samples = spin_moyal.spin_symbols(p, rho, grid)
        header = "theta,phi,weight,symbol_re,symbol_im"
        ig = grid.to_index_grid(p)
        for (th, ph), wt, val in zip(ig.nodes, ig.weights, samples.values):
            rows.append(
                f"{_fmt(th)},{_fmt(ph)},{_fmt(wt)},{_fmt(val.real)},{_fmt(val.imag)}"
            )
    else:
        raise ConfigError(f"emit kind {kind!r} is not supported for system {name!r}")
    with open(out_path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
    return 0


def _emit_params_ok(doc: dict, kind: str):
    params = doc["params"]
    if doc["system"] == "symplectic":
        _require_keys(params, {"d", "delta_ladder", "L", "n_mn", "mu", "nu", "n_X"},
                      {"d"}, "params")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coorbit", description="round-trip tomography experiments"
    )
    parser.add_argument("command", choices=("state-make", "tomo-run", "emit"))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--system", choices=SYSTEMS, help="override the config system")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--tolerance", type=float, help="override the hs_error tolerance")
    parser.add_argument("--kind", choices=("wigner", "qfunc", "marginal", "symbols"),
                        help="distribution kind for emit")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        doc = load_config(args.config, {"system": args.system, "seed": args.seed})
        if args.tolerance is not None:
            doc.setdefault("tolerances", {})["hs_error"] = args.tolerance
        if args.command == "state-make":
            return cmd_state_make(doc, args.out)
        if args.command == "tomo-run":
            return cmd_tomo_run(doc, args.out)
        if args.kind is None:
            raise ConfigError("emit requires --kind")
        _emit_params_ok(doc, args.kind)
        return cmd_emit(doc, args.kind, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 1
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=_sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
