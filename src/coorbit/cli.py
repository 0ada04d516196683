"""Command-line front end.

Three subcommands driven by a strictly validated JSON config:

* ``state-make``  — build a density matrix and write it as JSON;
* ``tomo-run``    — run an analyze/synthesize round trip and write a report;
* ``emit``        — export distributions (wigner / qfunc / marginal / symbols)
  as CSV.

:func:`load_config` types every section for every command, ``state`` when
it is built, and ``tomo-run`` and ``emit`` check its dimension against the
system's; the commands read only the typed values. An arithmetic failure
(overflow, division by zero, invalid operation) is reported as a config
error that names the number keys of the section being computed and their
values.

Exit codes: 0 success, 1 usage or config error (a config too large for
memory included), 2 tolerance failure.
All floating-point output is printed with 17 significant digits, and node
orders and reduction orders are fixed, so identical configs yield
byte-identical outputs.

The argument parser is built once per process, and ``--out`` is rewritten in
place, not truncated to zero first, so repeated in-process calls of
:func:`main` pay only for their own configs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys as _sys

import numpy as np

from . import cv_tomo, discrete_ps, spin_moyal, su11_tomo, symplectic_tomo
from .frame_core import admissibility_constant, analyze, frame_bounds, roundtrip
from .opalg import DensityMatrix, Operator, closest_density, fidelity

SYSTEMS = ("spin", "dps", "homodyne", "symplectic", "su11")

REQ = "required"  # a key that must be present
TOMO = "required by tomo-run"  # a key tomo-run needs and emit does not read

# Each table maps a key to (type, default). The type is int, float, bool,
# dict, list (a non-empty list of floats) or a tuple of the allowed strings.
TOP = {"system": (SYSTEMS, REQ), "params": (dict, REQ), "state": (dict, None),
       "tolerances": (dict, {}), "seed": (int, 0), "frame_bounds": (bool, True)}
TOLERANCES = {"hs_error": (float, None), "fidelity": (float, None)}
PARAMS = {
    "dps": {"N": (int, REQ)},
    "spin": {"two_s": (int, REQ), "n_theta": (int, None), "n_phi": (int, None)},
    "homodyne": {"d": (int, REQ), "R": (float, REQ), "n_r": (int, REQ), "n_phi": (int, REQ)},
    "symplectic": {"d": (int, REQ), "delta_ladder": (list, TOMO), "L": (float, 8.0),
                   "n_mn": (int, 60), "mu": (float, 1.0), "nu": (float, 0.0), "n_X": (int, 81)},
    "su11": {"k": (float, REQ), "cutoff": (int, REQ), "theta_max_ladder": (list, REQ),
             "n_theta": (int, 80), "n_phi": (int, 16), "thermal_b": (float, 0.5)},
}
STATES = {
    "fock": {"d": (int, REQ), "n": (int, REQ)},
    "coherent": {"d": (int, REQ), "beta_re": (float, 0.0), "beta_im": (float, 0.0)},
    "thermal": {"d": (int, REQ), "nbar": (float, REQ)},
    "spin_coherent": {"two_s": (int, REQ), "theta": (float, REQ), "phi": (float, REQ)},
    "random": {"d": (int, REQ), "seed": (int, 0)},
}
EMIT_SYSTEMS = {"wigner": "dps", "qfunc": "homodyne", "marginal": "symplectic", "symbols": "spin"}
_EXPECTED = {int: "a non-negative integer", float: "a finite number", bool: "true or false",
             dict: "an object", list: "a non-empty list of finite numbers"}


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


def _is(kind, value) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is float:  # excludes NaN, +-inf and ints beyond the float range
        return isinstance(value, (int, float)) and abs(value) <= _sys.float_info.max
    if kind is int:  # every int is a size, a count, an index or a seed
        return isinstance(value, int) and value >= 0
    if kind is list:
        return isinstance(value, list) and bool(value) and all(_is(float, x) for x in value)
    if isinstance(kind, tuple):
        return isinstance(value, str) and value in kind
    return isinstance(value, kind)


def _typed(section: dict, table: dict, where: str) -> dict:
    """Check a config section against its table; return every key, typed or defaulted."""
    out = {}
    for key, (kind, default) in table.items():
        if key not in section:
            if default is REQ:
                raise ConfigError(f"{where}.{key} is required")
            out[key] = default
        elif not _is(kind, section[key]):
            want = f"one of {', '.join(kind)}" if isinstance(kind, tuple) else _EXPECTED[kind]
            got = json.dumps(section[key], default=repr)
            raise ConfigError(f"{where}.{key} must be {want}, got {got}")
        elif kind is list:
            out[key] = [float(x) for x in section[key]]
        else:
            out[key] = float(section[key]) if kind is float else section[key]
    unknown = set(section) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return out


@contextlib.contextmanager
def _blame(section: dict, where: str):
    """Report an arithmetic failure as a config error naming the section's number keys."""
    try:
        yield
    except ArithmeticError as exc:
        keys = ", ".join(f"{where}.{k} = {json.dumps(v)}" for k, v in section.items()
                         if isinstance(v, (float, list))) or where
        raise ConfigError(f"{keys}: arithmetic out of range ({exc})") from exc


def build_state(state_cfg: dict) -> DensityMatrix:
    kind = state_cfg.get("kind")
    table = STATES[kind] if isinstance(kind, str) and kind in STATES else {}
    s = _typed(state_cfg, {"kind": (tuple(STATES), REQ), **table}, "state")
    with _blame(s, "state"):
        return _make_state(kind, s)


def _make_state(kind: str, s: dict) -> DensityMatrix:
    if kind == "fock":
        if not 0 <= s["n"] < s["d"]:
            raise ConfigError("fock level must satisfy 0 <= n < d")
        v = np.zeros(s["d"])
        v[s["n"]] = 1
        return DensityMatrix(Operator(np.outer(v, v)))
    if kind == "coherent":
        beta = complex(s["beta_re"], s["beta_im"])
        if abs(beta) > math.sqrt(_sys.float_info.max):
            raise ArithmeticError("the mean photon number |beta|^2 exceeds the float range")
        v = cv_tomo.coherent_state(cv_tomo.FockSpace(s["d"]), beta)
        return DensityMatrix(Operator(np.outer(v, v.conj())))
    if kind == "thermal":
        if s["nbar"] <= 0:
            raise ConfigError("thermal occupation must be positive")
        b = s["nbar"] / (1 + s["nbar"])
        diag = (1 - b) * b ** np.arange(s["d"])
        return DensityMatrix(Operator(np.diag(diag / diag.sum())))
    if kind == "spin_coherent":
        p = spin_moyal.SpinParams(s["two_s"])
        return DensityMatrix(spin_moyal.kernel_direct(p, s["theta"], s["phi"]))
    rng = np.random.default_rng(s["seed"])
    m = rng.normal(size=(s["d"], s["d"])) + 1j * rng.normal(size=(s["d"], s["d"]))
    rho = m @ m.conj().T
    return DensityMatrix(Operator(rho / np.trace(rho).real))


def _state(doc: dict, dim: int, **default) -> DensityMatrix:
    """The config's state, else the command's default, checked against the system's dim."""
    rho = build_state(default if doc["state"] is None else doc["state"])
    if rho.dim != dim:
        raise ConfigError(f"state dim {rho.dim} does not match system dim {dim}")
    return rho


def load_config(path: str, command: str) -> dict:
    """The config at ``path`` with every section but ``state`` typed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    doc = _typed(doc, TOP, "config")
    fill = REQ if command == "tomo-run" else None
    table = {k: (t, fill if d is TOMO else d) for k, (t, d) in PARAMS[doc["system"]].items()}
    doc["params"] = _typed(doc["params"], table, "params")
    tol = doc["tolerances"] = _typed(doc["tolerances"], TOLERANCES, "tolerances")
    for key, top in (("hs_error", math.inf), ("fidelity", 1.0)):
        if tol[key] is not None and not 0 <= tol[key] <= top:
            raise ConfigError(f"tolerances.{key} must lie in [0, {top:g}], got {tol[key]!r}")
    return doc


def _spin_grid(params: dict):
    """Spin parameters and sphere grid, shared by tomo-run and emit symbols."""
    p = spin_moyal.SpinParams(params["two_s"])
    return p, spin_moyal.sphere_grid(p, params["n_theta"], params["n_phi"])


def _polar_grid(params: dict) -> cv_tomo.PolarGrid:
    """Homodyne polar grid, shared by tomo-run and emit qfunc."""
    return cv_tomo.PolarGrid(params["R"], params["n_r"], params["n_phi"])


def _keep_contents(path: str, flags: int) -> int:
    """Open as the "wb" mode does, but without truncating the file on open."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write(out_path: str, text: str) -> int:
    """Write text and a newline over the start of --out; cut a regular file to that length."""
    data = (text + "\n").encode()
    try:
        with open(out_path, "wb", opener=_keep_contents) as fh:
            fh.write(data)
            fh.flush()
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.ftruncate(fh.fileno(), len(data))
    except OSError as exc:
        raise ConfigError(f"cannot write --out: {exc}") from exc
    return 0


def cmd_state_make(doc: dict, out_path: str) -> int:
    if doc["state"] is None:
        raise ConfigError("state-make needs a 'state' section")
    rho = build_state(doc["state"])
    payload = {
        "dim": rho.dim,
        "entries": [[v.real, v.imag] for v in rho.op.entries.ravel()],
    }
    return _write(out_path, _json_17(payload))


def _check_tolerances(report: dict, tolerances: dict):
    hs, hs_max = report["hs_error"], tolerances["hs_error"]
    fid, fid_min = report["fidelity"], tolerances["fidelity"]
    if hs is not None and hs_max is not None and hs > hs_max:
        raise ToleranceError(f"hs_error {hs:.3e} exceeds {hs_max:.3e}; enlarge the grid or cutoff")
    if fid is not None and fid_min is not None and fid < fid_min:
        raise ToleranceError(f"fidelity {fid:.6f} below {fid_min:.6f}; enlarge the grid or cutoff")


def cmd_tomo_run(doc: dict, out_path: str) -> int:
    with _blame(doc["params"], "params"):
        report = _tomo_report(doc, doc["params"])
    _check_tolerances(report, doc["tolerances"])
    return _write(out_path, _json_17(report))


def _tomo_report(doc: dict, params: dict) -> dict:
    name = doc["system"]
    report: dict = {"system": name}
    if name == "symplectic":
        f = cv_tomo.FockSpace(params["d"])
        rho = _state(doc, f.d, kind="fock", n=0, d=f.d)
        ladder = symplectic_tomo.delta_ladder(
            rho, f, params["delta_ladder"], L=params["L"], n_mn=params["n_mn"]
        )
        report["ladder"] = ladder
        report["fidelity"] = max(ladder["fidelity"])
        report["hs_error"] = None
    elif name == "su11":
        rep = su11_tomo.DiscreteSeriesRep(params["k"], params["cutoff"])
        theta_maxes, n_theta = params["theta_max_ladder"], params["n_theta"]
        report["ladder"] = su11_tomo.biorthogonality_ladder(
            rep, theta_maxes, n_theta=n_theta, n_phi=params["n_phi"]
        )
        grid = su11_tomo.SUGrid(max(theta_maxes), n_theta, 8)
        c = su11_tomo.thermal_admissibility(rep, params["thermal_b"], grid)
        report["thermal_admissibility"] = [c.real, c.imag]
        report["fidelity"] = None
        report["hs_error"] = None
    else:
        if name == "dps":
            sys_obj = discrete_ps.heisenberg_finite_system(params["N"])
        elif name == "spin":
            sys_obj = spin_moyal.moyal_system(*_spin_grid(params))
        else:
            sys_obj = cv_tomo.homodyne_system(cv_tomo.FockSpace(params["d"]), _polar_grid(params))
        rho = _state(doc, sys_obj.dim, kind="random", d=sys_obj.dim, seed=doc["seed"])
        rec, hs_error = roundtrip(sys_obj, rho.op)
        report["hs_error"] = hs_error
        report["fidelity"] = fidelity(rho, closest_density(rec))
        adm = admissibility_constant(sys_obj, sys_obj.vacuum, sys_obj.test_functional)
        report["admissibility"] = [adm.constant.real, adm.constant.imag]
        if doc["frame_bounds"]:
            fr = frame_bounds(sys_obj)
            report["frame_A"] = fr.A
            report["frame_B"] = fr.B
    return report


def cmd_emit(doc: dict, kind: str, out_path: str) -> int:
    name = doc["system"]
    if EMIT_SYSTEMS.get(kind) != name:
        raise ConfigError(f"emit kind {kind!r} is not supported for system {name!r}")
    with _blame(doc["params"], "params"):
        header, columns = _emit_columns(doc, kind, doc["params"])
    rows = map(",".join, zip(*map(_cells, columns)))
    return _write(out_path, "\n".join([header, *rows]))


def _cells(column: np.ndarray) -> np.ndarray:
    """The CSV text of each value (%d for ints, _fmt for floats), made once per distinct value.

    Floats are keyed on their bit pattern, so -0.0 and 0.0 keep their own text.
    """
    if column.dtype.kind == "f":
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        text = [_fmt(x) for x in bits.view(float).tolist()]
    else:
        values, inverse = np.unique(column, return_inverse=True)
        text = [str(x) for x in values.tolist()]
    return np.array(text, dtype=object)[inverse]


def _emit_columns(doc: dict, kind: str, params: dict):
    """The CSV header and its columns, one array each."""
    if kind == "wigner":
        N = params["N"]
        w = discrete_ps.discrete_wigner(_state(doc, N, kind="fock", n=0, d=N), N)
        return "q,p,W", (*np.divmod(np.arange(w.size), 2 * N), w.ravel())
    if kind == "qfunc":
        f = cv_tomo.FockSpace(params["d"])
        rho = _state(doc, f.d, kind="fock", n=0, d=f.d)
        sys_obj = cv_tomo.coherent_system(f, _polar_grid(params))
        r, ph = sys_obj.grid.nodes.T
        alphas = r * np.exp(1j * ph)
        q = np.clip(analyze(sys_obj, rho.op).values.real, 0.0, 1.0)
        header = "alpha_re,alpha_im,value_re,value_im"
        return header, (alphas.real, alphas.imag, q, np.zeros(len(q)))
    if kind == "marginal":
        rho = _state(doc, params["d"], kind="fock", n=0, d=params["d"])
        mu, nu = params["mu"], params["nu"]
        if not params["n_X"]:
            raise ConfigError("params.n_X must be at least 1, got 0")
        x_nodes = np.linspace(-4, 4, params["n_X"])
        w = symplectic_tomo.marginal(rho, mu, nu, x_nodes)
        return "X,mu,nu,w", (x_nodes, np.full(len(w), mu), np.full(len(w), nu), w)
    p, grid = _spin_grid(params)  # symbols
    rho = _state(doc, p.dim, kind="spin_coherent", two_s=p.two_s, theta=0.0, phi=0.0)
    sys_obj = spin_moyal.moyal_system(p, grid, allow_underresolved=True)
    values = analyze(sys_obj, rho.op).values
    columns = (*sys_obj.grid.nodes.T, sys_obj.grid.weights, values.real, values.imag)
    return "theta,phi,weight,symbol_re,symbol_im", columns


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="coorbit", description="round-trip tomography experiments"
    )
    parser.add_argument("command", choices=("state-make", "tomo-run", "emit"))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--tolerance", type=float, help="override the hs_error tolerance")
    parser.add_argument("--kind", choices=tuple(EMIT_SYSTEMS), help="distribution kind for emit")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            doc = load_config(args.config, args.command)
            if args.seed is not None:
                if not _is(int, args.seed):
                    raise ConfigError(f"--seed must be a non-negative integer: {args.seed}")
                doc["seed"] = args.seed
            if args.tolerance is not None:
                if not (_is(float, args.tolerance) and args.tolerance >= 0):
                    raise ConfigError(f"--tolerance must be a finite number >= 0: {args.tolerance}")
                doc["tolerances"]["hs_error"] = args.tolerance
            if args.command == "state-make":
                return cmd_state_make(doc, args.out)
            if args.command == "tomo-run":
                return cmd_tomo_run(doc, args.out)
            if args.kind is None:
                raise ConfigError("emit requires --kind")
            return cmd_emit(doc, args.kind, args.out)
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=_sys.stderr)
        return 2
    except (ConfigError, ValueError, ArithmeticError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the array it could not allocate
        reason = str(exc) or "allocation failed"
        print(f"config error: too large for memory: {reason}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
