"""The three benchmark workloads: stream, sweep and ladders.

Each workload is a closed loop driven by one client: it draws the next input
from its own seeded generator, waits for the result, checks it, and only
then draws the next. A workload exposes

* ``setup()`` — build what the ops reuse and warm it up (run several times);
* ``next_input()`` — the next input, a pure function of the seed and the
  number of inputs drawn so far;
* ``run(inp)`` — the timed call into coorbit;
* ``check(inp, result)`` — ``None`` if the result is correct, otherwise a
  one-line reason. A wrong result counts as a failed op.

Only generated inputs reach the program; the seed itself never does.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile

import numpy as np

from coorbit import cli, cv_tomo, discrete_ps, frame_core, opalg, su11_tomo, symplectic_tomo

HS_EXACT = 1e-10  # dps and spin round trips are exact up to rounding
DELTAS = (2.0, 4.0, 8.0, 12.0)  # symplectic regularizer widths
DELTA_TOL = 1e-3  # vacuum fidelity against its closed form delta^2 / (delta^2 + 1)
OFFDIAG_MAX = 0.05  # SU(1,1) biorthogonality gate


def _density(vec):
    return opalg.DensityMatrix(opalg.Operator(np.outer(vec, vec.conj())))


def _coherent(d, beta):
    return _density(cv_tomo.coherent_state(cv_tomo.FockSpace(d), beta))


def _fock(d, n):
    v = np.zeros(d)
    v[n] = 1.0
    return _density(v)


def _random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return opalg.DensityMatrix(opalg.Operator(rho / np.trace(rho).real))


class Bag:
    """Seeded draws from a fixed set of values, without replacement.

    Each pass over the set is a fresh shuffle, so every value appears
    equally often over a run whatever the seed, and the mix of op sizes,
    which sets the latency percentiles, does not drift from seed to seed.
    """

    def __init__(self, rng, values):
        self.rng = rng
        self.values = tuple(values)
        self.left = []

    def draw(self):
        if not self.left:
            self.left = [self.values[i] for i in self.rng.permutation(len(self.values))]
        return self.left.pop()


class Stream:
    """Many reconstructions against one homodyne system (d=32, R=6, 48x64).

    Each op draws a coherent state (|beta| <= 1) or a Fock state (n in
    {0, 1}) and runs roundtrip -> closest_density -> fidelity, checked
    against the acceptance-gate bounds (0.999 coherent, 0.995 Fock).
    """

    D, R, N_R, N_PHI = 32, 6.0, 48, 64
    COHERENT_MIN, FOCK_MIN = 0.999, 0.995

    def __init__(self, rng):
        self.rng = rng
        self.system = None

    def setup(self):
        self.system = cv_tomo.homodyne_system(
            cv_tomo.FockSpace(self.D), cv_tomo.PolarGrid(self.R, self.N_R, self.N_PHI)
        )
        self.run(("fock", _fock(self.D, 0)))

    def next_input(self):
        if self.rng.random() < 0.5:
            beta = math.sqrt(self.rng.random()) * np.exp(2j * math.pi * self.rng.random())
            return ("coherent", _coherent(self.D, beta))
        return ("fock", _fock(self.D, int(self.rng.integers(0, 2))))

    def run(self, inp):
        _, rho = inp
        rec, _ = frame_core.roundtrip(self.system, rho.op)
        return opalg.fidelity(rho, opalg.closest_density(rec))

    def check(self, inp, fid):
        need = self.COHERENT_MIN if inp[0] == "coherent" else self.FOCK_MIN
        if not fid >= need:
            return f"{inp[0]} fidelity {fid:.6f} below {need}"
        return None


# ---------------------------------------------------------------------------
# sweep: one in-process CLI call per op on a freshly generated config.


def _q_vacuum_truncated(x, d):
    """Q of the vacuum against the truncated, renormalized coherent state."""
    return 1.0 / sum(x**n / math.factorial(n) for n in range(d))


def _csv_rows(text):
    return [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]


def _check_tomo(cfg, text):
    report = json.loads(text)
    system = cfg["system"]
    if system in ("dps", "spin"):
        if not report["hs_error"] <= HS_EXACT:
            return f"{system} hs_error {report['hs_error']:.3e} above {HS_EXACT}"
    elif system == "homodyne":
        if not report["fidelity"] >= Stream.COHERENT_MIN:
            return f"homodyne fidelity {report['fidelity']:.6f} below {Stream.COHERENT_MIN}"
        if cfg["frame_bounds"] and not 0 < report["frame_A"] <= report["frame_B"]:
            return "homodyne frame bounds out of order"
    elif system == "symplectic":
        delta = cfg["params"]["delta_ladder"][0]
        gap = abs(report["fidelity"] - delta**2 / (delta**2 + 1))
        if not gap <= DELTA_TOL:
            return f"symplectic vacuum fidelity off the closed form by {gap:.3e}"
    else:
        ladder = report["ladder"]
        diag, off = ladder["diag_value"][0], ladder["offdiag_max"][0]
        c_re, c_im = report["thermal_admissibility"]
        if not (0 < diag <= 1 and off <= OFFDIAG_MAX):
            return f"su11 biorthogonality diag {diag}, offdiag {off}"
        if not (c_re > 0 and abs(c_im) <= 1e-9):
            return f"su11 thermal admissibility {c_re}+{c_im}j"
    return None


def _check_emit(cfg, kind, text):
    rows = _csv_rows(text)
    params = cfg["params"]
    if kind == "wigner":
        total = sum(r[2] for r in rows)
        if len(rows) != 4 * params["N"] ** 2 or not abs(total - 1) <= HS_EXACT:
            return f"discrete Wigner sums to {total!r} over {len(rows)} points"
    elif kind == "qfunc":
        err = max(abs(r[2] - _q_vacuum_truncated(r[0] ** 2 + r[1] ** 2, params["d"])) for r in rows)
        if not err <= 1e-12:
            return f"vacuum Q-function off its closed form by {err:.3e}"
    elif kind == "marginal":
        s2 = params["mu"] ** 2 + params["nu"] ** 2
        err = max(abs(r[3] - math.exp(-r[0] ** 2 / s2) / math.sqrt(math.pi * s2)) for r in rows)
        if not err <= HS_EXACT:
            return f"vacuum marginal off its closed form by {err:.3e}"
    else:
        total = complex(sum(r[2] * r[3] for r in rows), sum(r[2] * r[4] for r in rows))
        if not abs(total - 1) <= HS_EXACT:
            return f"weighted spin symbols sum to {total!r}, not Tr rho = 1"
    return None


class Sweep:
    """A parameter sweep through the CLI; every op builds its system anew.

    Ops follow a fixed cycle of twenty slots: the four cheapest kinds (dps
    tomo-run, wigner, qfunc and marginal emits) three times each, the six
    others once, and two repeats of an earlier config, so one op in ten is a
    repeat whose output must be byte-identical to the first run's. Weighting
    the small configs puts the median latency inside the dense low-cost part
    of the distribution; with each kind once, it fell on the sparse edge
    between small and large configs and moved by up to 28% between seeds.
    Sizes and the kind a repeat re-runs come from seeded bags (see Bag).
    """

    CYCLE = ("dps", "qfunc", "marginal", "wigner", "spin", "symbols", "homodyne", "repeat",
             "dps", "qfunc", "marginal", "wigner", "homodyne_fb", "symplectic",
             "dps", "qfunc", "marginal", "wigner", "su11", "repeat")

    # The values that set each kind's cost: N, 2s, d, (d, delta) or
    # (cutoff, theta_max, n_theta).
    SIZES = {
        "dps": range(3, 9),
        "spin": range(2, 11),
        "homodyne": range(8, 17),
        "homodyne_fb": range(8, 17),
        "symplectic": [(d, delta) for d in range(6, 11) for delta in DELTAS],
        "su11": [(c, t, n) for c in range(6, 11) for t in (3, 4, 5, 6) for n in (20, 30, 40)],
        "wigner": range(3, 9),
        "qfunc": range(8, 17),
        "marginal": range(8, 17),
        "symbols": range(2, 11),
    }

    def __init__(self, rng, workdir):
        self.rng = rng
        self.drawn = 0
        self.config = os.path.join(workdir, "config.json")
        self.out = os.path.join(workdir, "out")
        self.history = {}  # slot -> (command, kind, config) of its fresh ops
        self.digests = {}  # sha256 of each fresh op's output, keyed by its config
        self.sizes = {slot: Bag(rng, values) for slot, values in self.SIZES.items()}
        self.repeat_kinds = Bag(rng, self.SIZES)

    def setup(self):
        # One small op of each kind fills the lazy caches of the CLI path.
        warm = (
            ("tomo-run", None, {"system": "dps", "params": {"N": 3}}),
            ("tomo-run", None, {"system": "spin", "params": {"two_s": 2}}),
            ("tomo-run", None, {"system": "homodyne", "frame_bounds": True,
                                "params": {"d": 4, "R": 3.0, "n_r": 6, "n_phi": 8}}),
            ("tomo-run", None, {"system": "symplectic",
                                "params": {"d": 4, "delta_ladder": [2.0], "n_mn": 6}}),
            ("tomo-run", None, {"system": "su11", "params": {
                "k": 1.0, "cutoff": 6, "theta_max_ladder": [2.0], "n_theta": 4, "n_phi": 4}}),
            ("emit", "wigner", {"system": "dps", "params": {"N": 3}}),
            ("emit", "qfunc", {"system": "homodyne", "params": {"d": 4, "R": 2.0, "n_r": 4, "n_phi": 4}}),
            ("emit", "marginal", {"system": "symplectic", "params": {"d": 4, "n_X": 9}}),
            ("emit", "symbols", {"system": "spin", "params": {"two_s": 2}}),
        )
        for command, kind, cfg in warm:
            rc = self._call(command, kind, cfg)
            if rc != 0:
                raise RuntimeError(f"sweep warm-up {command} {cfg['system']} exited {rc}")

    def next_input(self):
        slot = self.CYCLE[self.drawn % len(self.CYCLE)]
        self.drawn += 1
        if slot == "repeat":
            kind = self.repeat_kinds.draw()
            while kind not in self.history:  # only in the first cycle
                kind = self.repeat_kinds.draw()
            earlier = self.history[kind]
            inp = ("repeat",) + earlier[int(self.rng.integers(len(earlier)))]
        else:
            inp = ("fresh",) + self._fresh(slot)
            self.history.setdefault(slot, []).append(inp[1:])
        self._write_config(inp[3])
        return inp

    def _fresh(self, slot):
        rng = self.rng
        size = self.sizes[slot].draw()
        seed = int(rng.integers(2**31))
        if slot == "dps":
            n = int(size)
            return "tomo-run", None, {
                "system": "dps", "params": {"N": n},
                "state": {"kind": "random", "d": n, "seed": seed},
                "tolerances": {"hs_error": HS_EXACT}}
        if slot == "spin":
            two_s = int(size)
            return "tomo-run", None, {
                "system": "spin", "params": {"two_s": two_s},
                "state": {"kind": "random", "d": two_s + 1, "seed": seed},
                "tolerances": {"hs_error": HS_EXACT}}
        if slot in ("homodyne", "homodyne_fb"):
            d = int(size)
            beta = 0.5 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
            return "tomo-run", None, {
                "system": "homodyne", "frame_bounds": slot == "homodyne_fb",
                "params": {"d": d, "R": float(rng.uniform(5.5, 6.5)),
                           "n_r": int(rng.integers(20, 25)),
                           "n_phi": 2 * d + 4 * int(rng.integers(0, 3))},
                "state": {"kind": "coherent", "d": d, "beta_re": beta.real, "beta_im": beta.imag},
                "tolerances": {"fidelity": Stream.COHERENT_MIN}}
        if slot == "symplectic":
            return "tomo-run", None, {
                "system": "symplectic",
                "params": {"d": int(size[0]), "n_mn": 30, "delta_ladder": [float(size[1])]}}
        if slot == "su11":
            return "tomo-run", None, {
                "system": "su11",
                "params": {"k": 1.0, "cutoff": int(size[0]), "theta_max_ladder": [float(size[1])],
                           "n_theta": int(size[2]), "n_phi": 8, "thermal_b": 0.5}}
        if slot == "wigner":
            n = int(size)
            return "emit", "wigner", {
                "system": "dps", "params": {"N": n},
                "state": {"kind": "random", "d": n, "seed": seed}}
        if slot == "qfunc":
            return "emit", "qfunc", {
                "system": "homodyne",
                "params": {"d": int(size), "R": float(rng.uniform(3.0, 5.0)),
                           "n_r": int(rng.integers(8, 17)), "n_phi": int(rng.integers(8, 25))}}
        if slot == "marginal":
            scale = rng.uniform(0.5, 1.5)
            angle = 2 * math.pi * rng.random()
            return "emit", "marginal", {
                "system": "symplectic",
                "params": {"d": int(size), "mu": scale * math.cos(angle),
                           "nu": scale * math.sin(angle), "n_X": int(rng.integers(41, 82))}}
        two_s = int(size)
        return "emit", "symbols", {
            "system": "spin", "params": {"two_s": two_s},
            "state": {"kind": "spin_coherent", "two_s": two_s,
                      "theta": float(rng.uniform(0, math.pi)),
                      "phi": float(rng.uniform(0, 2 * math.pi))}}

    def _write_config(self, cfg):
        with open(self.config, "w") as fh:
            json.dump(cfg, fh)

    def _main(self, command, kind):
        argv = [command, "--config", self.config, "--out", self.out]
        if kind is not None:
            argv += ["--kind", kind]
        return cli.main(argv)

    def _call(self, command, kind, cfg):
        self._write_config(cfg)
        return self._main(command, kind)

    def run(self, inp):
        _, command, kind, cfg = inp
        return self._main(command, kind)

    def check(self, inp, rc):
        origin, command, kind, cfg = inp
        if rc != 0:
            return f"{command} {cfg['system']} exited {rc}"
        with open(self.out) as fh:
            text = fh.read()
        digest = hashlib.sha256(text.encode()).hexdigest()
        key = json.dumps([command, kind, cfg], sort_keys=True)
        if origin == "repeat":
            if digest != self.digests.get(key):
                return f"repeat of {command} {cfg['system']} is not byte-identical"
            return None
        self.digests[key] = digest
        if command == "tomo-run":
            return _check_tomo(cfg, text)
        return _check_emit(cfg, kind, text)


# ---------------------------------------------------------------------------
# ladders: direct calls into the solvers that bypass the grid engine.


class Ladders:
    """Symplectic, SU(1,1) and finite-lattice solver calls in a fixed cycle.

    Each op is one call, checked against its closed form or gate trend. The
    biorthogonality call, whose cost sits in the middle of the five, takes
    two of the six slots, so the median latency falls inside one call's
    spread instead of on the edge between two.
    """

    CYCLE = ("delta", "biorthogonality", "thermal", "wigner", "biorthogonality", "consistency")
    THETA_MAXES = (2.0, 4.0, 6.0)
    THERMAL_REL = 0.05
    CONSISTENCY_MAX = 1e-3

    def __init__(self, rng):
        self.rng = rng
        self.drawn = 0
        self.diag_by_theta = {}
        self.vacuum = _fock(10, 0)
        self.deltas = Bag(rng, DELTAS)
        self.theta_maxes = Bag(rng, self.THETA_MAXES)
        self.lattice_sizes = Bag(rng, (12, 16))

    def setup(self):
        # Small instances of every call, so lazy imports and caches are warm.
        vac = _fock(4, 0)
        symplectic_tomo.delta_ladder(vac, cv_tomo.FockSpace(4), [2.0], n_mn=4)
        su11_tomo.biorthogonality_ladder(su11_tomo.DiscreteSeriesRep(1.0, 4), [2.0], 4, 4)
        su11_tomo.thermal_admissibility(
            su11_tomo.DiscreteSeriesRep(1.0, 6), 0.5, su11_tomo.SUGrid(2.0, 4, 4))
        discrete_ps.discrete_wigner(_fock(3, 0), 3)
        symplectic_tomo.marginal_wigner_consistency(
            vac, cv_tomo.FockSpace(4), X_nodes=[0.0], n_t=4)

    def next_input(self):
        slot = self.CYCLE[self.drawn % len(self.CYCLE)]
        self.drawn += 1
        rng = self.rng
        if slot == "delta":
            return (slot, self.deltas.draw())
        if slot == "biorthogonality":
            return (slot, self.theta_maxes.draw())
        if slot == "thermal":
            return (slot, 0.5)
        if slot == "wigner":
            return (slot, _random_density(rng, self.lattice_sizes.draw()))
        beta = 0.5 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
        angle = 2 * math.pi * rng.random()
        return (slot, (_coherent(16, beta), math.cos(angle), math.sin(angle)))

    def run(self, inp):
        slot, arg = inp
        if slot == "delta":
            ladder = symplectic_tomo.delta_ladder(self.vacuum, cv_tomo.FockSpace(10), [arg], n_mn=30)
            return ladder["fidelity"][0]
        if slot == "biorthogonality":
            return su11_tomo.biorthogonality_ladder(
                su11_tomo.DiscreteSeriesRep(1.0, 10), [arg], n_theta=40, n_phi=8)
        if slot == "thermal":
            return su11_tomo.thermal_admissibility(
                su11_tomo.DiscreteSeriesRep(1.0, 16), arg, su11_tomo.SUGrid(12.0, 80, 8))
        if slot == "wigner":
            return discrete_ps.discrete_wigner(arg, arg.dim)
        rho, mu, nu = arg
        return symplectic_tomo.marginal_wigner_consistency(rho, cv_tomo.FockSpace(16), mu, nu)

    def check(self, inp, result):
        slot, arg = inp
        if slot == "delta":
            gap = abs(result - arg**2 / (arg**2 + 1))
            if not gap <= DELTA_TOL:
                return f"delta {arg}: vacuum fidelity off its closed form by {gap:.3e}"
            return None
        if slot == "biorthogonality":
            diag, off = result["diag_value"][0], result["offdiag_max"][0]
            self.diag_by_theta[arg] = diag
            trend = [self.diag_by_theta[t] for t in sorted(self.diag_by_theta)]
            if not (0 < diag <= 1 and off <= OFFDIAG_MAX):
                return f"theta_max {arg}: diag {diag}, offdiag {off}"
            if any(a >= b for a, b in zip(trend, trend[1:])):
                return f"biorthogonality diagonal not increasing in theta_max: {trend}"
            if arg == max(self.THETA_MAXES) and not 1 - diag <= OFFDIAG_MAX:
                return f"theta_max {arg}: diagonal gap {1 - diag:.4f}"
            return None
        if slot == "thermal":
            rel = abs(result.real - 2.0) / 2.0
            if not rel <= self.THERMAL_REL:
                return f"thermal admissibility {result.real} not within 5% of 2"
            return None
        if slot == "wigner":
            gap = abs(result.sum() - arg.op.trace().real)
            return None if gap <= HS_EXACT else f"discrete Wigner sum off Tr rho by {gap:.3e}"
        return None if result <= self.CONSISTENCY_MAX else f"marginal/Wigner deviation {result:.3e}"


def make(name, rng, workdir_root):
    """The workload called ``name``; returns (workload, cleanup callable)."""
    if name == "stream":
        return Stream(rng), lambda: None
    if name == "ladders":
        return Ladders(rng), lambda: None
    os.makedirs(workdir_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="sweep-", dir=workdir_root)
    return Sweep(rng, workdir), lambda: shutil.rmtree(workdir, ignore_errors=True)
