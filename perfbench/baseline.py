"""Time the single calls of the ROADMAP "Recent" baseline table at its sizes.

    python3 perfbench/baseline.py

The workloads in run.py use smaller sizes so that a run holds enough ops for
a tail percentile; this script times each row of the ROADMAP table at the
size the table names, so the two can be compared directly. It prints the
median and the quartile spread of each row and writes them, with the
machine facts, to perfbench/out/baseline.json.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

from run import OUT, SRC, cap_blas_threads, machine_facts, nproc

REPEATS = 5


def rows():
    """(name, ROADMAP figure, call) for every row; calls share built systems."""
    import numpy as np

    from coorbit import cv_tomo, discrete_ps, frame_core, spin_moyal, su11_tomo, symplectic_tomo
    from coorbit.opalg import DensityMatrix, Operator

    f32 = cv_tomo.FockSpace(32)
    homodyne = cv_tomo.homodyne_system(f32, cv_tomo.PolarGrid(6.0, 48, 64))
    v = cv_tomo.coherent_state(f32, 0.5 + 0.3j)
    rho = DensityMatrix(Operator(np.outer(v, v.conj())))
    samples = frame_core.analyze(homodyne, rho.op)  # also fills the radial cache
    vac10 = DensityMatrix(Operator(np.diag([1.0] + [0.0] * 9)))
    rng = np.random.default_rng(0)
    m = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    rho32 = DensityMatrix(Operator(m @ m.conj().T / np.trace(m @ m.conj().T).real))
    spin16 = spin_moyal.SpinParams(16)
    return (
        ("homodyne d=32 48x64: grid_id", "16 ms", lambda: homodyne.grid.grid_id),
        ("homodyne d=32 48x64: analyze", "80-100 ms", lambda: frame_core.analyze(homodyne, rho.op)),
        ("homodyne d=32 48x64: synthesize", "130 ms", lambda: frame_core.synthesize(homodyne, samples)),
        ("homodyne d=32 48x64: admissibility", "140 ms",
         lambda: frame_core.admissibility_constant(homodyne, homodyne.vacuum, homodyne.test_functional)),
        ("spin 2s=16: build", "170 ms",
         lambda: spin_moyal.moyal_system(spin16, spin_moyal.sphere_grid(spin16))),
        ("symplectic delta_ladder, 4 deltas", "2.2 s",
         lambda: symplectic_tomo.delta_ladder(vac10, cv_tomo.FockSpace(10), (2.0, 4.0, 8.0, 12.0))),
        ("su11 ladder (cutoff 10, 2/4/6)", "2.0 s",
         lambda: su11_tomo.biorthogonality_ladder(su11_tomo.DiscreteSeriesRep(1.0, 10), (2.0, 4.0, 6.0))),
        ("su11 thermal admissibility (cutoff 32, 160x8)", "2.2 s",
         lambda: su11_tomo.thermal_admissibility(
             su11_tomo.DiscreteSeriesRep(1.0, 32), 0.5, su11_tomo.SUGrid(12.0, 160, 8))),
        ("discrete_wigner N=32", "0.46 s", lambda: discrete_ps.discrete_wigner(rho32, 32)),
        ("displaced_parity d=16", "0.15 s",
         lambda: cv_tomo.displaced_parity(cv_tomo.FockSpace(16), 0.3 + 0.2j)),
    )


def main():
    cores = nproc()
    cap_blas_threads(cores)
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    facts = machine_facts(cores)
    table = []
    for name, roadmap, call in rows():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call()
            times.append((time.perf_counter() - t0) * 1e3)
        q = statistics.quantiles(times, n=4)
        table.append({"row": name, "roadmap": roadmap, "median_ms": statistics.median(times),
                      "iqr_ms": q[2] - q[0], "repeats": REPEATS})
        print(f"{name:<48} {statistics.median(times):9.1f} ms  iqr {q[2] - q[0]:7.1f} ms"
              f"  (ROADMAP {roadmap})", flush=True)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "baseline.json"), "w") as fh:
        json.dump({"rows": table, "machine": facts}, fh, indent=1)
    print("machine " + json.dumps(facts, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
