"""Benchmark for coorbit: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 60 --trace 0

Workloads (see workloads.py and README.md): ``stream`` reuses one homodyne
system for many reconstructions, ``sweep`` builds a fresh system per CLI
call, ``ladders`` (run by hand; not in BENCHMARK.json) calls the
symplectic, SU(1,1) and lattice solvers that bypass the grid engine. Every
op's result is checked.

With ``--trace 0`` the run measures the package as imported, unmodified, and
reports the end-to-end metrics. With ``--trace 1`` it alternates blocks of
untraced ops with blocks traced through spans around the public functions
of every coorbit module (spans.py), and reports per-op calls, busy and self
time per span together with the tracing overhead, the difference between
the two modes' throughput; the spans go to
``perfbench/out/spans-<workload>-seed<n>.csv``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Each run
also writes its result, with the machine facts, to
``perfbench/out/result-<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# The end-to-end metrics in the result line, as listed in BENCHMARK.json.
# ops_per_s, latency_p50_ms and error_rate are printed but not listed: the
# first two follow the host's fast and slow states too closely to hold a
# bound between runs (README.md, "Run length, bounds and noise"), and
# error_rate reads 0 on a correct run and is carried by `failed`.
LISTED = ("setup_s", "latency_p90_ms", "peak_rss_mb")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads(cores):
    """Cap every BLAS thread variable at the core count, before numpy loads."""
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))


def child_import_seconds():
    """Time ``import workloads`` (numpy, scipy, coorbit) in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{SRC!r}, {HERE!r}]\n"
        "t = time.perf_counter()\n"
        "import workloads\n"
        "print(time.perf_counter() - t)\n"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def machine_facts(cores):
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": cores,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


class Phase:
    """The ops of one mode, traced or not: latencies, failures, loop time."""

    def __init__(self):
        self.latencies = []  # seconds, correct ops only
        self.failures = []  # one reason per failed op
        self.seconds = 0.0  # wall time of the loop iterations, checks included

    @property
    def attempted(self):
        return len(self.latencies) + len(self.failures)

    @property
    def ops_per_s(self):
        return len(self.latencies) / self.seconds if self.seconds else 0.0


def measure(workload, seconds, tracer=None):
    """Run ops in a closed loop for ``seconds``; returns (untraced, traced) Phases.

    Without a tracer every op is untraced. With one, the loop alternates
    blocks of ops between the modes (a block is one pass of the workload's
    cycle), so both modes see the same mix of ops and the same drift in
    machine load, and their throughputs give the tracing overhead.
    """
    phases = (Phase(), Phase())
    block = len(getattr(workload, "CYCLE", "x"))
    prebuilt = [workload.system] if hasattr(workload, "system") else []
    start = time.perf_counter()
    op = 0
    try:
        while time.perf_counter() - start < seconds:
            traced = tracer is not None and (op // block) % 2 == 1
            if tracer is not None and traced != tracer.installed:
                if traced:
                    tracer.install(prebuilt)
                else:
                    tracer.uninstall()
            phase = phases[traced]
            t_iter = time.perf_counter()
            inp = workload.next_input()
            if traced:
                tracer.op = op
                token = tracer.begin("op")
            t0 = time.perf_counter()
            try:
                result = workload.run(inp)
                error = None
            except Exception as exc:  # a failed op is counted, and the loop goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if traced:
                tracer.end(token)
                tracer.op = -1
            if error is None:
                error = workload.check(inp, result)
            if error is None:
                phase.latencies.append(latency)
            else:
                phase.failures.append(error)
            phase.seconds += time.perf_counter() - t_iter
            op += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    return phases


def percentile(values, q):
    """The q-th percentile (inclusive method) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("stream", "sweep", "ladders"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "coorbit", "__init__.py")):
        print(f"error: no coorbit package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    cores = nproc()
    cap_blas_threads(cores)
    sys.dont_write_bytecode = True  # every run compiles the package alike
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy as np

    import workloads

    import_s = time.perf_counter() - t0
    facts = machine_facts(cores)

    rng = np.random.default_rng(args.seed)
    workload, cleanup = workloads.make(args.workload, rng, OUT)
    try:
        # Set-up is timed SETUP_REPEATS times and the medians are summed: the
        # import once here and the rest in child interpreters, the build and
        # warm-up each time in this process.
        import_times = [import_s] + [child_import_seconds() for _ in range(SETUP_REPEATS - 1)]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        run, traced = measure(workload, args.seconds, tracer)
    finally:
        cleanup()

    attempted = run.attempted + traced.attempted
    failures = run.failures + traced.failures
    lat_ms = [x * 1e3 for x in run.latencies] or [0.0]  # 0 only when every op failed
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (run.ops_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
        "error_rate": (len(failures) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if tracer is not None:
        layer = tracer.per_op(max(traced.attempted, 1))
        layer["trace.untraced_ops_per_s"] = run.ops_per_s
        layer["trace.traced_ops_per_s"] = traced.ops_per_s
        layer["trace.overhead_pct"] = (
            (run.ops_per_s - traced.ops_per_s) / run.ops_per_s * 100 if run.ops_per_s else 0.0
        )
        units = dict(spans.per_layer_names())
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        metrics = {name: {"value": end_to_end[name][0], "unit": end_to_end[name][1]}
                   for name in LISTED}

    print(f"workload {args.workload}  seed {args.seed}  {attempted} ops"
          f" ({run.attempted} untraced, {traced.attempted} traced)"
          f"  trace {args.trace}  setup repeats {SETUP_REPEATS}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    if tracer is not None:
        print(f"  tracing overhead {layer['trace.overhead_pct']:.3g} % of ops_per_s"
              f" ({run.ops_per_s:.4g} untraced, {traced.ops_per_s:.4g} traced)")
    for reason in sorted(set(failures)):
        print(f"  FAILED: {reason}")
    print("machine " + json.dumps(facts, sort_keys=True))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(os.path.join(OUT, f"result-{stem}-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "end_to_end": {k: {"value": v, "unit": u}
                                            for k, (v, u) in end_to_end.items()},
                   "machine": facts, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "failures": failures}, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"spans-{stem}.csv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
