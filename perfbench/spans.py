"""In-memory trace spans around the public functions of the coorbit modules.

The tracer wraps each listed function in every coorbit module that binds it
(``from .frame_core import analyze`` in ``spin_moyal`` binds a second name),
so calls are timed whichever name the caller uses. The package source is
not edited: wrapping happens at run time and ``uninstall`` restores every
attribute it replaced.

Each span records its name, the op it belongs to, the span that caused it,
and its start and end (``time.perf_counter_ns``). Self time is a span's
duration minus the time covered by its child spans. Counters record work
that is too fine-grained for a span: ``Operator`` constructions, calls into
a system's analysis/synthesis families, and the computed bytes of the
analyze/synthesize contractions (n * d^2 * 16 B each).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, public name) pairs that get a span; the module is the one that
# defines the name. ``IndexGrid.grid_id`` is a property and is listed apart.
SPANS = (
    ("frame_core", "analyze"),
    ("frame_core", "synthesize"),
    ("frame_core", "admissibility_constant"),
    ("frame_core", "frame_bounds"),
    ("frame_core", "singular_admissibility"),
    ("opalg", "closest_density"),
    ("opalg", "fidelity"),
    ("cv_tomo", "homodyne_system"),
    ("cv_tomo", "displacement_cv"),
    ("cv_tomo", "qfunction"),
    ("cv_tomo", "wigner_point"),
    ("spin_moyal", "moyal_system"),
    ("spin_moyal", "rotation_operator"),
    ("discrete_ps", "heisenberg_finite_system"),
    ("discrete_ps", "discrete_wigner"),
    ("discrete_ps", "point_operator"),
    ("symplectic_tomo", "reconstruct_symplectic"),
    ("symplectic_tomo", "hermite_functions"),
    ("symplectic_tomo", "marginal"),
    ("symplectic_tomo", "delta_ladder"),
    ("symplectic_tomo", "marginal_wigner_consistency"),
    ("su11_tomo", "su11_system"),
    ("su11_tomo", "group_element"),
    ("su11_tomo", "biorthogonality_ladder"),
    ("su11_tomo", "thermal_admissibility"),
    ("cli", "main"),
    ("cli", "load_config"),
    ("cli", "cmd_tomo_run"),
    ("cli", "cmd_emit"),
)
GRID_ID_SPAN = "frame_core.grid_id"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in SPANS) + (GRID_ID_SPAN,)

OPERATOR_COUNT = "opalg.Operator"
FAMILY_COUNT = "frame_core.family_eval"
COUNTS = (OPERATOR_COUNT, FAMILY_COUNT)
# Spans whose calls also add computed bytes: n nodes * d^2 entries * 16 B.
BYTES_SPANS = ("frame_core.analyze", "frame_core.synthesize")


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for span in SPAN_NAMES:
        names += [(f"{span}.calls", "count"), (f"{span}.busy_ms", "ms"), (f"{span}.self_ms", "ms")]
    names += [(f"{span}.computed_bytes", "B") for span in BYTES_SPANS]
    names += [(f"{count}.calls", "count") for count in COUNTS]
    names += [
        ("trace.untraced_ops_per_s", "1/s"),
        ("trace.traced_ops_per_s", "1/s"),
        ("trace.overhead_pct", "%"),
    ]
    return names


def _system_bytes(args, kwargs):
    system = args[0] if args else kwargs["sys"]
    return len(system.grid) * system.dim * system.dim * 16


class Tracer:
    """Collects spans and counters in memory while installed.

    ``op`` is the index of the op being timed, or -1 between ops; spans and
    counts outside an op (input generation, result checks) are not reported.
    """

    def __init__(self):
        self.op = -1
        self.spans = []  # (id, parent, op, name, start_ns, end_ns, self_ns)
        self.counts = defaultdict(int)
        self.computed_bytes = defaultdict(int)
        self._stack = []  # [span id, child ns] of the open spans
        self._next_id = 0
        self._patched = []  # (owner, attribute, original value, setter)

    # -- spans -----------------------------------------------------------

    def begin(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([span_id, 0])
        return (span_id, parent, name, time.perf_counter_ns())

    def end(self, token):
        end = time.perf_counter_ns()
        span_id, parent, name, start = token
        _, child_ns = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((span_id, parent, self.op, name, start, end, duration - child_ns))

    def wrap(self, name, fn):
        tracer = self
        counts_bytes = name in BYTES_SPANS

        def traced(*args, **kwargs):
            if counts_bytes and tracer.op >= 0:
                tracer.computed_bytes[name] += _system_bytes(args, kwargs)
            token = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(token)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def counted(self, name, fn):
        tracer = self

        def counting(*args, **kwargs):
            if tracer.op >= 0:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attribute, value, setter=setattr):
        self._patched.append((owner, attribute, owner.__dict__[attribute], setter))
        setter(owner, attribute, value)

    @property
    def installed(self):
        return bool(self._patched)

    def install(self, systems=()):
        """Wrap every listed function in each coorbit module that binds it.

        ``systems`` are systems built before installation whose family calls
        are counted too; systems built while installed are counted anyway.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "coorbit"]
        for module_name, fn_name in SPANS:
            original = getattr(importlib.import_module(f"coorbit.{module_name}"), fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                if module.__dict__.get(fn_name) is original:
                    self._patch(module, fn_name, wrapper)

        frame_core = importlib.import_module("coorbit.frame_core")
        opalg = importlib.import_module("coorbit.opalg")
        grid_id = frame_core.IndexGrid.__dict__["grid_id"]
        self._patch(frame_core.IndexGrid, "grid_id", property(self.wrap(GRID_ID_SPAN, grid_id.fget)))
        self._patch(opalg.Operator, "__post_init__",
                    self.counted(OPERATOR_COUNT, opalg.Operator.__post_init__))

        system_init = frame_core.TomographicSystem.__post_init__
        counted = self.counted

        def count_family_calls(system):
            system_init(system)
            for family in ("analysis", "synthesis"):
                object.__setattr__(system, family, counted(FAMILY_COUNT, getattr(system, family)))

        self._patch(frame_core.TomographicSystem, "__post_init__", count_family_calls)
        for system in systems:  # frozen dataclasses: bypass their __setattr__
            for family in ("analysis", "synthesis"):
                self._patch(system, family, counted(FAMILY_COUNT, getattr(system, family)),
                            object.__setattr__)

    def uninstall(self):
        for owner, attribute, original, setter in reversed(self._patched):
            setter(owner, attribute, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def per_op(self, n_ops):
        """Per-op calls, busy and self time of every span, and per-op counts."""
        calls = defaultdict(int)
        busy = defaultdict(int)
        self_ns = defaultdict(int)
        for _, _, op, name, start, end, own in self.spans:
            if op < 0:
                continue
            calls[name] += 1
            busy[name] += end - start
            self_ns[name] += own
        out = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = calls[span] / n_ops
            out[f"{span}.busy_ms"] = busy[span] / 1e6 / n_ops
            out[f"{span}.self_ms"] = self_ns[span] / 1e6 / n_ops
        for span in BYTES_SPANS:
            out[f"{span}.computed_bytes"] = self.computed_bytes[span] / n_ops
        for count in COUNTS:
            out[f"{count}.calls"] = self.counts[count] / n_ops
        return out

    def write(self, path):
        """Write every span as one CSV row: id, parent, op, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for span_id, parent, op, name, start, end, _ in self.spans:
                fh.write(f"{span_id},{parent},{op},{name},{start},{end}\n")
