"""Spans around the calls into collsim's modules, recorded from outside.

The tracer replaces a function wherever collsim looks it up: in the module
that defines it and in every module that imported it by name (``from
.simulator import run_plan`` binds a second name that must be wrapped too).
Each call records a span ``(id, name, start, end, parent)``; spans stay in
memory and are analysed after the traced ops end.

Self times come from a sweep over one root span's interval: every instant is
given to the deepest span open at that instant, so the self times of all
spans under a root add up to the root's duration exactly, even when worker
threads open spans side by side.

A name that no longer exists is skipped and reported in ``missing``; the
metrics that depend on it are then absent, and the traced run still ends.
"""

from __future__ import annotations

import heapq
import importlib
import functools
import inspect
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict

# (span name, defining module, attribute, modules that import it by name)
TARGETS = (
    ("population.init", "population", "init_population", ("experiments", "cli")),
    ("rng.stream", "rng", "stream",
     ("population", "simulator", "allocator", "emulator", "experiments", "cli")),
    ("simulator.run_plan", "simulator", "run_plan", ("experiments", "cli")),
    ("simulator.path_kernel", "simulator", "_simulate_paths", ("emulator", "experiments")),
    ("simulator.block_kernel", "simulator", "_simulate_block_realisation", ("allocator",)),
    ("simulator.summary_json", "simulator", "SimulationOutput.summary_json", ()),
    ("estimators", "estimators", "estimate_mu", ("experiments", "cli")),
    ("estimators", "estimators", "variance_inputs_from_samples", ("experiments", "cli")),
    ("estimators", "estimators", "estimator_variance", ("experiments", "cli")),
    ("estimators", "estimators", "prediction_interval", ("experiments", "cli")),
    ("estimators", "estimators", "monthly_bands", ("experiments",)),
    ("allocator.pilot", "allocator", "pilot_block_variance", ("experiments",)),
    ("allocator.plan", "allocator", "plan_for_population", ("experiments", "cli")),
    ("allocator.plan", "allocator", "round_plan", ("experiments", "cli")),
    ("constrained.solve", "constrained", "active_set_solve", ("experiments", "cli")),
    ("constrained.solve", "constrained", "kkt_report", ("experiments", "cli")),
    ("emulator.design", "emulator", "sliced_lhd", ("experiments",)),
    ("emulator.design", "emulator", "random_design", ("experiments", "cli")),
    ("emulator.training", "emulator", "generate_training_data", ("experiments",)),
    ("emulator.fit", "emulator", "fit_gp", ("experiments",)),
    ("emulator.validate", "emulator", "validate_emulator", ("experiments", "cli")),
    ("emulator.predict", "emulator", "sigma2_for_population", ("experiments", "cli")),
    ("experiments.write", "experiments", "write_sidecar", ("cli",)),
    ("experiments.write", "population", "Population.to_csv", ()),
    ("experiments.write", "population", "Population.write_manifest", ()),
    ("experiments.write", "simulator", "RealisationPlan.to_csv", ()),
    ("experiments.write", "emulator", "training_data_to_csv", ("experiments",)),
    ("experiments.write", "emulator", "GpEmulator.to_json", ()),
    ("experiments.write", "constrained", "plan_to_csv", ("cli",)),
    ("experiments.write", "cli", "_write_json", ()),
    ("experiments.harness", "experiments", "simulate_experiment", ("cli",)),
    ("experiments.harness", "experiments", "coverage_study", ("cli",)),
    ("experiments.harness", "experiments", "_coverage_repetition", ()),
    ("experiments.harness", "experiments", "protect_experiment", ("cli",)),
    ("experiments.harness", "experiments", "train_emulator_experiment", ("cli",)),
    ("experiments.harness", "experiments", "build_plan", ()),
    ("experiments.harness", "experiments", "_pilot_block_sigmas", ()),
    ("cli", "cli", "main", ()),
)

ROOT = "op"

# Every per-layer metric -> (unit, span name it needs, or None).  A metric
# whose span lost one of its names is absent from the report.
LAYER_METRICS = {
    "population.init_s": ("s", "population.init"),
    "population.accounts": ("count", "population.init"),
    "rng.streams": ("count", "rng.stream"),
    "rng.stream_s": ("s", "rng.stream"),
    "simulator.run_plan_s": ("s", "simulator.run_plan"),
    "simulator.paths": ("count", "simulator.run_plan"),
    "simulator.block_realisations": ("count", "simulator.run_plan"),
    "simulator.path_kernel_s": ("s", "simulator.path_kernel"),
    "simulator.block_kernel_s": ("s", "simulator.block_kernel"),
    "simulator.uniform_mb": ("MB", "simulator.run_plan"),
    "simulator.run_plan_peak_mb": ("MB", "simulator.run_plan"),
    "simulator.summary_json_s": ("s", "simulator.summary_json"),
    "estimators.s": ("s", "estimators"),
    "estimators.calls": ("count", "estimators"),
    "allocator.pilot_s": ("s", "allocator.pilot"),
    "allocator.pilot_realisations": ("count", "allocator.pilot"),
    "allocator.plan_s": ("s", "allocator.plan"),
    "constrained.solve_s": ("s", "constrained.solve"),
    "constrained.iterations": ("count", "constrained.solve"),
    "emulator.design_s": ("s", "emulator.design"),
    "emulator.training_s": ("s", "emulator.training"),
    "emulator.fit_s": ("s", "emulator.fit"),
    "emulator.validate_s": ("s", "emulator.validate"),
    "emulator.predict_s": ("s", "emulator.predict"),
    "emulator.design_points": ("count", "emulator.design"),
    "emulator.predicted_accounts": ("count", "emulator.predict"),
    "experiments.write_s": ("s", "experiments.write"),
    "experiments.bytes_written": ("bytes", None),
    "experiments.self_s": ("s", "experiments.harness"),
    "cli.self_s": ("s", "cli"),
    "process.cpu_s": ("s", None),
    "trace.overhead_s": ("s", None),
}

# Metrics that report the self time of a span; the rest of a span's layer
# metrics are call counts or counters.
SELF_TIME_METRICS = {
    m: span for m, (unit, span) in LAYER_METRICS.items() if unit == "s" and span not in (None, "cli")
}
CALL_COUNT_METRICS = {"rng.streams": "rng.stream", "estimators.calls": "estimators"}


def _n_design_points(design):
    return sum(len(pts) for pts in design.values())


def _run_plan_counters(a, r):
    population, counts = a["population"], a["plan"].counts
    blocks = sum(counts[pf.dependent_ids[0]] for pf in population.portfolios if len(pf.dependent_ids))
    return {
        "simulator.paths": float(counts.sum()),
        "simulator.block_realisations": float(blocks),
        # Computed, not measured: run_plan's uniform buffer holds sum(R_i) * 84 doubles.
        "simulator.uniform_mb": float(counts.sum()) * a["horizon"] * 8 / 1e6,
    }


# attribute -> function(bound arguments, result) -> {counter: value}
COUNTERS = {
    "init_population": lambda a, r: {"population.accounts": r.n},
    "run_plan": _run_plan_counters,
    "pilot_block_variance": lambda a, r: {
        "allocator.pilot_realisations": a["n_pilot"],
        "simulator.block_realisations": a["n_pilot"],
    },
    "active_set_solve": lambda a, r: {"constrained.iterations": r.iterations},
    "sliced_lhd": lambda a, r: {"emulator.design_points": _n_design_points(r)},
    "random_design": lambda a, r: {"emulator.design_points": _n_design_points(r)},
    "sigma2_for_population": lambda a, r: {"emulator.predicted_accounts": len(r)},
}
COUNTER_METRICS = (
    "population.accounts",
    "simulator.paths",
    "simulator.block_realisations",
    "simulator.uniform_mb",
    "allocator.pilot_realisations",
    "constrained.iterations",
    "emulator.design_points",
    "emulator.predicted_accounts",
)
# Counters that keep the largest value of one call; the others are summed.
MAX_COUNTERS = {"simulator.uniform_mb"}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []
        self.missing = set()

    def wrap(self, defining, attr, importers, make_wrapper):
        """Wrap ``attr`` in its defining module and wherever it was imported.

        Returns False, and records the name as missing, when the defining
        module no longer has it.
        """
        try:
            owner, name = _resolve(importlib.import_module(f"collsim.{defining}"), attr)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.add(f"{defining}.{attr}")
            return False
        wrapper = make_wrapper(original, attr)
        self._set(owner, name, wrapper)
        if "." not in attr:
            for mod_name in importers + ("",):
                try:
                    mod = importlib.import_module(f"collsim.{mod_name}" if mod_name else "collsim")
                except ImportError:
                    continue
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapper)
        return True

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Records spans and counters for the calls into each collsim layer."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or None)
        self.counters = defaultdict(float)
        self.available = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = threading.get_ident()
        self._patches = _Patches()

    @property
    def missing(self):
        return self._patches.missing

    def _stack(self):
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A worker thread's first span belongs to what the main thread runs.
        return self._main_stack[-1] if self._main_stack else None

    def span_call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent))

    def _wrapper_factory(self, span_name):
        tracer = self

        def make(original, attr):
            counters = COUNTERS.get(attr)
            if counters is None:
                return functools.wraps(original)(lambda *a, **kw: tracer.span_call(span_name, original, *a, **kw))
            signature = inspect.signature(original)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = tracer.span_call(span_name, original, *args, **kwargs)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counters(bound.arguments, result).items():
                    combine = max if key in MAX_COUNTERS else float.__add__
                    tracer.counters[key] = combine(tracer.counters[key], float(value))
                return result

            return wrapper

        return make

    def install(self):
        broken = set()
        for span_name, defining, attr, importers in TARGETS:
            if self._patches.wrap(defining, attr, importers, self._wrapper_factory(span_name)):
                self.available.add(span_name)
            else:
                broken.add(span_name)
        # A span name counts as available only if every name behind it exists.
        self.available -= broken

    def restore(self):
        self._patches.restore()

    def reset(self):
        self.spans.clear()
        self.counters.clear()


def layer_self_times(spans, root_id):
    """Self time per span name under the root span ``root_id``.

    Each instant of the root's interval goes to the deepest span open then
    (ties: the later start).  Returns ``({name: seconds}, root duration)``.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s[0])
    depth = {root_id: 0}
    order = [root_id]
    for sid in order:
        for c in children[sid]:
            depth[c] = depth[sid] + 1
            order.append(c)
    events = []
    for sid in order:
        _, _, t0, t1, _ = by_id[sid]
        events.append((t0, 1, sid))
        events.append((t1, 0, sid))
    events.sort()
    totals = defaultdict(float)
    heap, closed = [], set()
    last = None
    for t, is_start, sid in events:
        while heap and heap[0][2] in closed:
            heapq.heappop(heap)
        if heap and last is not None:
            totals[by_id[heap[0][2]][1]] += t - last
        last = t
        if is_start:
            heapq.heappush(heap, (-depth[sid], -by_id[sid][2], sid))
        else:
            closed.add(sid)
    root = by_id[root_id]
    return dict(totals), root[3] - root[2]


def call_counts(spans, names):
    """Number of spans per name, over ``spans``."""
    counts = dict.fromkeys(names, 0)
    for s in spans:
        if s[1] in counts:
            counts[s[1]] += 1
    return counts


def metric_available(metric, available):
    """True when every traced name the metric depends on still exists."""
    span = LAYER_METRICS[metric][1]
    return span is None or span in available


def op_metrics(spans, counters, ops):
    """Per-op layer metrics of one root span (the last span) and its counters."""
    self_s, _ = layer_self_times(spans, spans[-1][0])
    calls = call_counts(spans, CALL_COUNT_METRICS.values())
    row = {m: self_s.get(span, 0.0) / ops for m, span in SELF_TIME_METRICS.items()}
    row.update({m: calls[span] / ops for m, span in CALL_COUNT_METRICS.items()})
    row.update({m: counters.get(m, 0.0) / (1 if m in MAX_COUNTERS else ops) for m in COUNTER_METRICS})
    # cli's own time plus any op time that no layer span covers
    row["cli.self_s"] = (self_s.get("cli", 0.0) + self_s.get(ROOT, 0.0)) / ops
    return row


def run_plan_peak_mb(op):
    """Run ``op()`` with ``tracemalloc`` on inside each ``run_plan`` call only.

    Returns the largest traced peak, in MB, over the calls.  Tracing every
    allocation slows ``run_plan`` about twofold, so this runs on an op of its
    own whose time is not used.
    """
    peaks = []

    def make(original, attr):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
                tracemalloc.stop()

        return wrapper

    patches = _Patches()
    _, defining, attr, importers = next(t for t in TARGETS if t[0] == "simulator.run_plan")
    if not patches.wrap(defining, attr, importers, make):
        return None
    try:
        op()
    finally:
        patches.restore()
    return max(peaks) if peaks else 0.0
