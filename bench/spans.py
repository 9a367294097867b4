"""In-memory span recorder for the traced benchmark run.

Each wrapped library function records one span per call: name, start, end,
parent span and task id.  Spans live in flat arrays while the run goes on and
are written out once, when it ends.  A span's self time is its duration minus
the durations of its direct children.

Functions are wrapped where they are defined and at every module-level name a
caller looks them up by (``volfpl.engine.mu_t`` is the same object as
``volfpl.schedule.mu_t``), so a call is seen whichever module makes it.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("perturbation", "engine", "schedule", "game", "adversary", "trading", "harness")


def _exact_bucket(args, kwargs):
    n = len(args[0] if args else kwargs["cumulative"])
    if n <= 2:
        return "n2"
    return "n3_12" if n <= 12 else "n13up"


def _count_draws(tracer, args, kwargs):
    shape = args[0] if args else kwargs["shape"]
    elems = int(np.prod(shape))
    tracer.counts["perturbation.draws"] += elems
    if tracer.inside("engine.batch_cumulative_losses"):
        tracer.counts["engine.mc_chunks"] += 1
        # One float64 array of the chunk's draw shape; the kernel builds
        # several temporaries of this size, so this tracks peak memory.
        key = "engine.chunk_bytes_computed"
        tracer.counts[key] = max(tracer.counts[key], 8 * elems)


# (module, attribute, bucket function, counter hook).  Methods are given as
# "Class.method".
TARGETS = (
    ("perturbation", "sample_exponential_array", None, _count_draws),
    ("perturbation", "inverse_exponential_cdf", None, None),
    ("engine", "batch_cumulative_losses", None, None),
    ("engine", "monte_carlo_regret", None, None),
    ("engine", "prot_run", None, None),
    ("engine", "ifpl_run", None, None),
    ("engine", "prot_select", None, None),
    ("engine", "selection_probabilities_exact", _exact_bucket, None),
    ("engine", "probability_ratio_check", None, None),
    ("engine", "RunRecord.to_csv", None, None),
    ("schedule", "mu_t", None, None),
    ("schedule", "alpha_t", None, None),
    ("schedule", "epsilon_t", None, None),
    ("schedule", "mu_values", None, None),
    ("schedule", "regret_bound", None, None),
    ("schedule", "ifpl_regret_bound", None, None),
    ("game", "scaled_fluctuation", None, None),
    ("game", "volume_trace", None, None),
    ("adversary", "prop1_run", None, None),
    ("trading", "fbm_generate", None, None),
    ("trading", "learner_gain", None, None),
    ("trading", "run_trading_experiment", None, None),
    ("harness", "random_fluc_bounded_game", None, None),
    ("harness", "run_experiment", None, None),
    ("harness", "AggregateReport.write", None, None),
)

# Spans the benchmark itself opens around set-up and each task; their self
# time is the benchmark's own work (input generation glue, checks).
BENCH_SPANS = ("bench.setup", "bench.task")

COUNTERS = {
    "perturbation.draws": "count",
    "engine.mc_chunks": "count",
    "engine.chunk_bytes_computed": "B",
}


def span_names():
    names = []
    for module, attr, bucket, _ in TARGETS:
        base = f"{module}.{attr}"
        if bucket is _exact_bucket:
            names += [f"{base}.{b}" for b in ("n2", "n3_12", "n13up")]
        else:
            names.append(base)
    return names + list(BENCH_SPANS)


class Tracer:
    """Flat, append-only span store plus exact counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.task_id = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and any(self.name_id[i] == nid for i in self._stack)

    @contextmanager
    def span(self, name: str):
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    def self_times(self, tasks=None):
        """Per-name (calls, self seconds) over spans whose task id is in
        ``tasks`` (all spans when None)."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        names = np.frombuffer(self.name_id, dtype=np.int32)
        keep = np.ones(len(dur), bool) if tasks is None else np.isin(
            np.frombuffer(self.task, dtype=np.int32), list(tasks))
        calls = np.bincount(names[keep], minlength=len(self.names))
        secs = np.bincount(names[keep], weights=own[keep], minlength=len(self.names))
        return {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            task=np.frombuffer(self.task, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _wrap(tracer, fn, name, bucket, hook):
    layer = name.split(".", 1)[0]

    def wrapper(*args, **kwargs):
        span = f"{name}.{bucket(args, kwargs)}" if bucket else name
        if hook:
            hook(tracer, args, kwargs)
        idx = tracer.enter(span)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            tracer.errors[layer] += 1
            raise
        finally:
            tracer.exit(idx)

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "volfpl" or n.startswith("volfpl."))]
    patches = []
    try:
        for module, attr, bucket, hook in TARGETS:
            owner = importlib.import_module(f"volfpl.{module}")
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    print(f"trace: {name} not found, skipped", file=sys.stderr)
                    continue
                orig = vars(cls)[meth]
                patches.append((cls, meth, orig))
                setattr(cls, meth, _wrap(tracer, orig, name, bucket, hook))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                print(f"trace: {name} not found, skipped", file=sys.stderr)
                continue
            wrapper = _wrap(tracer, orig, name, bucket, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for obj, key, orig in reversed(patches):
            setattr(obj, key, orig)
