"""Benchmark for volfpl: one workload per run, from a checkout's root.

    python3 bench/run.py --workload mc_regret --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics with a span recorder.  ``--workload all`` runs the four
workloads one after another, each in its own process.  The last line printed
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads and metrics.
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
WORKLOADS = ("mc_regret", "seq_loop", "trading", "exact_probs")
SETUP_REPEATS = 3
# The end-to-end metrics every workload reports.  work_per_s is the
# workload's own throughput (mc_cells_per_s, loop_steps_per_s, ...).
END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    n = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_library() -> None:
    """Import volfpl from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "volfpl", "__init__.py")):
        raise SystemExit(f"bench: no volfpl sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import volfpl

    if not os.path.abspath(volfpl.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported volfpl from {volfpl.__file__}, not {SRC}")


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports volfpl (with numpy and
    scipy) and exits."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import volfpl"], env=env, check=True, timeout=120)
    return time.perf_counter() - start


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit is None:
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def manifest(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        size = _read(os.path.join(base, index, "size"))
        if level and kind and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "caches": caches,
        "blas_threads": blas_threads,
        "seed": seed,
        "git_commit": git_commit(),
    }


class Phase:
    """Times of every task execution over a sequence of whole rounds."""

    def __init__(self, num_tasks: int):
        self.ms: list[list[float]] = [[] for _ in range(num_tasks)]
        self.failures: list[str] = []
        self.rounds = 0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.ms)

    def task_seconds(self) -> float:
        return sum(sum(t) for t in self.ms) / 1000.0

    def best_ms(self) -> list[float]:
        """Each task's best time over its repetitions."""
        return [min(t) for t in self.ms]


def _probe_seconds() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class CpuPicker:
    """Moves the calling thread to whichever allowed CPU runs a short probe
    fastest.

    On a host shared with other tenants each CPU flips between a fast state
    and one about 1.4x slower (a busy sibling hyperthread) every second or
    so, and the two CPUs flip independently.  Picking before each task keeps
    that noise out of the task's time.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    def pick(self) -> None:
        if len(self.cpus) < 2:
            return
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((_probe_seconds(), cpu))
        os.sched_setaffinity(0, {min(timings)[1]})

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


def _attempt(task) -> str | None:
    # The run must go on past a failing task and count it.
    try:
        return task.run()
    except Exception as exc:  # noqa: BLE001
        import traceback

        traceback.print_exc(file=sys.stderr)
        return f"{type(exc).__name__}: {exc}"


def run_rounds(workload, seconds: float | None = None, rounds: int | None = None,
               tracer=None) -> Phase:
    """Repeat the workload's round until ``seconds`` have passed (at least
    one round), or exactly ``rounds`` times."""
    phase = Phase(len(workload.tasks))
    picker = CpuPicker()
    start = time.perf_counter()
    while not (phase.rounds >= rounds if rounds is not None
               else phase.rounds and time.perf_counter() - start >= seconds):
        for i, task in enumerate(workload.tasks):
            picker.pick()
            t0 = time.perf_counter()
            if tracer is None:
                detail = _attempt(task)
            else:
                tracer.task_id = phase.attempted
                with tracer.span("bench.task"):
                    detail = _attempt(task)
            phase.ms[i].append(1000.0 * (time.perf_counter() - t0))
            if detail:
                phase.failures.append(detail)
        phase.rounds += 1
    phase.wall = time.perf_counter() - start
    picker.release()
    return phase


def tail(values: list[float]):
    """Highest percentile with at least 10 samples beyond it, as
    (value, percentile, sample count), or None with 10 samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def measure(workload, seed: int, seconds: float, repeats: int):
    imports, setups = [], []
    for _ in range(repeats):
        imports.append(import_seconds())
        t0 = time.perf_counter()
        workload.setup(seed)
        setups.append(time.perf_counter() - t0)
    phase = run_rounds(workload, seconds=seconds)
    work = sum(task.work for task in workload.tasks)
    every = [ms for task_ms in phase.ms for ms in task_ms]
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "work_per_s": 1000.0 * work / sum(phase.best_ms()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named = {
        "setup_s": (metrics["setup_s"], "s"),
        "wall_s": (phase.wall, "s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        "failed_frac": (len(phase.failures) / phase.attempted, "1"),
        workload.work_name: (metrics["work_per_s"], workload.work_unit),
        "task_p50_ms": (statistics.median(every), "ms"),
    }
    notes = [
        f"work: {workload.work_detail()}",
        f"{phase.rounds} rounds of {len(workload.tasks)} tasks; imports took {imports} s, "
        f"set-ups {setups} s",
        f"{workload.work_name} counts each task at its best of {phase.rounds}; over the "
        f"whole timed phase it was {1000.0 * work * phase.rounds / sum(every):.6g}",
    ]
    tail_ms = tail(every)
    if tail_ms:
        named["task_tail_ms"] = (tail_ms[0], "ms")
        notes.append(f"task_tail_ms is p{tail_ms[1]:.1f} of {tail_ms[2]} task executions")
    return phase, metrics, END_TO_END, named, notes


def measure_traced(workload, seed: int, seconds: float, out_dir: str):
    """Per-layer metrics for one set-up plus one round, from a traced pass
    over as many rounds as an untraced pass fits in ``seconds``."""
    import spans

    workload.setup(seed)
    plain = run_rounds(workload, seconds=seconds)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        t0 = time.perf_counter()
        with tracer.span("bench.setup"):
            workload.setup(seed)
        setup_wall = time.perf_counter() - t0
        setup_counts = dict(tracer.counts)
        phase = run_rounds(workload, rounds=plain.rounds, tracer=tracer)
    tracer.save(os.path.join(out_dir, f"spans-{workload.name}.npz"))
    k = phase.rounds
    in_setup = tracer.self_times(tasks=[-1])
    in_rounds = tracer.self_times(tasks=range(phase.attempted))

    def per_round(at_setup, in_all_rounds, unit):
        value = at_setup + in_all_rounds / k
        return int(value) if unit == "count" and value == int(value) else value

    metrics, units = {}, {}
    for name in spans.span_names():
        c0, s0 = in_setup.get(name, (0, 0.0))
        c1, s1 = in_rounds.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = per_round(c0, c1, "count")
        metrics[f"{name}.self_s"] = per_round(s0, s1, "s")
        units[f"{name}.calls"], units[f"{name}.self_s"] = "count", "s"
    self_sum = sum(metrics[f"{name}.self_s"] for name in spans.span_names())
    for name, unit in spans.COUNTERS.items():
        at_setup, total = setup_counts.get(name, 0), tracer.counts.get(name, 0)
        # A byte count is the largest chunk seen, not a sum.
        metrics[name] = total if unit == "B" else per_round(at_setup, total - at_setup, unit)
        units[name] = unit
    for layer in spans.LAYERS:
        metrics[f"{layer}.errors"], units[f"{layer}.errors"] = tracer.errors[layer], "count"
    # Wall time here is the time spent in tasks; it leaves out the CPU
    # probes between tasks.
    traced_s, plain_s = phase.task_seconds(), plain.task_seconds()
    for name, value in (("trace.wall_s", setup_wall + traced_s / k),
                        ("trace.self_sum_s", self_sum),
                        ("trace.overhead_s", (traced_s - plain_s) / k)):
        metrics[name], units[name] = value, "s"
    phase.failures += plain.failures
    for traced_ms, plain_ms in zip(phase.ms, plain.ms):
        traced_ms += plain_ms
    notes = [f"work: {workload.work_detail()}",
             f"per-layer values are for one set-up plus one round; traced {k} rounds, "
             f"{len(tracer.start)} spans; errors are totals"]
    return phase, metrics, units, {}, notes


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        out_dir: str = OUT) -> dict:
    """Run one workload and return its result (see ``main`` for the format)."""
    import workloads

    os.makedirs(out_dir, exist_ok=True)
    workload = workloads.WORKLOADS[name](toy=toy, out_dir=out_dir)
    if trace:
        phase, metrics, units, named, notes = measure_traced(workload, seed, seconds, out_dir)
    else:
        phase, metrics, units, named, notes = measure(workload, seed, seconds,
                                                        1 if toy else SETUP_REPEATS)
    return {
        "workload": name,
        "trace": int(trace),
        "correct": not phase.failures,
        "attempted": phase.attempted,
        "failed": len(phase.failures),
        "failures": phase.failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "notes": notes,
    }


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = subprocess.run(cmd, timeout=900).returncode or code
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)

    blas_threads = cap_blas_threads()
    import_library()
    sys.path.insert(0, HERE)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result["manifest"] = manifest(args.seed, blas_threads)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in result["notes"]:
        print(f"  {note}")
    for key, m in (result["named"] or result["metrics"]).items():
        print(f"  {key:48s} {m['value']:.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print("manifest " + json.dumps(result["manifest"], sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
