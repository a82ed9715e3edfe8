"""turbghost benchmark: one command, one workload per invocation.

    python3 bench/run.py --workload {sweep,kernels,screens,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root (the package is imported from ``src/``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (per-pass
times, check failures, environment) goes to ``bench/out/``, and the
traced run's spans to ``bench/out/spans-<workload>-s<seed>.csv``.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 3
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import_workloads():
    """Import the program from this checkout's src/; exit 2 if it is absent."""
    sys.path.insert(0, SRC)
    try:
        import workloads
    except ImportError as exc:
        sys.stderr.write(f"cannot import turbghost from {SRC}: {exc}\n")
        raise SystemExit(2)
    import turbghost

    if os.path.dirname(os.path.dirname(os.path.abspath(turbghost.__file__))) != SRC:
        sys.stderr.write(f"turbghost was imported from {turbghost.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return workloads


def _set_up(workloads, name, seed):
    workdir = os.path.join(OUT_DIR, f"work-{name}-s{seed}")
    shutil.rmtree(workdir, ignore_errors=True)  # no output of an earlier run can pass a check
    os.makedirs(workdir)
    workload = workloads.WORKLOADS[name](workdir)
    inputs = workload.make_inputs(seed)
    workload.warm_up(inputs)
    return workload, inputs


def _setup_probe(args):
    """Child-process body: set up once, print the wall clock at the end."""
    _set_up(_import_workloads(), args.workload, args.seed)
    print(repr(time.time()))


def _setup_seconds(args):
    """Median over fresh interpreters of start-to-end-of-warm-up time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload",
             args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=170, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return statistics.median(samples), samples


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(worker_env):
    import numpy
    import scipy

    src_lines = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    env = {key: os.environ.get(key) for key in THREAD_VARIABLES}
    env["TURBGHOST_WORKERS"] = worker_env
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_variables": env,
        "git_commit": _git_commit(),
        "src_python_lines": src_lines,
    }


def _cpu_steal_s():
    """Machine-wide CPU time the hypervisor gave to other guests, or None.

    Read from the ``steal`` column of /proc/stat, summed over CPUs.  It is
    recorded next to the pass times as one visible sign of host contention;
    contention for shared caches and memory does not show in it.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _measure(workload, inputs, seconds, tracer):
    """Run passes for ``seconds``.  With a tracer, alternate untraced and
    traced passes (at least one of each).  Returns the untraced walls,
    the traced (run id, wall) pairs, per-invocation latencies, the first
    pass's outputs, and the count of later passes whose outputs differ."""
    null = tracing.NullTracer()
    walls, traced, latencies = [], [], []
    first, mismatches, index = None, 0, 0
    start = time.perf_counter()
    min_passes = 1 if tracer is None else 2
    while index < min_passes or time.perf_counter() - start < seconds:
        use_trace = tracer is not None and index % 2 == 1
        if use_trace:
            tracer.run_id = f"{workload.name}-pass{index}"
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = workload.run_pass(inputs, tracer if use_trace else null)
        finally:
            wall = time.perf_counter() - t0
            if use_trace:
                tracer.uninstall()
        if use_trace:
            traced.append((tracer.run_id, wall))
        else:
            walls.append(wall)
            latencies.extend(workload.latencies(out))
        if first is None:
            first = out
        elif not workload.same(first, out):
            mismatches += 1
        index += 1
    return walls, traced, latencies, first, index - 1, mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "kernels", "screens", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Measure the program's default parallelism, whatever the caller's shell sets.
    worker_env = os.environ.pop("TURBGHOST_WORKERS", None)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_probe:
        _setup_probe(args)
        return 0

    workloads = _import_workloads()
    setup_s = setup_samples = None
    if not args.trace:
        setup_s, setup_samples = _setup_seconds(args)
    workload, inputs = _set_up(workloads, args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        workload.in_process = True
    steal_start, timed_start = _cpu_steal_s(), time.perf_counter()
    walls, traced, latencies, first, later_passes, mismatches = _measure(
        workload, inputs, args.seconds, tracer)
    steal_end, timed_s = _cpu_steal_s(), time.perf_counter() - timed_start
    steal_share = (None if steal_start is None or steal_end is None
                   else (steal_end - steal_start) / (timed_s * os.cpu_count()))

    attempted, failures = workload.check(inputs, first)
    failed = len(failures) + mismatches
    attempted += later_passes
    if mismatches:
        failures.append(f"{mismatches} of {later_passes} later passes differed from the first")

    units = workload.units(first)
    wall_s = statistics.median(walls)
    if args.trace:
        extra = workload.import_probes() if args.workload == "cli" else {}
        metrics = tracing.per_layer_metrics(tracer, traced, walls, extra)
        tracer.write_csv(os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.csv"))
    else:
        invocation_s = statistics.median(latencies) if latencies else wall_s
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "points_per_s": (units / wall_s, "1/s"),
            "invocation_p50_ms": (invocation_s * 1e3, "ms"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, unit_of_work=workload.unit, units_per_pass=units,
                  pass_walls_s=walls, traced_pass_walls_s=[w for _, w in traced],
                  invocation_samples=len(latencies), setup_samples_s=setup_samples,
                  cpu_steal_share=steal_share,
                  failures=failures, environment=_environment(worker_env))
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2)
    for failure in failures:
        sys.stderr.write(f"check failed: {failure}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
