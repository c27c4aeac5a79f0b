"""End-to-end macromodeling benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload table1_loewner --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last
stdout line is the result object; the line before it holds the environment
stamp and details.
The program is imported from ``src/`` next to this directory; without it the
benchmark exits with an error.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up builds per run; setup_s reports their median.
SETUP_REPEATS = 3

#: Speed-probe time (``bench_env.calibrate``) the reported times are scaled
#: to: about the probe's time in the fast mode of the 2-vCPU machine the
#: benchmark was tuned on.  See README.
REFERENCE_PROBE_S = 0.030

#: End-to-end metrics: name -> (unit, better); must match BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "err_truth_gmean": ("ratio", "lower"),
    "model_order_sum": ("count", "lower"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Pin BLAS to one thread, then import the program from ``src/``."""
    from bench_env import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    # the benchmark configures the program itself; REPRO_* settings from the
    # caller's environment (cache kill switch, executor) must not leak in
    for var in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[var]
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"e2ebench: no program at {SRC}/repro; run from a full checkout")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"e2ebench: imported repro from {repro.__file__}, not {SRC}")


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Pass:
    """One timed pass: raw wall and CPU seconds, its outputs, its speed scale."""

    wall: float
    cpu: float
    result: object
    scale: float
    traced: bool = False

    @property
    def ref_wall(self) -> float:
        return self.wall * self.scale

    @property
    def ref_cpu(self) -> float:
        return self.cpu * self.scale


def speed_scale(before: float, after: float) -> float:
    """Factor from this moment's seconds to reference seconds (see README)."""
    return REFERENCE_PROBE_S / ((before + after) / 2.0)


def timed_passes(workload, state, workdir, budget_s, probes, tracer=None):
    """Run passes while another one ends nearer ``budget_s`` than stopping.

    A speed probe runs before the first pass and after every pass, outside
    the timed region; ``probes`` collects them.  With a ``tracer``, passes
    alternate untraced and traced, so both halves see the same machine
    speeds, and at least one of each runs.
    """
    from bench_env import calibrate

    passes = []
    started = time.perf_counter()
    probes.append(calibrate())
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            result = workload.run_pass(state, workdir, len(passes))
            wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        finally:
            if traced:
                tracer.uninstall()
        workload.finish_pass(state, workdir, len(passes))
        if traced:
            tracer.collect()
        probes.append(calibrate())
        passes.append(Pass(wall, cpu, result, speed_scale(probes[-2], probes[-1]),
                           traced))
        median_wall = statistics.median(p.wall for p in passes)
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() - started + median_wall / 2 > budget_s:
            return passes


def measure(workload, *, seed, seconds, trace, workdir, import_s=0.0,
            repeats=SETUP_REPEATS):
    """Set up ``workload``, run its passes and return ``(detail, result)``.

    ``result`` is the object the benchmark prints last; ``detail`` holds the
    environment stamp, raw per-pass times, speed probes and failures.
    """
    import bench_env
    import bench_trace

    probes = [bench_env.calibrate()]
    tracer = bench_trace.Tracer(os.path.join(workdir, "spool")) if trace else None
    if tracer is not None:
        tracer.install()
    builds, fingerprints = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        inputs = workload.build(seed)
        builds.append(time.perf_counter() - start)
        fingerprints.append(workload.fingerprints(inputs))
    start = time.perf_counter()
    state = workload.prepare(inputs, workdir)
    raw_setup_s = import_s + statistics.median(builds) + time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    probes.append(bench_env.calibrate())
    setup_s = raw_setup_s * speed_scale(probes[0], probes[1])

    checks = [("rebuilt inputs are identical", all(f == fingerprints[0] for f in fingerprints))]
    checks += workload.setup_checks(state)
    if tracer is not None:
        tracer.mark("pass")
    runs = timed_passes(workload, state, workdir, seconds, probes, tracer)
    # the reported passes: traced ones in a traced run, all of them otherwise
    passes = [p for p in runs if p.traced == (tracer is not None)]
    calib_s = statistics.median(probes)

    first = runs[0].result
    # traced passes alternate with untraced ones, so this also checks that
    # tracing leaves the outputs unchanged
    checks.append(("every pass produces identical outputs",
                   all(p.result.digest == first.digest for p in runs)))
    failures = [f"check {name}" for name, ok in checks if not ok]
    for p in runs:
        failures += p.result.failures
    attempted = len(checks) + sum(p.result.attempted for p in runs)

    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.ref_wall for p in passes),
            "cpu_s": statistics.median(p.ref_cpu for p in passes),
            "peak_rss_mb": peak_rss_mb(),
            "err_truth_gmean": (statistics.geometric_mean(first.errors)
                                if first.errors else 0.0),
            "model_order_sum": float(sum(first.orders)),
        }
        units = END_TO_END
    else:
        metrics = bench_trace.layer_metrics(
            tracer, n_builds=repeats, n_passes=len(passes),
            traced_wall=statistics.median(p.wall for p in passes),
            overhead=(statistics.median(p.ref_wall for p in passes)
                      / statistics.median(p.ref_wall for p in runs if not p.traced) - 1.0),
            calib_s=calib_s)
        units = bench_trace.LAYER_METRICS
    detail = {
        "workload": workload.name,
        "env": bench_env.environment(ROOT, executor=workload.executor,
                                     workers=workload.workers, seed=seed),
        "env.calib_s": calib_s,
        "setup": {"import_s": import_s, "build_s": builds, "raw_setup_s": raw_setup_s},
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu, "scale": p.scale, "traced": p.traced}
                   for p in runs],
        "probes_s": probes,
        "reference_probe_s": REFERENCE_PROBE_S,
        "failures": failures[:20],
    }
    if tracer is not None:
        detail["trace"] = {
            "traced_passes": len(passes),
            "parent_only": workload.executor == "process" and tracer.worker_spans == 0,
            "realize_svd_shapes": bench_trace.svd_shapes(tracer),
            "computed_counts": ["core.svd_flops", "core.realize_svd_flops",
                                "batch.chunk_bytes"],
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name][0]}
                    for name in units},
    }
    return detail, result


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from bench_workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    if args.workload not in WORKLOADS:
        sys.exit(f"e2ebench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(WORKLOADS)}")
    workdir = os.path.join(ROOT, ".e2ebench_tmp", str(os.getpid()))
    os.makedirs(workdir)
    try:
        detail, result = measure(WORKLOADS[args.workload], seed=args.seed % 2**31,
                                 seconds=args.seconds, trace=bool(args.trace),
                                 workdir=workdir, import_s=import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
