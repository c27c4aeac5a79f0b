"""``python -m repro shard`` -- plan / run / merge a sharded batch.

The command-line face of :mod:`repro.batch.sharding`, driving the full
cross-machine cycle over the named workload grids of
:data:`repro.experiments.workloads.WORKLOADS`:

1. **plan** (once, anywhere)::

       python -m repro shard plan --workload mixed_batch_jobs \\
           --shards 4 --out-dir sharded/ --cache-dir /shared/fit-cache

   builds the grid, assigns jobs to shards deterministically and writes one
   ``shard-XXX-of-YYY.manifest.json`` per shard.

2. **run** (once per shard, on any machine that sees the manifest)::

       python -m repro shard run sharded/shard-000-of-004.manifest.json \\
           --executor process

   rebuilds the grid from the manifest's workload entry, verifies it against
   the planned job fingerprints, executes the shard's subset through a
   :class:`~repro.batch.engine.BatchEngine` and writes the shard result
   archive next to the manifest (override with ``--out``).

3. **merge** (once, anywhere that sees all shard results)::

       python -m repro shard merge sharded/*.result.npz --out merged.json

   validates the shard files against each other and writes the reassembled
   :class:`~repro.batch.results.BatchResult` JSON export -- identical in
   record order and payloads to a single-process run of the same grid.

Exit codes: 0 on success, 2 on a validation failure (:class:`ShardError`),
argparse's usual 2 on bad usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from typing import Optional

from repro.backends import BACKEND_NAMES
from repro.batch.engine import EXECUTORS, BatchEngine
from repro.batch.sharding import (
    ShardError,
    ShardPlan,
    load_manifest,
    merge_shard_results,
    run_shard,
    shard_result_name,
    write_manifests,
    write_shard_result,
)

__all__ = ["cli_subprocess", "register_shard_commands"]


def cli_subprocess(*args: str, timeout: float = 600) -> subprocess.CompletedProcess:
    """Run ``python -m repro *args`` in a fresh subprocess, as an operator would.

    The one shared harness behind the differential tests and the CI sharded
    smoke (``benchmarks/bench_shard_merge.py``): it prepends this package's
    ``src`` root to ``PYTHONPATH`` so the child resolves the same ``repro``
    build regardless of how the parent was launched, and captures text
    output.  Keeping it here means the PYTHONPATH handling can never drift
    between the call sites.  Shard commands pass ``"shard", ...``.
    """
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_root, env.get("PYTHONPATH")) if part)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def _workload_kwargs(raw: Optional[str]) -> dict:
    """Parse the ``--workload-args`` JSON object (kwargs of the named grid)."""
    if not raw:
        return {}
    try:
        kwargs = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ShardError(f"--workload-args must be a JSON object: {exc}") from exc
    if not isinstance(kwargs, dict):
        raise ShardError(
            f"--workload-args must be a JSON object, got {type(kwargs).__name__}"
        )
    return kwargs


def _build_jobs(name: str, kwargs: dict):
    from repro.experiments.workloads import workload_jobs

    try:
        return workload_jobs(name, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ShardError(f"cannot build workload {name!r}: {exc}") from exc


def cmd_plan(args: argparse.Namespace) -> int:
    kwargs = _workload_kwargs(args.workload_args)
    jobs = _build_jobs(args.workload, kwargs)
    plan = ShardPlan.from_jobs(jobs, args.shards)
    paths = write_manifests(
        plan,
        jobs,
        args.out_dir,
        workload=args.workload,
        workload_kwargs=kwargs,
        cache_dir=args.cache_dir,
    )
    print(f"plan {plan.fingerprint[:16]}...: {plan.n_jobs} jobs "
          f"({args.workload}) over {plan.n_shards} shards")
    for shard, path in enumerate(paths):
        print(f"  shard {shard}: {len(plan.indices_for(shard))} jobs -> {path}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    workload = manifest.get("workload")
    if not workload:
        raise ShardError(
            "manifest carries no workload entry point; in-memory batches must "
            "be run through repro.batch.sharding.run_shard() directly"
        )
    jobs = _build_jobs(workload["name"], workload.get("kwargs") or {})
    # REPRO_BATCH_EXECUTOR / _WORKERS / _CHUNK apply like everywhere else in
    # the batch layer; explicit CLI flags override the environment
    try:
        engine = BatchEngine.from_env()
        overrides = {}
        if args.executor is not None:
            overrides["executor"] = args.executor
        if args.workers is not None:
            overrides["max_workers"] = args.workers
        if args.chunk_size is not None:
            overrides["chunk_size"] = args.chunk_size
        if args.backend is not None:
            overrides["backend"] = args.backend
        if overrides:
            engine = dataclasses.replace(engine, **overrides)
    except ValueError as exc:
        raise ShardError(f"invalid engine configuration: {exc}") from exc
    result = run_shard(manifest, jobs, engine=engine)
    out = args.out or os.path.join(
        os.path.dirname(os.path.abspath(args.manifest)),
        shard_result_name(manifest["shard_index"], manifest["n_shards"]),
    )
    write_shard_result(out, manifest, result)
    counters = (f", cache hits={result.n_cache_hits}/{result.n_jobs}"
                if result.used_cache else "")
    print(f"shard {manifest['shard_index']}/{manifest['n_shards']}: "
          f"{result.n_ok}/{result.n_jobs} ok, executor={result.executor}, "
          f"wall={result.wall_seconds:.3f}s{counters} -> {out}")
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    merged = merge_shard_results(args.shard_results)
    if args.out:
        merged.save_json(args.out)
    print(merged.summary_table(title=(
        f"merged {merged.executor}: {merged.n_ok}/{merged.n_jobs} ok"
        + (f", cache hits={merged.n_cache_hits}/{merged.n_jobs}"
           if merged.used_cache else "")
        + (f" -> {args.out}" if args.out else "")
    )))
    if args.fail_on_job_errors and merged.n_failed:
        print(f"error: {merged.n_failed} job(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_dispatch(args: argparse.Namespace) -> int:
    from repro.serve.dispatcher import SubprocessLauncher, dispatch_workload

    merged = dispatch_workload(
        args.workload,
        args.shards,
        args.out_dir,
        workload_kwargs=_workload_kwargs(args.workload_args),
        cache_dir=args.cache_dir,
        launcher=SubprocessLauncher(executor=args.executor, workers=args.workers,
                                    chunk_size=args.chunk_size,
                                    backend=args.backend),
        timeout=args.timeout,
        max_retries=args.max_retries,
        backoff_seconds=args.backoff,
        bench_weights=args.bench_weights,
    )
    if args.out:
        merged.save_json(args.out)
    print(merged.summary_table(title=(
        f"dispatched {merged.executor}: {merged.n_ok}/{merged.n_jobs} ok"
        + (f", cache hits={merged.n_cache_hits}/{merged.n_jobs}"
           if merged.used_cache else "")
        + (f" -> {args.out}" if args.out else "")
    )))
    if args.fail_on_job_errors and merged.n_failed:
        print(f"error: {merged.n_failed} job(s) failed", file=sys.stderr)
        return 1
    return 0


def register_shard_commands(commands) -> None:
    """Attach the ``plan`` / ``run`` / ``merge`` / ``dispatch`` subcommands.

    Called by the ``python -m repro shard`` umbrella CLI (:mod:`repro.cli`).
    """
    plan = commands.add_parser(
        "plan", help="assign a named workload grid to N shard manifests")
    plan.add_argument("--workload", required=True,
                      help="named grid from repro.experiments.workloads.WORKLOADS")
    plan.add_argument("--workload-args", default=None,
                      help="JSON object of kwargs for the workload builder")
    plan.add_argument("--shards", type=int, required=True,
                      help="number of shards to plan")
    plan.add_argument("--out-dir", required=True,
                      help="directory the shard manifests are written to")
    plan.add_argument("--cache-dir", default=None,
                      help="shared DiskStore directory every shard runner attaches")
    plan.set_defaults(handler=cmd_plan)

    run = commands.add_parser(
        "run", help="execute one shard manifest and write its result archive")
    run.add_argument("manifest", help="path to a shard manifest")
    run.add_argument("--executor", default=None, choices=EXECUTORS,
                     help="batch executor (default: REPRO_BATCH_EXECUTOR or serial)")
    run.add_argument("--workers", type=int, default=None,
                     help="worker count for the pooled executors "
                          "(default: REPRO_BATCH_WORKERS or the CPU count)")
    run.add_argument("--chunk-size", type=int, default=None,
                     help="jobs per engine chunk "
                          "(default: REPRO_BATCH_CHUNK or automatic)")
    run.add_argument("--backend", default=None, choices=BACKEND_NAMES,
                     help="array backend for the kernel modules "
                          "(default: REPRO_ARRAY_BACKEND or numpy)")
    run.add_argument("--out", default=None,
                     help="shard result path (default: next to the manifest)")
    run.set_defaults(handler=cmd_run)

    merge = commands.add_parser(
        "merge", help="validate and merge shard result archives")
    merge.add_argument("shard_results", nargs="+",
                       help="shard result .npz files (all shards of one plan)")
    merge.add_argument("--out", default=None,
                       help="write the merged BatchResult JSON export here")
    merge.add_argument("--fail-on-job-errors", action="store_true",
                       help="exit 1 when any merged record has status 'failed'")
    merge.set_defaults(handler=cmd_merge)

    dispatch = commands.add_parser(
        "dispatch",
        help="plan + launch shard runner subprocesses + retry + merge, one call")
    dispatch.add_argument("--workload", required=True,
                          help="named grid from repro.experiments.workloads.WORKLOADS")
    dispatch.add_argument("--workload-args", default=None,
                          help="JSON object of kwargs for the workload builder")
    dispatch.add_argument("--shards", type=int, required=True,
                          help="number of shards to dispatch")
    dispatch.add_argument("--out-dir", required=True,
                          help="directory for manifests and shard results")
    dispatch.add_argument("--cache-dir", default=None,
                          help="shared DiskStore directory every shard runner attaches")
    dispatch.add_argument("--executor", default=None, choices=EXECUTORS,
                          help="engine executor forwarded to every shard runner")
    dispatch.add_argument("--workers", type=int, default=None,
                          help="worker count forwarded to every shard runner")
    dispatch.add_argument("--chunk-size", type=int, default=None,
                          help="chunk size forwarded to every shard runner")
    dispatch.add_argument("--backend", default=None, choices=BACKEND_NAMES,
                          help="array backend forwarded to every shard runner")
    dispatch.add_argument("--timeout", type=float, default=None,
                          help="per-shard wall-clock budget per attempt (seconds)")
    dispatch.add_argument("--max-retries", type=int, default=2,
                          help="extra attempts per shard after the first")
    dispatch.add_argument("--backoff", type=float, default=0.25,
                          help="base retry backoff in seconds (doubles per retry)")
    dispatch.add_argument("--bench-weights", default=None,
                          help="BENCH_*.json whose per-label timings balance the plan")
    dispatch.add_argument("--out", default=None,
                          help="write the merged BatchResult JSON export here")
    dispatch.add_argument("--fail-on-job-errors", action="store_true",
                          help="exit 1 when any merged record has status 'failed'")
    dispatch.set_defaults(handler=cmd_dispatch)

