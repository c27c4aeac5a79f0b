"""``python -m repro`` -- the umbrella command line of the package.

One coherent CLI over the four ways work gets executed (the API-consolidation
counterpart of :mod:`repro.api`):

* ``fit`` -- one macromodel fit of a Touchstone file::

      python -m repro fit board.s4p --method mfti --options '{"block_size": 2}'

* ``batch`` -- run a named workload grid (:data:`repro.experiments.
  workloads.WORKLOADS`) through a :class:`~repro.batch.engine.BatchEngine`::

      python -m repro batch --workload mixed_batch_jobs --executor thread

* ``shard plan|run|merge|dispatch`` -- the cross-machine cycle of
  :mod:`repro.batch.sharding`, plus the one-call dispatcher of
  :mod:`repro.serve.dispatcher` (``dispatch`` = plan + launch subprocess
  runners + retry + merge)::

      python -m repro shard dispatch --workload mixed_batch_jobs --shards 4 \\
          --out-dir sharded/

* ``serve`` -- the asyncio fit service of :mod:`repro.serve`::

      python -m repro serve --port 8765 --executor thread --workers 4

Exit codes: 0 on success, 1 when ``--fail-on-job-errors`` sees failed
records, 2 on validation/dispatch errors, argparse's usual 2 on bad usage.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Optional

from repro.backends import BACKEND_NAMES
from repro.batch.engine import EXECUTORS, BatchEngine
from repro.batch.sharding import ShardError

__all__ = ["build_parser", "main"]


def _engine_config_from_args(args: argparse.Namespace) -> dict:
    """The canonical engine-config dict (one encoding across CLI/HTTP/Python)."""
    config: dict = {}
    if getattr(args, "executor", None) is not None:
        config["executor"] = args.executor
    if getattr(args, "workers", None) is not None:
        config["max_workers"] = args.workers
    if getattr(args, "chunk_size", None) is not None:
        config["chunk_size"] = args.chunk_size
    if getattr(args, "backend", None) is not None:
        config["backend"] = args.backend
    if getattr(args, "cache_dir", None):
        config["cache_dir"] = args.cache_dir
    return config


def _add_engine_arguments(parser: argparse.ArgumentParser, *,
                          with_cache: bool = True) -> None:
    parser.add_argument("--executor", default=None, choices=EXECUTORS,
                        help="batch executor (default: REPRO_BATCH_EXECUTOR or serial)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for the pooled executors")
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="jobs per engine chunk (default: automatic)")
    parser.add_argument("--backend", default=None, choices=BACKEND_NAMES,
                        help="array backend for the kernel modules "
                             "(default: REPRO_ARRAY_BACKEND or numpy)")
    if with_cache:
        parser.add_argument("--cache-dir", default=None,
                            help="attach a disk-backed FitCache rooted here")


def _parse_json_object(raw: Optional[str], flag: str) -> dict:
    if not raw:
        return {}
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ShardError(f"{flag} must be a JSON object: {exc}") from exc
    if not isinstance(value, dict):
        raise ShardError(f"{flag} must be a JSON object, got {type(value).__name__}")
    return value


# --------------------------------------------------------------------------- #
# fit
# --------------------------------------------------------------------------- #
def cmd_fit(args: argparse.Namespace) -> int:
    from repro.core._pipeline import frontend_spec
    from repro.data import read_touchstone

    try:
        data = read_touchstone(args.touchstone)
        reference = read_touchstone(args.reference) if args.reference else None
    except (OSError, ValueError) as exc:
        raise ShardError(f"cannot read Touchstone input: {exc}") from exc
    spec = frontend_spec(args.method)
    option_kwargs = _parse_json_object(args.options, "--options")
    try:
        options = spec.options_type(**option_kwargs) if option_kwargs else None
    except (TypeError, ValueError) as exc:
        raise ShardError(
            f"invalid --options for method {args.method!r}: {exc}") from exc

    passivity = None
    if args.passivity is not None:
        from repro.vectorfitting.enforcement import PassivitySpec

        passivity_kwargs = _parse_json_object(args.passivity, "--passivity")
        try:
            passivity = PassivitySpec(**passivity_kwargs)
        except (TypeError, ValueError) as exc:
            raise ShardError(f"invalid --passivity spec: {exc}") from exc

    from repro.batch.jobs import FitJob, run_job

    try:
        job = FitJob(data, method=args.method, options=options,
                     reference=reference, passivity=passivity)
    except (TypeError, ValueError) as exc:
        raise ShardError(f"invalid fit job: {exc}") from exc
    record = run_job(0, job, backend=args.backend)
    if not record.ok:
        print(f"error: fit failed: {record.error_type}: {record.error_message}",
              file=sys.stderr)
        return 1
    print(f"{args.method} fit of {args.touchstone}: order={record.order}, "
          f"error vs data={record.error_vs_data:.3e}"
          + (f", error vs reference={record.error_vs_reference:.3e}"
             if reference is not None else "")
          + f", {record.elapsed_seconds:.3f}s")
    if record.passivity:
        print("passivity certificate: "
              f"margin={record.passivity['worst_margin']:.3e}, "
              f"perturbation={record.passivity['perturbation_norm']:.3e}, "
              f"iterations={record.passivity['iterations']:.0f}, "
              f"error delta={record.passivity['error_delta']:.3e}")
    return 0


# --------------------------------------------------------------------------- #
# batch
# --------------------------------------------------------------------------- #
def cmd_batch(args: argparse.Namespace) -> int:
    from repro.experiments.workloads import workload_jobs

    kwargs = _parse_json_object(args.workload_args, "--workload-args")
    try:
        jobs = workload_jobs(args.workload, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ShardError(f"cannot build workload {args.workload!r}: {exc}") from exc
    try:
        engine = BatchEngine.from_config(_engine_config_from_args(args))
    except ValueError as exc:
        raise ShardError(f"invalid engine configuration: {exc}") from exc
    result = engine.run(jobs)
    if args.out:
        result.save_json(args.out)
    print(result.summary_table(title=(
        f"{args.workload}: {result.n_ok}/{result.n_jobs} ok, "
        f"executor={result.executor}, wall={result.wall_seconds:.3f}s"
        + (f" -> {args.out}" if args.out else "")
    )))
    if args.fail_on_job_errors and result.n_failed:
        print(f"error: {result.n_failed} job(s) failed", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------------- #
def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.app import FitService, serve_forever

    try:
        engine = BatchEngine.from_config(_engine_config_from_args(args))
    except ValueError as exc:
        raise ShardError(f"invalid engine configuration: {exc}") from exc
    service = FitService(engine, max_pending=args.max_pending)

    def announce(server) -> None:
        print(f"serving on http://{server.host}:{server.port} "
              f"(engine={engine.executor}, max_pending={args.max_pending}); "
              f"POST /shutdown to stop", flush=True)

    try:
        asyncio.run(serve_forever(service, host=args.host, port=args.port,
                                  ready=announce))
    except KeyboardInterrupt:
        pass
    return 0


# --------------------------------------------------------------------------- #
# parser assembly
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    from repro.batch.shard import register_shard_commands

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__.splitlines()[0],
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit one Touchstone file")
    fit.add_argument("touchstone", help="input Touchstone (.sNp) file")
    fit.add_argument("--method", default="mfti",
                     help="registered front-end (mfti, vfti, mfti-recursive)")
    fit.add_argument("--options", default=None,
                     help="JSON object of options for the method")
    fit.add_argument("--reference", default=None,
                     help="optional validation Touchstone file")
    fit.add_argument("--passivity", default=None,
                     help="JSON object of PassivitySpec fields ('{}' for the "
                          "defaults): passivity-enforce the fitted model and "
                          "print its certificate (requires --reference)")
    fit.add_argument("--backend", default=None, choices=BACKEND_NAMES,
                     help="array backend for the kernel modules "
                          "(default: REPRO_ARRAY_BACKEND or numpy)")
    fit.set_defaults(handler=cmd_fit)

    batch = commands.add_parser(
        "batch", help="run a named workload grid through a BatchEngine")
    batch.add_argument("--workload", required=True,
                       help="named grid from repro.experiments.workloads.WORKLOADS")
    batch.add_argument("--workload-args", default=None,
                       help="JSON object of kwargs for the workload builder")
    _add_engine_arguments(batch)
    batch.add_argument("--out", default=None,
                       help="write the BatchResult JSON export here")
    batch.add_argument("--fail-on-job-errors", action="store_true",
                       help="exit 1 when any record has status 'failed'")
    batch.set_defaults(handler=cmd_batch)

    shard = commands.add_parser(
        "shard", help="plan / run / merge / dispatch a sharded batch")
    register_shard_commands(shard.add_subparsers(dest="shard_command",
                                                 required=True))

    serve = commands.add_parser("serve", help="start the asyncio fit service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 binds an ephemeral port)")
    serve.add_argument("--max-pending", type=int, default=32,
                       help="admission bound on in-flight computations")
    _add_engine_arguments(serve)
    serve.set_defaults(handler=cmd_serve)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    from repro.serve.dispatcher import DispatchError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ShardError, DispatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
