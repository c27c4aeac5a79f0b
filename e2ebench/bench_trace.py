"""Layer tracing for the end-to-end benchmark.

The benchmark records spans from its own files: :class:`Tracer.install`
wraps the public calls of each ``repro`` layer in place and
:meth:`Tracer.uninstall` puts the originals back, so untraced passes run the
unmodified program.  A span holds its name (layer and kind), start, end,
parent and process.  Every module attribute bound to a wrapped function is
replaced, so ``from x import f`` call sites are covered too.

Process-executor workers are forked from the traced parent and inherit the
wrappers.  Each worker writes the spans of every chunk it ran to a spool
directory; the parent merges them after each pass (:meth:`Tracer.collect`).
If no worker span arrives, the report marks the workload parent-only.

Counts that repeat exactly (fits, SVDs and their computed flops, evaluation
points, VF iterations, enforcement iterations, chunk bytes, cache hits and
misses) ride on the spans as ``extra`` fields.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import sys
import time
from typing import Callable, Optional

#: Layers, in report order; each is a ``repro`` subpackage.
LAYERS = ("circuits", "data", "core", "systems", "metrics", "vectorfitting", "batch", "cache")

#: Per-layer metrics: name -> (unit, better).  The traced run prints exactly
#: these; the names must match ``per_layer`` in BENCHMARK.json.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "circuits.build_s": ("s", "lower"),
    "data.sample_s": ("s", "lower"),
    "data.sample_calls": ("count", "lower"),
    "data.points": ("count", "lower"),
    "core.fit_s": ("s", "lower"),
    "core.fits": ("count", "lower"),
    "core.pencil_s": ("s", "lower"),
    "core.sv_profile_s": ("s", "lower"),
    "core.sv_profile_calls": ("count", "lower"),
    "core.real_transform_s": ("s", "lower"),
    "core.realize_s": ("s", "lower"),
    "core.svd_calls": ("count", "lower"),
    "core.svd_flops": ("flop", "lower"),
    "core.realize_svd_calls": ("count", "lower"),
    "core.realize_svd_flops": ("flop", "lower"),
    "systems.eval_s": ("s", "lower"),
    "systems.eval_points": ("count", "lower"),
    "systems.plan_s": ("s", "lower"),
    "metrics.error_s": ("s", "lower"),
    "metrics.timedomain_s": ("s", "lower"),
    "vectorfitting.vf_s": ("s", "lower"),
    "vectorfitting.vf_iterations": ("count", "lower"),
    "vectorfitting.sort_poles_s": ("s", "lower"),
    "vectorfitting.sort_poles_calls": ("count", "lower"),
    "vectorfitting.enforce_s": ("s", "lower"),
    "vectorfitting.enforce_iterations": ("count", "lower"),
    "vectorfitting.passivity_check_s": ("s", "lower"),
    "vectorfitting.perturbation_s": ("s", "lower"),
    "batch.run_s": ("s", "lower"),
    "batch.pack_s": ("s", "lower"),
    "batch.unpack_s": ("s", "lower"),
    "batch.busy_s": ("s", "lower"),
    "batch.overhead_s": ("s", "lower"),
    "batch.chunk_bytes": ("bytes", "lower"),
    "batch.jobs": ("count", "higher"),
    "batch.failed": ("count", "lower"),
    "cache.fit_hits": ("count", "higher"),
    "cache.fit_misses": ("count", "lower"),
    "cache.fit_hit_ratio": ("ratio", "higher"),
    "cache.eval_hits": ("count", "higher"),
    "cache.eval_misses": ("count", "lower"),
    "cache.response_hits": ("count", "higher"),
    "cache.response_misses": ("count", "lower"),
    "cache.response_hit_ratio": ("ratio", "higher"),
    "cache.store_get_s": ("s", "lower"),
    "cache.store_put_s": ("s", "lower"),
    "cache.store_gets": ("count", "lower"),
    "cache.store_puts": ("count", "lower"),
    "cache.store_bytes": ("bytes", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.share": ("ratio", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.worker_spans": ("count", "higher"),
    "env.calib_s": ("s", "lower"),
}

#: Metrics taken from the set-up phase (per build); all others per traced pass.
SETUP_METRICS = ("circuits.build_s", "data.sample_s", "data.sample_calls", "data.points")

#: Counts summed from span extras: kind -> ((metric, extra key), ...).
COUNTED = {
    "sample": (("data.sample_calls", "calls"), ("data.points", "points")),
    "fit": (("core.fits", "calls"),),
    "sv_profile": (("core.sv_profile_calls", "calls"),),
    "svd": (("core.svd_calls", "calls"), ("core.svd_flops", "flops")),
    "eval": (("systems.eval_points", "points"),),
    "vf": (("vectorfitting.vf_iterations", "iterations"),),
    "sort_poles": (("vectorfitting.sort_poles_calls", "calls"),),
    "enforce": (("vectorfitting.enforce_iterations", "iterations"),),
    "run": (("batch.jobs", "jobs"), ("batch.failed", "failed"), ("batch.busy_s", "busy"),
            ("cache.fit_hits", "fit_hits"), ("cache.fit_misses", "fit_misses"),
            ("cache.response_hits", "response_hits"),
            ("cache.response_misses", "response_misses")),
    "eval_memo": (("cache.eval_hits", "eval_hits"), ("cache.eval_misses", "eval_misses")),
    "store_get": (("cache.store_gets", "calls"), ("cache.store_bytes", "bytes")),
    "store_put": (("cache.store_puts", "calls"), ("cache.store_bytes", "bytes")),
}

#: Kinds whose inclusive time is reported as ``<layer>.<kind>_s``.
TIMED_KINDS = {
    "circuits": ("build",),
    "data": ("sample",),
    "core": ("fit", "pencil", "sv_profile", "real_transform", "realize"),
    "systems": ("eval", "plan"),
    "metrics": ("error", "timedomain"),
    "vectorfitting": ("vf", "sort_poles", "enforce", "passivity_check", "perturbation"),
    "batch": ("run", "pack", "unpack"),
    "cache": ("store_get", "store_put"),
}


def svd_flops(m: int, n: int, is_complex: bool) -> int:
    """Computed flops of an economic SVD with thin U and V (Golub-Reinsch).

    ``14*M*N**2 + 8*N**3`` real flops with ``M >= N`` (Golub & Van Loan,
    *Matrix Computations*, Fig. 5.4.1); complex arithmetic counts 4x.
    """
    big, small = max(m, n), min(m, n)
    flops = 14 * big * small * small + 8 * small ** 3
    return 4 * flops if is_complex else flops


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    Parameters
    ----------
    spool_dir:
        Directory (inside the benchmark checkout) where forked workers write
        their spans for the parent to merge.
    """

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        os.makedirs(spool_dir, exist_ok=True)
        self.spans: list[dict] = []
        self.tables: dict[str, list] = {}
        self.phase = "setup"
        self.worker_spans = 0
        self._stack: list[tuple[str, str, str]] = []
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._restore: list[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def mark(self, phase: str) -> None:
        """Label the spans recorded from now on (``"setup"`` or ``"pass"``)."""
        self.phase = phase

    def _in_worker(self) -> None:
        """Reset inherited state the first time a forked worker records."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.spans = []
            self.tables = {}

    def call(self, layer, kind, fn, args, kwargs, measure=None, before=None):
        """Run ``fn`` inside a span; ``measure`` adds counts from the result."""
        self._in_worker()
        nested = any(lay == layer and knd == kind for _, lay, knd in self._stack)
        sid = f"{self._pid}:{next(self._ids)}"
        parent = self._stack[-1][0] if self._stack else None
        pre = before(args) if before is not None and not nested else None
        self._stack.append((sid, layer, kind))
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter()
            self._stack.pop()
            extra = None
            if ok and measure is not None and not nested:
                extra = measure(args, result, pre)
            self.spans.append({
                "id": sid, "parent": parent, "pid": self._pid, "layer": layer,
                "kind": kind, "start": start, "end": end, "nested": nested,
                "phase": self.phase, "extra": extra,
            })
        return result

    def in_span(self, kind: str) -> bool:
        """Whether a span of ``kind`` is open in this process."""
        return any(knd == kind for _, _, knd in self._stack)

    def spool(self) -> None:
        """Worker side: write this process's spans to the spool and forget them."""
        path = os.path.join(self.spool_dir, f"{self._pid}-{next(self._ids)}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)
        os.replace(path + ".tmp", path)
        self.spans = []

    def collect(self) -> None:
        """Parent side: merge (and delete) every spooled worker span file."""
        for name in sorted(os.listdir(self.spool_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.spool_dir, name)
            with open(path, encoding="utf-8") as handle:
                spans = json.load(handle)
            os.unlink(path)
            self.spans.extend(spans)
            self.worker_spans += len(spans)

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def _wrap(self, fn, layer, kind, measure=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(layer, kind, fn, args, kwargs, measure, before)

        return traced

    def _set(self, owner, name, value) -> None:
        original = owner.__dict__[name]
        self._restore.append(lambda: setattr(owner, name, original))
        setattr(owner, name, value)

    def _set_item(self, mapping: dict, key, value) -> None:
        original = mapping[key]
        self._restore.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = value

    def patch_function(self, module: str, name: str, layer: str, kind: str,
                       measure=None, *, scope: str = "repro") -> None:
        """Wrap ``module.name`` and every alias of it in modules under ``scope``."""
        original = getattr(sys.modules[module], name)
        traced = self._wrap(original, layer, kind, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == scope or mod_name.startswith(scope + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, traced)

    def patch_method(self, cls, name: str, layer: str, kind: str,
                     measure=None, before=None) -> None:
        """Wrap a plain method or classmethod defined on ``cls``."""
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            traced = classmethod(self._wrap(raw.__func__, layer, kind, measure, before))
        else:
            traced = self._wrap(raw, layer, kind, measure, before)
        self._set(cls, name, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        while self._restore:
            self._restore.pop()()

    def install(self) -> None:
        """Patch the public calls of every layer (see the module docstring)."""
        from repro.batch import engine
        from repro.batch.engine import BatchEngine
        from repro.cache.fitcache import FitCache
        from repro.cache.interning import JobTable, ResponseCache
        from repro.cache.stores import DiskStore
        from repro.core import _pipeline
        from repro.core.assembly import IncrementalLoewner
        from repro.core.loewner import LoewnerPencil
        from repro.systems.statespace import DescriptorSystem

        fn, meth = self.patch_function, self.patch_method
        for module, name in (("repro.circuits.pdn", "power_distribution_network"),
                             ("repro.circuits.mna", "netlist_to_descriptor"),
                             ("repro.circuits.transmission_line", "lumped_transmission_line"),
                             ("repro.circuits.rlc_networks", "rlc_grid")):
            fn(module, name, "circuits", "build")
        points = _count(lambda args, result: {"points": int(result.n_samples)})
        fn("repro.data.sampler", "sample_scattering", "data", "sample", points)
        fn("repro.data.sampler", "sample_impedance", "data", "sample", points)
        fn("repro.data.noise", "add_measurement_noise", "data", "sample", _count())

        # fits: the registered front-ends are what both run_fit and the
        # cached fit path dispatch to, so a cache hit records no core.fit
        _pipeline.available_methods()
        for method, spec in list(_pipeline._FRONTENDS.items()):
            traced = self._wrap(spec.runner, "core", "fit", _count())
            self._set_item(_pipeline._FRONTENDS, method,
                           dataclasses.replace(spec, runner=traced))
        fn("repro.core.tangential", "build_tangential_data", "core", "pencil")
        fn("repro.core.loewner", "build_loewner_pencil", "core", "pencil")
        meth(IncrementalLoewner, "update", "core", "pencil")
        meth(LoewnerPencil, "singular_values", "core", "sv_profile", _count())
        fn("repro.core.realization", "to_real_data", "core", "real_transform")
        fn("repro.core.realization", "svd_realization", "core", "realize")
        fn("repro.utils.linalg", "economic_svd", "core", "svd", self._svd_counts,
           scope="repro.core")

        evaluated = lambda args, result, pre: {"points": int(result.shape[0])}  # noqa: E731
        meth(DescriptorSystem, "evaluate_many", "systems", "eval", evaluated)
        meth(DescriptorSystem, "prime_evaluation_plan", "systems", "plan")
        fn("repro.systems.evaluation", "evaluate_cauchy", "systems", "eval", evaluated)

        fn("repro.metrics.errors", "aggregate_error", "metrics", "error")
        fn("repro.metrics.errors", "model_aggregate_error", "metrics", "error")
        fn("repro.metrics.timedomain", "time_domain_metrics", "metrics", "timedomain")

        fn("repro.vectorfitting.fitting", "vector_fit", "vectorfitting", "vf",
           lambda args, result, pre: {"iterations": int(result.n_iterations)})
        fn("repro.vectorfitting.poles", "sort_poles", "vectorfitting", "sort_poles", _count())
        fn("repro.vectorfitting.enforcement", "enforce_passivity", "vectorfitting", "enforce",
           lambda args, result, pre: {"iterations": int(result[1].iterations)})
        for name in ("passivity_margins", "refine_violation_bands"):
            fn("repro.vectorfitting.enforcement", name, "vectorfitting", "passivity_check")
        fn("repro.vectorfitting.enforcement", "_solve_perturbation", "vectorfitting",
           "perturbation")

        meth(BatchEngine, "run", "batch", "run", _batch_counts)
        meth(JobTable, "pack", "batch", "pack", self._keep_table)
        meth(JobTable, "unpack", "batch", "unpack")
        self._set(engine, "_run_packed_chunk", self._worker_entry(engine._run_packed_chunk))

        meth(FitCache, "cached_aggregate_error", "cache", "eval_memo", _memo_counts,
             before=lambda args: args[0].stats().eval_hits)
        meth(FitCache, "lookup", "cache", "fit_lookup")
        meth(FitCache, "store_result", "cache", "fit_store")
        meth(ResponseCache, "reference_norms", "cache", "response")
        meth(ResponseCache, "model_sweep", "cache", "response")
        meth(DiskStore, "load", "cache", "store_get", _store_bytes)
        meth(DiskStore, "save", "cache", "store_put", _store_bytes)

    def _svd_counts(self, args, result, pre) -> dict:
        import numpy as np

        matrix = np.asarray(args[0])
        m, n = matrix.shape
        flops = svd_flops(m, n, np.iscomplexobj(matrix))
        return {"calls": 1, "flops": flops, "shape": [m, n],
                "realize": self.in_span("realize")}

    def _keep_table(self, args, table, pre) -> dict:
        # pickled sizes are computed after the pass, outside every span
        self.tables.setdefault(self.phase, []).append(table)
        return {"calls": 1}

    def _worker_entry(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def run_packed_chunk(table):
            records = tracer.call("batch", "chunk", original, (table,), {})
            tracer.spool()
            return records

        return run_packed_chunk


def _count(extra: Optional[Callable] = None) -> Callable:
    def measure(args, result, pre):
        counts = {"calls": 1}
        if extra is not None:
            counts.update(extra(args, result))
        return counts

    return measure


def _batch_counts(args, batch, pre) -> dict:
    return {
        "jobs": batch.n_jobs,
        "failed": batch.n_failed,
        "busy": sum(record.elapsed_seconds for record in batch.records),
        "workers": batch.n_workers,
        "fit_hits": batch.n_cache_hits,
        "fit_misses": batch.n_cache_misses,
        "response_hits": batch.n_response_hits,
        "response_misses": batch.n_response_misses,
    }


def _memo_counts(args, value, hits_before) -> dict:
    hit = args[0].stats().eval_hits > hits_before
    return {"eval_hits": int(hit), "eval_misses": int(not hit)}


def _store_bytes(args, result, pre) -> dict:
    store, key = args[0], args[1]
    if result is None:  # a load miss moves no bytes
        return {"calls": 1, "bytes": 0}
    size = sum(os.path.getsize(path) for path in store._entry_paths(key)
               if os.path.exists(path))
    return {"calls": 1, "bytes": size}


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #
def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the part its same-process children cover."""
    covered: dict[str, float] = {}
    owner = {span["id"]: span["pid"] for span in spans}
    for span in spans:
        parent = span["parent"]
        if parent is not None and owner.get(parent) == span["pid"]:
            covered[parent] = covered.get(parent, 0.0) + span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"] - covered.get(span["id"], 0.0)
            for span in spans}


def layer_metrics(tracer: Tracer, *, n_builds: int, n_passes: int,
                  traced_wall: float, overhead: float, calib_s: float) -> dict:
    """Every per-layer metric from the recorded spans (see LAYER_METRICS).

    Set-up metrics are per build; all others are per traced pass.  Self
    times and shares sum over processes, so under the process executor the
    shares of one workload can add up to more than 1.
    """
    totals: dict[str, float] = {name: 0.0 for name in LAYER_METRICS}
    own = self_times(tracer.spans)

    def add(name, value, phase):
        scale = n_builds if name in SETUP_METRICS else n_passes
        wanted = "setup" if name in SETUP_METRICS else "pass"
        if phase == wanted:
            totals[name] += value / scale

    for span in tracer.spans:
        layer, kind, phase = span["layer"], span["kind"], span["phase"]
        if phase == "pass":
            totals[f"{layer}.self_s"] += own[span["id"]] / n_passes
        if span["nested"]:
            continue
        if kind in TIMED_KINDS.get(layer, ()):
            add(f"{layer}.{kind}_s", span["end"] - span["start"], phase)
        extra = span["extra"] or {}
        for name, key in COUNTED.get(kind, ()):
            add(name, extra.get(key, 0), phase)
        if kind == "svd" and extra.get("realize"):
            add("core.realize_svd_calls", 1, phase)
            add("core.realize_svd_flops", extra["flops"], phase)
        elif kind == "run":
            workers = max(extra.get("workers", 1), 1)
            add("batch.overhead_s", span["end"] - span["start"] - extra["busy"] / workers, phase)

    totals["batch.chunk_bytes"] = sum(
        table.payload_nbytes() for table in tracer.tables.get("pass", [])) / n_passes
    totals["cache.fit_hit_ratio"] = _ratio(totals["cache.fit_hits"], totals["cache.fit_misses"])
    totals["cache.response_hit_ratio"] = _ratio(totals["cache.response_hits"],
                                                totals["cache.response_misses"])
    for layer in LAYERS:
        totals[f"{layer}.share"] = totals[f"{layer}.self_s"] / traced_wall
    totals["trace.wall_s"] = traced_wall
    totals["trace.overhead"] = overhead
    totals["trace.spans"] = sum(1 for span in tracer.spans if span["phase"] == "pass") / n_passes
    totals["trace.worker_spans"] = tracer.worker_spans / n_passes
    totals["env.calib_s"] = calib_s
    return totals


def svd_shapes(tracer: Tracer) -> dict[str, int]:
    """Realization SVD shapes of one traced pass set, ``"MxN" -> count``."""
    shapes: dict[str, int] = {}
    for span in tracer.spans:
        extra = span["extra"] or {}
        if span["kind"] == "svd" and span["phase"] == "pass" and extra.get("realize"):
            key = "x".join(str(v) for v in extra["shape"])
            shapes[key] = shapes.get(key, 0) + 1
    return dict(sorted(shapes.items()))


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0
