"""Environment stamp and calibration kernel of the end-to-end benchmark."""

from __future__ import annotations

import os
import platform
import time

#: Thread-count variables the benchmark pins to 1 before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` files; ``"unknown"`` outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    """BLAS vendor and version numpy was built against."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy without the dict-mode config
        return {"name": "unknown", "version": "unknown"}


def environment(root: str, *, executor: str, workers: int, seed: int) -> dict:
    """Everything a result depends on besides the code under test."""
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "executor": executor,
        "workers": workers,
        "seed": seed,
        "git_commit": git_commit(root),
    }


def calibrate(size: int = 384, repeats: int = 3) -> float:
    """Best-of-``repeats`` time of a fixed GEMM + SVD: the machine's current speed."""
    import numpy as np

    matrix = np.random.default_rng(0).standard_normal((size, size))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.linalg.svd(matrix @ matrix)
        times.append(time.perf_counter() - start)
    return min(times)
