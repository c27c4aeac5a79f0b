"""Optional CuPy (CUDA) backend -- import-guarded, NumPy-compatible.

CuPy mirrors the NumPy namespace closely, so ``xp`` is the ``cupy``
module itself and most adapters delegate straight to ``cupy.linalg`` /
``cupy.fft`` / ``cupyx.scipy.linalg``.  Gaps in CuPy's LAPACK coverage
(general non-symmetric ``eig``/``eigvals``) round-trip through the host:
correctness-preserving, but those entry points stay host-speed.  Kernels
confine transfers to entry (``asarray``) and exit (``to_numpy``), so
chained device ops never bounce through host memory.

Results follow cuSOLVER/cuBLAS arithmetic, not the host LAPACK: they are
*not* bitwise-pinned and are only appropriate where the existing
tolerance-band gates apply (see README "Backends").
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import ArrayBackend

__all__ = ["make_backend"]


def make_backend() -> ArrayBackend:
    """Build the ``cupy`` backend record.

    Raises
    ------
    ImportError
        If ``cupy`` (or ``cupyx.scipy.linalg``) is not installed; the
        registry turns this into a clear "backend unavailable" error.
    """
    import contextlib

    import cupy
    import cupyx.scipy.linalg as cupyx_linalg

    def _eig(a):
        # cuSOLVER has no general non-symmetric eig; round-trip via host.
        w, v = np.linalg.eig(cupy.asnumpy(a))
        return cupy.asarray(w), cupy.asarray(v)

    def _eigvals(a):
        return cupy.asarray(np.linalg.eigvals(cupy.asnumpy(a)))

    return ArrayBackend(
        name="cupy",
        xp=cupy,
        asarray=cupy.asarray,
        to_numpy=cupy.asnumpy,
        solve=cupy.linalg.solve,
        qr=cupy.linalg.qr,
        eig=_eig,
        eigvals=_eigvals,
        svd=cupy.linalg.svd,
        lu_factor=cupyx_linalg.lu_factor,
        lu_solve=cupyx_linalg.lu_solve,
        irfft=cupy.fft.irfft,
        errstate=lambda **kwargs: contextlib.nullcontext(),
        LinAlgError=(np.linalg.LinAlgError,),
    )
