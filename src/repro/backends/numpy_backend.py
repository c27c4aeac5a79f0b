"""The always-available host backend: literal NumPy/SciPy delegation.

Every adapter here *is* the corresponding ``numpy.linalg`` /
``numpy.fft`` / ``scipy.linalg`` callable (or a trivial keyword-fixing
lambda over it), ``xp`` is the ``numpy`` module itself, and
``asarray`` / ``to_numpy`` are identity on ndarrays.  A kernel threaded
through this backend therefore executes the exact same NumPy call
sequence as the pre-shim code -- bitwise-identical outputs, so golden
fixtures, cache fingerprints, and shard merges are unaffected by the
shim.  The property suite in ``tests/test_backends.py`` pins this.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.backends.base import ArrayBackend

__all__ = ["make_backend"]


def make_backend() -> ArrayBackend:
    """Build the ``numpy`` backend record (importable unconditionally)."""
    return ArrayBackend(
        name="numpy",
        xp=np,
        asarray=np.asarray,
        to_numpy=np.asarray,
        solve=np.linalg.solve,
        qr=np.linalg.qr,
        eig=np.linalg.eig,
        eigvals=np.linalg.eigvals,
        svd=np.linalg.svd,
        lu_factor=scipy.linalg.lu_factor,
        lu_solve=scipy.linalg.lu_solve,
        irfft=np.fft.irfft,
        errstate=np.errstate,
        LinAlgError=(np.linalg.LinAlgError,),
    )
