"""The :class:`ArrayBackend` adapter record every backend module fills in.

The array-API standard covers the bulk of what the kernel modules need
(elementwise ops, ``matmul``, ``reshape``, broadcasting), so a backend is
mostly just its array namespace (``xp``).  Where the standard has gaps --
``qr``, ``eig``, ``svd``, LU solves, ``fft.irfft`` -- each backend supplies
an explicit adapter with NumPy's calling convention, so kernel code is
written once against this record and runs unchanged on every backend.

Two contracts matter for reproducibility:

* For the ``numpy`` backend every adapter **is** the corresponding
  ``numpy.linalg`` / ``numpy.fft`` / ``scipy.linalg`` callable and
  ``asarray`` / ``to_numpy`` are the identity on ndarrays, so a kernel
  threaded through the shim executes the exact same call sequence as the
  pre-shim code -- bitwise identical results, fingerprints and goldens.
* Device transfer happens only through :meth:`ArrayBackend.asarray` (host
  to device, at kernel entry) and :meth:`ArrayBackend.to_numpy` (device to
  host, at kernel exit); kernels never move data mid-computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["ArrayBackend"]


@dataclass(frozen=True)
class ArrayBackend:
    """One pluggable array backend: a namespace plus NumPy-convention adapters.

    Attributes
    ----------
    name:
        Registry name (``"numpy"``, ``"cupy"``, ``"torch"``).
    xp:
        The array namespace kernels compute in (``numpy``, ``cupy``, or a
        thin wrapper mapping NumPy spellings onto ``torch``).  For the
        ``numpy`` backend this *is* the ``numpy`` module.
    asarray:
        Host (or device) data to a device array of this backend.  Identity
        on ndarrays for ``numpy``.
    to_numpy:
        Device array back to a host :class:`numpy.ndarray`.  Identity on
        ndarrays for ``numpy``.
    solve, qr, eig, eigvals, svd:
        ``numpy.linalg``-convention adapters (``qr`` returns the reduced
        ``(q, r)``; ``svd`` the thin ``(u, s, vh)``).
    lu_factor, lu_solve:
        ``scipy.linalg`` LU convention (``lu_solve((lu, piv), b)``).
    irfft:
        ``numpy.fft.irfft`` convention (``n`` and ``axis`` keywords).
    errstate:
        Context manager with :func:`numpy.errstate` semantics (a no-op on
        backends without floating-point error state control).
    LinAlgError:
        Tuple of exception types the backend's factorizations raise on
        singular/ill-posed inputs (always includes
        :class:`numpy.linalg.LinAlgError`).
    """

    name: str
    xp: Any
    asarray: Callable[..., Any]
    to_numpy: Callable[[Any], Any]
    solve: Callable[..., Any]
    qr: Callable[..., Any]
    eig: Callable[..., Any]
    eigvals: Callable[..., Any]
    svd: Callable[..., Any]
    lu_factor: Callable[..., Any]
    lu_solve: Callable[..., Any]
    irfft: Callable[..., Any]
    errstate: Callable[..., Any]
    LinAlgError: tuple = field(default_factory=tuple)

    @property
    def is_numpy(self) -> bool:
        """Whether this is the bitwise-pinned host backend."""
        return self.name == "numpy"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayBackend({self.name!r})"
