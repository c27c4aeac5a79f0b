"""Optional PyTorch backend -- import-guarded, NumPy-spelling wrapper.

``torch``'s namespace is close to, but not exactly, NumPy's; the
:class:`_TorchNamespace` below maps the NumPy spellings the kernel
modules use (``empty(..., dtype=complex)``, ``transpose(a, axes)``,
``tensordot(..., axes=...)``, ``broadcast_to``, ``newaxis``) onto their
torch equivalents so kernels stay single-source.  Linear-algebra
adapters delegate to ``torch.linalg`` with NumPy calling conventions.

Arrays live wherever :func:`make_backend`'s ``device`` puts them
(``"cuda"`` when available, else CPU); kernels transfer only at
entry/exit.  Like CuPy, results follow the device's BLAS arithmetic and
are tolerance-band territory, not bitwise-pinned.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import ArrayBackend

__all__ = ["make_backend"]


class _TorchNamespace:
    """NumPy-spelling facade over ``torch`` for the kernel modules."""

    def __init__(self, torch, device):
        self._torch = torch
        self._device = device
        self.newaxis = None
        self.pi = np.pi

    def _dtype(self, dtype):
        if dtype is None:
            return None
        mapping = {
            complex: self._torch.complex128,
            float: self._torch.float64,
            np.dtype(np.complex128): self._torch.complex128,
            np.dtype(np.float64): self._torch.float64,
            np.dtype(np.complex64): self._torch.complex64,
            np.dtype(np.float32): self._torch.float32,
        }
        try:
            return mapping[dtype]
        except (KeyError, TypeError):
            return mapping[np.dtype(dtype)]

    def asarray(self, obj, dtype=None):
        return self._torch.as_tensor(obj, dtype=self._dtype(dtype), device=self._device)

    def empty(self, shape, dtype=None):
        return self._torch.empty(shape, dtype=self._dtype(dtype), device=self._device)

    def zeros(self, shape, dtype=None):
        return self._torch.zeros(shape, dtype=self._dtype(dtype), device=self._device)

    def ones(self, shape, dtype=None):
        return self._torch.ones(shape, dtype=self._dtype(dtype), device=self._device)

    def concatenate(self, tensors, axis=0):
        return self._torch.cat(tuple(tensors), dim=axis)

    def stack(self, tensors, axis=0):
        return self._torch.stack(tuple(tensors), dim=axis)

    def transpose(self, tensor, axes):
        return tensor.permute(*axes)

    def matmul(self, a, b):
        return self._torch.matmul(a, b)

    def tensordot(self, a, b, axes):
        if isinstance(axes, tuple):
            dims = ([axes[0]], [axes[1]]) if isinstance(axes[0], int) else axes
        else:
            dims = axes
        return self._torch.tensordot(a, b, dims=dims)

    def broadcast_to(self, tensor, shape):
        return self._torch.broadcast_to(tensor, shape)

    def abs(self, tensor):
        return self._torch.abs(tensor)

    def isfinite(self, tensor):
        return self._torch.isfinite(tensor)

    def conj(self, tensor):
        return self._torch.conj(tensor)


def make_backend(device=None) -> ArrayBackend:
    """Build the ``torch`` backend record.

    Parameters
    ----------
    device:
        Torch device for kernel arrays; defaults to ``"cuda"`` when
        available, else ``"cpu"``.

    Raises
    ------
    ImportError
        If ``torch`` is not installed; the registry turns this into a
        clear "backend unavailable" error.
    """
    import contextlib

    import torch

    if device is None:
        device = "cuda" if torch.cuda.is_available() else "cpu"
    xp = _TorchNamespace(torch, device)

    def _asarray(obj, dtype=None):
        return xp.asarray(obj, dtype=dtype)

    def _to_numpy(tensor):
        if isinstance(tensor, torch.Tensor):
            return tensor.detach().cpu().numpy()
        return np.asarray(tensor)

    def _lu_factor(a):
        lu, pivots = torch.linalg.lu_factor(a)
        return lu, pivots

    def _lu_solve(lu_and_piv, b):
        lu, pivots = lu_and_piv
        rhs = b if b.ndim >= 2 else b[:, None]
        solution = torch.linalg.lu_solve(lu, pivots, rhs)
        return solution if b.ndim >= 2 else solution[:, 0]

    def _irfft(a, n=None, axis=-1):
        return torch.fft.irfft(a, n=n, dim=axis)

    def _qr(a):
        q, r = torch.linalg.qr(a, mode="reduced")
        return q, r

    def _svd(a, full_matrices=True):
        return torch.linalg.svd(a, full_matrices=full_matrices)

    linalg_errors = (np.linalg.LinAlgError, torch.linalg.LinAlgError)

    return ArrayBackend(
        name="torch",
        xp=xp,
        asarray=_asarray,
        to_numpy=_to_numpy,
        solve=torch.linalg.solve,
        qr=_qr,
        eig=torch.linalg.eig,
        eigvals=torch.linalg.eigvals,
        svd=_svd,
        lu_factor=_lu_factor,
        lu_solve=_lu_solve,
        irfft=_irfft,
        errstate=lambda **kwargs: contextlib.nullcontext(),
        LinAlgError=linalg_errors,
    )
