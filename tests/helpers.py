"""Shared test helpers (importable from every test module).

Kept outside conftest.py so plain ``from helpers import ...`` works under
pytest's rootdir-based sys.path handling without making ``tests/`` a
package.
"""

from __future__ import annotations

import numpy as np


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        fp = f()
        x[idx] = original - eps
        fm = f()
        x[idx] = original
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


def scatter_add_reference(
    indices: np.ndarray, grad: np.ndarray, num_rows: int, dtype
) -> np.ndarray:
    """Backward of a row gather by ``np.add.at`` into a zero buffer.

    ``grad`` is (..., *indices.shape, F); -1 indices mark padding slots,
    which receive nothing. Returns the (..., num_rows, F) gradient in
    ``dtype``, accumulated in the same order as the scatter-add the gather
    plans replace.
    """
    indices = np.asarray(indices)
    flat = indices.reshape(-1)
    keep = flat >= 0
    features = grad.shape[-1]
    lead = grad.shape[: grad.ndim - indices.ndim - 1]
    acc = np.zeros(lead + (num_rows, features), dtype=dtype)
    grad = grad.reshape(lead + (flat.size, features))
    if not lead:
        np.add.at(acc, flat[keep], grad[keep])
        return acc
    count = int(np.prod(lead))
    np.add.at(
        acc.reshape(count, num_rows, features),
        (np.arange(count)[:, None], flat[keep][None, :]),
        grad.reshape(count, flat.size, features)[:, keep],
    )
    return acc
