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


def segment_sum_reference(
    index: np.ndarray, weights: np.ndarray, num_segments: int
) -> np.ndarray:
    """Per-row ``np.bincount`` of (T, N) weights: the (T, S) segment sums
    ``SegmentOps.sum`` must reproduce bit for bit."""
    weights = np.asarray(weights)
    out = np.zeros((weights.shape[0], num_segments))
    for total, row in zip(out, weights):
        total[...] = np.bincount(index, weights=row, minlength=num_segments)
    return out


def segment_max_reference(
    index: np.ndarray,
    values: np.ndarray,
    num_segments: int,
    initial: float = 0.0,
    dtype=None,
) -> np.ndarray:
    """Per-row ``np.maximum.at`` of (T, N) values into a buffer filled with
    ``initial``: the (T, S) segment maxima ``SegmentOps.max`` replaces."""
    values = np.asarray(values)
    out = np.full(
        (values.shape[0], num_segments),
        initial,
        dtype=values.dtype if dtype is None else dtype,
    )
    with np.errstate(invalid="ignore"):
        for best, row in zip(out, values):
            np.maximum.at(best, index, row)
    return out


def segment_expand_reference(index: np.ndarray, per_segment: np.ndarray) -> np.ndarray:
    """``np.take`` of (T, S) per-segment values back to (T, N) elements."""
    return np.take(per_segment, index, axis=-1)


def path_max_reference(pathset, util: np.ndarray) -> np.ndarray:
    """(T, P) per-path maxima of (T, E) edge values by one ``np.maximum.at``
    over the incidence's COO pairs into zeros (the evaluator's former
    bottleneck scatter)."""
    coo = pathset.edge_path_incidence.tocoo()
    bottleneck = np.zeros((pathset.num_paths, util.shape[0]))
    np.maximum.at(bottleneck, coo.col, util.T[coo.row])
    return bottleneck.T
