"""Segment operators against the numpy primitives they replace.

``SegmentOps`` (CSR sums, element-order maximum folds, run-length
gathers) and the evaluator's per-path maximum fold must give the same
bytes as ``np.bincount``, ``np.maximum.at`` and ``np.take`` — including
the signs of zeros, infinities and NaNs — at every batch size and in
both precisions.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    path_max_reference,
    segment_expand_reference,
    segment_max_reference,
    segment_sum_reference,
)
from repro.core import AdmmFineTuner, SegmentOps
from repro.paths import PathSet
from repro.simulation import evaluator
from repro.topology import get_topology
from repro.traffic import TrafficTrace

_SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.5, 1e-30)


def _same_bytes(actual: np.ndarray, expected: np.ndarray) -> bool:
    return (
        actual.dtype == expected.dtype
        and actual.shape == expected.shape
        and actual.tobytes() == expected.tobytes()
    )


@st.composite
def _segment_cases(draw):
    """(index, num_segments, (T, N) values, initial, result dtype)."""
    num_segments = draw(st.integers(1, 6))
    index = np.array(
        draw(st.lists(st.integers(0, num_segments - 1), max_size=40)),
        dtype=np.int64,
    )
    if draw(st.booleans()):
        index = np.sort(index)
    batch = draw(st.sampled_from([0, 1, 3]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    values = st.one_of(
        st.sampled_from(_SPECIALS),
        st.floats(allow_nan=False, width=32),
    )
    size = batch * index.size
    data = np.array(
        draw(st.lists(values, min_size=size, max_size=size)), dtype=dtype
    ).reshape(batch, index.size)
    initial = draw(st.sampled_from([0.0, -0.0, -np.inf, 1.0]))
    out_dtype = draw(st.sampled_from([None, np.float64]))
    return index, num_segments, data, initial, out_dtype


# One 20-element segment of mixed zeros: the running maximum ends on the
# last zero, -0.0. A SIMD reduction (np.maximum.reduceat) returns +0.0.
_MIXED_ZEROS = np.array(
    [[-1, -0.0, -1, 0, -0.0, 0, -1, -0.0, -0.0, 0, 0]
     + [-0.0] * 6 + [-1, -1, -1]],
)


class TestSegmentOpsBytes:
    @given(_segment_cases())
    @example((np.zeros(20, dtype=np.int64), 1, _MIXED_ZEROS, -np.inf, None))
    @settings(max_examples=200, deadline=None)
    @np.errstate(over="ignore", invalid="ignore")  # inf - inf, float32 casts
    def test_sum_max_expand_match_numpy_primitives(self, case):
        index, num_segments, values, initial, out_dtype = case
        ops = SegmentOps(index, num_segments)

        assert _same_bytes(
            ops.sum(values), segment_sum_reference(index, values, num_segments)
        )
        stored = ops.sum(values, dtype=values.dtype)
        assert _same_bytes(
            stored,
            segment_sum_reference(index, values, num_segments).astype(values.dtype),
        )

        expected = segment_max_reference(
            index, values, num_segments, initial, out_dtype
        )
        assert _same_bytes(ops.max(values, initial, out_dtype), expected)

        per_segment = segment_max_reference(
            index, values, num_segments, initial
        )
        out = np.empty((values.shape[0], index.size), dtype=values.dtype)
        # Unwrapped: under REPRO_SANITIZE=1 the kernel wrapper rejects
        # the non-finite values this test feeds on purpose.
        expand_into = inspect.unwrap(SegmentOps.expand_into)
        assert expand_into(ops, per_segment, out) is out
        reference = segment_expand_reference(index, per_segment)
        assert _same_bytes(out, reference)
        assert _same_bytes(ops.expand(per_segment), reference)

    def test_stores_nothing_per_batch_size(self):
        ops = SegmentOps(np.array([0, 2, 2, 1]), 4)
        before = {k: id(v) for k, v in vars(ops).items()}
        for batch in (1, 5, 9):
            values = np.ones((batch, 4))
            ops.sum(values)
            ops.max(values)
            ops.expand(np.ones((batch, 4)))
        # Only the max fold's grid is added (once, batch-independent).
        assert set(vars(ops)) - set(before) == {"_fold"}
        assert ops.matrix.shape == (4, 4)

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            SegmentOps(np.array([0, 3]), 3)
        with pytest.raises(ValueError):
            SegmentOps(np.array([-1, 0]), 3)


# ----------------------------------------------------------------------
# ADMM and the evaluator with the reference primitives swapped in
# ----------------------------------------------------------------------
_REPORT_FIELDS = (
    "delivered_path_flows",
    "intended_path_flows",
    "edge_loads",
    "total_demand",
    "delivered_total",
    "satisfied_fraction",
    "max_link_utilization",
    "intended_mlu",
)


def _reference_sum(self, weights, dtype=None):
    out = segment_sum_reference(self.index, weights, self.num_segments)
    return out if dtype is None else out.astype(dtype)


def _reference_max(self, values, initial=0.0, dtype=None):
    return segment_max_reference(
        self.index, values, self.num_segments, initial, dtype
    )


def _reference_expand(self, per_segment):
    return segment_expand_reference(self.index, per_segment)


def _reference_expand_into(self, per_segment, out):
    np.take(per_segment, self.index, axis=-1, out=out)
    return out


@pytest.fixture(scope="module", params=["B4", "UsCarrier"])
def failure_case(request):
    """(pathset, (3, D, k) ratios, (3, D) demands, (3, E) capacities with
    one failed link)."""
    scale = {"B4": 1.0, "UsCarrier": 0.12}[request.param]
    topology = get_topology(request.param, scale=scale, seed=1)
    pathset = PathSet.from_topology(topology, max_pairs=60, seed=5)
    trace = TrafficTrace.generate(topology.num_nodes, 3, seed=11)
    demands = np.stack([pathset.demand_volumes(m.values) for m in trace])
    rng = np.random.default_rng(7)
    ratios = rng.random((3,) + pathset.path_mask.shape) * pathset.path_mask
    ratios /= ratios.sum(axis=-1, keepdims=True)
    capacities = np.repeat(topology.capacities[None, :], 3, axis=0)
    capacities[:, int(pathset.pair_edge[0])] = 0.0
    return pathset, ratios, demands, capacities


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("batch", [1, 3])
def test_admm_and_evaluator_match_reference_primitives(
    failure_case, precision, batch, monkeypatch
):
    pathset, ratios, demands, capacities = failure_case
    ratios, demands, capacities = (
        ratios[:batch], demands[:batch], capacities[:batch]
    )

    def run():
        tuner = AdmmFineTuner(pathset, precision=precision)
        tuned = tuner.fine_tune_batch(ratios, demands, capacities, iterations=6)
        report = evaluator.evaluate_allocations_batch(
            pathset, tuned, demands, capacities
        )
        return [tuned] + [getattr(report, name) for name in _REPORT_FIELDS]

    fast = run()
    monkeypatch.setattr(SegmentOps, "sum", _reference_sum)
    monkeypatch.setattr(SegmentOps, "max", _reference_max)
    monkeypatch.setattr(SegmentOps, "expand", _reference_expand)
    monkeypatch.setattr(SegmentOps, "expand_into", _reference_expand_into)
    monkeypatch.setattr(
        evaluator, "_path_max_utilization_batch", path_max_reference
    )
    reference = run()
    for actual, expected in zip(fast, reference):
        assert _same_bytes(np.asarray(actual), np.asarray(expected))
