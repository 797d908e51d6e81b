"""Oracle invariants of allocation quality and feasibility.

LP-all solves the full path-formulation LP exactly, so it is the oracle:
on identical (path set, capacities, demands) no scheme may deliver more
than its optimum, and the optimum cannot grow when more links fail.
Every evaluated allocation must also be feasible: split ratios in the
simplex box and post-drop loads within capacity.

Inputs are random small SWAN-like WANs with random demands (zeros
included) and *nested* failed-link sets of 0-3 physical links, so the
monotonicity check compares each failure level against its subset.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LpAll
from repro.core import TealScheme
from repro.paths import PathSet
from repro.simulation import evaluate_allocation
from repro.topology import physical_links, swan

#: Relative tolerance for comparisons against the LP optimum (HiGHS
#: solves to ~1e-9 relative; 1e-6 leaves room without hiding a bug).
RTOL = 1e-6
#: Absolute slack for all-zero-demand cases and capacity checks.
ATOL = 1e-9
MAX_FAILURES = 3


@st.composite
def _cases(draw):
    num_nodes = draw(st.integers(min_value=8, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 1.0]))
    topology = swan(num_nodes=num_nodes, seed=seed)
    pathset = PathSet.from_topology(topology, max_pairs=30, seed=seed)
    rng = np.random.default_rng(seed)
    demands = rng.uniform(0.0, 80.0, size=pathset.num_demands)
    demands[rng.random(pathset.num_demands) < zero_frac] = 0.0
    links = physical_links(topology)
    order = rng.permutation(len(links))[:MAX_FAILURES]
    failed_links = [links[int(i)] for i in order]
    return pathset, demands, failed_links


def _capacities(pathset: PathSet, failed_links) -> np.ndarray:
    topology = pathset.topology
    capacities = topology.capacities.copy()
    for u, v in failed_links:
        for a, b in ((u, v), (v, u)):
            if topology.has_edge(a, b):
                capacities[topology.edge_id(a, b)] = 0.0
    return capacities


def _assert_feasible(pathset: PathSet, ratios, demands, capacities) -> float:
    """Ratio box/row-sum and post-drop capacity checks; returns delivery."""
    assert np.all(ratios >= 0.0)
    assert np.all(ratios.sum(axis=-1) <= 1.0 + RTOL)
    report = evaluate_allocation(pathset, ratios, demands, capacities)
    assert np.all(report.edge_loads <= capacities * (1.0 + RTOL) + ATOL)
    return report.delivered_total


@settings(max_examples=20, deadline=None)
@given(_cases())
def test_lp_all_is_an_upper_bound_and_allocations_are_feasible(case):
    pathset, demands, failed_links = case
    lp_all = LpAll()
    teal = TealScheme(pathset, seed=0)
    assert teal.use_admm
    previous_optimum = None
    for level in range(len(failed_links) + 1):
        capacities = _capacities(pathset, failed_links[:level])

        lp = lp_all.allocate(pathset, demands, capacities)
        optimum = lp.extras["lp_objective"]
        lp_delivered = _assert_feasible(
            pathset, lp.split_ratios, demands, capacities
        )
        assert np.isclose(lp_delivered, optimum, rtol=RTOL, atol=ATOL)
        if previous_optimum is not None:
            # The failed set only grows, so the feasible region shrinks.
            assert optimum <= previous_optimum * (1.0 + RTOL) + ATOL
        previous_optimum = optimum

        allocation = teal.allocate(pathset, demands, capacities)
        teal_delivered = _assert_feasible(
            pathset, allocation.split_ratios, demands, capacities
        )
        assert teal_delivered <= optimum * (1.0 + RTOL) + ATOL
