"""Output checks: what makes a benchmark operation count as failed.

An operation (one scheme's allocation for one traffic matrix and
capacity state) fails if it raises, or if any check below flags it:

- its split ratios are non-finite or negative;
- a demand's ratios sum to more than 1;
- the evaluator's post-reconciliation edge loads exceed capacity;
- on inputs LP-all also solved, Teal delivers more than LP-all's
  ``lp_objective`` optimum.

Each tolerance covers rounding only: Teal infers in float32, and HiGHS
meets constraints to about 1e-7 of their scale.
"""

from __future__ import annotations

import numpy as np

#: Row-sum slack for float32 split ratios.
RATIO_TOL = 1e-5
#: Relative slack of capacity and LP-optimum comparisons.
REL_TOL = 1e-6


def ratio_problems(ratios: np.ndarray) -> np.ndarray:
    """(T,) bool: rows of a (T, D, k) stack with invalid split ratios."""
    ratios = np.asarray(ratios, dtype=float)
    finite = np.isfinite(ratios).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        negative = (ratios < 0.0).any(axis=(1, 2))
        oversum = (ratios.sum(axis=2) > 1.0 + RATIO_TOL).any(axis=1)
    return ~finite | negative | oversum


def overload_problems(edge_loads: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """(T,) bool: rows whose post-reconciliation loads exceed capacity."""
    caps = np.broadcast_to(capacities, edge_loads.shape)
    return (edge_loads > caps * (1.0 + REL_TOL) + REL_TOL).any(axis=1)


def above_optimum(teal_delivered: float, lp_objective: float) -> bool:
    """Whether Teal beats the LP-all optimum beyond solver tolerance."""
    return teal_delivered > lp_objective * (1.0 + REL_TOL) + REL_TOL


class Outcome:
    """Attempted/failed operation counts with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, attempted: int, failed: int = 0, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.errors) < 10:
            self.errors.append(f"{failed} failed: {reason}")

    def note(self, error: Exception) -> None:
        """Keep the text of an exception an operation raised."""
        if len(self.errors) < 10:
            self.errors.append(repr(error))

    def check(self, label: str, **masks: np.ndarray) -> None:
        """Record one operation per row; a row fails if any mask flags it.

        Every mask is a (T,) bool array over the same T operations, named
        after the check that produced it.
        """
        bad = np.zeros(len(next(iter(masks.values()))), dtype=bool)
        reasons = []
        for name, mask in masks.items():
            if mask.any():
                reasons.append(f"{name} x{int(np.count_nonzero(mask))}")
            bad |= mask
        self.add(int(bad.size), int(np.count_nonzero(bad)), f"{label}: {', '.join(reasons)}")
