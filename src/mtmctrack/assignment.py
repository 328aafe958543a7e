"""Linear assignment and thresholded greedy association.

Both solvers consume rectangular distance matrices where ``inf`` marks a
forbidden pairing; a NaN entry is an error, not a forbidden pairing. The
Hungarian path returns a minimum-cost matching of maximal feasible size; the
greedy path accepts globally cheapest pairs until the threshold is crossed.
Where no row and no column has more than one feasible entry, that matching
is the feasible entries themselves, and the Hungarian path returns them
without calling the solver: most per-frame matrices of tracking and
evaluation look like this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import FORBIDDEN


@dataclass
class AssignmentResult:
    matched_pairs: list[tuple[int, int]]
    unmatched_rows: list[int]
    unmatched_cols: list[int]


def hungarian(matrix: np.ndarray) -> AssignmentResult:
    """Minimum-total-cost matching of maximal feasible size.

    Forbidden entries are never matched; rows and columns that end up
    without a feasible partner land in the unmatched lists. The result is
    a deterministic function of the input. Raises ValueError when the
    feasible costs sum so high that adding 1 is lost (possible from 2**53).
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
    if np.isnan(m).any():
        raise ValueError("distance matrix contains NaN")
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return AssignmentResult([], list(range(rows)), list(range(cols)))

    feasible = np.isfinite(m)
    if not feasible.any():
        return AssignmentResult([], list(range(rows)), list(range(cols)))
    costs = m[feasible]
    if costs.min() < 0.0:
        raise ValueError("distance matrix entries must be non-negative")

    # Surrogate cost for forbidden entries: strictly larger than the sum of
    # all feasible entries, so the solver first maximizes the number of
    # feasible pairs and only then minimizes their cost.
    total = float(costs.sum())
    surrogate = total + 1.0
    if not surrogate > total:  # also catches an overflow to inf
        raise ValueError(
            f"feasible costs sum to {total!r}; forbidden entries need that sum "
            "plus 1 to be finite and larger, which holds below 2**53"
        )
    row_idx, col_idx = np.nonzero(feasible)
    feasible_rows, feasible_cols = row_idx.tolist(), col_idx.tolist()
    if len(set(feasible_rows)) == len(feasible_rows) == len(set(feasible_cols)):
        # No row and no column has a choice: the feasible entries are the
        # only maximal matching, already in row-major order.
        pairs = list(zip(feasible_rows, feasible_cols))
    else:
        cost = np.where(feasible, m, surrogate)
        row_idx, col_idx = linear_sum_assignment(cost)
        pairs = [(int(r), int(c)) for r, c in zip(row_idx, col_idx) if feasible[r, c]]
        pairs.sort()
    matched_r = {r for r, _ in pairs}
    matched_c = {c for _, c in pairs}
    return AssignmentResult(
        matched_pairs=pairs,
        unmatched_rows=[r for r in range(rows) if r not in matched_r],
        unmatched_cols=[c for c in range(cols) if c not in matched_c],
    )


def greedy_associate(matrix: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    """Accept globally cheapest pairs until the minimum exceeds the threshold.

    Each accepted pair retires its row and column. Ties break to the
    lexicographically smallest (row, col). Returns pairs in acceptance
    order, so accepted costs are non-decreasing.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    m = np.array(matrix, dtype=np.float64, copy=True)
    if m.ndim != 2 or m.size == 0:
        return []
    if np.isnan(m).any():
        raise ValueError("distance matrix contains NaN")
    accepted: list[tuple[int, int]] = []
    while True:
        flat = int(np.argmin(m))  # first occurrence = lexicographic tie-break
        r, c = divmod(flat, m.shape[1])
        value = m[r, c]
        if not np.isfinite(value) or value > threshold:
            return accepted
        accepted.append((r, c))
        m[r, :] = FORBIDDEN
        m[:, c] = FORBIDDEN
