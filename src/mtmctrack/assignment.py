"""Linear assignment and thresholded greedy association.

Both solvers consume rectangular distance matrices where ``inf`` marks a
forbidden pairing; a NaN entry is an error, not a forbidden pairing. The
Hungarian path returns a minimum-cost matching of maximal feasible size; the
greedy path accepts globally cheapest pairs until the threshold is crossed.
Where no row and no column has more than one feasible entry, that matching
is the feasible entries themselves, and the Hungarian path returns them
without calling the solver: most per-frame matrices of tracking look like
this. The CLEAR evaluation finds its (camera, frame) keys of this shape
from its join and takes their pairs without sending them here.

The solver is the shortest augmenting path algorithm of Crouse, "On
implementing 2D rectangular assignment algorithms" (IEEE Trans. Aerospace
and Electronic Systems 52(4), 2016), ported step for step from SciPy's
``linear_sum_assignment``, so it picks the same matching among equal-cost
ones. A tall matrix is solved transposed. Each row's search scans the
columns not yet on its path, which start in reverse order, so a constant
matrix gives the identity matching; the column of lowest path cost is
taken next, the first in scan order on a tie, unless a later tied column
is unassigned, which ends the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FORBIDDEN


@dataclass
class AssignmentResult:
    matched_pairs: list[tuple[int, int]]
    unmatched_cols: list[int]


def hungarian(matrix: np.ndarray) -> AssignmentResult:
    """Minimum-total-cost matching of maximal feasible size.

    Forbidden entries are never matched; columns that end up without a
    feasible partner land in ``unmatched_cols`` (a tracker starts a new
    tracklet from each such detection). The result is
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
        return AssignmentResult([], list(range(cols)))

    feasible = np.isfinite(m)
    if not feasible.any():
        return AssignmentResult([], list(range(cols)))
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
        pairs = sorted(
            (r, c)
            for r, c in _shortest_augmenting_path(np.where(feasible, m, surrogate).tolist())
            if feasible[r, c]
        )
    matched_c = {c for _, c in pairs}
    return AssignmentResult(
        matched_pairs=pairs,
        unmatched_cols=[c for c in range(cols) if c not in matched_c],
    )


def _shortest_augmenting_path(cost: list[list[float]]) -> list[tuple[int, int]]:
    """The (row, column) pairs of a minimum-cost matching of a finite cost
    matrix that assigns every row of a wide matrix, or every column of a
    tall one, as SciPy's ``linear_sum_assignment`` finds it (see the module
    docstring). Path costs and duals take the same IEEE operations in the
    same order as SciPy's, so ties resolve the same way."""
    transpose = len(cost[0]) < len(cost)
    if transpose:
        cost = [list(column) for column in zip(*cost)]
    nr, nc = len(cost), len(cost[0])
    u = [0.0] * nr
    v = [0.0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    path = [-1] * nc
    for cur_row in range(nr):
        shortest = [math.inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        visited_rows = []
        visited_cols = []
        min_val = 0.0
        i = cur_row
        while True:
            visited_rows.append(i)
            row, u_i = cost[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                # On a tie an unassigned column wins: it ends the path.
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            j = remaining[index]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
        # Update the duals of the rows and columns the search visited.
        u[cur_row] += min_val
        for i in visited_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]
        # Augment along the path back from the sink column ``j``.
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        return [(c, r) for r, c in enumerate(col4row)]
    return list(enumerate(col4row))


def greedy_associate(matrix: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    """Accept globally cheapest pairs until the minimum exceeds the threshold.

    Each accepted pair retires its row and column. Ties break to the
    lexicographically smallest (row, col). Returns pairs in acceptance
    order, so accepted costs are non-decreasing.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    m = np.array(matrix, dtype=np.float64, copy=True)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
    if m.size == 0:
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
