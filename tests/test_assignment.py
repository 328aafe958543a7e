import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mtmctrack.assignment import AssignmentResult, greedy_associate, hungarian
from mtmctrack.core import FORBIDDEN


@st.composite
def costs_and_nan_cell(draw, cost, max_side):
    """A cost matrix of drawn shape and entries with a drawn set of
    forbidden cells, and the (row, column) of a cell to overwrite with NaN."""
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    cells = st.lists(cost, min_size=rows * cols, max_size=rows * cols)
    m = np.array(draw(cells), dtype=float).reshape(rows, cols)
    mask = st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols)
    m[np.array(draw(mask)).reshape(rows, cols)] = FORBIDDEN
    return m, (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)))


def brute_force_min_cost(matrix):
    """Exhaustive minimum over all maximal feasible matchings; forbidden
    entries are excluded, larger matchings beat cheaper smaller ones."""
    m = np.asarray(matrix, dtype=float)
    rows, cols = m.shape
    best_cost = None
    best_size = -1
    if rows <= cols:
        for perm in itertools.permutations(range(cols), rows):
            cost = 0.0
            size = 0
            for r, c in enumerate(perm):
                if np.isfinite(m[r, c]):
                    cost += m[r, c]
                    size += 1
            if size > best_size or (size == best_size and cost < best_cost):
                best_size, best_cost = size, cost
    else:
        for perm in itertools.permutations(range(rows), cols):
            cost = 0.0
            size = 0
            for c, r in enumerate(perm):
                if np.isfinite(m[r, c]):
                    cost += m[r, c]
                    size += 1
            if size > best_size or (size == best_size and cost < best_cost):
                best_size, best_cost = size, cost
    return best_cost, best_size


@st.composite
def one_to_one_matrices(draw):
    """A rows x cols matrix whose feasible entries share no row and no
    column; the other rows and columns are all forbidden."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    k = draw(st.integers(0, min(rows, cols)))
    picked_rows = draw(st.permutations(range(rows)))[:k]
    picked_cols = draw(st.permutations(range(cols)))[:k]
    m = np.full((rows, cols), FORBIDDEN)
    for r, c in zip(picked_rows, picked_cols):
        # Whole numbers, so that sums in any order are exact.
        m[r, c] = float(draw(st.integers(0, 10**6)))
    return m


def solver_reference(m):
    """The solver path written out: scipy on the matrix with every forbidden
    entry replaced by the feasible sum plus 1."""
    rows, cols = m.shape
    feasible = np.isfinite(m)
    pairs = []
    if feasible.any():
        cost = np.where(feasible, m, m[feasible].sum() + 1.0)
        pairs = sorted(
            (int(r), int(c)) for r, c in zip(*linear_sum_assignment(cost)) if feasible[r, c]
        )
    return AssignmentResult(
        matched_pairs=pairs,
        unmatched_rows=[r for r in range(rows) if r not in {r for r, _ in pairs}],
        unmatched_cols=[c for c in range(cols) if c not in {c for _, c in pairs}],
    )


class TestHungarian:
    def test_two_by_two_zeros_lexicographic(self):
        result = hungarian(np.zeros((2, 2)))
        assert result.matched_pairs == [(0, 0), (1, 1)]
        assert result.unmatched_rows == [] and result.unmatched_cols == []

    def test_simple_two_by_two(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        result = hungarian(m)
        assert result.matched_pairs == [(0, 0), (1, 1)]
        assert sum(m[r, c] for r, c in result.matched_pairs) == 2.0

    def test_forbidden_entries_never_matched(self):
        m = np.array([[1.0, FORBIDDEN], [FORBIDDEN, FORBIDDEN]])
        result = hungarian(m)
        assert result.matched_pairs == [(0, 0)]
        assert result.unmatched_rows == [1]
        assert result.unmatched_cols == [1]

    def test_empty_matrix(self):
        result = hungarian(np.zeros((0, 3)))
        assert result.matched_pairs == []
        assert result.unmatched_cols == [0, 1, 2]

    def test_all_forbidden(self):
        result = hungarian(np.full((2, 2), FORBIDDEN))
        assert result.matched_pairs == []
        assert result.unmatched_rows == [0, 1]

    def test_rectangular(self):
        m = np.array([[5.0, 1.0, 9.0]])
        result = hungarian(m)
        assert result.matched_pairs == [(0, 1)]
        assert result.unmatched_cols == [0, 2]

    def test_prefers_more_matches_over_cheaper_few(self):
        # Matching both rows costs 100 + 100; matching only row 0 would cost
        # 1 but leaves feasible pairs on the table.
        m = np.array([[1.0, 100.0], [FORBIDDEN, 100.0]])
        result = hungarian(m)
        assert result.matched_pairs == [(0, 0), (1, 1)]

    def test_matches_brute_force_on_random_integer_matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            m = rng.integers(0, 20, size=(n, n)).astype(float)
            result = hungarian(m)
            total = sum(m[r, c] for r, c in result.matched_pairs)
            oracle, _ = brute_force_min_cost(m)
            assert total == oracle

    def test_matches_brute_force_with_forbidden_entries(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            m = rng.integers(0, 20, size=(n, n)).astype(float)
            m[rng.random(size=(n, n)) < 0.3] = FORBIDDEN
            result = hungarian(m)
            total = sum(m[r, c] for r, c in result.matched_pairs)
            oracle_cost, oracle_size = brute_force_min_cost(m)
            assert len(result.matched_pairs) == oracle_size
            assert total == oracle_cost

    def test_matches_brute_force_on_rectangular_matrices(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            m = rng.integers(0, 20, size=(rows, cols)).astype(float)
            m[rng.random(size=(rows, cols)) < 0.25] = FORBIDDEN
            result = hungarian(m)
            total = sum(m[r, c] for r, c in result.matched_pairs)
            oracle_cost, oracle_size = brute_force_min_cost(m)
            assert len(result.matched_pairs) == oracle_size
            assert total == oracle_cost

    def test_invariant_to_appending_forbidden_row_and_col(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = rng.uniform(0, 10, size=(n, n))
            base = hungarian(m).matched_pairs
            extra_row = np.vstack([m, np.full((1, n), FORBIDDEN)])
            assert hungarian(extra_row).matched_pairs == base
            extra_col = np.hstack([m, np.full((n, 1), FORBIDDEN)])
            assert hungarian(extra_col).matched_pairs == base

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[-1.0, 0.0], [0.0, 1.0]]))

    def test_rejects_nan(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="NaN"):
            hungarian(np.array([[nan, 1.0], [2.0, nan]]))
        with pytest.raises(ValueError, match="NaN"):
            hungarian(np.array([[FORBIDDEN, nan]]))

    @pytest.mark.parametrize(
        "matrix",
        [
            # The feasible sum overflows to inf.
            [[1e308, FORBIDDEN], [1e308, FORBIDDEN]],
            # The feasible sum is 2**54, where adding 1 is lost, although
            # the two-pair matching (0, 1), (1, 0) is feasible.
            [[0.0, 2.0**53], [2.0**53, FORBIDDEN]],
        ],
        ids=["sum_overflows", "plus_one_lost"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_rejects_costs_it_cannot_rank(self, matrix):
        with pytest.raises(ValueError, match=r"2\*\*53"):
            hungarian(np.array(matrix))

    @settings(max_examples=300, deadline=None)
    @given(one_to_one_matrices())
    def test_no_choice_matrix_matches_solver_and_brute_force(self, m):
        result = hungarian(m)
        assert result == solver_reference(m)
        oracle_cost, oracle_size = brute_force_min_cost(m)
        assert len(result.matched_pairs) == oracle_size
        assert sum(m[r, c] for r, c in result.matched_pairs) == oracle_cost
        feasible_rows, feasible_cols = np.nonzero(np.isfinite(m))
        assert result.matched_pairs == list(zip(feasible_rows.tolist(), feasible_cols.tolist()))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[np.nan, FORBIDDEN], [FORBIDDEN, 1.0]], "NaN"),
            ([[FORBIDDEN, -1.0], [2.0, FORBIDDEN]], "non-negative"),
            # 2**53 + 1 rounds back to 2**53.
            ([[2.0**53]], r"2\*\*53"),
        ],
        ids=["nan", "negative", "plus_one_lost"],
    )
    def test_no_choice_matrix_still_checked(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            hungarian(np.array(matrix))

    # Integer costs, so the oracle's sum and the solver's are exact.
    @settings(max_examples=100, deadline=None)
    @given(drawn=costs_and_nan_cell(st.integers(0, 19).map(float), max_side=5))
    def test_nan_rejected_wherever_it_sits_and_inf_still_forbidden(self, drawn):
        m, nan_cell = drawn
        result = hungarian(m)
        oracle_cost, oracle_size = brute_force_min_cost(m)
        assert len(result.matched_pairs) == oracle_size
        assert sum(m[r, c] for r, c in result.matched_pairs) == oracle_cost
        m[nan_cell] = np.nan
        with pytest.raises(ValueError):
            hungarian(m)


class TestGreedyAssociate:
    def test_all_above_threshold_is_empty(self):
        m = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert greedy_associate(m, 3.0) == []

    def test_two_picks_in_order(self):
        m = np.array([[1.0, 5.0], [5.0, 2.0]])
        assert greedy_associate(m, 3.0) == [(0, 0), (1, 1)]

    def test_blocked_second_pick(self):
        m = np.array([[1.0, 2.0], [2.0, 9.0]])
        assert greedy_associate(m, 3.0) == [(0, 0)]

    def test_threshold_boundary_inclusive(self):
        m = np.array([[3.0]])
        assert greedy_associate(m, 3.0) == [(0, 0)]
        assert greedy_associate(np.array([[3.0001]]), 3.0) == []

    def test_never_exceeds_threshold_and_nondecreasing(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            m = rng.uniform(0, 10, size=(6, 5))
            picks = greedy_associate(m, 4.0)
            costs = [m[r, c] for r, c in picks]
            assert all(c <= 4.0 for c in costs)
            assert costs == sorted(costs)
            rows = [r for r, _ in picks]
            cols = [c for _, c in picks]
            assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)

    def test_lexicographic_tie_break(self):
        m = np.array([[2.0, 2.0], [2.0, 2.0]])
        assert greedy_associate(m, 5.0) == [(0, 0), (1, 1)]

    def test_invariant_to_appending_forbidden_row(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            m = rng.uniform(0, 10, size=(4, 4))
            base = greedy_associate(m, 5.0)
            extended = np.vstack([m, np.full((1, 4), FORBIDDEN)])
            assert greedy_associate(extended, 5.0) == base

    def test_empty_matrix(self):
        assert greedy_associate(np.zeros((0, 0)), 1.0) == []

    def test_forbidden_only_matrix(self):
        assert greedy_associate(np.full((3, 3), FORBIDDEN), 1.0) == []

    def test_rejects_nan(self):
        # A NaN is where argmin lands, so it used to end the loop and drop
        # the cheaper pair (1, 1).
        m = np.array([[np.nan, 5.0], [5.0, 1.0]])
        with pytest.raises(ValueError, match="NaN"):
            greedy_associate(m, 3.0)

    @settings(max_examples=100, deadline=None)
    @given(drawn=costs_and_nan_cell(st.floats(0.0, 10.0), max_side=6))
    def test_nan_rejected_wherever_it_sits_and_inf_still_forbidden(self, drawn):
        m, nan_cell = drawn
        picks = greedy_associate(m, 6.0)
        assert all(np.isfinite(m[r, c]) and m[r, c] <= 6.0 for r, c in picks)
        m[nan_cell] = np.nan
        with pytest.raises(ValueError):
            greedy_associate(m, 6.0)
