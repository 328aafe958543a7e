import itertools

import numpy as np
import pytest

from mtmctrack.assignment import greedy_associate, hungarian
from mtmctrack.core import FORBIDDEN


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

    def test_nan_rejected_wherever_it_sits_and_inf_still_forbidden(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            rows, cols = (int(v) for v in rng.integers(1, 6, size=2))
            m = rng.integers(0, 20, size=(rows, cols)).astype(float)
            m[rng.random(size=(rows, cols)) < 0.3] = FORBIDDEN
            result = hungarian(m)
            oracle_cost, oracle_size = brute_force_min_cost(m)
            assert len(result.matched_pairs) == oracle_size
            assert sum(m[r, c] for r, c in result.matched_pairs) == oracle_cost
            m[rng.integers(0, rows), rng.integers(0, cols)] = np.nan
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

    def test_nan_rejected_wherever_it_sits_and_inf_still_forbidden(self):
        rng = np.random.default_rng(38)
        for _ in range(100):
            m = rng.uniform(0, 10, size=(4, 5))
            m[rng.random(size=(4, 5)) < 0.3] = FORBIDDEN
            picks = greedy_associate(m, 6.0)
            assert all(np.isfinite(m[r, c]) and m[r, c] <= 6.0 for r, c in picks)
            m[rng.integers(0, 4), rng.integers(0, 5)] = np.nan
            with pytest.raises(ValueError):
                greedy_associate(m, 6.0)
