import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtmctrack.core import (
    BBox,
    PoseKeypoints,
    TrackerConfig,
    center_distance,
    euclidean_distance,
    iou,
    squared_distance,
)


class TestEuclideanDistance:
    def test_identity_is_zero(self):
        v = np.arange(128, dtype=float)
        assert euclidean_distance(v, v) == 0.0

    def test_three_four_five(self):
        a = np.zeros(128)
        a[0], a[1] = 3.0, 4.0
        assert euclidean_distance(a, np.zeros(128)) == pytest.approx(5.0)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=128)
        b = rng.normal(size=128)
        naive = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        assert euclidean_distance(a, b) == pytest.approx(naive, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=16), rng.normal(size=16)
        assert euclidean_distance(a, b) == euclidean_distance(b, a)

    @given(
        length=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-200, 1e-3, 1.0, 1e6, 1e150]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_linalg_norm(self, length, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=length) * scale
        b = rng.normal(size=length) * scale
        assert euclidean_distance(a, b) == float(np.linalg.norm(a - b))
        assert math.sqrt(squared_distance(a, b)) == float(np.linalg.norm(a - b))

    def test_matrix_inputs_compare_elementwise(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        assert euclidean_distance(a, b) == float(np.linalg.norm(a - b))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            euclidean_distance(np.zeros(4), np.zeros(5))

    @given(
        st.lists(st.floats(-100, 100), min_size=8, max_size=8),
        st.lists(st.floats(-100, 100), min_size=8, max_size=8),
        st.lists(st.floats(-100, 100), min_size=8, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        a, b, c = np.array(a), np.array(b), np.array(c)
        assert euclidean_distance(a, c) <= (
            euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-9
        )


class TestIoU:
    def test_identical_boxes(self):
        b = BBox(3, 4, 10, 20)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 10, 10), BBox(100, 100, 5, 5)) == 0.0

    def test_half_horizontal_overlap(self):
        # Intersection 5x10 = 50, union 100 + 100 - 50 = 150.
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(50 / 150)

    def test_symmetric_and_translation_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = BBox(*rng.uniform(1, 50, 2), *rng.uniform(5, 30, 2))
            b = BBox(*rng.uniform(1, 50, 2), *rng.uniform(5, 30, 2))
            assert iou(a, b) == pytest.approx(iou(b, a))
            dx, dy = rng.uniform(-100, 100, 2)
            a2 = BBox(a.x + dx, a.y + dy, a.w, a.h)
            b2 = BBox(b.x + dx, b.y + dy, b.w, b.h)
            assert iou(a2, b2) == pytest.approx(iou(a, b), abs=1e-12)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = BBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 40, 2))
            b = BBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 40, 2))
            assert 0.0 <= iou(a, b) <= 1.0


class TestTypes:
    def test_bbox_rejects_empty_extent(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BBox(0, 0, 10, -1)

    def test_bbox_center(self):
        assert BBox(10, 20, 100, 200).center == (60.0, 120.0)

    def test_center_distance(self):
        assert center_distance(BBox(0, 0, 10, 10), BBox(30, 40, 10, 10)) == 50.0

    def test_pose_requires_17_points(self):
        with pytest.raises(ValueError):
            PoseKeypoints(np.zeros((16, 3)))
        pose = PoseKeypoints(np.zeros((17, 3)))
        assert pose.xyc.shape == (17, 3)

    def test_config_defaults(self):
        cfg = TrackerConfig()
        assert cfg.gamma_valid == 0.3
        assert cfg.theta_valid == 7
        assert cfg.mu_m == 10
        assert cfg.mu_d == 300
        assert cfg.theta_rectify == 20.0
        assert cfg.theta_cluster == 30.0
        assert cfg.theta_mct == 40.0
        assert cfg.n_c == 4
        assert cfg.k_interval == 600
        assert cfg.feature_dim == 128

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(theta_valid=17)
        with pytest.raises(ValueError):
            TrackerConfig(n_c=0)
        with pytest.raises(ValueError):
            TrackerConfig(mu_m=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["v_max", "theta_rectify", "mu_m", "max_gap", "n_c"])
    def test_config_rejects_non_finite(self, name, value):
        # v_max = NaN used to pass and then fail every gate comparison.
        with pytest.raises(ValueError):
            TrackerConfig(**{name: value})

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_bbox_rejects_non_finite(self, field, value):
        args = [0.0, 0.0, 10.0, 10.0]
        args[field] = value
        with pytest.raises(ValueError, match="finite"):
            BBox(*args)

    @pytest.mark.parametrize("column", range(3))
    def test_pose_rejects_non_finite(self, column):
        xyc = np.full((17, 3), 0.5)
        xyc[4, column] = np.nan
        with pytest.raises(ValueError):
            PoseKeypoints(xyc)
        if column < 2:
            xyc[4, column] = np.inf
            with pytest.raises(ValueError):
                PoseKeypoints(xyc)
