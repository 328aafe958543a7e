import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtmctrack.core import (
    BBox,
    DetectionObservation,
    PoseKeypoints,
    TrackRow,
    TrackerConfig,
    center_distance,
    check_poses,
    iou_aligned,
    squared_distance,
)
from mtmctrack.features import FusedTrackingFeature, History, MeanSlot
from mtmctrack.mct import Trajectory
from mtmctrack.sct import Tracklet


def euclidean(a, b):
    """The package's Euclidean distance: the root of the one kernel."""
    return math.sqrt(squared_distance(a, b))


def iou(a, b):
    """IoU of two BBoxes through ``iou_aligned``, as a float."""
    return float(iou_aligned(np.array([a.x, a.y, a.w, a.h]), np.array([b.x, b.y, b.w, b.h])))


class TestEuclideanDistance:
    def test_identity_is_zero(self):
        v = np.arange(128, dtype=float)
        assert euclidean(v, v) == 0.0

    def test_three_four_five(self):
        a = np.zeros(128)
        a[0], a[1] = 3.0, 4.0
        assert euclidean(a, np.zeros(128)) == pytest.approx(5.0)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=128)
        b = rng.normal(size=128)
        naive = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        assert euclidean(a, b) == pytest.approx(naive, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=16), rng.normal(size=16)
        assert euclidean(a, b) == euclidean(b, a)

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
        assert euclidean(a, b) == float(np.linalg.norm(a - b))

    @given(
        st.lists(st.floats(-100, 100), min_size=8, max_size=8),
        st.lists(st.floats(-100, 100), min_size=8, max_size=8),
        st.lists(st.floats(-100, 100), min_size=8, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        a, b, c = np.array(a), np.array(b), np.array(c)
        assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-9


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


def scalar_iou(a, b):
    """The IoU formula of two (x, y, w, h) tuples, written out in Python
    floats: the reference ``iou_aligned`` must match bit for bit, aligned
    or broadcast."""
    ix = max(a[0], b[0])
    iy = max(a[1], b[1])
    ix2 = min(a[0] + a[2], b[0] + b[2])
    iy2 = min(a[1] + a[3], b[1] + b[3])
    iw = max(0.0, ix2 - ix)
    ih = max(0.0, iy2 - iy)
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    if union <= 0.0:
        return 0.0
    return inter / union


# Magnitudes from 1e-300 to 1e300, signed zeros among the coordinates.
# Extents are positive, as BBox requires; the areas of the largest boxes
# overflow, which the formula and the matrix must carry alike.
COORD = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 0.5, 1.0]),
)
EXTENT = st.one_of(
    st.floats(1e-300, 1e300),
    st.sampled_from([1e-300, 1e300, 1.0, 10.0]),
)
BOX = st.tuples(COORD, COORD, EXTENT, EXTENT)


@st.composite
def box_sets(draw):
    """Random truth and predicted box lists, the predicted one extended
    with a box identical to, touching, and disjoint from each of the
    first truth boxes."""
    a = draw(st.lists(BOX, max_size=5))
    b = draw(st.lists(BOX, max_size=5))
    for x, y, w, h in a[:2]:
        b.append((x, y, w, h))
        b.append((x + w, y, draw(EXTENT), h))  # touches the right edge
        b.append((x, y + h, w, draw(EXTENT)))  # touches the bottom edge
        b.append((x - 2.0 * w - 1.0, y, w, h))  # left of it, apart
    return a, draw(st.permutations(b))


def as_boxes(boxes):
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


class TestIoUMatrix:
    @settings(max_examples=300, deadline=None)
    @given(box_sets())
    def test_bit_identical_to_scalar_formula(self, sets):
        # The broadcast case: every truth box against every predicted box.
        a, b = sets
        got = iou_aligned(as_boxes(a)[:, None, :], as_boxes(b)[None, :, :])
        want = np.array([scalar_iou(p, q) for p in a for q in b], dtype=np.float64)
        assert got.shape == (len(a), len(b))
        assert got.dtype == np.float64
        assert np.array_equal(got.reshape(-1).view(np.uint64), want.view(np.uint64))

    @settings(max_examples=300, deadline=None)
    @given(box_sets())
    def test_aligned_form_bit_identical_to_scalar_formula(self, sets):
        # Every truth x predicted pair, laid out as two aligned (k, 4) arrays.
        a, b = sets
        pairs = [(p, q) for p in a for q in b]
        got = iou_aligned(as_boxes([p for p, _ in pairs]), as_boxes([q for _, q in pairs]))
        want = np.array([scalar_iou(p, q) for p, q in pairs], dtype=np.float64)
        assert got.shape == (len(pairs),)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        matrix = iou_aligned(as_boxes(a)[:, None, :], as_boxes(b)[None, :, :]).reshape(-1)
        assert np.array_equal(matrix.view(np.uint64), got.view(np.uint64))


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

    @pytest.mark.parametrize("value", [1, 1.0, 5.0, 2**70])
    def test_config_rejects_gamma_valid_of_one_or_more(self, value):
        # A keypoint confidence lies in [0, 1]; none strictly exceeds such a
        # threshold, so every detection would be invalid.
        with pytest.raises(ValueError, match="gamma_valid must be < 1"):
            TrackerConfig(gamma_valid=value)

    def test_config_accepts_gamma_valid_just_below_one(self):
        assert TrackerConfig(gamma_valid=np.nextafter(1.0, 0.0)).gamma_valid < 1

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(TrackerConfig) if f.type != "bool"]
    )
    def test_config_rejects_non_positive(self, name, value):
        # Every count and measure is positive; for an integer that is >= 1.
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            TrackerConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value, kind",
        [
            # A fractional interval never divides a frame count, so online
            # clustering would never fire.
            ("k_interval", 600.5, "an integer"),
            ("n_c", 1.5, "an integer"),
            ("mu_m", 2.5, "an integer"),
            ("theta_valid", True, "an integer"),
            ("feature_dim", "8", "an integer"),
            ("v_max", "20", "a number"),
            ("gamma_valid", False, "a number"),
            ("theta_mct", None, "a number"),
            ("use_cluster_feature", 2, "True or False"),
            ("use_cluster_feature", 1, "True or False"),
            ("use_orientation_feature", 0.0, "True or False"),
            ("use_invalid_feature", np.bool_(True), "True or False"),
        ],
    )
    def test_config_rejects_wrong_kind(self, name, value, kind):
        with pytest.raises(ValueError, match=f"{name} must be {kind}"):
            TrackerConfig(**{name: value})

    def test_config_accepts_any_integral_or_real(self):
        cfg = TrackerConfig(n_c=np.int64(3), v_max=20, gamma_valid=np.float64(0.2))
        assert (cfg.n_c, cfg.v_max, cfg.gamma_valid) == (3, 20, 0.2)

    @pytest.mark.parametrize("name", ["mu_d", "theta_mct", "n_c", "gamma_valid", "feature_dim"])
    def test_config_rejects_number_past_double_range(self, name):
        # float() of such an integer raises OverflowError; a config file
        # holding the same literal is rejected as non-finite.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrackerConfig(**{name: 10**400})

    def test_config_float_field_holds_a_double(self):
        cfg = TrackerConfig(theta_mct=2**53 + 1, v_max=20, gamma_valid=np.float32(0.5))
        assert [type(v) for v in (cfg.theta_mct, cfg.v_max, cfg.gamma_valid)] == [float] * 3
        assert (cfg.theta_mct, cfg.v_max, cfg.gamma_valid) == (2.0**53, 20.0, 0.5)

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

    @pytest.mark.parametrize("position", range(5))
    @pytest.mark.parametrize(
        "column,value",
        [(0, np.nan), (1, np.inf), (2, np.nan), (2, -0.5), (2, 1.5)],
    )
    def test_stacked_pose_rule_is_the_pose_rule(self, position, column, value):
        # The parser checks a chunk's poses by one call; it must refuse a
        # stack exactly when one of its poses is refused, with its message.
        rng = np.random.default_rng(position)
        stack = rng.uniform(0.0, 1.0, (5, 17, 3))
        check_poses(stack)
        for pose in stack:
            PoseKeypoints(pose)
        stack[position, 7, column] = value
        with pytest.raises(ValueError) as single:
            PoseKeypoints(stack[position])
        with pytest.raises(ValueError, match=f"^{re.escape(str(single.value))}$"):
            check_poses(stack)

    def test_pose_from_checked_keeps_the_array(self):
        stack = np.zeros((2, 17, 3))
        pose = PoseKeypoints.from_checked(stack[1])
        assert pose.xyc.base is stack and pose == PoseKeypoints(np.zeros((17, 3)))

    # NumPy scalars are not plain floats, so they take the ABC check.
    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf"), True, "0.9", None,
         pytest.param(np.float64("nan"), id="float64-nan"),
         pytest.param(np.float32("inf"), id="float32-inf")],
    )
    def test_detection_rejects_bad_confidence(self, value):
        with pytest.raises(ValueError, match="det_confidence"):
            DetectionObservation(
                camera_id=0,
                frame=0,
                bbox=BBox(0.0, 0.0, 10.0, 10.0),
                det_confidence=value,
                pose=PoseKeypoints(np.zeros((17, 3))),
                embedding=np.zeros(4),
            )

    @pytest.mark.parametrize(
        "value",
        [0.9, 1, np.float32(0.5), -3.0, 1e300, -0.0, 5e-324,
         pytest.param(np.float64(0.5), id="float64-0.5")],
    )
    def test_detection_takes_any_finite_confidence(self, value):
        det = DetectionObservation(
            camera_id=0,
            frame=0,
            bbox=BBox(0.0, 0.0, 10.0, 10.0),
            det_confidence=value,
            pose=PoseKeypoints(np.zeros((17, 3))),
            embedding=np.zeros(4),
        )
        assert det.det_confidence == value

    @pytest.mark.parametrize(
        "embedding, message",
        [
            ([0.0, float("nan")], "non-finite"),
            (np.array([float("inf"), 0.0]), "non-finite"),
            (np.zeros((2, 2)), "1-D"),
            (0.5, "1-D"),
        ],
    )
    def test_detection_rejects_bad_embedding(self, embedding, message):
        with pytest.raises(ValueError, match=message):
            DetectionObservation(
                camera_id=0,
                frame=0,
                bbox=BBox(0.0, 0.0, 10.0, 10.0),
                det_confidence=0.9,
                pose=PoseKeypoints(np.zeros((17, 3))),
                embedding=embedding,
            )

    def test_detection_holds_a_float64_vector(self):
        det = DetectionObservation(
            camera_id=0,
            frame=0,
            bbox=BBox(0.0, 0.0, 10.0, 10.0),
            det_confidence=0.9,
            pose=PoseKeypoints(np.zeros((17, 3))),
            embedding=[1, 2.5],
        )
        assert det.embedding.dtype == np.float64
        assert det.embedding.tolist() == [1.0, 2.5]


def per_detection_values():
    """One value of each type built once per detection, row or fold."""
    box = BBox(0, 0, 1, 1)
    det = DetectionObservation(0, 0, box, 0.5, PoseKeypoints(np.zeros((17, 3))), np.zeros(4))
    fused = FusedTrackingFeature()
    return [
        box,
        det,
        TrackRow(0, 0, 1, box),
        MeanSlot(np.zeros(4), 1),
        fused,
        History([det], fused),
        Tracklet(observations=[det], fused=fused, id=1),
        Trajectory(observations=[det], fused=fused, sources=[(0, 1)]),
    ]


class TestSlottedValues:
    @pytest.mark.parametrize("value", per_detection_values(), ids=lambda v: type(v).__name__)
    def test_keeps_no_instance_dict(self, value):
        # Slots keep a dict per detection, row and fold out of the parse
        # and the fold; a subclass without them would bring the dict back.
        assert not hasattr(value, "__dict__")
        # object.__setattr__ passes a frozen class's guard and meets the slots.
        with pytest.raises(AttributeError):
            object.__setattr__(value, "unknown", 1)

    def test_detection_from_checked_matches_the_constructor(self):
        pose = PoseKeypoints(np.zeros((17, 3)))
        emb = np.arange(4.0)
        args = (2, 7, BBox(0, 0, 1, 1), 0.5, pose, emb)
        built, checked = DetectionObservation(*args), DetectionObservation.from_checked(*args)
        for f in dataclasses.fields(DetectionObservation):
            assert getattr(checked, f.name) is getattr(built, f.name), f.name
        assert checked.embedding is emb
        assert (checked.occlusion, checked.orientation) == (None, None)
