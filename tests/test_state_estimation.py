import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtmctrack.core import (
    BBox,
    DetectionObservation,
    LEFT_EAR,
    LEFT_HIP,
    LEFT_SHOULDER,
    OcclusionStatus,
    Orientation,
    PoseKeypoints,
    RIGHT_EAR,
    RIGHT_HIP,
    RIGHT_SHOULDER,
    TrackerConfig,
)
from mtmctrack.fileio import ParseError
from mtmctrack.state_estimation import (
    MLP_CHUNK,
    MLP_LAYER_SIZES,
    ORIENTATION_INPUT_DIM,
    MlpWeights,
    OrientationEstimator,
    build_orientation_input,
    classify_orientation_geometric,
    classify_orientation_mlp,
    count_valid_keypoints,
    estimate_occlusion,
    load_mlp_weights,
    mlp_logits,
    populate_state,
    save_mlp_weights,
)


def pose_with_confidences(conf, xs=None, ys=None):
    conf = np.asarray(conf, dtype=float)
    xyc = np.zeros((17, 3))
    xyc[:, 0] = xs if xs is not None else np.linspace(0, 16, 17)
    xyc[:, 1] = ys if ys is not None else np.linspace(0, 16, 17)
    xyc[:, 2] = conf
    return PoseKeypoints(xyc)


class TestValidKeypointCount:
    def test_all_confident(self):
        pose = pose_with_confidences([0.9] * 17)
        assert count_valid_keypoints(pose, 0.3) == 17

    def test_none_confident(self):
        pose = pose_with_confidences([0.0] * 17)
        assert count_valid_keypoints(pose, 0.3) == 0

    def test_mixed_boundary(self):
        pose = pose_with_confidences([0.31] * 8 + [0.29] * 9)
        assert count_valid_keypoints(pose, 0.3) == 8

    def test_exactly_at_threshold_not_counted(self):
        pose = pose_with_confidences([0.3] + [0.0] * 16)
        assert count_valid_keypoints(pose, 0.3) == 0

    @given(st.lists(st.floats(0, 1), min_size=17, max_size=17))
    @settings(max_examples=200, deadline=None)
    def test_matches_strict_count_oracle(self, conf):
        pose = pose_with_confidences(conf)
        oracle = sum(1 for c in conf if c > 0.3)
        assert count_valid_keypoints(pose, 0.3) == oracle


class TestOcclusion:
    def test_fully_visible_is_valid(self):
        cfg = TrackerConfig()
        pose = pose_with_confidences([0.9] * 17)
        assert estimate_occlusion(pose, cfg) is OcclusionStatus.VALID

    def test_nothing_visible_is_invalid(self):
        cfg = TrackerConfig()
        pose = pose_with_confidences([0.0] * 17)
        assert estimate_occlusion(pose, cfg) is OcclusionStatus.INVALID

    def test_exact_threshold_count_is_invalid(self):
        # Strictly greater than theta_valid is required.
        cfg = TrackerConfig()
        pose = pose_with_confidences([0.9] * 7 + [0.0] * 10)
        assert estimate_occlusion(pose, cfg) is OcclusionStatus.INVALID

    def test_monotone_in_single_confidence(self):
        cfg = TrackerConfig()
        rng = np.random.default_rng(6)
        for _ in range(100):
            conf = rng.uniform(0, 1, 17)
            pose = pose_with_confidences(conf)
            before = estimate_occlusion(pose, cfg)
            idx = rng.integers(0, 17)
            raised = conf.copy()
            raised[idx] = min(1.0, raised[idx] + rng.uniform(0, 1))
            after = estimate_occlusion(pose_with_confidences(raised), cfg)
            if before is OcclusionStatus.VALID:
                assert after is OcclusionStatus.VALID


def input_rows(poses, boxes):
    """The classifier input of a batch of (17, 3) poses and their BBoxes."""
    arr = np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=float)
    return build_orientation_input(np.stack(poses), arr)


class TestOrientationInput:
    def test_corner_normalization(self):
        # Row 0: shoulders on the box corners; row 1: the same pose in a box
        # twice the size, so the corners land on 0.5.
        xyc = np.zeros((17, 3))
        xyc[LEFT_SHOULDER] = (10, 20, 0.5)     # top-left corner
        xyc[RIGHT_SHOULDER] = (110, 220, 0.6)  # bottom-right corner
        rows = input_rows(
            [xyc, xyc], [BBox(10, 20, 100, 200), BBox(10, 20, 200, 400)]
        )
        assert rows.shape == (2, 14)
        assert list(rows[0, :6]) == [0.0, 0.0, 0.5, 1.0, 1.0, 0.6]
        assert list(rows[1, :6]) == [0.0, 0.0, 0.5, 0.5, 0.5, 0.6]

    def test_center_normalization(self):
        boxes = [BBox(10, 20, 100, 200), BBox(-40, -80, 200, 400), BBox(59, 119, 2, 2)]
        xyc = np.zeros((17, 3))
        xyc[LEFT_SHOULDER] = (60, 120, 1.0)
        rows = input_rows([xyc] * 3, boxes)
        for row in rows:
            assert row[0] == pytest.approx(0.5)
            assert row[1] == pytest.approx(0.5)

    def test_layout_and_ear_confidences(self):
        poses = []
        for k in range(3):
            xyc = np.zeros((17, 3))
            xyc[LEFT_SHOULDER] = (1, 1, 0.11 + k)
            xyc[RIGHT_SHOULDER] = (2, 2, 0.12 + k)
            xyc[LEFT_HIP] = (3, 3, 0.13 + k)
            xyc[RIGHT_HIP] = (4, 4, 0.14 + k)
            xyc[LEFT_EAR, 2] = 0.15 + k
            xyc[RIGHT_EAR, 2] = 0.16 + k
            poses.append(xyc)
        rows = input_rows(poses, [BBox(0, 0, 10, 10)] * 3)
        assert rows.shape == (3, 14)
        for k, row in enumerate(rows):
            assert list(row[[2, 5, 8, 11]]) == [0.11 + k, 0.12 + k, 0.13 + k, 0.14 + k]
            assert row[12] == 0.15 + k and row[13] == 0.16 + k
            assert list(row[[0, 3, 6, 9]]) == [0.1, 0.2, 0.3, 0.4]


def naive_forward(inputs, weights):
    """Per-neuron sums, independent of the vectorized path."""
    x = [float(v) for v in inputs]
    last = len(weights.layers) - 1
    for layer_idx, (w, b) in enumerate(weights.layers):
        out = []
        for o in range(w.shape[0]):
            acc = float(b[o])
            for i in range(w.shape[1]):
                acc += float(w[o, i]) * x[i]
            out.append(acc)
        if layer_idx != last:
            out = [v if v > 0 else 0.0 for v in out]
        x = out
    return np.array(x)


def one_at_a_time_forward(x, weights):
    """The unbatched forward pass on one (14,) row: ``w @ x + b`` per layer."""
    assert x.shape == (ORIENTATION_INPUT_DIM,)
    last = len(weights.layers) - 1
    for idx, (w, b) in enumerate(weights.layers):
        x = w @ x + b
        if idx != last:
            x = np.maximum(x, 0.0)
    return x


class TestOrientationMlp:
    def test_zero_weights_tie_break_to_front(self):
        zero = MlpWeights(
            [
                (np.zeros((n_out, n_in)), np.zeros(n_out))
                for n_in, n_out in zip(MLP_LAYER_SIZES[:-1], MLP_LAYER_SIZES[1:])
            ]
        )
        assert classify_orientation_mlp(np.zeros((3, 14)), zero) == [Orientation.FRONT] * 3

    def test_final_bias_forces_class(self):
        layers = [
            (np.zeros((n_out, n_in)), np.zeros(n_out))
            for n_in, n_out in zip(MLP_LAYER_SIZES[:-1], MLP_LAYER_SIZES[1:])
        ]
        layers[-1] = (layers[-1][0], np.array([0.0, 0.0, 1.0, 0.0]))
        weights = MlpWeights(layers)
        rows = np.random.default_rng(9).normal(size=(4, 14))
        assert classify_orientation_mlp(rows, weights) == [Orientation.LEFT] * 4

    def test_matches_naive_matmul_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            weights = MlpWeights.random(rng)
            x = rng.normal(size=14)
            fast = mlp_logits(x, weights)
            slow = naive_forward(x, weights)
            assert np.allclose(fast, slow, atol=1e-6)
            assert int(np.argmax(fast)) == int(np.argmax(slow))

    def test_argmax_invariant_under_common_bias_shift(self):
        rng = np.random.default_rng(11)
        weights = MlpWeights.random(rng)
        rows = rng.normal(size=(20, 14))
        before = classify_orientation_mlp(rows, weights)
        w_last, b_last = weights.layers[-1]
        shifted = MlpWeights(weights.layers[:-1] + [(w_last, b_last + 123.456)])
        assert classify_orientation_mlp(rows, shifted) == before

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(12)
        weights = MlpWeights.random(rng)
        for shape in [(13,), (5, 13), (14, 5), ()]:
            with pytest.raises(ValueError):
                mlp_logits(np.zeros(shape), weights)
        bad = [(w.copy(), b.copy()) for w, b in weights.layers]
        bad[2] = (np.zeros((128, 63)), np.zeros(128))
        with pytest.raises(ValueError):
            MlpWeights(bad)


def random_detections(rng, n):
    """n detections with random poses and boxes, in one frame."""
    dets = []
    for _ in range(n):
        x, y = rng.uniform(-100, 1000, 2)
        w, h = rng.uniform(0.5, 400, 2)
        xyc = np.column_stack(
            [
                rng.uniform(x - 20, x + w + 20, 17),
                rng.uniform(y - 20, y + h + 20, 17),
                # Whole-number confidences hit the threshold exactly.
                rng.choice([rng.uniform(0, 1), 0.0, 0.3, 1.0], 17),
            ]
        )
        dets.append(
            DetectionObservation(
                camera_id=0,
                frame=0,
                bbox=BBox(float(x), float(y), float(w), float(h)),
                det_confidence=0.9,
                pose=PoseKeypoints(xyc),
                embedding=np.zeros(4),
            )
        )
    return dets


class TestBatchEqualsOneAtATime:
    """A batch gives each detection the bits it gets alone.

    This guards NumPy's per-item dispatch: matmul on a stacked (n, k, 1)
    operand calls one BLAS matrix-vector product per item, as ``w @ x``
    does for one input. Each logit row is compared with both a one-row
    ``mlp_logits`` call and the unbatched ``w @ x + b`` loop. If a NumPy
    build sent the stack to one matrix product instead, rows would round
    differently with the batch, and this test fails rather than letting
    orientations change silently.
    """

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600))
    @example(seed=0, n=MLP_CHUNK + 1)
    @settings(max_examples=25, deadline=None)
    def test_rows_and_states_match_single_detections(self, seed, n):
        rng = np.random.default_rng(seed)
        weights = MlpWeights.random(rng, scale=rng.choice([0.1, 1.0]))
        dets = random_detections(rng, n)
        xyc = np.stack([d.pose.xyc for d in dets])
        boxes = np.array([(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h) for d in dets])
        rows = build_orientation_input(xyc, boxes)
        logits = mlp_logits(rows, weights)
        assert logits.shape == (n, 4)
        for k in range(n):
            alone = build_orientation_input(xyc[k : k + 1], boxes[k : k + 1])[0]
            assert rows[k].tobytes() == alone.tobytes()
            assert logits[k].tobytes() == mlp_logits(alone, weights).tobytes()
            assert logits[k].tobytes() == one_at_a_time_forward(alone, weights).tobytes()

        cfg = TrackerConfig()
        for estimator in (OrientationEstimator(), OrientationEstimator(weights)):
            batch = populate_state(copy.deepcopy(dets), cfg, estimator)
            for det, got in zip(copy.deepcopy(dets), batch):
                populate_state([det], cfg, estimator)
                assert (got.occlusion, got.orientation) == (det.occlusion, det.orientation)


def test_populate_state_fills_only_detections_without_state():
    rng = np.random.default_rng(8)
    cfg = TrackerConfig()
    estimator = OrientationEstimator(MlpWeights.random(rng))
    dets = random_detections(rng, 3)
    alone = [populate_state([copy.deepcopy(d)], cfg, estimator)[0] for d in dets]
    stated, bare, half = dets
    # A state the estimator would not give, so a refill would show.
    stated.occlusion = OcclusionStatus(1 - alone[0].occlusion.value)
    stated.orientation = Orientation((alone[0].orientation.value + 1) % 4)
    kept = (stated.occlusion, stated.orientation)
    half.occlusion = stated.occlusion
    assert populate_state(dets, cfg, estimator) is dets
    assert (stated.occlusion, stated.orientation) == kept
    for det, want in zip((bare, half), alone[1:]):
        assert (det.occlusion, det.orientation) == (want.occlusion, want.orientation)


def test_classifier_memory_is_bounded_by_the_chunk():
    """The stacked pass holds about three (chunk, 128) temporaries plus the
    chunk's poses and inputs, so its peak follows ``MLP_CHUNK``, not the
    number of detections; one pass over all 4,000 peaks near 12 MiB."""
    rng = np.random.default_rng(21)
    dets = random_detections(rng, 4000)
    assert len(dets) >= 8 * MLP_CHUNK
    estimator = OrientationEstimator(MlpWeights.random(rng))
    row_bytes = 8 * (3 * max(MLP_LAYER_SIZES) + 17 * 3 + ORIENTATION_INPUT_DIM)
    tracemalloc.start()
    try:
        populate_state(dets, TrackerConfig(), estimator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * MLP_CHUNK * row_bytes


class TestGeometricOrientation:
    def shoulders(self, x_ls, x_rs, c=0.9):
        xyc = np.zeros((17, 3))
        xyc[LEFT_SHOULDER] = (x_ls, 10, c)
        xyc[RIGHT_SHOULDER] = (x_rs, 10, c)
        return PoseKeypoints(xyc)

    def test_mirrored_shoulders_mean_front(self):
        assert classify_orientation_geometric(self.shoulders(80, 20), 0.3) is Orientation.FRONT

    def test_unmirrored_shoulders_mean_back(self):
        assert classify_orientation_geometric(self.shoulders(20, 80), 0.3) is Orientation.BACK

    def test_single_ear_profile(self):
        xyc = np.zeros((17, 3))
        xyc[LEFT_EAR, 2] = 0.9
        assert classify_orientation_geometric(PoseKeypoints(xyc), 0.3) is Orientation.LEFT
        xyc = np.zeros((17, 3))
        xyc[RIGHT_EAR, 2] = 0.9
        assert classify_orientation_geometric(PoseKeypoints(xyc), 0.3) is Orientation.RIGHT

    def test_hips_used_when_shoulders_hidden(self):
        xyc = np.zeros((17, 3))
        xyc[LEFT_HIP] = (80, 50, 0.9)
        xyc[RIGHT_HIP] = (20, 50, 0.9)
        assert classify_orientation_geometric(PoseKeypoints(xyc), 0.3) is Orientation.FRONT

    def test_nothing_visible_defaults_front(self):
        assert (
            classify_orientation_geometric(PoseKeypoints(np.zeros((17, 3))), 0.3)
            is Orientation.FRONT
        )

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            xyc = np.column_stack(
                [rng.uniform(0, 100, 17), rng.uniform(0, 100, 17), rng.uniform(0, 1, 17)]
            )
            pose = PoseKeypoints(xyc)
            assert classify_orientation_geometric(pose, 0.3) is (
                classify_orientation_geometric(pose, 0.3)
            )


class TestWeightFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        weights = MlpWeights.random(rng)
        path = tmp_path / "orientation.weights"
        save_mlp_weights(path, weights)
        loaded = load_mlp_weights(path)
        for (w1, b1), (w2, b2) in zip(weights.layers, loaded.layers):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.weights"
        path.write_text("mlp 14 128 64 128 64 5\n")
        with pytest.raises(ValueError, match="header"):
            load_mlp_weights(path)

    def test_rejects_underscore_in_a_weight(self, tmp_path):
        rng = np.random.default_rng(16)
        path = tmp_path / "sep.weights"
        save_mlp_weights(path, MlpWeights.random(rng))
        lines = path.read_text().splitlines()
        # float() would read this token as 10.5.
        lines[2] = "1_0.5 " + lines[2].split(" ", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 3: '_' is not allowed"):
            load_mlp_weights(path)

    # Each fault as an edit of a valid file's lines (0-based), the line the
    # error must name and its message. Line 1 is the header, line 2 the
    # first layer's declaration, lines 3-130 its 128 weight rows and line 131
    # its bias row.
    FAULTS = {
        "header": (lambda ls: ["mlp 14 128 64 4"] + ls[1:], 1, "bad header"),
        "declaration": (
            lambda ls: ls[:1] + ["layer 14 129"] + ls[2:],
            2,
            "layer declaration 'layer 14 129' does not match expected 14->128",
        ),
        "missing declaration": (
            lambda ls: ls[:1] + ls[2:], 2, "missing 'layer' line for 14->128"
        ),
        "weight row too long": (
            lambda ls: ls[:5] + [ls[5] + " 0.5"] + ls[6:],
            6,
            "weight block for 14->128 malformed",
        ),
        "bias row too short": (
            lambda ls: ls[:130] + [ls[130].rsplit(" ", 1)[0]] + ls[131:],
            131,
            "bias row for 14->128 malformed",
        ),
        "not a number": (
            lambda ls: ls[:3] + ["x" + ls[3]] + ls[4:],
            4,
            "could not convert string to float: 'x",
        ),
        # Blank lines are skipped but still counted.
        "not a number after a blank line": (
            lambda ls: ls[:1] + [""] + ls[1:3] + ["x" + ls[3]] + ls[4:],
            5,
            "could not convert string to float: 'x",
        ),
        # float() reads "nan" and "inf" as numbers.
        "non-finite": (
            lambda ls: ls[:40] + ["nan " + ls[40].split(" ", 1)[1]] + ls[41:],
            41,
            "non-finite value",
        ),
        "trailing content": (
            lambda ls: ls + ["", "0.5"], None, "trailing content after last layer"
        ),
        "truncated inside a block": (
            lambda ls: ls[:50], 51, "weight block for 14->128 malformed"
        ),
        "empty": (lambda ls: [], 1, "empty weight file"),
        "non-ASCII": (lambda ls: ls[:5] + [ls[5] + " \u00e9"] + ls[6:], 6, "non-ASCII bytes"),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_names_its_line(self, tmp_path, fault):
        edit, lineno, message = self.FAULTS[fault]
        path = tmp_path / "fault.weights"
        save_mlp_weights(path, MlpWeights.random(np.random.default_rng(17)))
        lines = edit(path.read_text().splitlines())
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        if lineno is None:  # the last line
            lineno = len(lines)
        with pytest.raises(ParseError) as info:
            load_mlp_weights(path)
        assert str(info.value).startswith(f"{path}: line {lineno}: {message}")

    def test_rejects_truncated_file(self, tmp_path):
        rng = np.random.default_rng(15)
        weights = MlpWeights.random(rng)
        path = tmp_path / "trunc.weights"
        save_mlp_weights(path, weights)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-10]) + "\n")
        with pytest.raises(ValueError):
            load_mlp_weights(path)
