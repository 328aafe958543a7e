import copy
import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mtmctrack.core import (
    BBox,
    DetectionObservation,
    FORBIDDEN,
    OcclusionStatus,
    Orientation,
    PoseKeypoints,
    TrackerConfig,
    center_distance,
)
from mtmctrack.features import (
    FusedTrackingFeature,
    MeanSlot,
    physical_constraints_ok,
    replay_feature,
)
import mtmctrack.sct as sct_module
from mtmctrack.sct import (
    CameraTrackerState,
    TrackingPhase,
    Tracklet,
    _merge_tracklets,
    cluster_tracklets,
    compute_distance_matrix,
    init_tracklet,
    phase_of,
    rectify,
    run_sct,
    step_frame,
)

CFG = TrackerConfig(feature_dim=8)


def vec(*values, dim=8):
    v = np.zeros(dim)
    v[: len(values)] = values
    return v


def valid_pose():
    xyc = np.zeros((17, 3))
    xyc[:, 2] = 0.9
    return PoseKeypoints(xyc)


def invalid_pose():
    return PoseKeypoints(np.zeros((17, 3)))


def det(
    frame,
    x=100.0,
    y=100.0,
    emb=None,
    valid=True,
    orientation=Orientation.FRONT,
    camera=0,
    w=40.0,
    h=80.0,
):
    return DetectionObservation(
        camera_id=camera,
        frame=frame,
        bbox=BBox(x - w / 2, y - h / 2, w, h),
        det_confidence=0.95,
        pose=valid_pose() if valid else invalid_pose(),
        embedding=emb if emb is not None else vec(1.0),
        occlusion=OcclusionStatus.VALID if valid else OcclusionStatus.INVALID,
        orientation=orientation,
    )


def tracklet_from_dets(tid, dets, cfg=CFG):
    obs = list(dets)
    return Tracklet(id=tid, fused=replay_feature(obs, cfg), observations=obs)


def automaton(phase, misses, event, cfg):
    """The lifecycle as a counter automaton, the oracle of ``phase_of``:
    the next (phase, misses) of a tracklet in ``phase`` after ``misses``
    consecutive misses, on ``event`` "valid" or "invalid" (a match with a
    detection of that status) or "miss". Tentative dies on its first miss;
    Confirmed turns Invisible after ``mu_m`` misses, and the count restarts
    there; Invisible dies after ``mu_d`` more."""
    if event != "miss":
        return ("tentative" if phase == "tentative" and event == "invalid" else "confirmed", 0)
    misses += 1
    if phase == "tentative":
        return ("disappeared", misses)
    if phase == "confirmed":
        return ("invisible", 0) if misses >= cfg.mu_m else ("confirmed", misses)
    return ("disappeared", misses) if misses >= cfg.mu_d else ("invisible", misses)


def gate_passes(t, d, cfg=CFG):
    return bool(np.isfinite(compute_distance_matrix([t], [d], cfg)[0, 0]))


class TestSpatialGate:
    def test_identical_centers(self):
        t = tracklet_from_dets(1, [det(0, x=100, y=100)])
        assert gate_passes(t, det(1, x=100, y=100))

    def test_too_fast_for_one_frame(self):
        t = tracklet_from_dets(1, [det(0, x=100, y=100)])
        assert not gate_passes(t, det(1, x=121, y=100))

    def test_reachable_over_three_frames(self):
        t = tracklet_from_dets(1, [det(0, x=100, y=100)])
        assert gate_passes(t, det(3, x=150, y=100))

    def test_boundary_is_inclusive(self):
        # A 12-16-20 triangle: exactly v_max pixels in one frame.
        t = tracklet_from_dets(1, [det(0, x=100, y=100)])
        assert gate_passes(t, det(1, x=112, y=116))
        assert not gate_passes(t, det(1, x=112, y=np.nextafter(116.0, np.inf)))

    def test_detection_not_after_tracklet_rejected(self):
        t = tracklet_from_dets(1, [det(0), det(1)])
        with pytest.raises(ValueError):
            compute_distance_matrix([t], [det(1)], CFG)


def reference_matrix(tracklets, dets, cfg):
    """The tracklet-detection matrix from per-channel ``np.linalg.norm``
    distances and the per-pair spatial gate, pair by pair. The invalid
    channel is the tracklet's last detection, when that and the detection
    are invalid and one frame apart."""
    m = np.full((len(tracklets), len(dets)), FORBIDDEN)
    for i, t in enumerate(tracklets):
        F, last = t.fused, t.observations[-1]
        for j, d in enumerate(dets):
            gap = d.frame - t.end_frame
            if not center_distance(t.last_bbox, d.bbox) <= cfg.v_max * gap:
                continue
            channels = []
            if F.current is not None:
                channels.append(F.current)
            if cfg.use_orientation_feature:
                slot = F.orientation_bank[d.orientation.value]
                if slot is not None:
                    channels.append(slot.mean)
            if cfg.use_cluster_feature:
                channels.extend(c.mean for c in F.cluster_set)
            if (
                cfg.use_invalid_feature
                and last.occlusion is OcclusionStatus.INVALID
                and d.occlusion is OcclusionStatus.INVALID
                and gap == 1
            ):
                channels.append(last.embedding)
            m[i, j] = min(
                (float(np.linalg.norm(c - d.embedding)) for c in channels),
                default=FORBIDDEN,
            )
    return m


def random_scene(rng, cfg, grid):
    """Random tracklets and one frame of detections.

    Always present: a tracklet that saw only invalid detections (no current
    feature, empty orientation slots and cluster set), an invalid detection,
    and detections exactly on and just past the gate boundary of tracklet 0.
    Small-integer embeddings (``grid``) make equal distances frequent.
    """

    def embedding():
        if grid:
            return rng.integers(-2, 3, size=8).astype(np.float64)
        return rng.normal(size=8) * 10

    def center():
        return float(rng.integers(0, 200)), float(rng.integers(0, 200))

    tracklets = []
    for tid in range(int(rng.integers(1, 6))):
        end = int(rng.integers(0, 4))
        x, y = center()
        history = []
        for k in range(int(rng.integers(1, 7))):
            valid = tid != 0 and rng.random() < 0.7
            history.append(
                det(
                    end - k,
                    x=x,
                    y=y,
                    emb=embedding(),
                    valid=valid,
                    orientation=list(Orientation)[rng.integers(0, 4)],
                )
            )
        tracklets.append(tracklet_from_dets(tid + 1, history[::-1], cfg=cfg))
    tracklets[0], tracklets[-1] = tracklets[-1], tracklets[0]
    frame = max(t.end_frame for t in tracklets) + int(rng.integers(1, 3))

    def detection(x, y, valid=None):
        return det(
            frame,
            x=x,
            y=y,
            emb=embedding(),
            valid=rng.random() < 0.6 if valid is None else valid,
            orientation=list(Orientation)[rng.integers(0, 4)],
        )

    # 12-16-20 triangles put a center exactly v_max * gap away.
    t0 = tracklets[0]
    gap = frame - t0.end_frame
    cx, cy = t0.last_bbox.center
    step = cfg.v_max * gap / 20.0
    dets = [
        detection(cx + 12.0 * step, cy - 16.0 * step),
        detection(cx - 16.0 * step, np.nextafter(cy + 12.0 * step, np.inf)),
        detection(*center(), valid=False),
    ]
    for _ in range(int(rng.integers(0, 6))):
        t = tracklets[int(rng.integers(0, len(tracklets)))]
        tx, ty = t.last_bbox.center
        reach = cfg.v_max * (frame - t.end_frame)
        dx, dy = rng.uniform(-reach, reach, size=2)
        dets.append(detection(tx + dx, ty + dy))
    order = rng.permutation(len(dets))
    return tracklets, [dets[k] for k in order]


class TestDistanceMatrixOracle:
    @pytest.mark.parametrize(
        "orientation,cluster,invalid", list(itertools.product([False, True], repeat=3))
    )
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), grid=st.booleans())
    def test_bit_identical_to_per_channel_norms(
        self, orientation, cluster, invalid, seed, grid
    ):
        cfg = TrackerConfig(
            feature_dim=8,
            n_c=2,
            use_orientation_feature=orientation,
            use_cluster_feature=cluster,
            use_invalid_feature=invalid,
        )
        tracklets, dets = random_scene(np.random.default_rng(seed), cfg, grid)
        got = compute_distance_matrix(tracklets, dets, cfg)
        assert np.array_equal(got, reference_matrix(tracklets, dets, cfg))

    def test_hand_built_features(self):
        """Feature states replay cannot produce: a current feature with no
        cluster set, and clusters without a current. The last detection is
        invalid, so the invalid channel applies too."""
        t = tracklet_from_dets(1, [det(0, emb=vec(0.5), valid=False)])
        odd = [
            FusedTrackingFeature(current=vec(3.0)),
            FusedTrackingFeature(cluster_set=(MeanSlot(vec(2.0), 1), MeanSlot(vec(-1.0), 3))),
            # Only the LEFT slot is filled.
            FusedTrackingFeature(orientation_bank=(None, None, MeanSlot(vec(0.25), 1), None)),
        ]
        tracklets = [copy.copy(t) for _ in odd]
        for tr, F in zip(tracklets, odd):
            tr.fused = F
        dets = [
            det(1, emb=vec(0.0), valid=False, orientation=Orientation.LEFT),
            det(1, emb=vec(0.0), orientation=Orientation.FRONT),
        ]
        for flags in itertools.product([False, True], repeat=3):
            cfg = TrackerConfig(
                feature_dim=8,
                use_orientation_feature=flags[0],
                use_cluster_feature=flags[1],
                use_invalid_feature=flags[2],
            )
            got = compute_distance_matrix(tracklets, dets, cfg)
            assert np.array_equal(got, reference_matrix(tracklets, dets, cfg))


class TestDistanceMatrix:
    def test_gate_failure_leaves_forbidden(self):
        t = tracklet_from_dets(1, [det(0, x=0, y=0)])
        m = compute_distance_matrix([t], [det(1, x=900, y=900)], CFG)
        assert m[0, 0] == FORBIDDEN

    def test_minimum_of_channels(self):
        # Tracklet saw FRONT at (4,0,...) and LEFT at (0,2,...): the
        # detection at (0,0,...) with LEFT orientation is nearest to the
        # LEFT orientation slot.
        t = tracklet_from_dets(
            1,
            [
                det(0, emb=vec(4.0), orientation=Orientation.FRONT),
                det(1, emb=vec(0.0, 2.0), orientation=Orientation.LEFT),
            ],
        )
        d = det(2, emb=vec(0.0), orientation=Orientation.LEFT)
        m = compute_distance_matrix([t], [d], CFG)
        d_curr = np.linalg.norm(vec(0.0, 2.0) - vec(0.0))
        d_ori = 2.0
        d_clu = min(4.0, 2.0)
        assert m[0, 0] == pytest.approx(min(d_curr, d_ori, d_clu))

    def test_invalid_slot_used_for_invalid_detection(self):
        t = tracklet_from_dets(
            1,
            [
                det(0, emb=vec(9.0)),
                det(1, emb=vec(30.0), valid=False),
            ],
        )
        assert t.observations[-1].occlusion is OcclusionStatus.INVALID
        d_inv = det(2, emb=vec(29.0), valid=False)
        m = compute_distance_matrix([t], [d_inv], CFG)
        assert m[0, 0] == pytest.approx(1.0)  # via the invalid channel

    def test_invalid_slot_ignored_for_valid_detection(self):
        t = tracklet_from_dets(
            1,
            [det(0, emb=vec(9.0)), det(1, emb=vec(30.0), valid=False)],
        )
        d_valid = det(2, emb=vec(29.0))
        m = compute_distance_matrix([t], [d_valid], CFG)
        assert m[0, 0] == pytest.approx(20.0)  # distance to current, not invalid

    def test_invalid_channel_lives_one_frame(self):
        # The last detection is invalid: an invalid detection one frame
        # later is compared with it, one two frames later only with the
        # valid parts.
        t = tracklet_from_dets(
            1, [det(0, emb=vec(9.0)), det(1, emb=vec(30.0), valid=False)]
        )
        for frame, expected in ((2, 1.0), (3, 20.0)):
            d_inv = det(frame, emb=vec(29.0), valid=False)
            assert compute_distance_matrix([t], [d_inv], CFG)[0, 0] == expected

    def test_valid_last_detection_closes_invalid_channel(self):
        t = tracklet_from_dets(
            1, [det(0, emb=vec(30.0), valid=False), det(1, emb=vec(9.0))]
        )
        d_inv = det(2, emb=vec(29.0), valid=False)
        assert compute_distance_matrix([t], [d_inv], CFG)[0, 0] == 20.0

    def test_ablation_flags_disable_channels(self):
        cfg = TrackerConfig(
            feature_dim=8,
            use_orientation_feature=False,
            use_cluster_feature=False,
            use_invalid_feature=False,
        )
        t = tracklet_from_dets(1, [det(0, emb=vec(5.0))], cfg=cfg)
        m = compute_distance_matrix([t], [det(1, emb=vec(5.0, 1.0))], cfg)
        assert m[0, 0] == pytest.approx(1.0)  # current only


def held_since(phase, misses, cfg=CFG):
    """A tracklet in ``phase`` after ``misses`` consecutive misses (counted
    from entering Invisible for an Invisible one), and the current frame."""
    if phase == "tentative":
        return tracklet_from_dets(1, [det(0, valid=False)]), misses
    t = tracklet_from_dets(1, [det(0)])
    return t, misses + (cfg.mu_m if phase == "invisible" else 0)


def counted_misses(t, frame, cfg=CFG):
    """The automaton's miss count, read from the history: the misses since
    the last match, less ``mu_m`` once Invisible."""
    misses = frame - t.end_frame
    return misses - cfg.mu_m if phase_of(t, frame, cfg) is TrackingPhase.INVISIBLE else misses


class TestPhaseMachine:
    """The lifecycle read from histories by ``phase_of``."""

    def test_invisible_match_returns_confirmed(self):
        t, frame = held_since("invisible", 0)
        assert phase_of(t, frame, CFG) is TrackingPhase.INVISIBLE
        t.append(det(frame + 1, valid=False), CFG)
        assert phase_of(t, frame + 1, CFG) is TrackingPhase.CONFIRMED

    def test_tentative_invalid_match_stays_tentative(self):
        t, _ = held_since("tentative", 0)
        t.append(det(1, valid=False), CFG)
        assert phase_of(t, 1, CFG) is TrackingPhase.TENTATIVE

    def test_tentative_valid_match_confirms(self):
        t, _ = held_since("tentative", 0)
        t.append(det(1), CFG)
        assert phase_of(t, 1, CFG) is TrackingPhase.CONFIRMED

    def test_confirmed_match_resets_misses(self):
        t, _ = held_since("confirmed", 5)
        t.append(det(6, valid=False), CFG)
        assert phase_of(t, 6, CFG) is TrackingPhase.CONFIRMED
        # Without the match it would turn Invisible at frame 10.
        assert phase_of(t, 6 + CFG.mu_m - 1, CFG) is TrackingPhase.CONFIRMED

    def test_tentative_dies_on_first_miss(self):
        t, _ = held_since("tentative", 0)
        assert phase_of(t, 1, CFG) is TrackingPhase.DISAPPEARED

    def test_confirmed_to_invisible_at_mu_m(self):
        t, _ = held_since("confirmed", 0)
        for frame in range(1, 10):
            assert phase_of(t, frame, CFG) is TrackingPhase.CONFIRMED
        assert phase_of(t, 10, CFG) is TrackingPhase.INVISIBLE
        assert counted_misses(t, 10) == 0  # the count restarts on phase entry

    def test_invisible_to_disappeared_at_mu_d(self):
        t, frame = held_since("invisible", 0)
        for misses in range(300):
            assert phase_of(t, frame + misses, CFG) is TrackingPhase.INVISIBLE
        assert phase_of(t, frame + 300, CFG) is TrackingPhase.DISAPPEARED

    def test_disappeared_is_absorbing(self):
        # Disappeared at every frame after the one a tracklet dies in.
        for born_valid, died in ((False, 1), (True, CFG.mu_m + CFG.mu_d)):
            t = tracklet_from_dets(1, [det(0, valid=born_valid)])
            assert phase_of(t, died - 1, CFG) is not TrackingPhase.DISAPPEARED
            for frame in range(died, died + 2 * (CFG.mu_m + CFG.mu_d)):
                assert phase_of(t, frame, CFG) is TrackingPhase.DISAPPEARED

    def test_exhaustive_transition_table(self):
        """Model-checking sweep: a history in every (phase, misses) state,
        driven by every event, against the counter automaton."""
        counts = {
            "tentative": [0],
            "confirmed": list(range(0, CFG.mu_m)),
            "invisible": list(range(0, CFG.mu_d)),
        }
        checked = 0
        for phase, misses_range in counts.items():
            for misses in misses_range:
                for event in ("valid", "invalid", "miss"):
                    t, frame = held_since(phase, misses)
                    assert phase_of(t, frame, CFG).value == phase
                    assert counted_misses(t, frame) == misses
                    frame += 1
                    if event != "miss":
                        t.append(det(frame, valid=event == "valid"), CFG)
                    want_phase, want_misses = automaton(phase, misses, event, CFG)
                    assert phase_of(t, frame, CFG).value == want_phase, (phase, misses, event)
                    if want_phase != "disappeared":
                        assert counted_misses(t, frame) == want_misses, (phase, misses, event)
                    checked += 1
        assert checked == (1 + CFG.mu_m + CFG.mu_d) * 3


class TestInitTracklet:
    def test_valid_detection_starts_confirmed(self, feature_leaves):
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        d = det(0)
        t = init_tracklet(d, state)
        assert phase_of(t, 0, CFG) is TrackingPhase.CONFIRMED
        assert t.observations == [d]
        assert feature_leaves(t.fused) == feature_leaves(replay_feature([d], CFG))

    def test_invalid_detection_starts_tentative(self):
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        t = init_tracklet(det(0, valid=False), state)
        assert phase_of(t, 0, CFG) is TrackingPhase.TENTATIVE
        # An invalid detection folds into no part of the feature.
        assert t.fused == FusedTrackingFeature()

    def test_distinct_ids(self):
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        a = init_tracklet(det(0), state)
        b = init_tracklet(det(0), state)
        assert a.id != b.id


class TestStepFrame:
    def test_two_valid_detections_spawn_confirmed_tracklets(self):
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        step_frame(state, [det(0, x=100), det(0, x=500, emb=vec(0, 9))])
        assert len(state.tracklets) == 2
        assert all(phase_of(t, 0, CFG) is TrackingPhase.CONFIRMED for t in state.tracklets)

    def test_single_candidate_is_matched(self):
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        step_frame(state, [det(0, x=100, emb=vec(3.0))])
        step_frame(state, [det(1, x=105, emb=vec(3.1))])
        assert len(state.tracklets) == 1
        t = state.tracklets[0]
        assert len(t.observations) == 2
        assert t.end_frame == 1
        assert phase_of(t, 1, CFG) is TrackingPhase.CONFIRMED

    def test_history_is_the_detections_passed_in(self):
        dets = [det(f, x=100 + f, emb=vec(3.0)) for f in range(4)]
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        for d in dets:
            step_frame(state, [d])
        (t,) = state.tracklets
        assert len(t.observations) == len(dets)
        assert all(o is d for o, d in zip(t.observations, dets))

    def test_tentative_dies_without_detections(self):
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        step_frame(state, [det(0, valid=False)])
        assert phase_of(state.tracklets[0], 0, CFG) is TrackingPhase.TENTATIVE
        step_frame(state, [], frame=1)
        assert state.tracklets == []
        assert phase_of(state.finished[0], 1, CFG) is TrackingPhase.DISAPPEARED

    def test_frame_gap_accrues_misses(self):
        # The skipped frames count as misses: a tracklet dies at
        # mu_m + mu_d = 5 misses across a detector gap, as frame by frame.
        cfg = TrackerConfig(feature_dim=8, mu_m=2, mu_d=3)
        for gap_to, alive in ((4, True), (5, False)):
            state = CameraTrackerState(camera_id=0, cfg=cfg)
            step_frame(state, [det(0)])
            step_frame(state, [], frame=gap_to)
            assert (len(state.tracklets), len(state.finished)) == ((1, 0) if alive else (0, 1))

    def test_out_of_order_frame_rejected(self):
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        step_frame(state, [det(3)])
        with pytest.raises(ValueError):
            step_frame(state, [det(3)])
        with pytest.raises(ValueError):
            step_frame(state, [det(1)])

    def test_mixed_frames_rejected(self):
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        with pytest.raises(ValueError):
            step_frame(state, [det(0), det(1)])

    def test_all_forbidden_spawns_tracklet_per_detection(self):
        cfg = TrackerConfig(
            feature_dim=8,
            use_orientation_feature=False,
            use_cluster_feature=False,
            use_invalid_feature=False,
        )
        state = CameraTrackerState(camera_id=0, cfg=cfg)
        # Invalid-born tracklets have no valid features, so with the invalid
        # channel off nothing can ever match.
        step_frame(state, [det(0, valid=False), det(0, x=300, valid=False)])
        step_frame(state, [det(1, valid=False), det(1, x=300, valid=False)])
        assert state.next_id == 5  # four tracklets spawned

    def test_valid_occlusion_states_populated_when_missing(self):
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        d = det(0)
        d.occlusion = None
        d.orientation = None
        step_frame(state, [d])
        assert d.occlusion is OcclusionStatus.VALID
        assert d.orientation is not None


class TestPhysicalConstraints:
    def test_overlapping_spans_rejected(self):
        a = tracklet_from_dets(1, [det(f) for f in range(0, 101, 10)])
        b = tracklet_from_dets(2, [det(f, x=200) for f in range(50, 151, 10)])
        assert not physical_constraints_ok(a, b, CFG)

    def test_velocity_violation_rejected(self):
        a = tracklet_from_dets(1, [det(0, x=100)])
        b = tracklet_from_dets(2, [det(10, x=600)])
        assert not physical_constraints_ok(a, b, CFG)  # 500 px > 20 * 10

    def test_long_gap_rejected(self):
        a = tracklet_from_dets(1, [det(0)])
        b = tracklet_from_dets(2, [det(2000)])
        assert not physical_constraints_ok(a, b, CFG)

    def test_reachable_pair_accepted(self):
        a = tracklet_from_dets(1, [det(0, x=100)])
        b = tracklet_from_dets(2, [det(10, x=200)])
        assert physical_constraints_ok(a, b, CFG)

    def test_velocity_check_can_be_disabled(self):
        a = tracklet_from_dets(1, [det(0, x=100)])
        b = tracklet_from_dets(2, [det(10, x=600)])
        assert physical_constraints_ok(a, b, CFG, check_velocity=False)

    def test_argument_order_irrelevant(self):
        a = tracklet_from_dets(1, [det(0, x=100)])
        b = tracklet_from_dets(2, [det(5, x=150)])
        assert physical_constraints_ok(a, b, CFG) == physical_constraints_ok(b, a, CFG)


def rectify_cfg(**kw):
    kw.setdefault("feature_dim", 8)
    kw.setdefault("l_rectify", 3)
    return TrackerConfig(**kw)


class TestRectify:
    def test_no_invisible_tracklets_is_noop(self):
        cfg = rectify_cfg()
        state = CameraTrackerState(camera_id=0, cfg=cfg)
        step_frame(state, [det(0)])
        before = [t.id for t in state.tracklets]
        rectify(state)
        assert [t.id for t in state.tracklets] == before

    def _fragmented_state(self, cfg, distance_offset=0.0):
        # At frame 23 the old fragment has missed 19 >= mu_m frames, so it
        # is Invisible; the new one is Confirmed.
        state = CameraTrackerState(camera_id=0, cfg=cfg)
        old = tracklet_from_dets(
            1, [det(f, x=100 + f, emb=vec(5.0)) for f in range(5)], cfg=cfg
        )
        new = tracklet_from_dets(
            2,
            [
                det(f, x=130 + f, emb=vec(5.0 + distance_offset))
                for f in range(20, 24)
            ],
            cfg=cfg,
        )
        state.tracklets = [old, new]
        state.next_id = 3
        state.current_frame = 23
        return state, old, new

    def test_close_fragments_merge(self):
        cfg = rectify_cfg()
        state, old, new = self._fragmented_state(cfg, distance_offset=5.0)
        rectify(state)
        assert len(state.tracklets) == 1
        merged = state.tracklets[0]
        assert merged.id == 1  # invisible keeps its id
        assert phase_of(merged, 23, cfg) is TrackingPhase.CONFIRMED
        assert [o.frame for o in merged.observations] == [0, 1, 2, 3, 4, 20, 21, 22, 23]
        assert 2 not in [t.id for t in state.tracklets + state.finished]

    def test_fragment_is_invisible_from_mu_m_misses_on(self):
        # At mu_m - 1 misses the old fragment is still Confirmed, and two
        # Confirmed tracklets are not rectified.
        cfg = rectify_cfg()
        for misses, merged in ((cfg.mu_m - 1, False), (cfg.mu_m, True)):
            state = CameraTrackerState(camera_id=0, cfg=cfg)
            now = 4 + misses
            state.tracklets = [
                tracklet_from_dets(1, [det(f, x=100 + f, emb=vec(5.0)) for f in range(5)]),
                tracklet_from_dets(
                    2, [det(f, x=100 + f, emb=vec(6.0)) for f in range(now - 2, now + 1)]
                ),
            ]
            state.current_frame = now
            rectify(state)
            assert len(state.tracklets) == (1 if merged else 2)

    def test_distant_fragments_stay_apart(self):
        cfg = rectify_cfg()
        state, old, new = self._fragmented_state(cfg, distance_offset=25.0)
        rectify(state)
        assert len(state.tracklets) == 2

    def test_short_confirmed_tracklets_not_considered(self):
        cfg = rectify_cfg(l_rectify=10)
        state, old, new = self._fragmented_state(cfg, distance_offset=5.0)
        rectify(state)  # confirmed fragment has 4 < 10 observations
        assert len(state.tracklets) == 2

    def test_merged_feature_equals_replay_of_union(self, feature_leaves):
        cfg = rectify_cfg()
        state, old, new = self._fragmented_state(cfg, distance_offset=5.0)
        union = old.observations + new.observations
        rectify(state)
        merged = state.tracklets[0]
        assert feature_leaves(merged.fused) == feature_leaves(replay_feature(union, cfg))

        # Every orientation and some invalid detections, with ``dst`` as the
        # earlier and as the later tracklet.
        def fragment(tid, frames):
            return tracklet_from_dets(
                tid,
                [
                    det(
                        f,
                        x=100.0 + f,
                        emb=vec(5.0 + 0.1 * f, f % 3),
                        valid=f % 5 != 2,
                        orientation=list(Orientation)[f % 4],
                    )
                    for f in frames
                ],
                cfg=cfg,
            )

        # At frame 28 the earlier fragment has missed 20 frames, so it is
        # Invisible, and the later one 3, so it is Confirmed.
        frames = range(28, 28 + cfg.mu_m + cfg.mu_d + 2)
        for dst_is_earlier in (True, False):
            earlier, later = fragment(1, range(0, 9)), fragment(2, range(15, 26))
            assert phase_of(earlier, 28, cfg) is TrackingPhase.INVISIBLE
            phases = [phase_of(later, f, cfg) for f in frames]
            union = earlier.observations + later.observations
            dst, src = (earlier, later) if dst_is_earlier else (later, earlier)
            state = CameraTrackerState(camera_id=0, cfg=cfg, tracklets=[earlier, later])
            _merge_tracklets(state, dst, src)
            assert state.tracklets == [dst]
            assert [id(o) for o in dst.observations] == [id(o) for o in union]
            assert feature_leaves(dst.fused) == feature_leaves(replay_feature(union, cfg))
            # The merged tracklet lives on as the one that ends later.
            assert [phase_of(dst, f, cfg) for f in frames] == phases

    def test_merge_of_interleaved_tracklets_is_refused(self):
        # The gates forbid such a pair; the fold must refuse it rather than
        # return a feature that is not the replay of the union.
        a = tracklet_from_dets(1, [det(0), det(2)])
        b = tracklet_from_dets(2, [det(1), det(3)])
        state = CameraTrackerState(camera_id=0, cfg=CFG, tracklets=[a, b])
        with pytest.raises(ValueError, match="overlap in time"):
            _merge_tracklets(state, a, b)
        assert state.tracklets == [a, b]


class TestClusterTracklets:
    def test_single_tracklet_emits_rows(self):
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        for f in range(3):
            step_frame(state, [det(f, x=100 + f)])
        state, rows = cluster_tracklets(state)
        assert [r.frame for r in rows] == [0, 1, 2]
        assert len({r.identity for r in rows}) == 1

    def test_fragments_of_one_identity_merge(self):
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        a = tracklet_from_dets(1, [det(f, x=100 + f, emb=vec(5.0)) for f in range(5)])
        b = tracklet_from_dets(
            2, [det(f, x=130 + f, emb=vec(5.5)) for f in range(30, 35)]
        )
        state.tracklets = [a, b]
        state.next_id = 3
        state.current_frame = 34
        state, rows = cluster_tracklets(state)
        assert len(state.tracklets) == 1
        assert len({r.identity for r in rows}) == 1
        assert len(rows) == 10

    def test_merged_history_is_the_detections_passed_in(self):
        first = [det(f, x=100 + f, emb=vec(5.0)) for f in range(5)]
        second = [det(f, x=130 + f, emb=vec(5.5)) for f in range(30, 35)]
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        # The later fragment comes first, so the merge must put it last.
        state.tracklets = [
            tracklet_from_dets(2, second),
            tracklet_from_dets(1, first),
        ]
        state.next_id = 3
        state.current_frame = 34
        state, _ = cluster_tracklets(state)
        (t,) = state.tracklets
        assert len(t.observations) == len(first + second)
        assert all(o is d for o, d in zip(t.observations, first + second))

    def test_cotemporal_tracklets_never_merge(self):
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        a = tracklet_from_dets(1, [det(f, x=100, emb=vec(5.0)) for f in range(5)])
        b = tracklet_from_dets(2, [det(f, x=200, emb=vec(5.0)) for f in range(5)])
        state.tracklets = [a, b]
        state.next_id = 3
        state.current_frame = 4
        state, rows = cluster_tracklets(state)
        assert len(state.tracklets) == 2

    def test_transitive_chain_merges(self):
        # Three fragments of the same appearance in consecutive windows.
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        frags = [
            tracklet_from_dets(
                i + 1,
                [det(f, x=100 + f, emb=vec(5.0 + 0.1 * i)) for f in range(i * 20, i * 20 + 5)],
            )
            for i in range(3)
        ]
        state.tracklets = list(frags)
        state.next_id = 4
        state.current_frame = 50
        state, rows = cluster_tracklets(state)
        assert len(state.tracklets) == 1
        assert state.tracklets[0].id == 1
        assert len(state.tracklets[0].observations) == 15

    def test_never_confirmed_tracklets_not_emitted(self):
        state = CameraTrackerState(camera_id=0, cfg=CFG)
        step_frame(state, [det(0, valid=False)])
        state, rows = cluster_tracklets(state)
        assert rows == []


class TestRunSct:
    def _dets_two_identities(self, frames=20):
        dets = []
        for f in range(frames):
            dets.append(det(f, x=100 + 3 * f, emb=vec(5.0)))
            dets.append(det(f, x=800 - 3 * f, y=300, emb=vec(0, 7.0)))
        return dets

    def test_two_identities_two_track_ids(self):
        rows, state = run_sct(self._dets_two_identities(), CFG, offline=True)
        assert len({r.identity for r in rows}) == 2
        assert len(rows) == 40

    def test_deterministic_replay(self):
        dets1 = self._dets_two_identities()
        dets2 = copy.deepcopy(dets1)
        rows1, _ = run_sct(dets1, CFG, offline=True)
        rows2, _ = run_sct(dets2, CFG, offline=True)
        assert rows1 == rows2

    def test_online_mode_emits_every_k(self):
        cfg = TrackerConfig(feature_dim=8, k_interval=5)
        rows, state = run_sct(self._dets_two_identities(20), cfg, offline=False)
        assert len(rows) == 40  # everything emitted across four windows

    def test_empty_input(self):
        rows, state = run_sct([], CFG)
        assert rows == []
        assert state.tracklets == []

    def test_rows_sorted(self):
        rows, _ = run_sct(self._dets_two_identities(), CFG, offline=True)
        assert rows == sorted(rows, key=lambda r: r.sort_key())

    def test_miss_then_recover_keeps_identity(self):
        dets = []
        for f in range(30):
            if 10 <= f < 15:
                continue  # five-frame dropout
            dets.append(det(f, x=100 + 3 * f, emb=vec(5.0)))
        rows, _ = run_sct(dets, CFG, offline=True)
        assert len({r.identity for r in rows}) == 1
        assert len(rows) == 25

    def test_structural_invariants_on_stressful_scenario(self, monkeypatch):
        """Replay the crowded preset and audit the tracker state: unique ids,
        strictly increasing observation frames, sane phases and rows drawn
        from real observations. Emitting drops the finished tracklets, so
        they are gathered before each clustering pass; a short ``mu_d``
        makes tracklets that hold a valid detection die mid-stream."""
        from mtmctrack.synth import generate_scenario, scenario_presets

        finished = []
        cluster = sct_module.cluster_tracklets

        def gathering(state):
            for t in state.finished:
                assert phase_of(t, state.current_frame, cfg) is TrackingPhase.DISAPPEARED
            finished.extend(state.finished)
            return cluster(state)

        monkeypatch.setattr(sct_module, "cluster_tracklets", gathering)
        data = generate_scenario(scenario_presets()["occlusion_heavy"])
        cfg = TrackerConfig(mu_d=20)
        rows, state = run_sct(data.detections, cfg, offline=True)

        assert state.finished == []
        assert any(t.fused.avg is not None for t in finished)
        everything = state.tracklets + finished
        ids = [t.id for t in everything]
        assert len(ids) == len(set(ids))
        for t in everything:
            frames = [o.frame for o in t.observations]
            assert frames == sorted(frames)
            assert len(set(frames)) == len(frames)
            assert t.end_frame == t.observations[-1].frame
        for t in state.tracklets:
            assert phase_of(t, state.current_frame, cfg) is not TrackingPhase.DISAPPEARED
        # Every emitted row corresponds to one stored observation.
        obs_keys = {
            (t.id, o.frame, o.bbox.x, o.bbox.y) for t in everything for o in t.observations
        }
        for r in rows:
            assert (r.identity, r.frame, r.bbox.x, r.bbox.y) in obs_keys

    def test_offline_runs_single_clustering_pass(self, monkeypatch):
        # Online mode clusters every k_interval frames; offline mode adopts
        # the sequence length as the interval, so exactly one pass runs.
        import mtmctrack.sct as sct_module

        calls = []
        original = sct_module.cluster_tracklets

        def counting(state):
            calls.append(state.current_frame)
            return original(state)

        monkeypatch.setattr(sct_module, "cluster_tracklets", counting)
        cfg = TrackerConfig(feature_dim=8, k_interval=10)
        dets = [det(f, x=100 + 3 * f, emb=vec(5.0)) for f in range(30)]
        run_sct(copy.deepcopy(dets), cfg, offline=False)
        assert calls == [9, 19, 29]
        calls.clear()
        run_sct(copy.deepcopy(dets), cfg, offline=True)
        assert calls == [29]


# Random online streams: per frame, up to four detections at distinct grid
# points, each with one of three appearances and a valid or invalid pose.
STREAMS = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, 12),  # x on a 10 px grid: crossings and near misses
            st.integers(0, 3),  # y
            st.integers(0, 2),  # appearance
            st.booleans(),  # valid pose
        ),
        max_size=4,
        unique_by=lambda d: (d[0], d[1]),
    ),
    min_size=1,
    max_size=40,
)


# Under ``alternating_gates(2)`` this stream merges once by rectifying and
# once by clustering.
MERGING_STREAM = [
    [],
    [(0, 1, 0, True), (1, 0, 1, True)],
    [(0, 0, 0, True)],
    [(0, 0, 0, False), (1, 0, 0, False)],
    [(0, 1, 0, True)],
    [],
]


def stream_frames(stream):
    """The detections of each frame of a ``STREAMS`` example."""
    return [
        [
            det(f, x=100.0 + 10.0 * x, y=100.0 + 10.0 * y, emb=vec(float(a)), valid=v)
            for x, y, a, v in frame_dets
        ]
        for f, frame_dets in enumerate(stream)
    ]


def loose_cfg(k_interval):
    # Short lives and loose merge thresholds, so that tracklets end and any
    # pair the physical gates pass merges.
    return TrackerConfig(
        feature_dim=8,
        k_interval=k_interval,
        mu_m=2,
        mu_d=4,
        l_rectify=2,
        theta_rectify=100.0,
        theta_cluster=100.0,
    )


def alternating_gates(k_interval):
    """Configs for even and odd frames. Matching and merging share one
    velocity gate, so a stream tracked under one config never merges.
    Alternating a gate narrower than the grid with a wide one spawns
    fragments that later merge."""
    narrow = dataclasses.replace(loose_cfg(k_interval), v_max=5.0)
    return narrow, dataclasses.replace(narrow, v_max=40.0)


class TestRowContract:
    """Eval rejects two rows of one identity in one (camera, frame); the
    tracker must never write them, also after a merge."""

    @staticmethod
    def track(stream, k_interval):
        """``run_sct``'s online schedule, with the gate switched every frame."""
        narrow, wide = alternating_gates(k_interval)
        state = CameraTrackerState(camera_id=0, cfg=narrow)
        frames = stream_frames(stream)
        rows = []
        for frame, dets in enumerate(frames):
            state.cfg = wide if frame % 2 else narrow
            step_frame(state, dets, frame)
            if (frame + 1) % k_interval == 0:
                state, emitted = cluster_tracklets(state)
                rows += emitted
        if state.last_emit_frame != len(frames) - 1:
            state, emitted = cluster_tracklets(state)
            rows += emitted
        return state, rows

    def test_pinned_stream_merges(self):
        # Emitting drops the finished tracklets, so the merges are counted
        # where they happen rather than read from the final state.
        merges = []
        merge = sct_module._merge_tracklets

        def counting(state, dst, src):
            merges.append((dst.id, src.id))
            merge(state, dst, src)

        with mock.patch.object(sct_module, "_merge_tracklets", counting):
            self.track(MERGING_STREAM, 2)
        assert len(merges) == 2

    @settings(max_examples=60, deadline=None)
    @given(stream=STREAMS, k_interval=st.integers(2, 7))
    @example(stream=MERGING_STREAM, k_interval=2)
    def test_online_run_emits_one_row_per_identity_and_frame(self, stream, k_interval):
        _, rows = self.track(stream, k_interval)
        boxes = {
            (d.frame, d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h)
            for dets in stream_frames(stream)
            for d in dets
        }
        keys = [(r.frame, r.identity) for r in rows]
        assert len(keys) == len(set(keys))
        for r in rows:
            assert r.camera_id == 0
            assert (r.frame, r.bbox.x, r.bbox.y, r.bbox.w, r.bbox.h) in boxes


def rectify_merges(stream, k_interval):
    """Track ``stream`` as ``TestRowContract.track`` does, and return the
    frame of each merge made by rectifying. At each one the kept tracklet
    was Invisible, the absorbed one Confirmed, and the kept one started
    earlier: so the association step's rule that the earlier fragment keeps
    its id is rectifying's rule that the Invisible one does."""
    rectify, merge = sct_module.rectify, sct_module._merge_tracklets
    rectifying, merges = [], []

    def checked_rectify(state):
        rectifying.append(True)
        try:
            return rectify(state)
        finally:
            rectifying.pop()

    def checked_merge(state, dst, src):
        if rectifying:
            frame = state.current_frame
            assert phase_of(dst, frame, state.cfg) is TrackingPhase.INVISIBLE
            assert phase_of(src, frame, state.cfg) is TrackingPhase.CONFIRMED
            assert dst.start_frame < src.start_frame
            merges.append(frame)
        merge(state, dst, src)

    with mock.patch.object(sct_module, "rectify", checked_rectify), mock.patch.object(
        sct_module, "_merge_tracklets", checked_merge
    ):
        TestRowContract.track(stream, k_interval)
    return merges


class TestRectifyKeepsTheInvisibleId:
    def test_pinned_stream_rectifies_once(self):
        assert len(rectify_merges(MERGING_STREAM, 2)) == 1

    @settings(max_examples=60, deadline=None)
    @given(stream=STREAMS, k_interval=st.integers(2, 7))
    @example(stream=MERGING_STREAM, k_interval=2)
    def test_invisible_side_is_the_earlier_one(self, stream, k_interval):
        rectify_merges(stream, k_interval)


class TestLiveFeatureIsReplay:
    """A tracklet's fused feature is the fold of its history, whether it
    grew by matches, rectifying or clustering."""

    @settings(max_examples=60, deadline=None)
    @given(stream=STREAMS, k_interval=st.integers(2, 7))
    def test_feature_equals_replay_of_history(self, feature_leaves, stream, k_interval):
        narrow, wide = alternating_gates(k_interval)
        state = CameraTrackerState(camera_id=0, cfg=narrow)

        def check():
            for t in state.tracklets + state.finished:
                expected = replay_feature(t.observations, narrow)
                assert feature_leaves(t.fused) == feature_leaves(expected)

        for frame, dets in enumerate(stream_frames(stream)):
            state.cfg = wide if frame % 2 else narrow
            step_frame(state, dets, frame)
            check()
            if (frame + 1) % k_interval == 0:
                state, _ = cluster_tracklets(state)
                check()


class TestPhaseIsTheAutomaton:
    """``phase_of`` is the phase the tracker used to store: every tracklet
    shadowed by the counter automaton, stepped by its match or miss of each
    frame, and merged by taking the pair of the tracklet that ends later
    (set Confirmed after rectifying)."""

    @settings(max_examples=60, deadline=None)
    @given(stream=STREAMS, k_interval=st.integers(2, 7))
    @example(stream=MERGING_STREAM, k_interval=2)
    def test_derived_phase_equals_shadowed_automaton(self, stream, k_interval):
        narrow, wide = alternating_gates(k_interval)
        state = CameraTrackerState(camera_id=0, cfg=narrow)
        shadow = {}  # tracklet id -> (phase, misses)
        rectifying = []
        rectify, merge = sct_module.rectify, sct_module._merge_tracklets

        def shadow_rectify(state):
            # This frame's matches and spawns are in; no merge has run yet.
            for t in state.tracklets:
                last = t.observations[-1]
                if last.frame != state.current_frame:
                    shadow[t.id] = automaton(*shadow[t.id], "miss", state.cfg)
                else:
                    event = "invalid" if last.occlusion is OcclusionStatus.INVALID else "valid"
                    was = shadow.get(t.id, ("tentative", 0))  # a spawn
                    shadow[t.id] = automaton(*was, event, state.cfg)
            rectifying.append(True)
            try:
                return rectify(state)
            finally:
                rectifying.pop()

        def shadow_merge(state, dst, src):
            later = src if src.end_frame > dst.end_frame else dst
            phase, misses = shadow[later.id]
            shadow[dst.id] = ("confirmed" if rectifying else phase, misses)
            del shadow[src.id]
            merge(state, dst, src)

        def check():
            frame = state.current_frame
            for t in state.tracklets:
                assert phase_of(t, frame, state.cfg).value == shadow[t.id][0]
            for t in state.finished:
                assert phase_of(t, frame, state.cfg) is TrackingPhase.DISAPPEARED
                assert shadow.pop(t.id, ("disappeared",))[0] == "disappeared"

        with mock.patch.object(sct_module, "rectify", shadow_rectify), mock.patch.object(
            sct_module, "_merge_tracklets", shadow_merge
        ):
            for frame, dets in enumerate(stream_frames(stream)):
                state.cfg = wide if frame % 2 else narrow
                step_frame(state, dets, frame)
                check()
                if (frame + 1) % k_interval == 0:
                    state, _ = cluster_tracklets(state)
                    check()
