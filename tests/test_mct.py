import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtmctrack.core import (
    BBox,
    DetectionObservation,
    FORBIDDEN,
    OcclusionStatus,
    Orientation,
    PoseKeypoints,
    TrackRow,
    TrackTable,
    TrackerConfig,
)
from mtmctrack.features import FusedTrackingFeature, MeanSlot, replay_feature
from mtmctrack.mct import Trajectory, associate_mct, build_mct_matrix, run_mct

CFG = TrackerConfig(feature_dim=8)


def vec(*values, dim=8):
    v = np.zeros(dim)
    v[: len(values)] = values
    return v


POSE = PoseKeypoints(np.full((17, 3), 0.9))


def obs(frame, x=100.0, emb=None, camera=0):
    return DetectionObservation(
        camera_id=camera,
        frame=frame,
        bbox=BBox(x, 100.0, 40.0, 80.0),
        det_confidence=0.9,
        pose=POSE,
        occlusion=OcclusionStatus.VALID,
        orientation=Orientation.FRONT,
        embedding=emb if emb is not None else vec(1.0),
    )


def traj(source, camera, frames, emb, x=100.0):
    records = [obs(f, x=x, emb=emb, camera=camera) for f in frames]
    return Trajectory(
        observations=records,
        fused=replay_feature(records, CFG),
        sources=[(camera, source)],
    )


class TestBuildMatrix:
    def test_same_camera_forbidden(self):
        a = traj(1, 0, range(0, 5), vec(1.0))
        b = traj(2, 0, range(10, 15), vec(1.0))
        m = build_mct_matrix([a, b], CFG)
        assert m[0, 1] == FORBIDDEN and m[1, 0] == FORBIDDEN

    def test_identical_features_across_cameras(self):
        a = traj(1, 0, range(0, 5), vec(1.0))
        b = traj(2, 1, range(10, 15), vec(1.0))
        m = build_mct_matrix([a, b], CFG)
        assert m[0, 1] == 0.0
        assert m[1, 0] == 0.0

    def test_diagonal_forbidden(self):
        a = traj(1, 0, range(0, 5), vec(1.0))
        m = build_mct_matrix([a], CFG)
        assert m[0, 0] == FORBIDDEN

    def test_minimum_of_avg_and_orientation(self):
        a = traj(1, 0, range(0, 5), vec(1.0))
        b = traj(2, 1, range(10, 15), vec(1.0))
        # Force d_avg = 35 and d_ori = 25 artificially, in the FRONT slot.
        a.fused = a.fused.__class__(
            current=a.fused.current,
            orientation_bank=(MeanSlot(vec(0.0), 1), None, None, None),
            cluster_set=a.fused.cluster_set,
            avg=MeanSlot(vec(0.0), 1),
        )
        b.fused = b.fused.__class__(
            current=b.fused.current,
            orientation_bank=(MeanSlot(vec(25.0), 1), None, None, None),
            cluster_set=b.fused.cluster_set,
            avg=MeanSlot(vec(0.0, 35.0), 1),
        )
        m = build_mct_matrix([a, b], CFG)
        assert m[0, 1] == pytest.approx(25.0)

    def test_temporal_overlap_forbidden(self):
        a = traj(1, 0, range(0, 20), vec(1.0))
        b = traj(2, 1, range(10, 30), vec(1.0))
        m = build_mct_matrix([a, b], CFG)
        assert m[0, 1] == FORBIDDEN

    def test_long_gap_forbidden(self):
        a = traj(1, 0, range(0, 5), vec(1.0))
        b = traj(2, 1, range(5000, 5005), vec(1.0))
        m = build_mct_matrix([a, b], CFG)
        assert m[0, 1] == FORBIDDEN


class TestAssociate:
    def test_all_above_threshold_unchanged(self):
        a = traj(1, 0, range(0, 5), vec(50.0))
        b = traj(2, 1, range(10, 15), vec(0.0, 50.0))
        out = associate_mct([a, b], CFG)
        assert len(out) == 2

    def test_same_identity_merges_across_cameras(self):
        a = traj(1, 0, range(0, 5), vec(5.0))
        b = traj(2, 1, range(10, 15), vec(5.2))
        out = associate_mct([a, b], CFG)
        assert len(out) == 1
        assert out[0].cameras == {0, 1}
        assert [o.camera_id for o in out[0].observations] == [0] * 5 + [1] * 5

    def test_merge_forbids_future_camera_conflicts(self):
        # A (cam0) + B (cam1) merge first; C (cam1) is close to A but the
        # merged trajectory already covers camera 1.
        a = traj(1, 0, range(0, 5), vec(5.0))
        b = traj(2, 1, range(10, 15), vec(5.1))
        c = traj(3, 1, range(30, 35), vec(5.2))
        out = associate_mct([a, b, c], CFG)
        assert len(out) == 2
        cams = sorted(tuple(sorted(t.cameras)) for t in out)
        assert cams == [(0, 1), (1,)]

    def test_greedy_order_prefers_cheapest(self):
        a = traj(1, 0, range(0, 5), vec(5.0))
        b = traj(2, 1, range(10, 15), vec(5.0, 8.0))   # distance 8 to a
        c = traj(3, 1, range(30, 35), vec(5.0, 1.0))   # distance 1 to a
        out = associate_mct([a, b, c], CFG)
        merged = next(t for t in out if len(t.sources) == 2)
        assert {source for _, source in merged.sources} == {1, 3}

    def test_row_multiset_preserved(self):
        a = traj(1, 0, range(0, 5), vec(5.0))
        b = traj(2, 1, range(10, 15), vec(5.2))
        c = traj(3, 1, range(30, 35), vec(0.0, 30.0))
        rows_before = sorted(
            (o.camera_id, o.frame, o.bbox.x) for t in (a, b, c) for o in t.observations
        )
        rows = run_mct([a, b, c], CFG)
        rows_after = sorted((r.camera_id, r.frame, r.bbox.x) for r in rows)
        assert rows_before == rows_after

    def test_determinism(self):
        def build():
            return [
                traj(1, 0, range(0, 5), vec(5.0)),
                traj(2, 1, range(10, 15), vec(5.2)),
                traj(3, 2, range(20, 25), vec(5.1)),
                traj(4, 1, range(40, 45), vec(0.0, 9.0)),
            ]

        rows1 = run_mct(build(), CFG)
        rows2 = run_mct(build(), CFG)
        assert rows1 == rows2

    def test_no_same_camera_overlap_in_output(self):
        rng = np.random.default_rng(41)
        trajs = []
        gid = 1
        for cam in range(3):
            start = 0
            for _ in range(4):
                length = int(rng.integers(3, 8))
                emb = vec(float(rng.integers(0, 4)), float(rng.integers(0, 4)))
                trajs.append(traj(gid, cam, range(start, start + length), emb))
                gid += 1
                start += length + int(rng.integers(1, 5))
        out = associate_mct(trajs, CFG)
        for t in out:
            cameras = [camera for camera, _ in t.sources]
            assert len(cameras) == len(set(cameras))
            frames = [o.frame for o in t.observations]
            assert all(f1 < f2 for f1, f2 in zip(frames, frames[1:]))

    def test_accepted_costs_within_threshold(self):
        # Chain merges never exceed theta_mct at acceptance time: verify
        # indirectly by ensuring far trajectories stay separate.
        a = traj(1, 0, range(0, 5), vec(39.0))
        b = traj(2, 1, range(10, 15), vec(0.0))  # distance 39 < 40: merges
        c = traj(3, 2, range(30, 35), vec(90.0))  # distance > 40 to both
        out = associate_mct([a, b, c], CFG)
        assert len(out) == 2

    def test_empty_input(self):
        assert associate_mct([], CFG) == []

    @settings(max_examples=80, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(
                st.integers(0, 2),  # camera
                st.integers(0, 60),  # first frame
                st.integers(1, 8),  # length
                st.integers(0, 3),  # appearance
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_links_keep_segments_in_time_order_and_relabel_the_rows(self, spans):
        def build():
            return [
                traj(source, cam, range(start, start + length), vec(5.0 * a), x=10.0 * source)
                for source, (cam, start, length, a) in enumerate(spans, start=1)
            ]

        trajs = build()
        boxes_before = sorted(
            (o.camera_id, o.frame, id(o.bbox)) for t in trajs for o in t.observations
        )
        out = associate_mct(trajs, CFG)
        for t in out:
            frames = [o.frame for o in t.observations]
            assert all(f1 < f2 for f1, f2 in zip(frames, frames[1:]))
        # Survivors come in order of first frame, camera and source id.
        keys = [(t.start_frame, min(t.cameras), min(s for _, s in t.sources)) for t in out]
        assert keys == sorted(keys)
        # ``run_mct`` numbers them from 1 in that order, and every input
        # detection becomes one row labeled with its survivor's number. A
        # detection is keyed by its box's x, which is unique per source.
        number = {
            (o.camera_id, o.frame, o.bbox.x): k
            for k, t in enumerate(out, start=1)
            for o in t.observations
        }
        rows = run_mct(build(), CFG)
        assert len(rows) == len(number)
        assert {(r.camera_id, r.frame, r.bbox.x): r.identity for r in rows} == number
        assert sorted(
            (o.camera_id, o.frame, id(o.bbox)) for t in out for o in t.observations
        ) == boxes_before

    def test_global_ids_relabeled_in_time_order(self):
        a = traj(7, 0, range(50, 55), vec(5.0))
        b = traj(9, 1, range(0, 5), vec(0.0, 50.0))
        rows = run_mct([a, b], CFG)
        first_by_id = {}
        for r in rows:
            first_by_id.setdefault(r.identity, r.frame)
        assert first_by_id[1] == 0
        assert first_by_id[2] == 50


def joined(first, second):
    """A trajectory built directly from two sources' detections, in the
    order given."""
    return Trajectory(
        observations=first + second,
        fused=replay_feature([], CFG),
        sources=[(first[0].camera_id, 1), (second[0].camera_id, 2)],
    )


class TestTrajectoryValidation:
    def test_same_camera_overlap_rejected_at_construction(self):
        with pytest.raises(ValueError):
            joined([obs(f) for f in range(0, 10)], [obs(f) for f in range(5, 15)])

    def test_segments_out_of_time_order_rejected(self):
        later = [obs(f) for f in range(10, 15)]
        earlier = [obs(f, camera=1) for f in range(0, 5)]
        with pytest.raises(ValueError, match="frames must strictly increase"):
            joined(later, earlier)
        t = joined(earlier, later)
        assert (t.start_frame, t.end_frame, t.cameras) == (0, 14, {0, 1})

    def test_two_cameras_overlapping_in_time_rejected(self):
        with pytest.raises(ValueError, match=r"frames must strictly increase \(9 after 9\)"):
            joined([obs(f) for f in range(0, 10)], [obs(f, camera=1) for f in range(9, 15)])


class TestStateAndFilePathsAgree:
    def test_in_process_and_file_driven_mct_match(self, tmp_path, monkeypatch):
        """Every tracklet a live tracker state emitted comes back from the
        written rows as one single-source trajectory with the same camera,
        source id, frames, boxes and embeddings. Emitting drops the
        finished tracklets, so they are gathered before each clustering
        pass."""
        import mtmctrack.sct as sct_module
        from mtmctrack.fileio import parse_detections, write_detections
        from mtmctrack.pipeline import trajectories_from_rows
        from mtmctrack.sct import run_sct
        from mtmctrack.synth import generate_scenario, scenario_presets

        finished = []
        cluster = sct_module.cluster_tracklets

        def gathering(state):
            finished.extend(state.finished)
            return cluster(state)

        monkeypatch.setattr(sct_module, "cluster_tracklets", gathering)

        cfg = TrackerConfig()
        spec = scenario_presets()["two_camera_handoff"]
        data = generate_scenario(spec)
        det_path = tmp_path / "dets.jsonl"
        write_detections(det_path, data.detections)
        dets = parse_detections(det_path, cfg.feature_dim)

        by_cam = {}
        for d in dets:
            by_cam.setdefault(d.camera_id, []).append(d)
        emitted = {}
        all_rows = []
        for cam in sorted(by_cam):
            finished.clear()
            rows, state = run_sct(by_cam[cam], cfg, camera_id=cam, offline=True)
            all_rows.extend(rows)
            for t in state.tracklets + finished:
                if t.fused.avg is not None:  # holds a valid detection
                    emitted[(cam, t.id)] = t

        fresh_dets = parse_detections(det_path, cfg.feature_dim)
        from_rows = trajectories_from_rows(TrackTable.from_rows(all_rows), fresh_dets, cfg)

        assert all(len(traj.sources) == 1 for traj in from_rows)
        by_source = {traj.sources[0]: traj for traj in from_rows}
        assert len(by_source) == len(from_rows)
        assert set(by_source) == set(emitted)
        for key, t in emitted.items():
            got = by_source[key].observations
            assert [o.frame for o in got] == [o.frame for o in t.observations]
            assert [o.bbox for o in got] == [o.bbox for o in t.observations]
            for o_got, o_live in zip(got, t.observations):
                assert np.array_equal(o_got.embedding, o_live.embedding)


@pytest.fixture(scope="module")
def handoff():
    """The ``two_camera_handoff`` preset tracked offline, camera by camera:
    the config, the rows as a table and the detections they were made from."""
    from mtmctrack.sct import run_sct
    from mtmctrack.synth import generate_scenario, scenario_presets

    cfg = TrackerConfig()
    dets = generate_scenario(scenario_presets()["two_camera_handoff"]).detections
    rows = []
    for cam in sorted({d.camera_id for d in dets}):
        cam_rows, _ = run_sct([d for d in dets if d.camera_id == cam], cfg, camera_id=cam, offline=True)
        rows.extend(cam_rows)
    return cfg, TrackTable.from_rows(rows), dets


# A fused feature without its cluster set: what cross-camera linking reads.
def linked_parts(F):
    return (F.current, F.orientation_bank, F.avg)


class TestTrajectoriesFromRows:
    def test_trajectories_keep_what_linking_reads(self, handoff, feature_leaves):
        from mtmctrack.pipeline import trajectories_from_rows

        cfg, rows, dets = handoff
        trajs = trajectories_from_rows(rows, dets, cfg)
        assert len(trajs) > 2
        for t in trajs:
            assert t.fused.cluster_set is None
            full = replay_feature(t.observations, cfg)
            assert full.cluster_set
            assert feature_leaves(linked_parts(t.fused)) == feature_leaves(linked_parts(full))

    def test_linking_reads_no_cluster(self, handoff):
        """``run_mct`` gives the same rows whether the trajectories carry
        full or cluster-less features, and it does link some."""
        from mtmctrack.pipeline import trajectories_from_rows

        cfg, rows, dets = handoff
        bare = trajectories_from_rows(rows, dets, cfg)
        full = [
            Trajectory(
                observations=list(t.observations),
                fused=replay_feature(t.observations, cfg),
                sources=list(t.sources),
            )
            for t in trajectories_from_rows(rows, dets, cfg)
        ]
        bare_rows = run_mct(bare, cfg)
        assert bare_rows == run_mct(full, cfg)
        assert len({r.identity for r in bare_rows}) < len(bare)

    @pytest.mark.parametrize("second_x", [100.0, 150.0])
    def test_repeated_identity_in_one_frame_rejected(self, second_x):
        from mtmctrack.pipeline import trajectories_from_rows

        dets = [obs(0), obs(1), obs(1, x=150.0)]
        rows = [TrackRow(0, d.frame, 7, d.bbox) for d in dets[:2]]
        rows.append(TrackRow(0, 1, 7, BBox(second_x, 100.0, 40.0, 80.0)))
        with pytest.raises(ValueError, match=r"repeat \(camera 0, frame 1, id 7\)"):
            trajectories_from_rows(TrackTable.from_rows(rows), dets, CFG)

    def test_row_matching_two_detections_rejected(self):
        # Two detections share camera, frame and box; each row would get the
        # first one's embedding and orientation.
        from mtmctrack.pipeline import trajectories_from_rows

        dets = [obs(0, emb=vec(1.0)), obs(1, emb=vec(1.0)), obs(1, emb=vec(0.0, 1.0))]
        rows = [TrackRow(0, 0, 7, dets[0].bbox), TrackRow(0, 1, 7, dets[1].bbox)]
        rows.append(TrackRow(0, 1, 8, dets[2].bbox))
        with pytest.raises(ValueError, match=r"camera 0, frame 1, id 7\) matches more than one"):
            trajectories_from_rows(TrackTable.from_rows(rows), dets, CFG)


STEPS = st.lists(
    st.tuples(
        st.booleans(),  # valid
        st.sampled_from(list(Orientation)),
        st.integers(1, 3),  # frame gap
        st.integers(0, 3),  # appearance
    ),
    min_size=1,
    max_size=25,
)


def records_from_steps(steps):
    """One camera's detections, one per step, in increasing frames."""
    frame, records = 0, []
    for valid, orientation, gap, a in steps:
        frame += gap
        records.append(
            DetectionObservation(
                camera_id=0,
                frame=frame,
                bbox=BBox(100.0, 100.0, 40.0, 80.0),
                det_confidence=0.9,
                pose=POSE,
                occlusion=OcclusionStatus.VALID if valid else OcclusionStatus.INVALID,
                orientation=orientation,
                embedding=vec(float(a), 0.1 * frame),
            )
        )
    return records


class TestMergedFeature:
    def test_linked_trajectory_feature_equals_replay_of_union(self, feature_leaves):
        """A and B (cameras 0 and 1) link, C (camera 2) is too far to; the
        merged trajectory's feature must equal replaying A's and B's
        observations together."""

        def records(frames, base):
            return [obs(f, emb=vec(base + 0.01 * f, 0.3 * (f % 3))) for f in frames]

        a_obs = records(range(0, 8), 5.0)
        b_obs = records(range(12, 20), 5.1)
        c_obs = records(range(25, 33), 60.0)
        trajs = [
            Trajectory(observations=o, fused=replay_feature(o, CFG), sources=[(cam, source)])
            for source, cam, o in ((1, 0, a_obs), (2, 1, b_obs), (3, 2, c_obs))
        ]
        out = associate_mct(trajs, CFG)
        assert len(out) == 2
        merged = next(t for t in out if t.cameras == {0, 1})
        expected = replay_feature(a_obs + b_obs, CFG)
        assert feature_leaves(merged.fused) == feature_leaves(expected)

    @settings(max_examples=60, deadline=None)
    @given(steps=STEPS, cut=st.integers(0, 25))
    def test_fold_onto_earlier_feature_equals_replay_of_union(self, feature_leaves, steps, cut):
        records = records_from_steps(steps)
        earlier, later = records[:cut], records[cut:]
        folded = replay_feature(later, CFG, replay_feature(earlier, CFG))
        assert feature_leaves(folded) == feature_leaves(replay_feature(records, CFG))

    @settings(max_examples=60, deadline=None)
    @given(steps=STEPS, cut=st.integers(0, 25))
    def test_fold_onto_cluster_less_feature_equals_cluster_less_replay_of_union(
        self, feature_leaves, steps, cut
    ):
        records = records_from_steps(steps)
        earlier, later = records[:cut], records[cut:]
        bare = FusedTrackingFeature(cluster_set=None)
        folded = replay_feature(later, CFG, replay_feature(earlier, CFG, bare))
        assert folded.cluster_set is None
        assert feature_leaves(folded) == feature_leaves(replay_feature(records, CFG, bare))

    def test_link_folds_only_the_later_trajectory(self, monkeypatch, feature_leaves):
        import mtmctrack.features as features_module

        folded = []

        def counting(observations, cfg, start=None):
            folded.append(len(observations))
            return replay_feature(observations, cfg, start)

        monkeypatch.setattr(features_module, "replay_feature", counting)
        # The later trajectory comes first in the list, so it is the one
        # the merge keeps.
        a = traj(1, 1, range(20, 26), vec(5.0))
        b = traj(2, 0, range(0, 8), vec(5.1))
        expected = replay_feature(b.observations + a.observations, CFG)
        (merged,) = associate_mct([a, b], CFG)
        assert folded == [6]
        assert feature_leaves(merged.fused) == feature_leaves(expected)

    def test_link_of_interleaved_trajectories_is_refused(self, monkeypatch):
        # The distance gates forbid such a pair; with them lifted, the fold
        # must refuse rather than return a feature that is not the replay.
        import mtmctrack.mct as mct_module

        monkeypatch.setattr(mct_module, "physical_constraints_ok", lambda *a, **k: True)
        a = traj(1, 0, range(0, 10), vec(5.0))
        b = traj(2, 1, range(5, 15), vec(5.0))
        with pytest.raises(ValueError, match="overlap in time"):
            associate_mct([a, b], CFG)
