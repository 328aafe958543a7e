import numpy as np
import pytest

from mtmctrack.core import (
    BBox,
    FORBIDDEN,
    OcclusionStatus,
    Orientation,
    TrackerConfig,
)
from mtmctrack.features import MeanSlot, OrientationBank, replay_feature
from mtmctrack.mct import (
    Trajectory,
    TrajectorySegment,
    associate_mct,
    build_mct_matrix,
    run_mct,
)
from mtmctrack.sct import ObsRecord

CFG = TrackerConfig(feature_dim=8)


def vec(*values, dim=8):
    v = np.zeros(dim)
    v[: len(values)] = values
    return v


def obs(frame, x=100.0, emb=None):
    return ObsRecord(
        frame=frame,
        bbox=BBox(x, 100.0, 40.0, 80.0),
        det_confidence=0.9,
        occlusion=OcclusionStatus.VALID,
        orientation=Orientation.FRONT,
        embedding=emb if emb is not None else vec(1.0),
    )


def traj(gid, camera, frames, emb, x=100.0):
    records = [obs(f, x=x, emb=emb) for f in frames]
    return Trajectory(
        global_id=gid,
        segments=[TrajectorySegment(camera, gid, records)],
        fused=replay_feature(records, CFG),
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
        # Force d_avg = 35 and d_ori = 25 artificially.
        a.fused = a.fused.__class__(
            current=a.fused.current,
            orientation_bank=OrientationBank().fold(Orientation.FRONT, vec(0.0)),
            cluster_set=a.fused.cluster_set,
            invalid=None,
            avg=MeanSlot(vec(0.0), 1),
        )
        b.fused = b.fused.__class__(
            current=b.fused.current,
            orientation_bank=OrientationBank().fold(Orientation.FRONT, vec(25.0)),
            cluster_set=b.fused.cluster_set,
            invalid=None,
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
        assert [s.camera_id for s in out[0].segments] == [0, 1]

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
        merged = next(t for t in out if len(t.segments) == 2)
        assert {s.source_id for s in merged.segments} == {1, 3}

    def test_row_multiset_preserved(self):
        a = traj(1, 0, range(0, 5), vec(5.0))
        b = traj(2, 1, range(10, 15), vec(5.2))
        c = traj(3, 1, range(30, 35), vec(0.0, 30.0))
        rows_before = sorted(
            (s.camera_id, o.frame, o.bbox.x) for t in (a, b, c) for s in t.segments
            for o in s.observations
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
            per_cam = {}
            for s in t.segments:
                per_cam.setdefault(s.camera_id, []).append(
                    (s.start_frame, s.end_frame)
                )
            for spans in per_cam.values():
                spans.sort()
                for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                    assert e1 < s2

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

    def test_global_ids_relabeled_in_time_order(self):
        a = traj(7, 0, range(50, 55), vec(5.0))
        b = traj(9, 1, range(0, 5), vec(0.0, 50.0))
        rows = run_mct([a, b], CFG)
        first_by_id = {}
        for r in rows:
            first_by_id.setdefault(r.identity, r.frame)
        assert first_by_id[1] == 0
        assert first_by_id[2] == 50


class TestTrajectoryValidation:
    def test_same_camera_overlap_rejected_at_construction(self):
        seg1 = TrajectorySegment(0, 1, [obs(f) for f in range(0, 10)])
        seg2 = TrajectorySegment(0, 2, [obs(f) for f in range(5, 15)])
        with pytest.raises(ValueError):
            Trajectory(global_id=1, segments=[seg1, seg2], fused=replay_feature([], CFG))


class TestStateAndFilePathsAgree:
    def test_in_process_and_file_driven_mct_match(self, tmp_path):
        """Every tracklet a live tracker state emitted comes back from the
        written rows as one single-segment trajectory with the same camera,
        source id, frames, boxes and embeddings."""
        from mtmctrack.fileio import parse_detections, write_detections
        from mtmctrack.pipeline import trajectories_from_rows
        from mtmctrack.sct import run_sct
        from mtmctrack.synth import generate_scenario, scenario_presets

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
            rows, state = run_sct(by_cam[cam], cfg, camera_id=cam, offline=True)
            all_rows.extend(rows)
            for t in state.tracklets + state.finished:
                if t.ever_confirmed:
                    emitted[(cam, t.id)] = t

        fresh_dets = parse_detections(det_path, cfg.feature_dim)
        from_rows = trajectories_from_rows(all_rows, fresh_dets, cfg)

        assert all(len(traj.segments) == 1 for traj in from_rows)
        by_source = {
            (traj.segments[0].camera_id, traj.segments[0].source_id): traj
            for traj in from_rows
        }
        assert len(by_source) == len(from_rows)
        assert set(by_source) == set(emitted)
        for key, t in emitted.items():
            got = by_source[key].segments[0].observations
            assert [o.frame for o in got] == [o.frame for o in t.observations]
            assert [o.bbox for o in got] == [o.bbox for o in t.observations]
            for o_got, o_live in zip(got, t.observations):
                assert np.array_equal(o_got.embedding, o_live.embedding)
