import math

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
    TrackerConfig,
)
from mtmctrack.features import (
    Cluster,
    ClusterSet,
    FusedTrackingFeature,
    InvalidSlot,
    MeanSlot,
    OrientationBank,
    cluster_distance,
    dist_cluster_sets,
    dist_orientation_banks,
    expire_invalid,
    rectify_distance,
    replay_feature,
    update_cluster,
    update_on_match,
)
from mtmctrack.sct import ObsRecord, Tracklet, TrackingPhase, compute_distance_matrix


class FakeDet:
    """Anything with embedding/occlusion/orientation/frame feeds the fused
    feature; tests use this instead of building full detections."""

    def __init__(self, embedding, occlusion, orientation=Orientation.FRONT, frame=0):
        self.embedding = np.asarray(embedding, dtype=float)
        self.occlusion = occlusion
        self.orientation = orientation
        self.frame = frame


CFG = TrackerConfig(feature_dim=8)


def vec(*values, dim=8):
    v = np.zeros(dim)
    v[: len(values)] = values
    return v


# Only the channel under test: no cluster or invalid channel.
ORIENTATION_ONLY = TrackerConfig(
    feature_dim=8, use_cluster_feature=False, use_invalid_feature=False
)
CLUSTER_ONLY = TrackerConfig(
    feature_dim=8, use_orientation_feature=False, use_invalid_feature=False
)


def det_distance(F, embedding, orientation=Orientation.FRONT, cfg=CFG):
    """The tracklet-detection distance of a tracklet holding ``F`` to a
    valid detection one frame later at the same place."""
    box = BBox(0.0, 0.0, 10.0, 20.0)
    record = ObsRecord(0, box, 1.0, OcclusionStatus.VALID, orientation, vec(0))
    t = Tracklet(1, 0, TrackingPhase.CONFIRMED, F, [record])
    det = DetectionObservation(
        camera_id=0,
        frame=1,
        bbox=box,
        det_confidence=1.0,
        pose=PoseKeypoints(np.full((17, 3), 0.9)),
        embedding=embedding,
        occlusion=OcclusionStatus.VALID,
        orientation=orientation,
    )
    return compute_distance_matrix([t], [det], cfg)[0, 0]


def absorbing_index(before: ClusterSet, after: ClusterSet) -> int:
    """The index of the cluster whose member count grew."""
    grown = [
        k
        for k, (b, a) in enumerate(zip(before.clusters, after.clusters))
        if a.member_count != b.member_count
    ]
    assert len(grown) == 1
    return grown[0]


def norm_argmin(clusters, feature) -> int:
    return int(np.argmin([np.linalg.norm(c.center - feature) for c in clusters]))


class TestUpdateCluster:
    def test_first_valid_feature_opens_cluster(self):
        result = update_cluster(ClusterSet(), vec(1, 2), OcclusionStatus.VALID, 4)
        assert len(result) == 1
        assert np.array_equal(result.clusters[0].center, vec(1, 2))
        assert result.clusters[0].member_count == 1

    def test_invalid_feature_is_ignored(self):
        start = update_cluster(ClusterSet(), vec(1), OcclusionStatus.VALID, 4)
        after = update_cluster(start, vec(9), OcclusionStatus.INVALID, 4)
        assert after is start

    def test_nearest_cluster_absorbs_at_cap(self):
        cs = ClusterSet()
        anchors = [vec(0), vec(10), vec(20), vec(30)]
        for a in anchors:
            cs = update_cluster(cs, a, OcclusionStatus.VALID, 4)
        newcomer = vec(21)
        cs2 = update_cluster(cs, newcomer, OcclusionStatus.VALID, 4)
        assert len(cs2) == 4
        # Only cluster 2 moved, to the mean of its members.
        for idx in (0, 1, 3):
            assert np.array_equal(cs2.clusters[idx].center, anchors[idx])
        expected = np.mean([anchors[2], newcomer], axis=0)
        assert np.allclose(cs2.clusters[2].center, expected, atol=1e-9)
        assert cs2.clusters[2].member_count == 2

    def test_centers_track_shadow_means(self):
        rng = np.random.default_rng(21)
        cs = ClusterSet()
        shadow = []  # member features per cluster
        for _ in range(300):
            f = rng.normal(size=8) * 10
            status = OcclusionStatus.VALID if rng.random() < 0.8 else OcclusionStatus.INVALID
            before = cs
            cs = update_cluster(cs, f, status, 4)
            if status is OcclusionStatus.INVALID:
                assert cs is before
                continue
            if len(before) < 4:
                shadow.append([f])
            else:
                dists = [np.linalg.norm(c.center - f) for c in before.clusters]
                shadow[int(np.argmin(dists))].append(f)
            assert len(cs) <= 4
            for cluster, members in zip(cs.clusters, shadow):
                assert cluster.member_count == len(members)
                assert np.allclose(cluster.center, np.mean(members, axis=0), atol=1e-9)

    def test_tie_goes_to_lowest_index(self):
        cs = ClusterSet((Cluster(vec(0), 1), Cluster(vec(2), 1)))
        out = update_cluster(cs, vec(1), OcclusionStatus.VALID, 2)
        assert out.clusters[0].member_count == 2
        assert out.clusters[1].member_count == 1

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_c=st.integers(1, 5),
        grid=st.booleans(),
    )
    def test_absorbing_cluster_matches_norm_argmin(self, seed, n_c, grid):
        """Oracle: the absorbing cluster is ``np.argmin`` over
        ``np.linalg.norm`` distances. Small-integer vectors make exact ties
        frequent."""
        rng = np.random.default_rng(seed)

        def draw():
            if grid:
                return rng.integers(-2, 3, size=8).astype(np.float64)
            return rng.normal(size=8) * 10

        cs = ClusterSet(tuple(Cluster(draw(), int(rng.integers(1, 4))) for _ in range(n_c)))
        f = draw()
        out = update_cluster(cs, f, OcclusionStatus.VALID, n_c)
        k = norm_argmin(cs.clusters, f)
        assert absorbing_index(cs, out) == k
        old = cs.clusters[k]
        expected = (old.center * old.member_count + f) / (old.member_count + 1)
        assert np.array_equal(out.clusters[k].center, expected)

    def test_roots_that_round_equal_tie_to_lowest_index(self):
        """Two centers whose squared distances differ by rounding but whose
        distances round to the same double: the tie goes to index 0 even
        though index 1 has the smaller square."""
        rng = np.random.default_rng(26)
        f = vec(0)
        checked = 0
        while checked < 20:
            far = vec(*rng.uniform(1.0, 10.0, 2))
            near = far.copy()
            near[1] = np.nextafter(near[1], -np.inf)
            sq_far, sq_near = far.dot(far), near.dot(near)
            if not (sq_near < sq_far and math.sqrt(sq_near) == math.sqrt(sq_far)):
                continue
            cs = ClusterSet((Cluster(far, 1), Cluster(near, 1)))
            out = update_cluster(cs, f, OcclusionStatus.VALID, 2)
            assert norm_argmin(cs.clusters, f) == 0
            assert absorbing_index(cs, out) == 0
            checked += 1


class TestUpdateOnMatch:
    def test_fresh_feature_from_valid_detection(self):
        det = FakeDet(vec(5, 5), OcclusionStatus.VALID, Orientation.LEFT, frame=3)
        F = update_on_match(FusedTrackingFeature(), det, CFG)
        assert np.array_equal(F.current, vec(5, 5))
        assert np.array_equal(F.avg.mean, vec(5, 5))
        assert F.avg.count == 1
        assert len(F.cluster_set) == 1
        assert F.orientation_bank.slot(Orientation.LEFT).count == 1
        assert F.orientation_bank.slot(Orientation.FRONT) is None
        assert F.invalid is None

    def test_invalid_detection_touches_only_invalid_slot(self):
        base = update_on_match(
            FusedTrackingFeature(), FakeDet(vec(1), OcclusionStatus.VALID, frame=1), CFG
        )
        det = FakeDet(vec(9), OcclusionStatus.INVALID, frame=2)
        F = update_on_match(base, det, CFG)
        assert np.array_equal(F.invalid.feature, vec(9))
        assert F.invalid.frame == 2
        assert F.current is base.current
        assert F.orientation_bank is base.orientation_bank
        assert F.cluster_set is base.cluster_set
        assert F.avg is base.avg

    def test_two_valid_detections_average(self):
        u, v = vec(2, 0), vec(0, 2)
        F = FusedTrackingFeature()
        F = update_on_match(F, FakeDet(u, OcclusionStatus.VALID, Orientation.BACK, 1), CFG)
        F = update_on_match(F, FakeDet(v, OcclusionStatus.VALID, Orientation.BACK, 2), CFG)
        assert np.allclose(F.avg.mean, (u + v) / 2)
        assert np.allclose(F.orientation_bank.slot(Orientation.BACK).mean, (u + v) / 2)
        assert np.array_equal(F.current, v)

    def test_later_writes_to_the_detection_do_not_reach_the_feature(self):
        valid = FakeDet(vec(2, 1), OcclusionStatus.VALID, Orientation.LEFT, frame=1)
        invalid = FakeDet(vec(4), OcclusionStatus.INVALID, frame=2)
        F = update_on_match(FusedTrackingFeature(), valid, CFG)
        F = update_on_match(F, invalid, CFG)
        valid.embedding[:] = 99.0
        invalid.embedding[:] = 99.0
        assert np.array_equal(F.current, vec(2, 1))
        assert np.array_equal(F.avg.mean, vec(2, 1))
        assert np.array_equal(F.orientation_bank.slot(Orientation.LEFT).mean, vec(2, 1))
        assert np.array_equal(F.cluster_set.clusters[0].center, vec(2, 1))
        assert np.array_equal(F.invalid.feature, vec(4))

    def test_valid_match_clears_invalid_slot(self):
        F = FusedTrackingFeature(invalid=InvalidSlot(vec(1), 5))
        F = update_on_match(F, FakeDet(vec(2), OcclusionStatus.VALID, frame=6), CFG)
        assert F.invalid is None


class TestExpireInvalid:
    def test_last_frame_kept(self):
        F = FusedTrackingFeature(invalid=InvalidSlot(vec(1), 10))
        assert expire_invalid(F, 11).invalid is not None

    def test_older_removed(self):
        F = FusedTrackingFeature(invalid=InvalidSlot(vec(1), 10))
        assert expire_invalid(F, 12).invalid is None

    def test_no_slot_unchanged(self):
        F = FusedTrackingFeature()
        assert expire_invalid(F, 100) is F


class TestDistances:
    def test_orientation_to_det_same_mean(self):
        bank = OrientationBank().fold(Orientation.RIGHT, vec(3))
        F = FusedTrackingFeature(orientation_bank=bank)
        assert det_distance(F, vec(3), Orientation.RIGHT, ORIENTATION_ONLY) == 0.0

    def test_orientation_to_det_empty_slot_forbidden(self):
        # Only the other orientations' slots are filled.
        bank = OrientationBank()
        for o in (Orientation.FRONT, Orientation.BACK, Orientation.LEFT):
            bank = bank.fold(o, vec(3))
        F = FusedTrackingFeature(orientation_bank=bank)
        assert det_distance(F, vec(3), Orientation.RIGHT, ORIENTATION_ONLY) == FORBIDDEN

    def test_orientation_to_det_distance(self):
        bank = OrientationBank().fold(Orientation.FRONT, vec(1, 0))
        F = FusedTrackingFeature(orientation_bank=bank)
        got = det_distance(F, vec(0, 1), Orientation.FRONT, ORIENTATION_ONLY)
        assert got == float(np.linalg.norm(vec(1, 0) - vec(0, 1)))
        assert got == pytest.approx(np.sqrt(2))

    def test_banks_identical(self):
        bank = OrientationBank().fold(Orientation.FRONT, vec(1)).fold(
            Orientation.LEFT, vec(2)
        )
        assert dist_orientation_banks(bank, bank) == 0.0

    def test_banks_disjoint_forbidden(self):
        a = OrientationBank().fold(Orientation.FRONT, vec(1))
        b = OrientationBank().fold(Orientation.BACK, vec(1))
        assert dist_orientation_banks(a, b) == FORBIDDEN

    def test_banks_minimum_over_common(self):
        a = OrientationBank().fold(Orientation.FRONT, vec(0)).fold(Orientation.LEFT, vec(0))
        b = OrientationBank().fold(Orientation.FRONT, vec(5)).fold(Orientation.LEFT, vec(2))
        assert dist_orientation_banks(a, b) == pytest.approx(2.0)

    def test_cluster_sets_equal_centers(self):
        a = ClusterSet((Cluster(vec(1), 1),))
        assert dist_cluster_sets(a, a) == 0.0

    def test_cluster_sets_empty_forbidden(self):
        assert dist_cluster_sets(ClusterSet(), ClusterSet((Cluster(vec(1), 1),))) == FORBIDDEN

    def test_cluster_sets_pairwise_minimum(self):
        # Pairwise distances {3, 1, 3, 7} on one axis; the minimum wins.
        a = ClusterSet((Cluster(vec(0), 1), Cluster(vec(6), 1)))
        b = ClusterSet((Cluster(vec(3), 1), Cluster(vec(-1), 1)))
        oracle = min(
            abs(x - y) for x in (0.0, 6.0) for y in (3.0, -1.0)
        )
        assert dist_cluster_sets(a, b) == oracle == 1.0

    def test_cluster_sets_symmetric(self):
        rng = np.random.default_rng(22)
        a = ClusterSet(tuple(Cluster(rng.normal(size=8), 1) for _ in range(3)))
        b = ClusterSet(tuple(Cluster(rng.normal(size=8), 1) for _ in range(2)))
        assert dist_cluster_sets(a, b) == pytest.approx(dist_cluster_sets(b, a))

    def test_cluster_to_det(self):
        cs = ClusterSet((Cluster(vec(6), 1), Cluster(vec(2), 1), Cluster(vec(9), 1)))
        got = det_distance(FusedTrackingFeature(cluster_set=cs), vec(0), cfg=CLUSTER_ONLY)
        assert got == 2.0
        empty = FusedTrackingFeature(cluster_set=ClusterSet())
        assert det_distance(empty, vec(0), cfg=CLUSTER_ONLY) == FORBIDDEN
        one = ClusterSet((Cluster(vec(4), 1),))
        F = FusedTrackingFeature(cluster_set=one)
        assert det_distance(F, vec(4), cfg=CLUSTER_ONLY) == 0.0


class TestPairDistance:
    def test_identical_features_zero_both_modes(self):
        F = update_on_match(
            FusedTrackingFeature(), FakeDet(vec(1), OcclusionStatus.VALID), CFG
        )
        assert rectify_distance(F, F, CFG) == 0.0
        assert cluster_distance(F, F, CFG) == 0.0

    def test_cluster_mode_takes_minimum(self):
        a = FusedTrackingFeature(
            avg=MeanSlot(vec(0), 1),
            orientation_bank=OrientationBank().fold(Orientation.FRONT, vec(0)),
        )
        b = FusedTrackingFeature(
            avg=MeanSlot(vec(8), 1),
            orientation_bank=OrientationBank().fold(Orientation.FRONT, vec(3)),
        )
        assert cluster_distance(a, b, CFG) == pytest.approx(3.0)

    def test_rectify_mode_empty_clusters_forbidden(self):
        a = FusedTrackingFeature()
        b = update_on_match(
            FusedTrackingFeature(), FakeDet(vec(1), OcclusionStatus.VALID), CFG
        )
        assert rectify_distance(a, b, CFG) == FORBIDDEN

    def test_cluster_mode_absent_avg_uses_orientation(self):
        a = FusedTrackingFeature(
            orientation_bank=OrientationBank().fold(Orientation.LEFT, vec(1))
        )
        b = FusedTrackingFeature(
            avg=MeanSlot(vec(0), 3),
            orientation_bank=OrientationBank().fold(Orientation.LEFT, vec(2)),
        )
        assert cluster_distance(a, b, CFG) == pytest.approx(1.0)

    def test_both_absent_forbidden(self):
        assert (
            cluster_distance(FusedTrackingFeature(), FusedTrackingFeature(), CFG)
            == FORBIDDEN
        )


class TestInvariants:
    def test_long_random_sequence(self):
        """Cluster cap, shadow means, orientation means, avg, and the
        untouchability of valid-only parts by invalid inputs."""
        rng = np.random.default_rng(23)
        F = FusedTrackingFeature()
        valid_feats = []
        by_orientation = {o: [] for o in Orientation}
        shadow_clusters = []
        for step in range(2000):
            f = rng.normal(size=8) * 5
            orientation = list(Orientation)[rng.integers(0, 4)]
            status = (
                OcclusionStatus.VALID if rng.random() < 0.7 else OcclusionStatus.INVALID
            )
            det = FakeDet(f, status, orientation, frame=step)
            before = F
            F = update_on_match(F, det, CFG)
            if status is OcclusionStatus.INVALID:
                assert F.current is before.current
                assert F.orientation_bank is before.orientation_bank
                assert F.cluster_set is before.cluster_set
                assert F.avg is before.avg
                assert np.array_equal(F.invalid.feature, f)
                continue
            valid_feats.append(f)
            by_orientation[orientation].append(f)
            if len(shadow_clusters) < CFG.n_c:
                shadow_clusters.append([f])
            else:
                dists = [
                    np.linalg.norm(c.center - f) for c in before.cluster_set.clusters
                ]
                shadow_clusters[int(np.argmin(dists))].append(f)
            assert len(F.cluster_set) <= CFG.n_c
        assert np.allclose(F.avg.mean, np.mean(valid_feats, axis=0), atol=1e-9)
        assert F.avg.count == len(valid_feats)
        for o in Orientation:
            slot = F.orientation_bank.slot(o)
            if not by_orientation[o]:
                assert slot is None
            else:
                assert slot.count == len(by_orientation[o])
                assert np.allclose(
                    slot.mean, np.mean(by_orientation[o], axis=0), atol=1e-9
                )
        for cluster, members in zip(F.cluster_set.clusters, shadow_clusters):
            assert cluster.member_count == len(members)
            assert np.allclose(cluster.center, np.mean(members, axis=0), atol=1e-9)

    def test_single_cluster_degenerates_to_avg(self):
        rng = np.random.default_rng(24)
        cfg = TrackerConfig(feature_dim=8, n_c=1)
        F = FusedTrackingFeature()
        for step in range(200):
            status = (
                OcclusionStatus.VALID if rng.random() < 0.8 else OcclusionStatus.INVALID
            )
            F = update_on_match(
                F, FakeDet(rng.normal(size=8), status, frame=step), cfg
            )
        assert len(F.cluster_set) == 1
        assert np.allclose(F.cluster_set.clusters[0].center, F.avg.mean, atol=1e-9)
        assert F.cluster_set.clusters[0].member_count == F.avg.count


class TestReplay:
    def test_replay_matches_incremental(self):
        rng = np.random.default_rng(25)
        records = [
            FakeDet(
                rng.normal(size=8),
                OcclusionStatus.VALID if rng.random() < 0.7 else OcclusionStatus.INVALID,
                list(Orientation)[rng.integers(0, 4)],
                frame=i,
            )
            for i in range(100)
        ]
        incremental = FusedTrackingFeature()
        for r in records:
            incremental = update_on_match(incremental, r, CFG)
            incremental = expire_invalid(incremental, r.frame)
        replayed = replay_feature(records, CFG)
        assert np.array_equal(replayed.current, incremental.current)
        assert (replayed.avg.count, replayed.avg.mean.tolist()) == (
            incremental.avg.count,
            incremental.avg.mean.tolist(),
        )
        for o in Orientation:
            s1, s2 = replayed.orientation_bank.slot(o), incremental.orientation_bank.slot(o)
            assert (s1 is None) == (s2 is None)
            if s1 is not None:
                assert np.array_equal(s1.mean, s2.mean)
