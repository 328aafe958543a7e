import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
    FusedTrackingFeature,
    History,
    MeanSlot,
    cluster_distance,
    rectify_distance,
    replay_feature,
    update_cluster,
    update_on_match,
)
from mtmctrack.mct import Trajectory
from mtmctrack.sct import Tracklet, compute_distance_matrix


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
    record = DetectionObservation(
        0, 0, box, 1.0, PoseKeypoints(np.full((17, 3), 0.9)), vec(0),
        OcclusionStatus.VALID, orientation,
    )
    t = Tracklet(id=1, fused=F, observations=[record])
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


def bank(*entries):
    """An orientation tuple with a one-member slot per ``(orientation, mean)``."""
    slots = [None] * len(Orientation)
    for orientation, mean in entries:
        slots[orientation.value] = MeanSlot(mean, 1)
    return tuple(slots)


def absorbing_index(before, after) -> int:
    """The index of the cluster whose member count grew."""
    grown = [
        k for k, (b, a) in enumerate(zip(before, after)) if a.count != b.count
    ]
    assert len(grown) == 1
    return grown[0]


def norm_argmin(clusters, feature) -> int:
    return int(np.argmin([np.linalg.norm(c.mean - feature) for c in clusters]))


# Finite doubles: hypothesis draws -0.0, subnormals and magnitudes near the
# largest double among them.
DOUBLES = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestMeanSlot:
    @settings(max_examples=300, deadline=None)
    @given(
        pair=st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                arrays(np.float64, n, elements=DOUBLES), arrays(np.float64, n, elements=DOUBLES)
            )
        ),
        count=st.integers(1, 2**40),
    )
    @example(pair=(np.array([-0.0, 5e-324, 1e300]), np.array([-0.0, -5e-324, 1e300])), count=1)
    @example(pair=(np.array([0.0, -0.0, 2.2e-308]), np.array([-0.0, -0.0, -1e-310])), count=2**40)
    @example(pair=(np.array([1e300, -1.7e308]), np.array([-1e300, 1.7e308])), count=2**40 - 1)
    def test_fold_is_the_running_mean_formula_byte_for_byte(self, pair, count):
        mean, x = pair
        # A mean near 1e300 times a large count overflows, the same way in both.
        with np.errstate(all="ignore"):
            expected = (mean * count + x) / (count + 1)
            got = MeanSlot(mean, count).fold(x)
        assert got.count == count + 1
        assert got.mean.dtype == expected.dtype
        assert got.mean.tobytes() == expected.tobytes()

    def test_read_only_inputs_fold_and_come_back_unchanged(self):
        mean, x = vec(1.0, -0.0, 3.0), vec(5.0, 2.0, -1.0)
        mean.flags.writeable = False
        x.flags.writeable = False
        before = (mean.tobytes(), x.tobytes())
        slot = MeanSlot(mean, 3)
        got = slot.fold(x)
        assert (mean.tobytes(), x.tobytes()) == before
        assert slot.mean is mean and slot.count == 3
        assert not np.shares_memory(got.mean, mean) and not np.shares_memory(got.mean, x)
        assert got.mean.tobytes() == ((mean * 3 + x) / 4).tobytes()


class TestUpdateCluster:
    def test_first_valid_feature_opens_cluster(self):
        result = update_cluster((), vec(1, 2), 4)
        assert len(result) == 1
        assert np.array_equal(result[0].mean, vec(1, 2))
        assert result[0].count == 1

    def test_nearest_cluster_absorbs_at_cap(self):
        cs = ()
        anchors = [vec(0), vec(10), vec(20), vec(30)]
        for a in anchors:
            cs = update_cluster(cs, a, 4)
        newcomer = vec(21)
        cs2 = update_cluster(cs, newcomer, 4)
        assert len(cs2) == 4
        # Only cluster 2 moved, to the mean of its members.
        for idx in (0, 1, 3):
            assert np.array_equal(cs2[idx].mean, anchors[idx])
        expected = np.mean([anchors[2], newcomer], axis=0)
        assert np.allclose(cs2[2].mean, expected, atol=1e-9)
        assert cs2[2].count == 2

    def test_centers_track_shadow_means(self):
        rng = np.random.default_rng(21)
        cs = ()
        shadow = []  # member features per cluster
        for _ in range(300):
            f = rng.normal(size=8) * 10
            if rng.random() >= 0.8:
                continue  # an invalid detection never reaches the cluster set
            before = cs
            cs = update_cluster(cs, f, 4)
            if len(before) < 4:
                shadow.append([f])
            else:
                dists = [np.linalg.norm(c.mean - f) for c in before]
                shadow[int(np.argmin(dists))].append(f)
            assert len(cs) <= 4
            for cluster, members in zip(cs, shadow):
                assert cluster.count == len(members)
                assert np.allclose(cluster.mean, np.mean(members, axis=0), atol=1e-9)

    def test_tie_goes_to_lowest_index(self):
        cs = (MeanSlot(vec(0), 1), MeanSlot(vec(2), 1))
        out = update_cluster(cs, vec(1), 2)
        assert out[0].count == 2
        assert out[1].count == 1

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

        cs = tuple(MeanSlot(draw(), int(rng.integers(1, 4))) for _ in range(n_c))
        f = draw()
        out = update_cluster(cs, f, n_c)
        k = norm_argmin(cs, f)
        assert absorbing_index(cs, out) == k
        old = cs[k]
        expected = (old.mean * old.count + f) / (old.count + 1)
        assert np.array_equal(out[k].mean, expected)

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
            cs = (MeanSlot(far, 1), MeanSlot(near, 1))
            out = update_cluster(cs, f, 2)
            assert norm_argmin(cs, f) == 0
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
        assert F.orientation_bank[Orientation.LEFT.value].count == 1
        assert F.orientation_bank[Orientation.FRONT.value] is None

    def test_invalid_detection_touches_only_invalid_slot(self):
        base = update_on_match(
            FusedTrackingFeature(), FakeDet(vec(1), OcclusionStatus.VALID, frame=1), CFG
        )
        det = FakeDet(vec(9), OcclusionStatus.INVALID, frame=2)
        # The invalid channel is read from the history, not the feature.
        assert update_on_match(base, det, CFG) is base

    def test_two_valid_detections_average(self):
        u, v = vec(2, 0), vec(0, 2)
        F = FusedTrackingFeature()
        F = update_on_match(F, FakeDet(u, OcclusionStatus.VALID, Orientation.BACK, 1), CFG)
        F = update_on_match(F, FakeDet(v, OcclusionStatus.VALID, Orientation.BACK, 2), CFG)
        assert np.allclose(F.avg.mean, (u + v) / 2)
        assert np.allclose(F.orientation_bank[Orientation.BACK.value].mean, (u + v) / 2)
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
        assert np.array_equal(F.orientation_bank[Orientation.LEFT.value].mean, vec(2, 1))
        assert np.array_equal(F.cluster_set[0].mean, vec(2, 1))


class TestDistances:
    def test_orientation_to_det_same_mean(self):
        F = FusedTrackingFeature(orientation_bank=bank((Orientation.RIGHT, vec(3))))
        assert det_distance(F, vec(3), Orientation.RIGHT, ORIENTATION_ONLY) == 0.0

    def test_orientation_to_det_empty_slot_forbidden(self):
        # Only the other orientations' slots are filled.
        others = (Orientation.FRONT, Orientation.BACK, Orientation.LEFT)
        F = FusedTrackingFeature(orientation_bank=bank(*((o, vec(3)) for o in others)))
        assert det_distance(F, vec(3), Orientation.RIGHT, ORIENTATION_ONLY) == FORBIDDEN

    def test_orientation_to_det_distance(self):
        F = FusedTrackingFeature(orientation_bank=bank((Orientation.FRONT, vec(1, 0))))
        got = det_distance(F, vec(0, 1), Orientation.FRONT, ORIENTATION_ONLY)
        assert got == float(np.linalg.norm(vec(1, 0) - vec(0, 1)))
        assert got == pytest.approx(np.sqrt(2))

    # The bank cases hold only orientation slots, so cluster_distance reads
    # the orientation channel alone; the cluster-set cases hold only
    # clusters, which rectify_distance reads.
    def test_banks_identical(self):
        F = FusedTrackingFeature(
            orientation_bank=bank((Orientation.FRONT, vec(1)), (Orientation.LEFT, vec(2)))
        )
        assert cluster_distance(F, F, CFG) == 0.0

    def test_banks_disjoint_forbidden(self):
        a = FusedTrackingFeature(orientation_bank=bank((Orientation.FRONT, vec(1))))
        b = FusedTrackingFeature(orientation_bank=bank((Orientation.BACK, vec(1))))
        assert cluster_distance(a, b, CFG) == FORBIDDEN

    def test_banks_minimum_over_common(self):
        a = FusedTrackingFeature(
            orientation_bank=bank((Orientation.FRONT, vec(0)), (Orientation.LEFT, vec(0)))
        )
        b = FusedTrackingFeature(
            orientation_bank=bank((Orientation.FRONT, vec(5)), (Orientation.LEFT, vec(2)))
        )
        assert cluster_distance(a, b, CFG) == pytest.approx(2.0)

    def test_cluster_sets_equal_centers(self):
        a = FusedTrackingFeature(cluster_set=(MeanSlot(vec(1), 1),))
        assert rectify_distance(a, a, CFG) == 0.0

    def test_cluster_sets_empty_forbidden(self):
        b = FusedTrackingFeature(cluster_set=(MeanSlot(vec(1), 1),))
        assert rectify_distance(FusedTrackingFeature(), b, CFG) == FORBIDDEN

    def test_cluster_sets_pairwise_minimum(self):
        # Pairwise distances {3, 1, 3, 7} on one axis; the minimum wins.
        a = FusedTrackingFeature(cluster_set=(MeanSlot(vec(0), 1), MeanSlot(vec(6), 1)))
        b = FusedTrackingFeature(cluster_set=(MeanSlot(vec(3), 1), MeanSlot(vec(-1), 1)))
        oracle = min(
            abs(x - y) for x in (0.0, 6.0) for y in (3.0, -1.0)
        )
        assert rectify_distance(a, b, CFG) == oracle == 1.0

    def test_cluster_sets_symmetric(self):
        rng = np.random.default_rng(22)
        a = FusedTrackingFeature(
            cluster_set=tuple(MeanSlot(rng.normal(size=8), 1) for _ in range(3))
        )
        b = FusedTrackingFeature(
            cluster_set=tuple(MeanSlot(rng.normal(size=8), 1) for _ in range(2))
        )
        assert rectify_distance(a, b, CFG) == pytest.approx(rectify_distance(b, a, CFG))

    def test_cluster_to_det(self):
        cs = (MeanSlot(vec(6), 1), MeanSlot(vec(2), 1), MeanSlot(vec(9), 1))
        got = det_distance(FusedTrackingFeature(cluster_set=cs), vec(0), cfg=CLUSTER_ONLY)
        assert got == 2.0
        empty = FusedTrackingFeature(cluster_set=())
        assert det_distance(empty, vec(0), cfg=CLUSTER_ONLY) == FORBIDDEN
        F = FusedTrackingFeature(cluster_set=(MeanSlot(vec(4), 1),))
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
            orientation_bank=bank((Orientation.FRONT, vec(0))),
        )
        b = FusedTrackingFeature(
            avg=MeanSlot(vec(8), 1),
            orientation_bank=bank((Orientation.FRONT, vec(3))),
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
            orientation_bank=bank((Orientation.LEFT, vec(1)))
        )
        b = FusedTrackingFeature(
            avg=MeanSlot(vec(0), 3),
            orientation_bank=bank((Orientation.LEFT, vec(2))),
        )
        assert cluster_distance(a, b, CFG) == pytest.approx(1.0)

    def test_both_absent_forbidden(self):
        assert (
            cluster_distance(FusedTrackingFeature(), FusedTrackingFeature(), CFG)
            == FORBIDDEN
        )


def fold_steps(steps, n_c):
    """The fused feature of ``(valid, orientation, embedding)`` steps, one per
    frame, folded with ``update_on_match``."""
    cfg = TrackerConfig(feature_dim=4, n_c=n_c)
    F = FusedTrackingFeature()
    for frame, (valid, orientation, embedding) in enumerate(steps):
        status = OcclusionStatus.VALID if valid else OcclusionStatus.INVALID
        F = update_on_match(F, FakeDet(embedding, status, orientation, frame), cfg)
    return F


def reference_rule_distances(a, b, cfg):
    """Rectify and cluster distances written out: the minimum per-pair norm
    over each rule's pairs, or FORBIDDEN when the rule has no pair."""

    def norm(u, v):
        return float(np.linalg.norm(u - v))

    rectify_pairs = []
    if cfg.use_cluster_feature:
        rectify_pairs = [norm(ca.mean, cb.mean) for ca in a.cluster_set for cb in b.cluster_set]
    cluster_pairs = []
    if a.avg is not None and b.avg is not None:
        cluster_pairs.append(norm(a.avg.mean, b.avg.mean))
    if cfg.use_orientation_feature:
        for o in Orientation:
            sa, sb = a.orientation_bank[o.value], b.orientation_bank[o.value]
            if sa is not None and sb is not None:
                cluster_pairs.append(norm(sa.mean, sb.mean))
    return min(rectify_pairs, default=FORBIDDEN), min(cluster_pairs, default=FORBIDDEN)


STEPS = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(list(Orientation)),
        st.lists(st.integers(-3, 3).map(float) | st.floats(-10, 10), min_size=4, max_size=4),
    ),
    max_size=12,
)
SWITCHES = ("use_orientation_feature", "use_cluster_feature", "use_invalid_feature")
FRONT_ONLY = [(True, Orientation.FRONT, [1.0, 0.0, 0.0, 0.0])]
INVALID_ONLY = [(False, Orientation.BACK, [2.0, 0.0, 0.0, 0.0])]


class TestRuleDistanceOracle:
    @settings(max_examples=300, deadline=None)
    @given(steps_a=STEPS, steps_b=STEPS, n_c=st.integers(1, 3))
    # No observation at all, and only an invalid one: no avg, no cluster,
    # every orientation slot empty.
    @example(steps_a=[], steps_b=FRONT_ONLY, n_c=2)
    @example(steps_a=INVALID_ONLY, steps_b=FRONT_ONLY, n_c=1)
    @example(steps_a=FRONT_ONLY, steps_b=[(True, Orientation.LEFT, [0.0] * 4)], n_c=1)
    @example(steps_a=[], steps_b=INVALID_ONLY, n_c=1)
    def test_rule_distances_match_reference(self, steps_a, steps_b, n_c):
        # Bit for bit, with every switch on or off: each rule roots its
        # smallest square, the reference takes the smallest norm.
        a, b = fold_steps(steps_a, n_c), fold_steps(steps_b, n_c)
        for switches in itertools.product((False, True), repeat=3):
            cfg = TrackerConfig(feature_dim=4, **dict(zip(SWITCHES, switches)))
            refs = reference_rule_distances(a, b, cfg)
            got = (rectify_distance(a, b, cfg), cluster_distance(a, b, cfg))
            assert [type(d) for d in got] == [float, float]
            assert [d.hex() for d in got] == [d.hex() for d in refs]


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
                assert F is before
                continue
            valid_feats.append(f)
            by_orientation[orientation].append(f)
            if len(shadow_clusters) < CFG.n_c:
                shadow_clusters.append([f])
            else:
                dists = [np.linalg.norm(c.mean - f) for c in before.cluster_set]
                shadow_clusters[int(np.argmin(dists))].append(f)
            assert len(F.cluster_set) <= CFG.n_c
        assert np.allclose(F.avg.mean, np.mean(valid_feats, axis=0), atol=1e-9)
        assert F.avg.count == len(valid_feats)
        for o in Orientation:
            slot = F.orientation_bank[o.value]
            if not by_orientation[o]:
                assert slot is None
            else:
                assert slot.count == len(by_orientation[o])
                assert np.allclose(
                    slot.mean, np.mean(by_orientation[o], axis=0), atol=1e-9
                )
        for cluster, members in zip(F.cluster_set, shadow_clusters):
            assert cluster.count == len(members)
            assert np.allclose(cluster.mean, np.mean(members, axis=0), atol=1e-9)

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
        assert np.allclose(F.cluster_set[0].mean, F.avg.mean, atol=1e-9)
        assert F.cluster_set[0].count == F.avg.count


class TestReplay:
    def test_replay_matches_incremental(self, feature_leaves):
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
        assert feature_leaves(replay_feature(records, CFG)) == feature_leaves(incremental)


def history_records(frames):
    """Detections at ``frames`` over every orientation, some of them invalid."""
    return [
        DetectionObservation(
            camera_id=0,
            frame=f,
            bbox=BBox(100.0 + f, 100.0, 40.0, 80.0),
            det_confidence=0.9,
            pose=PoseKeypoints(np.full((17, 3), 0.9)),
            embedding=vec(5.0 + 0.1 * f, f % 3),
            occlusion=OcclusionStatus.INVALID if f % 5 == 2 else OcclusionStatus.VALID,
            orientation=list(Orientation)[f % 4],
        )
        for f in frames
    ]


def history(frames):
    records = history_records(frames)
    return History(records, replay_feature(records, CFG))


class TestHistory:
    @pytest.mark.parametrize("frames", [[0, 2, 1], [0, 1, 1]])
    @pytest.mark.parametrize("kind", [Tracklet, Trajectory])
    def test_frames_that_do_not_increase_are_refused(self, kind, frames):
        records = history_records(frames)
        owner = {"id": 1} if kind is Tracklet else {"sources": [(0, 1)]}
        with pytest.raises(ValueError, match="frames must strictly increase"):
            kind(observations=records, fused=FusedTrackingFeature(), **owner)

    @pytest.mark.parametrize("frames", [[0, 2, 1], [0, 1, 1]])
    def test_append_folds_each_detection_and_refuses_frames_that_do_not_increase(
        self, feature_leaves, frames
    ):
        records = history_records(frames)
        h = History([], FusedTrackingFeature())
        for r in records[:2]:
            h.append(r, CFG)
        assert [id(o) for o in h.observations] == [id(o) for o in records[:2]]
        before = feature_leaves(h.fused)
        assert before == feature_leaves(replay_feature(records[:2], CFG))
        with pytest.raises(ValueError, match="frames must strictly increase"):
            h.append(records[2], CFG)
        assert (len(h), feature_leaves(h.fused)) == (2, before)

    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.lists(st.integers(0, 40), min_size=2, max_size=20, unique=True),
        cut=st.integers(1, 19),
    )
    def test_absorb_either_way_is_the_replay_of_the_union(self, feature_leaves, frames, cut):
        frames = sorted(frames)
        cut = min(cut, len(frames) - 1)
        union = history_records(frames)
        expected = feature_leaves(replay_feature(union, CFG))
        for keep_earlier in (True, False):
            earlier = History(union[:cut], replay_feature(union[:cut], CFG))
            later = History(union[cut:], replay_feature(union[cut:], CFG))
            dst, src = (earlier, later) if keep_earlier else (later, earlier)
            dst.absorb(src, CFG)
            assert [id(o) for o in dst.observations] == [id(o) for o in union]
            assert feature_leaves(dst.fused) == expected

    @pytest.mark.parametrize(
        "a_frames, b_frames", [([0, 2], [1, 3]), ([0, 5], [5, 6]), ([0, 9], [3, 4])]
    )
    def test_overlapping_pair_is_refused_and_left_as_it_was(
        self, feature_leaves, a_frames, b_frames
    ):
        pairs = [(history(a_frames), history(b_frames)), (history(b_frames), history(a_frames))]
        for dst, src in pairs:
            before = (list(dst.observations), feature_leaves(dst.fused))
            with pytest.raises(ValueError, match="overlap in time"):
                dst.absorb(src, CFG)
            assert (dst.observations, feature_leaves(dst.fused)) == before
