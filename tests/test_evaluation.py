import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtmctrack import evaluation
from mtmctrack.core import BBox, TrackRow, TrackTable
from mtmctrack.evaluation import _join
from mtmctrack.synth import ScenarioSpec, generate_scenario


def id_measures(gt, pred, **kwargs):
    """``evaluation.id_measures`` of two row lists, as tables."""
    return evaluation.id_measures(TrackTable.from_rows(gt), TrackTable.from_rows(pred), **kwargs)


def clear_metrics(gt, pred, **kwargs):
    """``evaluation.clear_metrics`` of two row lists, as tables."""
    return evaluation.clear_metrics(TrackTable.from_rows(gt), TrackTable.from_rows(pred), **kwargs)


def scalar_iou(a, b):
    """IoU of two BBoxes written out in Python floats, apart from the
    package's formula; ``tests/test_core.py`` checks that formula against
    the same arithmetic bit for bit."""
    iw = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    ih = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def row(frame, ident, x=0.0, y=0.0, cam=0, w=10.0, h=10.0):
    return TrackRow(cam, frame, ident, BBox(x, y, w, h))


def track(ident, frames, x=0.0, y=0.0, cam=0):
    return [row(f, ident, x=x, y=y, cam=cam) for f in frames]


def exhaustive_id_measures(gt, pred, thr=0.5):
    """Try every injective identity pairing; the best one defines IDTP."""
    gt_tracks = {}
    for r in gt:
        gt_tracks.setdefault(r.identity, {})[(r.camera_id, r.frame)] = r.bbox
    pred_tracks = {}
    for r in pred:
        pred_tracks.setdefault(r.identity, {})[(r.camera_id, r.frame)] = r.bbox
    counts = {}
    for g, gf in gt_tracks.items():
        for p, pf in pred_tracks.items():
            counts[(g, p)] = sum(
                1
                for key, box in gf.items()
                if key in pf and scalar_iou(box, pf[key]) >= thr
            )
    gids, pids = list(gt_tracks), list(pred_tracks)
    best = 0
    for k in range(0, min(len(gids), len(pids)) + 1):
        for gsub in itertools.combinations(gids, k):
            for pperm in itertools.permutations(pids, k):
                best = max(
                    best, sum(counts[(g, p)] for g, p in zip(gsub, pperm))
                )
    total_gt = sum(len(v) for v in gt_tracks.values())
    total_pred = sum(len(v) for v in pred_tracks.values())
    idfn = total_gt - best
    idfp = total_pred - best
    denom = 2 * best + idfp + idfn
    return best, idfp, idfn, (2 * best / denom if denom else 1.0)


def exhaustive_clear(gt, pred, thr=0.5):
    """CLEAR by enumeration: in each (camera, frame), in key order, try
    every matching of gated pairs and keep the lexicographic best: most
    pairs, then fewest pairs that do not continue their truth identity's
    previous pairing in that camera, then least total 1 - IoU."""
    by_key = {}
    for side, rows in enumerate((gt, pred)):
        for r in rows:
            by_key.setdefault((r.camera_id, r.frame), ([], []))[side].append(r)
    fp = fn = ids = 0
    last_pair = {}
    for (cam, _), (g_rows, p_rows) in sorted(by_key.items()):

        def matchings(i, used):
            if i == len(g_rows):
                yield []
                return
            yield from matchings(i + 1, used)
            for j, pr in enumerate(p_rows):
                if j not in used and scalar_iou(g_rows[i].bbox, pr.bbox) >= thr:
                    for rest in matchings(i + 1, used | {j}):
                        yield [(g_rows[i], pr)] + rest

        def rank(m):
            fresh = sum(last_pair.get((cam, g.identity)) != p.identity for g, p in m)
            return (-len(m), fresh, sum(1.0 - scalar_iou(g.bbox, p.bbox) for g, p in m))

        best = min(matchings(0, frozenset()), key=rank)
        fn += len(g_rows) - len(best)
        fp += len(p_rows) - len(best)
        for g, p in best:
            prev = last_pair.get((cam, g.identity))
            ids += prev is not None and prev != p.identity
            last_pair[(cam, g.identity)] = p.identity
    mota = 1.0 - (fn + fp + ids) / len(gt)
    return fp, fn, ids, mota


class TestIdMeasures:
    def test_perfect_prediction(self):
        gt = track(1, range(10)) + track(2, range(10), y=50)
        report = id_measures(gt, gt)
        assert report.idf1 == report.idp == report.idr == 1.0
        assert report.idfp == report.idfn == 0

    def test_swap_halves_idf1(self):
        gt = track(1, range(10)) + track(2, range(10), y=50)
        pred = (
            track(1, range(5)) + track(2, range(5), y=50)
            + track(2, range(5, 10)) + track(1, range(5, 10), y=50)
        )
        report = id_measures(gt, pred)
        assert report.idtp == 10
        assert report.idfp == 10
        assert report.idfn == 10
        assert report.idf1 == pytest.approx(0.5)

    def test_half_coverage_gives_half_idr(self):
        gt = track(1, range(10))
        pred = track(1, range(5))
        report = id_measures(gt, pred)
        assert report.idr == pytest.approx(0.5)
        assert report.idp == 1.0

    def test_empty_both(self):
        report = id_measures([], [])
        assert report.idf1 == report.idp == report.idr == 1.0

    def test_empty_gt_nonempty_pred(self):
        report = id_measures([], track(1, range(5)))
        assert report.idp == 0.0
        assert report.idf1 == 0.0
        assert report.idr == 1.0

    def test_label_permutation_invariance(self):
        gt = track(1, range(8)) + track(2, range(8), y=50) + track(3, range(4), y=100)
        pred = track(5, range(8)) + track(9, range(6), y=50) + track(7, range(4), y=100)
        base = id_measures(gt, pred)
        relabeled = [TrackRow(r.camera_id, r.frame, {5: 50, 9: 90, 7: 70}[r.identity], r.bbox) for r in pred]
        other = id_measures(gt, relabeled)
        assert base == other

    def test_swap_symmetry(self):
        gt = track(1, range(8)) + track(2, range(5), y=50)
        pred = track(3, range(6)) + track(4, range(8), y=50)
        a = id_measures(gt, pred)
        b = id_measures(pred, gt)
        assert a.idf1 == pytest.approx(b.idf1)
        assert a.idp == pytest.approx(b.idr)
        assert a.idr == pytest.approx(b.idp)

    def test_cross_camera_rows_do_not_colocate(self):
        gt = track(1, range(5), cam=0)
        pred = track(1, range(5), cam=1)
        report = id_measures(gt, pred)
        assert report.idtp == 0

    def test_matches_exhaustive_oracle_on_random_instances(self):
        # Predicted identities may sit on lanes no truth uses, so some rows
        # and columns of the overlap counts are zero; every third instance
        # sets 1-2 identities against up to 7; and either side may be empty.
        rng = np.random.default_rng(51)
        for trial in range(300):
            n_g, n_p = (int(rng.integers(0, 6)) for _ in range(2))
            if trial % 3 == 0:
                n_g, n_p = int(rng.integers(1, 3)), int(rng.integers(1, 8))
                if rng.random() < 0.5:
                    n_g, n_p = n_p, n_g
            frames = int(rng.integers(1, 21))
            gt, pred = [], []
            for g in range(n_g):
                lane = float(g) * 30.0
                for f in range(frames):
                    if rng.random() < 0.8:
                        gt.append(row(f, g + 1, x=0.0, y=lane))
            for p in range(n_p):
                lane = float(rng.integers(0, n_g + 2)) * 30.0
                for f in range(frames):
                    if rng.random() < 0.8:
                        pred.append(row(f, p + 1, x=0.0, y=lane))
            report = id_measures(gt, pred)
            idtp, idfp, idfn, idf1 = exhaustive_id_measures(gt, pred)
            assert report.idtp == idtp
            assert report.idfp == idfp
            assert report.idfn == idfn
            assert report.idf1 == pytest.approx(idf1)

    def test_memory_grows_with_truth_times_predicted_identities(self):
        # 40 truth identities over 100 frames, each row predicted as an
        # identity of its own: 4,000 predicted identities. A square matrix
        # with a dummy partner per identity holds 4,040**2 doubles (125 MiB).
        gt = [row(f, g, y=30.0 * g) for g in range(40) for f in range(100)]
        pred = [TrackRow(r.camera_id, r.frame, k, r.bbox) for k, r in enumerate(gt)]
        tracemalloc.start()
        try:
            report = id_measures(gt, pred)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (report.idtp, report.idfp, report.idfn) == (40, 3960, 3960)
        assert peak < 64 * 2**20

    def test_iou_threshold_bounds(self):
        with pytest.raises(ValueError):
            id_measures([], [], iou_threshold=0.0)
        with pytest.raises(ValueError):
            id_measures([], [], iou_threshold=1.0)

    def test_duplicate_rows_rejected(self):
        rows = [row(0, 1), row(0, 1)]
        with pytest.raises(ValueError):
            id_measures(rows, [])

    def test_iou_at_the_threshold_colocates(self):
        # Intersection 50, union 100 + 50 - 50: IoU exactly 0.5.
        gt = [row(0, 1)]
        pred = [row(0, 7, h=5.0)]
        assert scalar_iou(gt[0].bbox, pred[0].bbox) == 0.5
        assert id_measures(gt, pred).idtp == 1
        assert clear_metrics(gt, pred) == clear_metrics(gt, gt)
        assert id_measures(gt, pred, iou_threshold=np.nextafter(0.5, 1.0)).idtp == 0


class TestClearMetrics:
    def test_perfect_prediction(self):
        gt = track(1, range(10)) + track(2, range(10), y=50)
        report = clear_metrics(gt, gt)
        assert report.mota == 1.0
        assert report.ids == 0
        assert report.fp == report.fn == 0

    def test_swap_counts_two_switches(self):
        gt = track(1, range(10)) + track(2, range(10), y=50)
        pred = (
            track(1, range(5)) + track(2, range(5), y=50)
            + track(2, range(5, 10)) + track(1, range(5, 10), y=50)
        )
        report = clear_metrics(gt, pred)
        assert report.ids == 2
        assert report.mota == pytest.approx(1.0 - 2 / 20)

    def test_spurious_box_per_frame(self):
        gt = track(1, range(10)) + track(2, range(10), y=50)
        pred = gt + track(9, range(10), y=500)
        report = clear_metrics(gt, pred)
        assert report.fp == 10
        assert report.fn == 0
        assert report.ids == 0
        assert report.mota == pytest.approx(0.5)

    def test_missed_boxes_are_fn(self):
        gt = track(1, range(10))
        pred = track(1, range(6))
        report = clear_metrics(gt, pred)
        assert report.fn == 4
        assert report.mota == pytest.approx(0.6)

    def test_carry_over_prefers_previous_pairing(self):
        # Two predictions sit on the same GT box; the one that tracked it
        # previously keeps it even though the other is fractionally closer.
        gt = [row(0, 1, x=0.0), row(1, 1, x=0.0)]
        pred = [
            row(0, 7, x=0.0),
            row(1, 7, x=1.0),   # continuation, slightly offset
            row(1, 8, x=0.0),   # interloper, perfect overlap
        ]
        report = clear_metrics(gt, pred)
        assert report.ids == 0
        assert report.fp == 1  # the interloper goes unmatched

    def test_switch_counted_across_gap(self):
        gt = track(1, range(6))
        pred = track(3, range(3)) + track(4, range(4, 6))
        report = clear_metrics(gt, pred)
        assert report.ids == 1
        assert report.fn == 1  # frame 3 uncovered

    def test_empty_gt_with_predictions(self):
        report = clear_metrics([], track(1, range(3)))
        assert report.fp == 3
        assert report.mota == 0.0

    def test_empty_both(self):
        report = clear_metrics([], [])
        assert report.mota == 1.0
        assert report.ids == 0

    def test_matches_exhaustive_oracle_on_random_instances(self):
        # Continuous offsets: no two IoUs tie, so the best matching is unique.
        rng = np.random.default_rng(52)
        for _ in range(200):
            gt, pred = [], []
            for cam in range(int(rng.integers(1, 3))):
                for f in range(int(rng.integers(1, 9))):
                    g_ids = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
                    anchors = []
                    for g in g_ids:
                        x, y = 7.0 * g + rng.uniform(-2, 2), rng.uniform(-2, 2)
                        gt.append(row(f, int(g) + 1, x=x, y=y, cam=cam))
                        anchors.append((x, y))
                    p_ids = rng.choice(5, size=int(rng.integers(1, 5)), replace=False)
                    for p in p_ids:
                        x, y = anchors[int(rng.integers(len(anchors)))]
                        x, y = x + rng.uniform(-3, 3), y + rng.uniform(-3, 3)
                        pred.append(row(f, int(p) + 1, x=x, y=y, cam=cam))
            report = clear_metrics(gt, pred)
            fp, fn, ids, mota = exhaustive_clear(gt, pred)
            assert (report.fp, report.fn, report.ids) == (fp, fn, ids)
            assert report.mota == mota

    @pytest.mark.parametrize("side", ["gt", "pred"])
    def test_duplicate_rows_rejected(self, side):
        rows = [row(0, 1), row(1, 1), row(1, 1, x=3.0)]
        gt, pred = (rows, track(1, range(2))) if side == "gt" else (track(1, range(2)), rows)
        named = {"gt": "truth", "pred": "prediction"}[side]
        message = f"duplicate row for identity 1 at camera 0 frame 1 in the {named}$"
        with pytest.raises(ValueError, match=message):
            clear_metrics(gt, pred)


class TestScoredAgainstItself:
    # A box's IoU with itself can round a few ulps above 1, so this also
    # checks that a perfect box costs nothing rather than less than nothing.
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        jitter=st.sampled_from([0.0, 1.5]),
        cameras=st.integers(1, 2),
        identities=st.integers(1, 6),
        frames=st.integers(1, 40),
    )
    def test_relabelled_truth_scores_perfect(self, seed, jitter, cameras, identities, frames):
        spec = ScenarioSpec(
            num_identities=identities,
            num_cameras=cameras,
            frames=frames,
            bbox_jitter_sigma=jitter,
            feature_dim=4,
            seed=seed,
        )
        gt = generate_scenario(spec).gt_rows
        pred = [TrackRow(r.camera_id, r.frame, 1000 - r.identity, r.bbox) for r in gt]
        ids = id_measures(gt, pred)
        clear = clear_metrics(gt, pred)
        assert (ids.idf1, ids.idtp, ids.idfp, ids.idfn) == (1.0, len(gt), 0, 0)
        assert (clear.mota, clear.ids, clear.fp, clear.fn) == (1.0, 0, 0, 0)


def random_keys(rng, n_keys):
    """Shuffled rows over ``n_keys`` (camera, frame) keys with 0 to 5 truth
    and 0 to 5 predicted rows each: some keys have one side empty, some
    hold more pairs than a small chunk."""
    gt, pred = [], []
    for f in range(n_keys):
        cam = int(rng.integers(0, 2))
        for side in (gt, pred):
            for ident in rng.choice(9, size=int(rng.integers(0, 6)), replace=False):
                x, y = rng.uniform(0, 20, size=2)
                w, h = rng.uniform(5, 15, size=2)
                side.append(row(f, int(ident), x=x, y=y, cam=cam, w=w, h=h))
    return [gt[k] for k in rng.permutation(len(gt))], [pred[k] for k in rng.permutation(len(pred))]


def per_key_join(gt, pred, thr):
    """The join key by key: every truth x predicted pair of a (camera,
    frame), scored by ``scalar_iou``."""
    out = []
    for key in sorted({(r.camera_id, r.frame) for r in gt + pred}):
        g_rows, p_rows = (
            sorted((r for r in rows if (r.camera_id, r.frame) == key), key=lambda r: r.identity)
            for rows in (gt, pred)
        )
        pairs = []
        for (i, g), (j, p) in itertools.product(enumerate(g_rows), enumerate(p_rows)):
            overlap = scalar_iou(g.bbox, p.bbox)
            if overlap >= thr:
                pairs.append((i, j, overlap))
        out.append((key, g_rows, p_rows, pairs))
    return out


def join_by_key(gt, pred, thr):
    """``_join`` of two row lists in ``per_key_join``'s shape. Its hits are
    consumed in order, key by key, so hits out of key order fail."""
    join = _join(TrackTable.from_rows(gt), TrackTable.from_rows(pred), thr)
    rows = list(join.rows)
    hits = list(zip(join.hit_g.tolist(), join.hit_p.tolist(), join.hit_iou.tolist()))
    out = []
    for first, n, m in zip(join.first.tolist(), join.n.tolist(), join.m.tolist()):
        pairs = []
        while hits and first <= hits[0][0] < first + n:
            g, p, overlap = hits.pop(0)
            pairs.append((g - first, p - first - n, overlap))
        key = (rows[first].camera_id, rows[first].frame)
        out.append((key, rows[first : first + n], rows[first + n : first + n + m], pairs))
    assert hits == []
    return out


class TestColocatedChunks:
    @pytest.mark.parametrize("chunk", [1, 2, 7, None])
    def test_matches_per_key_iou_matrix_bit_for_bit(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(evaluation, "CHUNK_PAIRS", chunk)
        rng = np.random.default_rng(53)
        for _ in range(30):
            gt, pred = random_keys(rng, int(rng.integers(0, 25)))
            thr = float(rng.uniform(0.05, 0.6))
            got = join_by_key(gt, pred, thr)
            want = per_key_join(gt, pred, thr)
            assert [g[:3] for g in got] == [w[:3] for w in want]
            for (*_, got_pairs), (*_, want_pairs) in zip(got, want):
                assert [(i, j) for i, j, _ in got_pairs] == [(i, j) for i, j, _ in want_pairs]
                assert all(type(v) is float for _, _, v in got_pairs)
                got_bits = np.array([v for *_, v in got_pairs], dtype=np.float64).view(np.uint64)
                want_bits = np.array([v for *_, v in want_pairs], dtype=np.float64).view(np.uint64)
                assert np.array_equal(got_bits, want_bits)

    @pytest.mark.parametrize(
        "truth_repeats, pred_repeats, named",
        [
            (True, True, "1 at camera 0 frame 3 in the truth"),
            (False, True, "5 at camera 0 frame 3 in the prediction"),
        ],
    )
    def test_duplicate_names_the_first_repeat_in_file_order(
        self, truth_repeats, pred_repeats, named
    ):
        # A side repeats two (identity, frame) rows. The sort puts frame 1
        # first, but frame 3's repeat comes first in the file.
        def side(ident, repeats):
            rows = [row(3, ident), row(1, ident + 1)]
            return rows + ([row(3, ident, x=1.0), row(1, ident + 1, x=2.0)] if repeats else [])

        gt = TrackTable.from_rows(side(1, truth_repeats))
        pred = TrackTable.from_rows(side(5, pred_repeats))
        with pytest.raises(ValueError, match=f"^duplicate row for identity {named}$"):
            _join(gt, pred, 0.5)
