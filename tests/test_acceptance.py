"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import itertools
import json
import operator
import time
from pathlib import Path

import numpy as np
import pytest

from mtmctrack.assignment import hungarian
from mtmctrack.cli import main as cli_main
from mtmctrack.core import (
    BBox,
    OcclusionStatus,
    Orientation,
    PoseKeypoints,
    TrackRow,
    TrackTable,
    TrackerConfig,
)
from mtmctrack.evaluation import id_measures
from mtmctrack.features import FusedTrackingFeature, update_on_match
from mtmctrack.pipeline import run_pipeline
from mtmctrack.sct import TrackingPhase, Tracklet, phase_of
from mtmctrack.state_estimation import (
    MlpWeights,
    count_valid_keypoints,
    estimate_occlusion,
    mlp_logits,
)
from mtmctrack.fileio import parse_track_rows


def scalar_iou(a, b):
    """IoU of two BBoxes written out in Python floats, apart from the
    package's formula; ``tests/test_core.py`` checks that formula against
    the same arithmetic bit for bit."""
    iw = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    ih = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {num:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


ANCHORS = Path(__file__).parent / "anchors.json"


def _check_anchors(preset: str, out_dir: Path, report: dict) -> None:
    """The preset's IDF1, MOTA, IDS and output digests equal the ledger's.

    The digests follow floating-point results that go through BLAS, so
    under another NumPy than the ledger's the check is skipped."""
    ledger = json.loads(ANCHORS.read_text())
    if np.__version__ != ledger["numpy"]:
        pytest.skip(f"anchors were written with NumPy {ledger['numpy']}, this is {np.__version__}")
    want = ledger["presets"][preset]
    for metric in ("idf1", "mota", "ids"):
        assert report[metric] == want[metric], f"{preset}: {metric} {report[metric]} != {want[metric]}"
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    for name in sorted(got.keys() | want["sha256"].keys()):
        assert got.get(name) == want["sha256"].get(name), f"{preset}: {name} differs from {ANCHORS.name}"


def test_01_assignment_oracle():
    """Hungarian total cost equals brute force on 1000 seeded integer
    matrices of sizes 1-7, exactly, in under 10 seconds."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        m = rng.integers(0, 50, size=(n, n)).astype(float)
        result = hungarian(m)
        total = sum(m[r, c] for r, c in result.matched_pairs)
        best = min(
            sum(m[r, c] for r, c in enumerate(perm))
            for perm in itertools.permutations(range(n))
        )
        if total != best:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "assignment oracle",
        mismatches == 0 and elapsed < 10.0,
        f"{mismatches} mismatches, {elapsed:.2f}s",
    )


def test_02_occlusion_count_oracle():
    """estimate_occlusion agrees with an independent strict-count oracle on
    10,000 random poses, including both boundary families."""
    cfg = TrackerConfig()
    rng = np.random.default_rng(1002)
    bad = 0
    for trial in range(10000):
        if trial % 3 == 0:
            # Boundary-heavy draws: confidences exactly at gamma and counts
            # clustered around theta_valid.
            conf = np.full(17, 0.3)
            n_above = int(rng.integers(0, 18))
            above = rng.choice(17, size=n_above, replace=False)
            conf[above] = rng.uniform(0.300001, 1.0, size=n_above)
        else:
            conf = rng.uniform(0.0, 1.0, 17)
        xyc = np.zeros((17, 3))
        xyc[:, 2] = conf
        pose = PoseKeypoints(xyc)
        oracle_count = sum(1 for c in conf if c > cfg.gamma_valid)
        oracle_status = (
            OcclusionStatus.VALID
            if oracle_count > cfg.theta_valid
            else OcclusionStatus.INVALID
        )
        if count_valid_keypoints(pose, cfg.gamma_valid) != oracle_count:
            bad += 1
        elif estimate_occlusion(pose, cfg) is not oracle_status:
            bad += 1
    # Explicit N_valid == theta_valid boundary.
    xyc = np.zeros((17, 3))
    xyc[:7, 2] = 0.9
    if estimate_occlusion(PoseKeypoints(xyc), cfg) is not OcclusionStatus.INVALID:
        bad += 1
    _report(2, "occlusion oracle", bad == 0, f"{bad} disagreements")


def test_03_cluster_update_invariants():
    """10,000-step random update sequence: cluster cap holds, every center
    equals its shadow-recomputed member mean within 1e-9, and invalid
    inputs leave the valid-only parts bitwise unchanged."""
    cfg = TrackerConfig(feature_dim=8)
    rng = np.random.default_rng(1003)
    F = FusedTrackingFeature()
    shadow: list[list[np.ndarray]] = []
    violations = 0

    class Det:
        __slots__ = ("embedding", "occlusion", "orientation", "frame")

    for step in range(10000):
        d = Det()
        d.embedding = rng.normal(size=8) * 10
        d.occlusion = (
            OcclusionStatus.VALID if rng.random() < 0.7 else OcclusionStatus.INVALID
        )
        d.orientation = list(Orientation)[int(rng.integers(0, 4))]
        d.frame = step
        before = F
        F = update_on_match(F, d, cfg)
        if d.occlusion is OcclusionStatus.INVALID:
            same = (
                F.current is before.current
                and F.orientation_bank is before.orientation_bank
                and F.cluster_set is before.cluster_set
                and F.avg is before.avg
            )
            if not same:
                violations += 1
            continue
        if len(before.cluster_set) < cfg.n_c:
            shadow.append([d.embedding])
            changed = len(shadow) - 1
        else:
            dists = [
                float(np.linalg.norm(c.mean - d.embedding)) for c in before.cluster_set
            ]
            changed = int(np.argmin(dists))
            shadow[changed].append(d.embedding)
        if len(F.cluster_set) > cfg.n_c:
            violations += 1
        cluster = F.cluster_set[changed]
        scratch = np.mean(np.stack(shadow[changed]), axis=0)
        if cluster.count != len(shadow[changed]):
            violations += 1
        elif np.max(np.abs(cluster.mean - scratch)) > 1e-9:
            violations += 1
    # Final full sweep over all clusters.
    for cluster, members in zip(F.cluster_set, shadow):
        scratch = np.mean(np.stack(members), axis=0)
        if np.max(np.abs(cluster.mean - scratch)) > 1e-9:
            violations += 1
    _report(3, "online clustering invariants", violations == 0, f"{violations} violations")


def test_04_mlp_forward_oracle():
    """Logits match a per-neuron multiply-accumulate oracle within 1e-6 over
    1000 seeded draws; argmax invariant under a common final-bias shift."""
    rng = np.random.default_rng(1004)
    worst = 0.0
    argmax_flips = 0
    for trial in range(1000):
        weights = MlpWeights.random(rng, scale=0.3)
        x = rng.normal(size=14)
        fast = mlp_logits(x, weights)
        vec = [float(v) for v in x]
        last = len(weights.layers) - 1
        for idx, (w, b) in enumerate(weights.layers):
            rows = w.tolist()
            biases = b.tolist()
            out = [
                biases[o] + sum(map(operator.mul, rows[o], vec))
                for o in range(len(rows))
            ]
            if idx != last:
                out = [v if v > 0.0 else 0.0 for v in out]
            vec = out
        worst = max(worst, float(np.max(np.abs(fast - np.array(vec)))))
        if trial % 50 == 0:
            w_last, b_last = weights.layers[-1]
            shifted = MlpWeights(weights.layers[:-1] + [(w_last, b_last + 77.7)])
            if int(np.argmax(mlp_logits(x, shifted))) != int(np.argmax(fast)):
                argmax_flips += 1
    _report(
        4,
        "orientation network forward oracle",
        worst <= 1e-6 and argmax_flips == 0,
        f"max |diff| {worst:.2e}",
    )


def test_05_phase_machine_enumeration():
    """Every (phase, miss_count, event) transition of the lifecycle
    automaton with mu_m=10, mu_d=300 and the one-miss rule, driven through
    a tracklet's history and read back with ``phase_of``, exhaustively."""
    cfg = TrackerConfig()

    def detection(frame, valid):
        from mtmctrack.core import DetectionObservation

        status = OcclusionStatus.VALID if valid else OcclusionStatus.INVALID
        return DetectionObservation(0, frame, BBox(0, 0, 1, 1), 1.0,
                                    PoseKeypoints(np.zeros((17, 3))), np.zeros(4),
                                    status, Orientation.FRONT)

    wrong = 0
    checked = 0
    cases = [
        (TrackingPhase.TENTATIVE, [0]),
        (TrackingPhase.CONFIRMED, range(0, cfg.mu_m)),
        (TrackingPhase.INVISIBLE, range(0, cfg.mu_d)),
    ]
    for phase, miss_range in cases:
        for miss in miss_range:
            for event in ("valid", "invalid", "miss"):
                # A tracklet in ``phase`` with ``miss`` on its counter at
                # frame ``now``; the Invisible counter starts at mu_m misses.
                t = Tracklet(id=1, observations=[], fused=FusedTrackingFeature())
                t.append(detection(0, phase is not TrackingPhase.TENTATIVE), cfg)
                now = miss + (cfg.mu_m if phase is TrackingPhase.INVISIBLE else 0)
                if phase_of(t, now, cfg) is not phase:
                    wrong += 1
                if event != "miss":
                    t.append(detection(now + 1, event == "valid"), cfg)
                got = phase_of(t, now + 1, cfg)
                if event == "miss":
                    if phase is TrackingPhase.TENTATIVE:
                        want = TrackingPhase.DISAPPEARED
                    elif phase is TrackingPhase.CONFIRMED:
                        want = (
                            TrackingPhase.INVISIBLE
                            if miss + 1 >= cfg.mu_m
                            else TrackingPhase.CONFIRMED
                        )
                    else:
                        want = (
                            TrackingPhase.DISAPPEARED
                            if miss + 1 >= cfg.mu_d
                            else TrackingPhase.INVISIBLE
                        )
                elif phase is TrackingPhase.TENTATIVE and event == "invalid":
                    want = TrackingPhase.TENTATIVE
                else:
                    want = TrackingPhase.CONFIRMED
                if got is not want:
                    wrong += 1
                checked += 1
    _report(
        5,
        "phase machine enumeration",
        wrong == 0 and checked == (1 + cfg.mu_m + cfg.mu_d) * 3,
        f"{checked} transitions",
    )


def _exhaustive_idf1(gt_rows, pred_rows, thr=0.5):
    gt_tracks = {}
    for r in gt_rows:
        gt_tracks.setdefault(r.identity, {})[(r.camera_id, r.frame)] = r.bbox
    pred_tracks = {}
    for r in pred_rows:
        pred_tracks.setdefault(r.identity, {})[(r.camera_id, r.frame)] = r.bbox
    counts = {}
    for g, gf in gt_tracks.items():
        for p, pf in pred_tracks.items():
            counts[(g, p)] = sum(
                1 for key, box in gf.items() if key in pf and scalar_iou(box, pf[key]) >= thr
            )
    gids, pids = list(gt_tracks), list(pred_tracks)
    best = 0
    for k in range(0, min(len(gids), len(pids)) + 1):
        for gsub in itertools.combinations(gids, k):
            for pperm in itertools.permutations(pids, k):
                best = max(best, sum(counts[(g, p)] for g, p in zip(gsub, pperm)))
    total_gt = sum(len(v) for v in gt_tracks.values())
    total_pred = sum(len(v) for v in pred_tracks.values())
    denom = 2 * best + (total_pred - best) + (total_gt - best)
    return best, 2 * best / denom if denom else 1.0


def test_06_id_measure_oracle():
    """Hungarian-based identity measures equal exhaustive enumeration on 200
    random small instances; the classic swap case scores IDF1 = 0.5."""
    rng = np.random.default_rng(1006)
    bad = 0
    for _ in range(200):
        n_g = int(rng.integers(1, 6))
        n_p = int(rng.integers(1, 6))
        frames = int(rng.integers(1, 21))
        gt, pred = [], []
        for g in range(n_g):
            for f in range(frames):
                if rng.random() < 0.75:
                    gt.append(TrackRow(0, f, g + 1, BBox(0, 30.0 * g, 10, 10)))
        for p in range(n_p):
            lane = int(rng.integers(0, n_g))
            for f in range(frames):
                if rng.random() < 0.75:
                    pred.append(TrackRow(0, f, p + 1, BBox(0, 30.0 * lane, 10, 10)))
        report = id_measures(TrackTable.from_rows(gt), TrackTable.from_rows(pred))
        idtp, idf1 = _exhaustive_idf1(gt, pred)
        if report.idtp != idtp or abs(report.idf1 - idf1) > 1e-12:
            bad += 1

    def swap_tracks():
        gt = [TrackRow(0, f, 1, BBox(0, 0, 10, 10)) for f in range(10)]
        gt += [TrackRow(0, f, 2, BBox(0, 50, 10, 10)) for f in range(10)]
        pred = [TrackRow(0, f, 1, BBox(0, 0, 10, 10)) for f in range(5)]
        pred += [TrackRow(0, f, 2, BBox(0, 50, 10, 10)) for f in range(5)]
        pred += [TrackRow(0, f, 2, BBox(0, 0, 10, 10)) for f in range(5, 10)]
        pred += [TrackRow(0, f, 1, BBox(0, 50, 10, 10)) for f in range(5, 10)]
        return gt, pred

    gt, pred = swap_tracks()
    swap = id_measures(TrackTable.from_rows(gt), TrackTable.from_rows(pred))
    swap_ok = swap.idf1 == pytest.approx(0.5)
    _report(6, "identity measure oracle", bad == 0 and swap_ok, f"{bad} mismatches")


def test_07_end_to_end_easy(tmp_path):
    """The clean single-camera preset tracks essentially perfectly."""
    start = time.perf_counter()
    report = run_pipeline("easy_single_cam", tmp_path / "easy")
    elapsed = time.perf_counter() - start
    ok = report["idf1"] >= 0.95 and report["ids"] == 0 and elapsed < 30.0
    _report(
        7,
        "end-to-end easy scenario",
        ok,
        f"IDF1={report['idf1']:.4f} IDS={report['ids']} {elapsed:.1f}s",
    )
    _check_anchors("easy_single_cam", tmp_path / "easy", report)


def test_08_ablation_direction(tmp_path):
    """Ablating the appearance model moves the metrics the right way:
    the cluster and orientation parts lift IDF1 by at least 5 points over
    the current-only baseline, and the one-frame invalid memory strictly
    reduces identity switches."""
    arms = {
        "baseline": TrackerConfig(
            use_orientation_feature=False,
            use_cluster_feature=False,
            use_invalid_feature=False,
        ),
        "cluster_orientation": TrackerConfig(use_invalid_feature=False),
        "full": TrackerConfig(),
    }
    results = {}
    for name, cfg in arms.items():
        results[name] = run_pipeline("occlusion_heavy", tmp_path / name, cfg=cfg)
    gain = results["cluster_orientation"]["idf1"] - results["baseline"]["idf1"]
    ids_drop = results["full"]["ids"] < results["cluster_orientation"]["ids"]
    ok = gain >= 0.05 and ids_drop
    _report(
        8,
        "ablation direction",
        ok,
        f"IDF1 {results['baseline']['idf1']:.4f}->{results['cluster_orientation']['idf1']:.4f}"
        f" (+{100 * gain:.1f}pts), IDS {results['cluster_orientation']['ids']}"
        f"->{results['full']['ids']}",
    )
    _check_anchors("occlusion_heavy", tmp_path / "full", results["full"])


def test_09_cross_camera_links(tmp_path):
    """The handoff preset recovers at least 90% of cross-camera identity
    links and never overlaps two same-camera segments in one identity."""
    out = tmp_path / "handoff"
    report = run_pipeline("two_camera_handoff", out)
    gt = parse_track_rows(out / "gt.csv")
    pred = parse_track_rows(out / "tracks_mct.csv")

    pred_by_key = {}
    for r in pred:
        pred_by_key.setdefault((r.camera_id, r.frame), {})[r.identity] = r.bbox

    def majority_pred_id(rows):
        votes = {}
        for g in rows:
            for pid, box in pred_by_key.get((g.camera_id, g.frame), {}).items():
                if scalar_iou(g.bbox, box) >= 0.5:
                    votes[pid] = votes.get(pid, 0) + 1
        if not votes:
            return None
        return max(sorted(votes), key=lambda k: votes[k])

    gt_by_ident_cam = {}
    for r in gt:
        gt_by_ident_cam.setdefault(r.identity, {}).setdefault(r.camera_id, []).append(r)
    both = {i: cams for i, cams in gt_by_ident_cam.items() if len(cams) == 2}
    linked = 0
    for ident, cams in both.items():
        pids = {cam: majority_pred_id(rows) for cam, rows in cams.items()}
        values = list(pids.values())
        if values[0] is not None and values[0] == values[1]:
            linked += 1
    recovery = linked / len(both) if both else 0.0

    seen = set()
    duplicates = 0
    for r in pred:
        key = (r.identity, r.camera_id, r.frame)
        if key in seen:
            duplicates += 1
        seen.add(key)

    ok = recovery >= 0.9 and duplicates == 0 and len(both) > 0
    _report(
        9,
        "cross-camera association",
        ok,
        f"{linked}/{len(both)} links, {duplicates} overlaps",
    )
    _check_anchors("two_camera_handoff", out, report)


def test_10_pipeline_determinism(tmp_path):
    """Two CLI pipeline runs with one seed produce byte-identical files."""
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main(
            [
                "pipeline",
                "--preset",
                "easy_single_cam",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    identical = names_a == names_b and all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names_a
    )
    _report(10, "pipeline determinism", identical, f"{len(names_a)} files compared")
