"""End-to-end orchestration: synth -> sct -> mct -> eval, through files.

Every stage reads and writes the formats in ``fileio``, so a pipeline run
exercises exactly the surfaces the command-line tools expose, and two runs
with the same seed and config produce byte-identical artifacts.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Optional

from .core import DetectionObservation, TrackRow, TrackerConfig
from .evaluation import clear_metrics, id_measures
from .fileio import (
    parse_detections,
    parse_track_rows,
    track_file_name,
    write_detections,
    write_report,
    write_track_rows,
)
from .mct import Trajectory, TrajectorySegment, assign_global_ids, run_mct
from .features import replay_feature
from .sct import ObsRecord, run_sct
from .state_estimation import OrientationEstimator, populate_state
from .synth import ScenarioSpec, generate_scenario, scenario_presets

logger = logging.getLogger(__name__)


def run_synth_stage(spec: ScenarioSpec, out_dir: Path) -> tuple[Path, Path]:
    """Generate a scenario and write its detection and ground-truth files."""
    data = generate_scenario(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    det_path = out_dir / "detections.jsonl"
    gt_path = out_dir / "gt.csv"
    write_detections(det_path, data.detections)
    write_track_rows(gt_path, data.gt_rows, include_camera=True)
    logger.info(
        "synth: %d detections, %d ground-truth rows, %d cameras",
        len(data.detections),
        len(data.gt_rows),
        spec.num_cameras,
    )
    return det_path, gt_path


def run_sct_stage(
    dets: list[DetectionObservation],
    cfg: TrackerConfig,
    out_dir: Path,
    offline: bool,
    estimator: Optional[OrientationEstimator] = None,
) -> dict[int, Path]:
    """Track each camera independently and write one MOT file per camera."""
    out_dir.mkdir(parents=True, exist_ok=True)
    by_camera: dict[int, list[DetectionObservation]] = {}
    for det in dets:
        by_camera.setdefault(det.camera_id, []).append(det)
    outputs = {}
    for cam in sorted(by_camera):
        rows, _ = run_sct(
            by_camera[cam],
            cfg,
            camera_id=cam,
            offline=offline,
            orientation_estimator=estimator,
        )
        path = out_dir / track_file_name(cam)
        write_track_rows(path, rows, include_camera=False)
        outputs[cam] = path
        logger.info(
            "sct: camera %d -> %d rows, %d identities",
            cam,
            len(rows),
            len({r.identity for r in rows}),
        )
    return outputs


def trajectories_from_rows(
    rows: list[TrackRow],
    dets: list[DetectionObservation],
    cfg: TrackerConfig,
    estimator: Optional[OrientationEstimator] = None,
) -> list[Trajectory]:
    """Rebuild per-camera trajectories from row files plus the original
    detections (the rows alone carry no appearance)."""
    populate_state(
        [d for d in dets if d.occlusion is None or d.orientation is None],
        cfg,
        estimator or OrientationEstimator(),
    )
    lookup: dict[tuple, DetectionObservation] = {}
    for det in dets:
        key = (det.camera_id, det.frame, det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h)
        lookup.setdefault(key, det)

    grouped: dict[tuple[int, int], list[ObsRecord]] = {}
    for row in sorted(rows, key=lambda r: r.sort_key()):
        key = (row.camera_id, row.frame, row.bbox.x, row.bbox.y, row.bbox.w, row.bbox.h)
        det = lookup.get(key)
        if det is None:
            raise ValueError(
                f"track row (camera {row.camera_id}, frame {row.frame}, "
                f"id {row.identity}) has no matching detection"
            )
        grouped.setdefault((row.camera_id, row.identity), []).append(
            ObsRecord.from_detection(det)
        )

    trajs = []
    for cam, ident in sorted(grouped):
        obs = grouped[(cam, ident)]
        trajs.append(
            Trajectory(
                global_id=0,
                segments=[TrajectorySegment(cam, ident, obs)],
                fused=replay_feature(obs, cfg),
            )
        )
    assign_global_ids(trajs)
    return trajs


def run_mct_stage(
    track_files: dict[int, Path],
    dets: list[DetectionObservation],
    cfg: TrackerConfig,
    out_dir: Path,
    estimator: Optional[OrientationEstimator] = None,
) -> Path:
    """Cross-camera association over per-camera row files."""
    rows: list[TrackRow] = []
    for cam, path in sorted(track_files.items()):
        rows.extend(parse_track_rows(path, camera_id=cam))
    trajs = trajectories_from_rows(rows, dets, cfg, estimator)
    merged_rows = run_mct(trajs, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "tracks_mct.csv"
    write_track_rows(out_path, merged_rows, include_camera=True)
    logger.info(
        "mct: %d trajectories in, %d identities out",
        len(trajs),
        len({r.identity for r in merged_rows}),
    )
    return out_path


def run_eval_stage(
    gt_rows: list[TrackRow],
    pred_rows: list[TrackRow],
    out_dir: Optional[Path] = None,
    iou_threshold: float = 0.5,
) -> dict:
    """ID measures plus CLEAR metrics, optionally written as a report."""
    ids_report = id_measures(gt_rows, pred_rows, iou_threshold)
    clear = clear_metrics(gt_rows, pred_rows, iou_threshold)
    report = {
        "idf1": ids_report.idf1,
        "idp": ids_report.idp,
        "idr": ids_report.idr,
        "idtp": ids_report.idtp,
        "idfp": ids_report.idfp,
        "idfn": ids_report.idfn,
        "mota": clear.mota,
        "ids": clear.ids,
        "fp": clear.fp,
        "fn": clear.fn,
    }
    if out_dir is not None:
        write_report(out_dir, report)
    logger.info(
        "eval: IDF1=%.4f IDP=%.4f IDR=%.4f MOTA=%.4f IDS=%d",
        report["idf1"],
        report["idp"],
        report["idr"],
        report["mota"],
        report["ids"],
    )
    return report


def run_pipeline(
    preset: str,
    out_dir: Path,
    cfg: Optional[TrackerConfig] = None,
    seed: Optional[int] = None,
    offline: bool = True,
    estimator: Optional[OrientationEstimator] = None,
) -> dict:
    """synth -> sct -> mct -> eval in one run; returns the metric report."""
    presets = scenario_presets()
    if preset not in presets:
        raise ValueError(
            f"unknown preset {preset!r}; available: {', '.join(sorted(presets))}"
        )
    spec = presets[preset]
    if seed is not None:
        spec.seed = seed
    cfg = cfg or TrackerConfig()
    out_dir = Path(out_dir)

    det_path, gt_path = run_synth_stage(spec, out_dir)
    dets = parse_detections(det_path, cfg.feature_dim)
    track_files = run_sct_stage(dets, cfg, out_dir, offline, estimator)
    mct_path = run_mct_stage(track_files, dets, cfg, out_dir, estimator)
    gt_rows = parse_track_rows(gt_path)
    pred_rows = parse_track_rows(mct_path)
    return run_eval_stage(gt_rows, pred_rows, out_dir)
