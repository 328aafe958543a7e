"""End-to-end orchestration: synth -> sct -> mct -> eval, through files.

Every stage reads and writes the formats in ``fileio``, so a pipeline run
exercises exactly the surfaces the command-line tools expose, and two runs
with the same seed and config produce byte-identical artifacts.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from pathlib import Path
from typing import Optional

import numpy as np

from .core import DetectionObservation, TrackTable, TrackerConfig
from .evaluation import clear_metrics, id_measures
from .fileio import (
    parse_detections,
    parse_track_files,
    parse_track_rows,
    track_file_name,
    write_detections,
    write_report,
    write_track_rows,
)
from .mct import Trajectory, run_mct
from .features import FusedTrackingFeature, replay_feature
from .sct import run_sct
from .state_estimation import OrientationEstimator, populate_state
from .synth import ScenarioSpec, generate_scenario, preset_spec

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


def _usable_cpus() -> int:
    # sched_getaffinity is Linux's; elsewhere the stage runs in-process.
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _camera_groups(by_camera: dict[int, list], count: int) -> list[list[int]]:
    """``count`` groups of cameras balanced by detection count: largest
    camera first, into the least-loaded group (the first of equals), ties
    between cameras broken by camera id."""
    groups: list[list[int]] = [[] for _ in range(count)]
    loads = [0] * count
    for cam in sorted(by_camera, key=lambda c: (-len(by_camera[c]), c)):
        g = loads.index(min(loads))
        groups[g].append(cam)
        loads[g] += len(by_camera[cam])
    return groups


def _track_cameras(cams, by_camera, cfg, out_dir, offline, estimator) -> list[tuple]:
    """Track and write each camera of ``cams``; returns (camera, path, row
    count, identity count) per camera."""
    results = []
    for cam in cams:
        rows, _ = run_sct(
            by_camera[cam],
            cfg,
            camera_id=cam,
            offline=offline,
            orientation_estimator=estimator,
        )
        path = out_dir / track_file_name(cam)
        write_track_rows(path, rows, include_camera=False)
        results.append((cam, path, len(rows), len({r.identity for r in rows})))
    return results


def _sct_worker(reader, writer, *args) -> None:
    """A forked worker's body: reply with ``_track_cameras``' results, or
    with the exception it raised."""
    # Without the inherited read end, a caller that stops reading breaks
    # the pipe instead of leaving a large reply blocked.
    reader.close()
    try:
        reply = _track_cameras(*args)
    except Exception as exc:
        reply = exc
    try:
        writer.send(reply)
    except BrokenPipeError:
        pass  # the caller failed on its own cameras and no longer listens


def run_sct_stage(
    dets: list[DetectionObservation],
    cfg: TrackerConfig,
    out_dir: Path,
    offline: bool,
    estimator: Optional[OrientationEstimator] = None,
) -> dict[int, Path]:
    """Track each camera independently and write one MOT file per camera.

    The cameras are split into one group per usable CPU, at most one per
    camera, balanced by detection count. The calling process tracks the
    first group; each other group runs in a forked worker process, which
    inherits the detections and replies with counts only. A worker fills
    detection state in its own copy, so the caller's detections of its
    cameras come back without occlusion and orientation;
    ``trajectories_from_rows`` fills them, with the same result per
    detection. With one group nothing forks. A worker's exception is raised
    again here; a worker that dies without replying raises ValueError.
    Every worker is joined before this returns or raises.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    by_camera: dict[int, list[DetectionObservation]] = {}
    for det in dets:
        by_camera.setdefault(det.camera_id, []).append(det)
    groups = _camera_groups(by_camera, max(1, min(len(by_camera), _usable_cpus())))
    args = (by_camera, cfg, out_dir, offline, estimator)
    workers = []
    try:
        for cams in groups[1:]:
            ctx = multiprocessing.get_context("fork")
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_sct_worker, args=(reader, writer, cams, *args))
            proc.start()
            writer.close()
            workers.append((cams, proc, reader))
        results = _track_cameras(groups[0], *args)
        for cams, proc, reader in workers:
            try:
                reply = reader.recv()
            except EOFError:
                proc.join()
                raise ValueError(
                    f"sct: worker for cameras {cams} exited with code {proc.exitcode} "
                    "without a reply"
                ) from None
            if isinstance(reply, BaseException):
                raise reply
            results.extend(reply)
    finally:
        # Every read end first: a later worker inherited the earlier ones.
        for _, _, reader in workers:
            reader.close()
        for _, proc, _ in workers:
            proc.join()
    outputs = {}
    for cam, path, rows, identities in sorted(results):
        outputs[cam] = path
        logger.info("sct: camera %d -> %d rows, %d identities", cam, rows, identities)
    return outputs


def trajectories_from_rows(
    rows: TrackTable,
    dets: list[DetectionObservation],
    cfg: TrackerConfig,
    estimator: Optional[OrientationEstimator] = None,
) -> list[Trajectory]:
    """Rebuild per-camera trajectories from row files plus the original
    detections (the rows alone carry no appearance).

    Each trajectory's feature is the replay of its detections without a
    cluster set: cross-camera linking reads only the averaged feature and
    the orientation slots, and every link carries the ``None`` on.

    The rows are walked in stable (camera, frame, identity) order. A row
    must name exactly one detection by its camera, frame and box."""
    populate_state(dets, cfg, estimator)
    lookup: dict[tuple, DetectionObservation] = {}
    shared: set[tuple] = set()
    for det in dets:
        key = (det.camera_id, det.frame, det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h)
        if lookup.setdefault(key, det) is not det:
            shared.add(key)

    grouped: dict[tuple[int, int], list[DetectionObservation]] = {}
    order = np.lexsort((rows.identity, rows.frame, rows.camera))
    columns = (rows.camera, rows.frame, rows.identity, *rows.boxes.T)
    for cam, frame, ident, x, y, w, h in zip(*(np.take(c, order).tolist() for c in columns)):
        key = (cam, frame, x, y, w, h)
        det = lookup.get(key)
        if det is None or key in shared:
            problem = "has no matching" if det is None else "matches more than one"
            raise ValueError(
                f"track row (camera {cam}, frame {frame}, id {ident}) {problem} detection"
            )
        group = grouped.setdefault((cam, ident), [])
        if group and group[-1].frame == frame:
            raise ValueError(f"track rows repeat (camera {cam}, frame {frame}, id {ident})")
        group.append(det)

    trajs = []
    for cam, ident in sorted(grouped):
        obs = grouped[(cam, ident)]
        trajs.append(
            Trajectory(
                observations=obs,
                fused=replay_feature(obs, cfg, FusedTrackingFeature(cluster_set=None)),
                sources=[(cam, ident)],
            )
        )
    return trajs


def run_mct_stage(
    track_files: dict[int, Path],
    dets: list[DetectionObservation],
    cfg: TrackerConfig,
    out_dir: Path,
    estimator: Optional[OrientationEstimator] = None,
) -> Path:
    """Cross-camera association over per-camera row files."""
    trajs = trajectories_from_rows(parse_track_files(track_files), dets, cfg, estimator)
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
    gt_rows: TrackTable,
    pred_rows: TrackTable,
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
    cfg = cfg or TrackerConfig()
    out_dir = Path(out_dir)
    det_path, gt_path = run_synth_stage(preset_spec(preset, seed), out_dir)
    dets = parse_detections(det_path, cfg.feature_dim)
    track_files = run_sct_stage(dets, cfg, out_dir, offline, estimator)
    mct_path = run_mct_stage(track_files, dets, cfg, out_dir, estimator)
    gt_rows = parse_track_rows(gt_path)
    pred_rows = parse_track_rows(mct_path)
    return run_eval_stage(gt_rows, pred_rows, out_dir)
