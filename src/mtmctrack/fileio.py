"""File formats and configuration parsing.

Detections travel as JSON lines (one object per detection: camera, frame,
bbox, conf, 51 keypoint floats, embedding). Track rows are CSV: camera N's
rows are MOT-shaped ("frame,id,x,y,w,h,1,-1,-1,-1") in ``cam<N>.txt``, the
multi-camera flavor prefixes a camera column. A metric report is written as
``report.json`` and ``report.txt``. All floats are serialized with full
round-trip precision and every writer goes through a temp file renamed on
success, so a failed run never leaves partial output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from .core import (
    BBox,
    DetectionObservation,
    NUM_KEYPOINTS,
    PoseKeypoints,
    TrackRow,
    TrackerConfig,
    as_feature,
)

PathLike = Union[str, Path]

KEYPOINT_FLOATS = NUM_KEYPOINTS * 3


class ParseError(ValueError):
    """A file did not match its format; the message names the line."""


def _atomic_write(path: PathLike, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="ascii")
    os.replace(tmp, path)


def track_file_name(camera_id: int) -> str:
    """File name of one camera's MOT-shaped track rows."""
    return f"cam{camera_id}.txt"


def find_track_files(directory: PathLike) -> dict[int, Path]:
    """The ``cam<N>.txt`` files of a directory, keyed by camera, in path
    order. Raises FileNotFoundError when there are none."""
    files = sorted(Path(directory).glob("cam*.txt"))
    if not files:
        raise FileNotFoundError(f"no cam*.txt files in {directory}")
    return {int(f.stem[3:]): f for f in files}


def write_report(out_dir: PathLike, report: dict) -> None:
    """Write ``report.json`` and its ``key: value`` lines as ``report.txt``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "report.json", json.dumps(report, indent=2) + "\n")
    lines = [f"{key:>6}: {value}" for key, value in report.items()]
    _atomic_write(out_dir / "report.txt", "\n".join(lines) + "\n")


def write_detections(path: PathLike, dets: Iterable[DetectionObservation]) -> None:
    """One JSON object per line; embeddings kept at full precision."""
    lines = []
    for det in dets:
        record = {
            "camera": det.camera_id,
            "frame": det.frame,
            "bbox": [det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h],
            "conf": det.det_confidence,
            "keypoints": [float(v) for v in det.pose.xyc.reshape(-1)],
            "embedding": [float(v) for v in det.embedding],
        }
        lines.append(json.dumps(record))
    _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def parse_detections(path: PathLike, feature_dim: int = 128) -> list[DetectionObservation]:
    """Read a detection file; records are sorted by (camera, frame) stably.

    Occlusion and orientation are left unset: they are derived state, not
    detector output.
    """
    dets = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            try:
                keypoints = record["keypoints"]
                if len(keypoints) != KEYPOINT_FLOATS:
                    raise ParseError(
                        f"{path}: line {lineno}: expected {KEYPOINT_FLOATS} keypoint "
                        f"floats, got {len(keypoints)}"
                    )
                embedding = as_feature(record["embedding"], feature_dim)
                bbox = record["bbox"]
                if len(bbox) != 4:
                    raise ParseError(
                        f"{path}: line {lineno}: bbox needs 4 values, got {len(bbox)}"
                    )
                conf = float(record["conf"])
                if not math.isfinite(conf):
                    raise ParseError(
                        f"{path}: line {lineno}: conf must be finite, got {conf}"
                    )
                dets.append(
                    DetectionObservation(
                        camera_id=int(record["camera"]),
                        frame=int(record["frame"]),
                        bbox=BBox(*[float(v) for v in bbox]),
                        det_confidence=conf,
                        pose=PoseKeypoints(
                            np.asarray(keypoints, dtype=np.float64).reshape(
                                NUM_KEYPOINTS, 3
                            )
                        ),
                        embedding=embedding,
                    )
                )
            except ParseError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    dets.sort(key=lambda d: (d.camera_id, d.frame))
    return dets


def write_track_rows(
    path: PathLike, rows: list[TrackRow], include_camera: bool = False
) -> None:
    """Track rows as CSV.

    Single-camera files are MOT-shaped ("frame,id,x,y,w,h,1,-1,-1,-1");
    with ``include_camera`` a leading camera column is added
    ("camera,frame,id,x,y,w,h").
    """
    lines = []
    for r in sorted(rows, key=lambda r: r.sort_key()):
        b = r.bbox
        coords = f"{_num(b.x)},{_num(b.y)},{_num(b.w)},{_num(b.h)}"
        if include_camera:
            lines.append(f"{r.camera_id},{r.frame},{r.identity},{coords}")
        else:
            lines.append(f"{r.frame},{r.identity},{coords},1,-1,-1,-1")
    _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def _num(v: float) -> str:
    # Integral values print without a trailing ".0"; everything else keeps
    # full round-trip precision.
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def parse_track_rows(path: PathLike, camera_id: Optional[int] = None) -> list[TrackRow]:
    """Read either CSV flavor.

    7-column rows carry their camera; 10-column MOT rows need ``camera_id``
    from the caller (usually derived from the file name).
    """
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) == 7:
                    cam, frame, ident = int(parts[0]), int(parts[1]), int(parts[2])
                    box = BBox(*[float(v) for v in parts[3:7]])
                elif len(parts) == 10:
                    if camera_id is None:
                        raise ParseError(
                            f"{path}: line {lineno}: 10-column row needs an "
                            "explicit camera id"
                        )
                    cam = camera_id
                    frame, ident = int(parts[0]), int(parts[1])
                    box = BBox(*[float(v) for v in parts[2:6]])
                else:
                    raise ParseError(
                        f"{path}: line {lineno}: expected 7 or 10 columns, "
                        f"got {len(parts)}"
                    )
            except ParseError:
                raise
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            rows.append(TrackRow(cam, frame, ident, box))
    return rows


_BOOL_FIELDS = frozenset(
    {
        "use_orientation_feature",
        "use_cluster_feature",
        "use_invalid_feature",
        "mct_velocity_gate",
    }
)
_INT_FIELDS = frozenset(
    {
        "theta_valid",
        "mu_m",
        "mu_d",
        "k_interval",
        "n_c",
        "l_rectify",
        "max_gap",
        "feature_dim",
    }
)


def load_config(path: Optional[PathLike] = None) -> TrackerConfig:
    """Flat "key = value" config; unknown keys are rejected to catch typos.

    Missing keys keep their defaults; a missing path means all defaults.
    Boolean switches take exactly 0 or 1.
    """
    if path is None:
        return TrackerConfig()
    known = set(TrackerConfig.field_names())
    values = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in known:
                raise ParseError(f"{path}: line {lineno}: unknown key {key!r}")
            try:
                number = float(raw)
            except ValueError as exc:
                raise ParseError(
                    f"{path}: line {lineno}: non-numeric value {raw!r} for {key}"
                ) from exc
            if not math.isfinite(number):
                raise ParseError(
                    f"{path}: line {lineno}: {key} must be finite, got {raw!r}"
                )
            if key in _BOOL_FIELDS:
                if number not in (0.0, 1.0):
                    raise ParseError(
                        f"{path}: line {lineno}: {key} must be 0 or 1, got {raw!r}"
                    )
                values[key] = number == 1.0
            elif key in _INT_FIELDS:
                if number != int(number):
                    raise ParseError(
                        f"{path}: line {lineno}: {key} must be an integer"
                    )
                values[key] = int(number)
            else:
                values[key] = number
    return TrackerConfig(**values)


def config_as_text(cfg: TrackerConfig) -> str:
    """The effective configuration in the same flat format load_config reads."""
    lines = []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = int(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"
