"""Cross-camera association of completed single-camera trajectories.

Trajectories are compared with the same appearance distance as tracklet
clustering and linked greedily. After every merge the merged trajectory's
fused feature is rebuilt by replay and its row and column of the distance
matrix are recomputed, including the refreshed camera-overlap and temporal
gates. In-camera rows are never altered; association only relabels them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BBox,
    FORBIDDEN,
    TrackRow,
    TrackerConfig,
    forbidden_matrix,
)
from .features import FusedTrackingFeature, cluster_distance, replay_feature
from .sct import ObsRecord, physical_constraints_ok

logger = logging.getLogger(__name__)


@dataclass
class TrajectorySegment:
    """One camera's contiguous contribution to a trajectory."""

    camera_id: int
    source_id: int
    observations: list[ObsRecord]

    @property
    def start_frame(self) -> int:
        return self.observations[0].frame

    @property
    def end_frame(self) -> int:
        return self.observations[-1].frame


@dataclass
class Trajectory:
    """A merged identity, possibly spanning cameras."""

    global_id: int
    segments: list[TrajectorySegment]
    fused: FusedTrackingFeature
    cameras: set[int] = field(default_factory=set)

    def __post_init__(self):
        if not self.cameras:
            self.cameras = {s.camera_id for s in self.segments}
        self._check_no_same_camera_overlap()

    def _check_no_same_camera_overlap(self):
        by_cam: dict[int, list[TrajectorySegment]] = {}
        for s in self.segments:
            by_cam.setdefault(s.camera_id, []).append(s)
        for cam, segs in by_cam.items():
            segs = sorted(segs, key=lambda s: s.start_frame)
            for a, b in zip(segs, segs[1:]):
                if b.start_frame <= a.end_frame:
                    raise ValueError(
                        f"trajectory {self.global_id}: overlapping segments "
                        f"in camera {cam}"
                    )

    @property
    def _ordered_obs(self) -> list[tuple[int, int, ObsRecord]]:
        out = [
            (o.frame, s.camera_id, o) for s in self.segments for o in s.observations
        ]
        out.sort(key=lambda t: (t[0], t[1]))
        return out

    @property
    def start_frame(self) -> int:
        return min(s.start_frame for s in self.segments)

    @property
    def end_frame(self) -> int:
        return max(s.end_frame for s in self.segments)

    @property
    def first_bbox(self) -> BBox:
        return self._ordered_obs[0][2].bbox

    @property
    def last_bbox(self) -> BBox:
        return self._ordered_obs[-1][2].bbox

    def all_observations(self) -> list[ObsRecord]:
        return [o for _, _, o in self._ordered_obs]

    def rows(self) -> list[TrackRow]:
        return [
            TrackRow(s.camera_id, o.frame, self.global_id, o.bbox)
            for s in self.segments
            for o in s.observations
        ]


def assign_global_ids(trajs: list[Trajectory]) -> None:
    """Number trajectories from 1 in order of first frame, camera, source id."""
    order = sorted(
        range(len(trajs)),
        key=lambda i: (
            trajs[i].start_frame,
            min(trajs[i].cameras),
            min(s.source_id for s in trajs[i].segments),
        ),
    )
    for new_id, idx in enumerate(order, start=1):
        trajs[idx].global_id = new_id


def _pair_distance(a: Trajectory, b: Trajectory, cfg: TrackerConfig) -> float:
    if a.cameras & b.cameras:
        return FORBIDDEN
    if not physical_constraints_ok(a, b, cfg, check_velocity=cfg.mct_velocity_gate):
        return FORBIDDEN
    return cluster_distance(a.fused, b.fused, cfg)


def build_mct_matrix(trajs: list[Trajectory], cfg: TrackerConfig) -> np.ndarray:
    """Symmetric trajectory-pair distances; the diagonal, same-camera pairs
    and physically impossible pairs are forbidden."""
    n = len(trajs)
    m = forbidden_matrix(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            d = _pair_distance(trajs[i], trajs[j], cfg)
            m[i, j] = d
            m[j, i] = d
    return m


def associate_mct(trajs: list[Trajectory], cfg: TrackerConfig) -> list[Trajectory]:
    """Greedily link trajectories across cameras below ``theta_mct``.

    The cheapest pair is merged, its fused feature rebuilt by replaying the
    union of observations, and its distances to every survivor recomputed
    before the next pick. Output global ids are reassigned in order of
    first appearance.
    """
    trajs = list(trajs)
    n = len(trajs)
    if n == 0:
        return []
    m = build_mct_matrix(trajs, cfg)
    alive = [True] * n
    while True:
        flat = int(np.argmin(m))
        i, j = divmod(flat, n)
        if not np.isfinite(m[i, j]) or m[i, j] > cfg.theta_mct:
            break
        if i > j:
            i, j = j, i
        dst, src = trajs[i], trajs[j]
        dst.segments = sorted(
            dst.segments + src.segments, key=lambda s: (s.start_frame, s.camera_id)
        )
        dst.cameras |= src.cameras
        dst._check_no_same_camera_overlap()
        dst.fused = replay_feature(dst.all_observations(), cfg)
        alive[j] = False
        m[j, :] = FORBIDDEN
        m[:, j] = FORBIDDEN
        for k in range(n):
            if alive[k] and k != i:
                d = _pair_distance(dst, trajs[k], cfg)
                m[i, k] = d
                m[k, i] = d
        m[i, i] = FORBIDDEN
        logger.debug("linked trajectory %d into %d", src.global_id, dst.global_id)
    merged = [t for k, t in enumerate(trajs) if alive[k]]
    assign_global_ids(merged)
    return merged


def run_mct(trajs: list[Trajectory], cfg: TrackerConfig) -> list[TrackRow]:
    """Associate and flatten to identity-labeled rows."""
    merged = associate_mct(trajs, cfg)
    rows = [row for t in merged for row in t.rows()]
    rows.sort(key=lambda r: r.sort_key())
    return rows
