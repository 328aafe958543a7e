"""Cross-camera association of completed single-camera trajectories.

Trajectories are compared with the same appearance distance as tracklet
clustering and linked greedily. Linked trajectories never overlap in time,
so after every merge the later one's observations are folded onto the
earlier one's fused feature, which equals replaying their union. The merged
trajectory's row and column of the distance matrix are then recomputed,
including the refreshed camera-overlap and temporal gates. In-camera rows
are never altered; association only relabels them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import (
    BBox,
    DetectionObservation,
    FORBIDDEN,
    TrackRow,
    TrackerConfig,
    forbidden_matrix,
)
from .features import FusedTrackingFeature, cluster_distance, replay_feature
from .sct import physical_constraints_ok

logger = logging.getLogger(__name__)


@dataclass
class TrajectorySegment:
    """One camera's contiguous contribution to a trajectory: the matched
    detections, in frame order."""

    camera_id: int
    source_id: int
    observations: list[DetectionObservation]

    @property
    def start_frame(self) -> int:
        return self.observations[0].frame

    @property
    def end_frame(self) -> int:
        return self.observations[-1].frame


@dataclass
class Trajectory:
    """A merged identity, possibly spanning cameras; its segments are in
    time order and never overlap."""

    global_id: int
    segments: list[TrajectorySegment]
    fused: FusedTrackingFeature

    def __post_init__(self):
        for a, b in zip(self.segments, self.segments[1:]):
            if b.start_frame <= a.end_frame:
                raise ValueError(
                    f"trajectory {self.global_id}: segments out of time order or "
                    f"overlapping (camera {a.camera_id} ends at frame {a.end_frame}, "
                    f"camera {b.camera_id} starts at frame {b.start_frame})"
                )

    @property
    def cameras(self) -> set[int]:
        return {s.camera_id for s in self.segments}

    @property
    def start_frame(self) -> int:
        return self.segments[0].start_frame

    @property
    def end_frame(self) -> int:
        return self.segments[-1].end_frame

    @property
    def first_bbox(self) -> BBox:
        return self.segments[0].observations[0].bbox

    @property
    def last_bbox(self) -> BBox:
        return self.segments[-1].observations[-1].bbox

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
    # No velocity gate: image-plane distances are not comparable between views.
    if not physical_constraints_ok(a, b, cfg, check_velocity=False):
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

    Each trajectory's ``fused`` must be the replay of its observations, as
    ``trajectories_from_rows`` builds it. The cheapest pair is merged, the
    later trajectory's observations folded onto the earlier one's feature
    (the replay of the union, as the pair cannot overlap in time), and the
    merged distances to every survivor recomputed before the next pick.
    Output global ids are reassigned in order of first appearance.
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
        earlier, later = (dst, src) if dst.start_frame < src.start_frame else (src, dst)
        if later.start_frame <= earlier.end_frame:
            raise ValueError(
                f"trajectories {dst.global_id} and {src.global_id} overlap in time"
            )
        dst.fused = replay_feature(
            [o for s in later.segments for o in s.observations], cfg, earlier.fused
        )
        dst.segments = earlier.segments + later.segments
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
