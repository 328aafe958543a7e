"""Cross-camera association of completed single-camera trajectories.

A trajectory is the ``History`` of one identity's detections, from one
camera or several, with the single-camera tracks it was joined from.
Trajectories are compared with the same appearance distance as tracklet
clustering, which reads the averaged feature and the orientation slots
only, and linked greedily. A link is ``History.absorb``, the join a
tracklet merge uses: linked trajectories never overlap in time, so the
later one's detections are folded onto the earlier one's fused feature,
which equals replaying their union. The merged trajectory's row and column
of the distance matrix are then recomputed, including the refreshed
camera-overlap and temporal gates. In-camera rows are never altered;
association only relabels them, numbering the survivors from 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import FORBIDDEN, TrackRow, TrackerConfig, forbidden_matrix
from .features import History, cluster_distance, physical_constraints_ok

logger = logging.getLogger(__name__)


@dataclass(kw_only=True, eq=False, slots=True)
class Trajectory(History):
    """A merged identity, possibly spanning cameras: the ``History`` of its
    detections over every camera, and ``sources``, the (camera, single-camera
    track id) pairs it was joined from. Its ``fused`` keeps no cluster set
    when ``trajectories_from_rows`` builds it, since no link reads one."""

    sources: list[tuple[int, int]]

    @property
    def cameras(self) -> set[int]:
        return {camera for camera, _ in self.sources}


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

    Each trajectory's ``fused`` must be the replay of its observations,
    with or without a cluster set; ``trajectories_from_rows`` builds it
    without. The cheapest pair is joined by ``History.absorb``, which keeps
    that so, and the merged distances to every survivor recomputed before
    the next pick. No distance reads a cluster set, so the links do not
    depend on whether one is kept.
    The survivors are returned in order of first frame, camera and source
    id, the order ``run_mct`` numbers them in.
    """
    trajs = list(trajs)
    n = len(trajs)
    if n == 0:
        return []
    m = build_mct_matrix(trajs, cfg)
    alive = [True] * n
    while True:
        # m is symmetric, and argmin returns the first minimum in row-major
        # order, its upper-triangle copy: i < j.
        i, j = divmod(int(np.argmin(m)), n)
        if not np.isfinite(m[i, j]) or m[i, j] > cfg.theta_mct:
            break
        dst, src = trajs[i], trajs[j]
        logger.debug("linked trajectory %s into %s", src.sources, dst.sources)
        dst.absorb(src, cfg)
        dst.sources = dst.sources + src.sources
        alive[j] = False
        m[j, :] = FORBIDDEN
        m[:, j] = FORBIDDEN
        for k in range(n):
            if alive[k] and k != i:
                d = _pair_distance(dst, trajs[k], cfg)
                m[i, k] = d
                m[k, i] = d
        m[i, i] = FORBIDDEN
    return sorted(
        (t for k, t in enumerate(trajs) if alive[k]),
        key=lambda t: (t.start_frame, min(t.cameras), min(source for _, source in t.sources)),
    )


def run_mct(trajs: list[Trajectory], cfg: TrackerConfig) -> list[TrackRow]:
    """Associate and flatten to rows, numbering the survivors from 1."""
    rows = [
        TrackRow(o.camera_id, o.frame, identity, o.bbox)
        for identity, t in enumerate(associate_mct(trajs, cfg), start=1)
        for o in t.observations
    ]
    rows.sort(key=lambda r: r.sort_key())
    return rows
