"""Single-camera tracking: per-frame association, tracklet lifecycle,
tracklet rectifying and tracklet clustering.

A camera is processed strictly frame by frame. Each frame runs: populate
detection state, build the tracklet-detection distance matrix, solve it
with the Hungarian solver, append each match to its tracklet, spawn
tracklets from unmatched detections, rectify fragmented tracklets, then
retire the tracklets that have disappeared. A tracklet's lifecycle phase is
not stored; ``phase_of`` reads it from the tracklet's history. Every
``k_interval`` frames the tracklet set is clustered and the window's rows
are emitted.
"""

from __future__ import annotations

import itertools
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Optional

import numpy as np

from .assignment import greedy_associate, hungarian
from .core import (
    DetectionObservation,
    FORBIDDEN,
    OcclusionStatus,
    TrackRow,
    TrackerConfig,
    forbidden_matrix,
    squared_distance,
)
from .features import (
    FusedTrackingFeature,
    History,
    cluster_distance,
    physical_constraints_ok,
    rectify_distance,
)
from .state_estimation import OrientationEstimator, populate_state

logger = logging.getLogger(__name__)


class TrackingPhase(Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    INVISIBLE = "invisible"
    DISAPPEARED = "disappeared"


@dataclass(kw_only=True, eq=False, slots=True)
class Tracklet(History):
    """One identity hypothesis within a single camera: the ``History`` of
    the detections ``step_frame`` matched to it, whose ``fused`` is always
    their replay. Its lifecycle phase is read from that history by
    ``phase_of``.
    """

    id: int


@dataclass
class CameraTrackerState:
    """All mutable state of one camera's tracker."""

    camera_id: int
    cfg: TrackerConfig
    orientation_estimator: OrientationEstimator = field(
        default_factory=OrientationEstimator
    )
    tracklets: list[Tracklet] = field(default_factory=list)
    finished: list[Tracklet] = field(default_factory=list)
    next_id: int = 1
    current_frame: Optional[int] = None
    last_emit_frame: Optional[int] = None


def compute_distance_matrix(
    tracklets: list[Tracklet],
    dets: list[DetectionObservation],
    cfg: TrackerConfig,
) -> np.ndarray:
    """Tracklet-detection distances: the minimum over the enabled appearance
    channels, forbidden where the spatial gate fails or no channel applies.

    The spatial gate requires the detection's box center to be reachable
    from the tracklet's last box center at ``v_max`` pixels per frame. The
    invalid channel compares an invalid detection with the tracklet's last
    detection when that one was invalid too and one frame earlier. Box
    centers, frames and channel vectors are read once per call, not once
    per pair; the channel minimum is taken over squared distances and
    rooted once (see ``squared_distance``).
    """
    m = forbidden_matrix(len(tracklets), len(dets))
    if not tracklets or not dets:
        return m
    v_max = cfg.v_max
    use_orientation = cfg.use_orientation_feature
    use_cluster = cfg.use_cluster_feature
    use_invalid = cfg.use_invalid_feature
    # Per detection: box center, frame, embedding, orientation slot index
    # (None when that channel is off) and whether the invalid channel applies.
    columns = []
    for det in dets:
        if use_orientation and det.orientation is None:
            raise ValueError("detection orientation must be populated")
        cx, cy = det.bbox.center
        columns.append(
            (
                cx,
                cy,
                det.frame,
                det.embedding,
                det.orientation.value if use_orientation else None,
                det.occlusion is OcclusionStatus.INVALID,
            )
        )
    first_frame = min(det.frame for det in dets)
    for i, t in enumerate(tracklets):
        end = t.end_frame
        if first_frame <= end:
            raise ValueError("detection must be later than the tracklet's last frame")
        last = t.observations[-1]
        tx, ty = last.bbox.center
        F = t.fused
        # Channels every detection is compared with.
        shared = [] if F.current is None else [F.current]
        if use_cluster:
            shared += [c.mean for c in F.cluster_set]
        slots = F.orientation_bank
        last_invalid = use_invalid and last.occlusion is OcclusionStatus.INVALID
        for j, (dx, dy, frame, emb, orientation, det_invalid) in enumerate(columns):
            if not math.hypot(tx - dx, ty - dy) <= v_max * (frame - end):
                continue
            best = FORBIDDEN
            for vector in shared:
                d = squared_distance(vector, emb)
                if d < best:
                    best = d
            if orientation is not None and slots[orientation] is not None:
                d = squared_distance(slots[orientation].mean, emb)
                if d < best:
                    best = d
            if last_invalid and det_invalid and frame == end + 1:
                d = squared_distance(last.embedding, emb)
                if d < best:
                    best = d
            m[i, j] = math.sqrt(best)
    return m


def phase_of(t: History, frame: int, cfg: TrackerConfig) -> TrackingPhase:
    """The lifecycle phase of tracklet ``t`` at ``frame``, read from its history.

    ``step_frame`` processes every frame, skipped ones as empty, and each
    frame matches or misses a live tracklet, so ``frame - end_frame`` counts
    its misses. A tracklet turns Confirmed when it takes its first valid
    detection, which sets ``fused.avg``; before that it is Tentative and
    dies on its first miss. A Confirmed one turns Invisible at ``mu_m``
    misses and disappears ``mu_d`` misses later.
    """
    misses = frame - t.end_frame
    if t.fused.avg is None:
        return TrackingPhase.TENTATIVE if misses == 0 else TrackingPhase.DISAPPEARED
    if misses < cfg.mu_m:
        return TrackingPhase.CONFIRMED
    if misses < cfg.mu_m + cfg.mu_d:
        return TrackingPhase.INVISIBLE
    return TrackingPhase.DISAPPEARED


def init_tracklet(det: DetectionObservation, state: CameraTrackerState) -> Tracklet:
    """Spawn a tracklet holding one unmatched detection. By ``phase_of``, a
    highly occluded detection starts it Tentative (one missed frame kills
    it) and a trusted one Confirmed."""
    t = Tracklet(id=state.next_id, observations=[], fused=FusedTrackingFeature())
    t.append(det, state.cfg)
    state.next_id += 1
    state.tracklets.append(t)
    return t


def _merge_tracklets(state: CameraTrackerState, dst: Tracklet, src: Tracklet) -> None:
    """Absorb ``src`` into ``dst``, which keeps its id, and drop ``src``
    from the live set. The merged phase is that of whichever ends later. A
    Tentative tracklet never merges: with no valid detection, both merge
    distances are forbidden for it."""
    dst.absorb(src, state.cfg)
    state.tracklets.remove(src)


def _associate(
    state: CameraTrackerState, rows: list[Tracklet], cols: list[Tracklet], pairs, distance, theta
) -> None:
    """The one association step of rectifying and clustering: score each
    ``(i, j)`` of ``pairs`` that passes the physical constraints by
    ``distance`` of the fused features, and merge the pairs
    ``greedy_associate`` accepts up to ``theta``. A pair joins what its two
    sides were merged into so far, if the constraints still pass; the one
    with the smaller ``(start_frame, id)`` keeps its id, so rows already
    emitted for the earlier fragment stay consistent."""
    cfg = state.cfg
    m = forbidden_matrix(len(rows), len(cols))
    for i, j in pairs:
        if physical_constraints_ok(rows[i], cols[j], cfg):
            m[i, j] = distance(rows[i].fused, cols[j].fused, cfg)
    owner = {t: t for t in rows + cols}  # what each tracklet was merged into
    for i, j in greedy_associate(m, theta):
        a, b = owner[rows[i]], owner[cols[j]]
        if a is b or not physical_constraints_ok(a, b, cfg):
            continue
        dst, src = (a, b) if (a.start_frame, a.id) < (b.start_frame, b.id) else (b, a)
        _merge_tracklets(state, dst, src)
        for t, merged in owner.items():
            if merged is src:
                owner[t] = dst
        logger.debug("camera %d: merged tracklet %d into %d", state.camera_id, src.id, dst.id)


def rectify(state: CameraTrackerState) -> CameraTrackerState:
    """Re-attach Invisible tracklets to newly grown Confirmed ones (length
    at least ``l_rectify``) by cluster-set distance, up to ``theta_rectify``.

    A Confirmed tracklet ends later than an Invisible one (fewer than
    ``mu_m`` misses against at least as many), so when the two do not
    overlap it also starts later: the Invisible one keeps its id and the
    pair continues as Confirmed. The lists are disjoint and
    ``greedy_associate`` retires a row and a column per accepted pair, so
    no tracklet is in two merges.
    """
    cfg = state.cfg
    phases = [(t, phase_of(t, state.current_frame, cfg)) for t in state.tracklets]
    invisibles = [t for t, phase in phases if phase is TrackingPhase.INVISIBLE]
    confirmeds = [
        t for t, phase in phases if phase is TrackingPhase.CONFIRMED and len(t) >= cfg.l_rectify
    ]
    if not invisibles or not confirmeds:
        return state
    pairs = itertools.product(range(len(invisibles)), range(len(confirmeds)))
    _associate(state, invisibles, confirmeds, pairs, rectify_distance, cfg.theta_rectify)
    return state


def cluster_tracklets(state: CameraTrackerState) -> tuple[CameraTrackerState, list[TrackRow]]:
    """Associate the live tracklet set and emit the window's rows.

    Each pair of live tracklets is scored once by ``cluster_distance``, in
    the upper triangle (a symmetric matrix would retire other rows and
    columns in ``greedy_associate``), and merged up to ``theta_cluster``;
    then the rows for frames since the previous emission are returned.
    """
    live = list(state.tracklets)
    pairs = itertools.combinations(range(len(live)), 2)
    _associate(state, live, live, pairs, cluster_distance, state.cfg.theta_cluster)
    return state, _emit_window(state)


def _emit_window(state: CameraTrackerState) -> list[TrackRow]:
    """Rows for all frames after the previous emission, from every tracklet
    that holds a valid detection, so ever reached Confirmed (never-confirmed
    Tentatives are treated as false positives and dropped). The finished
    tracklets are then dropped: none holds a later detection or merges.
    A history's frames strictly increase, so its new detections are found
    by bisection, without visiting those emitted before."""
    since = state.last_emit_frame
    rows = []
    for t in state.tracklets + state.finished:
        if t.fused.avg is None:
            continue
        obs = t.observations
        first = 0 if since is None else bisect_right(obs, since, key=attrgetter("frame"))
        for o in obs[first:]:
            rows.append(TrackRow(state.camera_id, o.frame, t.id, o.bbox))
    rows.sort(key=TrackRow.sort_key)
    state.last_emit_frame = state.current_frame
    state.finished = []
    return rows


def _process_one_frame(
    state: CameraTrackerState, frame: int, dets: list[DetectionObservation]
) -> None:
    cfg = state.cfg
    state.current_frame = frame

    populate_state(dets, cfg, state.orientation_estimator)

    matrix = compute_distance_matrix(state.tracklets, dets, cfg)
    result = hungarian(matrix)

    for i, j in result.matched_pairs:
        state.tracklets[i].append(dets[j], cfg)
    for j in result.unmatched_cols:
        init_tracklet(dets[j], state)

    rectify(state)

    # A tracklet leaves the live set in the frame it dies.
    dead = [t for t in state.tracklets if phase_of(t, frame, cfg) is TrackingPhase.DISAPPEARED]
    state.tracklets = [t for t in state.tracklets if t not in dead]
    state.finished += dead


def step_frame(
    state: CameraTrackerState,
    dets: list[DetectionObservation],
    frame: Optional[int] = None,
) -> CameraTrackerState:
    """Advance the tracker by one frame.

    All detections must share one frame index, strictly later than the
    last processed frame. Skipped frame indices are processed as empty
    frames, so misses accrue per frame even across detector gaps.
    """
    if frame is None:
        if not dets:
            raise ValueError("frame index required when there are no detections")
        frame = dets[0].frame
    for det in dets:
        if det.frame != frame:
            raise ValueError("detections of one step must share a frame index")
        if det.camera_id != state.camera_id:
            raise ValueError(
                f"detection camera {det.camera_id} != state camera {state.camera_id}"
            )
    if state.current_frame is not None:
        if frame <= state.current_frame:
            raise ValueError(
                f"frame {frame} not after current frame {state.current_frame}"
            )
        for gap_frame in range(state.current_frame + 1, frame):
            _process_one_frame(state, gap_frame, [])
    _process_one_frame(state, frame, dets)
    return state


def run_sct(
    dets: list[DetectionObservation],
    cfg: TrackerConfig,
    camera_id: Optional[int] = None,
    offline: bool = False,
    orientation_estimator: Optional[OrientationEstimator] = None,
) -> tuple[list[TrackRow], CameraTrackerState]:
    """Track one camera's detection stream end to end.

    In offline mode the clustering interval is the sequence length, so a
    single clustering pass runs at the end. Returns the emitted rows and
    the final tracker state.
    """
    if camera_id is None and dets:
        camera_id = dets[0].camera_id
    if camera_id is None:
        camera_id = 0
    state = CameraTrackerState(
        camera_id=camera_id,
        cfg=cfg,
        orientation_estimator=orientation_estimator or OrientationEstimator(),
    )
    if not dets:
        return [], state

    by_frame: dict[int, list[DetectionObservation]] = {}
    for det in sorted(dets, key=lambda d: d.frame):
        by_frame.setdefault(det.frame, []).append(det)
    first = min(by_frame)
    last = max(by_frame)
    span = last - first + 1
    k = span if offline else cfg.k_interval

    # Windows are sorted and consecutive, so their concatenation is sorted.
    rows: list[TrackRow] = []
    for frame in range(first, last + 1):
        step_frame(state, by_frame.get(frame, []), frame)
        if (frame - first + 1) % k == 0 or frame == last:
            state, emitted = cluster_tracklets(state)
            rows.extend(emitted)
    return rows, state
