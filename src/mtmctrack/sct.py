"""Single-camera tracking: per-frame association, tracklet lifecycle,
tracklet rectifying and tracklet clustering.

A camera is processed strictly frame by frame. Each frame runs: populate
detection state, build the tracklet-detection distance matrix, solve it
with the Hungarian solver, update matched tracklets, age unmatched ones,
spawn tracklets from unmatched detections, then rectify fragmented
tracklets. Every ``k_interval`` frames the tracklet set is clustered and
the window's rows are emitted.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .assignment import greedy_associate, hungarian
from .core import (
    BBox,
    DetectionObservation,
    FORBIDDEN,
    OcclusionStatus,
    Orientation,
    TrackRow,
    TrackerConfig,
    center_distance,
    forbidden_matrix,
    squared_distance,
)
from .features import (
    FusedTrackingFeature,
    cluster_distance,
    expire_invalid,
    rectify_distance,
    replay_feature,
    update_on_match,
)
from .state_estimation import OrientationEstimator, populate_state

logger = logging.getLogger(__name__)


class TrackingPhase(Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    INVISIBLE = "invisible"
    DISAPPEARED = "disappeared"


@dataclass(frozen=True)
class ObsRecord:
    """One matched detection as stored in a tracklet's history.

    Embeddings are retained because merged tracklets rebuild their fused
    feature by replaying history.
    """

    frame: int
    bbox: BBox
    det_confidence: float
    occlusion: OcclusionStatus
    orientation: Orientation
    embedding: np.ndarray

    @classmethod
    def from_detection(cls, det: DetectionObservation) -> "ObsRecord":
        return cls(
            frame=det.frame,
            bbox=det.bbox,
            det_confidence=det.det_confidence,
            occlusion=det.occlusion,
            orientation=det.orientation,
            embedding=np.asarray(det.embedding, dtype=np.float64),
        )


@dataclass
class Tracklet:
    """One identity hypothesis within a single camera."""

    id: int
    camera_id: int
    phase: TrackingPhase
    fused: FusedTrackingFeature
    observations: list[ObsRecord]
    miss_count: int = 0
    ever_confirmed: bool = False

    @property
    def start_frame(self) -> int:
        return self.observations[0].frame

    @property
    def end_frame(self) -> int:
        return self.observations[-1].frame

    @property
    def first_bbox(self) -> BBox:
        return self.observations[0].bbox

    @property
    def last_bbox(self) -> BBox:
        return self.observations[-1].bbox

    def __len__(self):
        return len(self.observations)

    def append_observation(self, det: DetectionObservation) -> None:
        if self.observations and det.frame <= self.end_frame:
            raise ValueError(
                f"tracklet {self.id}: observation frames must strictly increase "
                f"({det.frame} after {self.end_frame})"
            )
        self.observations.append(ObsRecord.from_detection(det))


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
    id_aliases: dict[int, int] = field(default_factory=dict)


def compute_distance_matrix(
    tracklets: list[Tracklet],
    dets: list[DetectionObservation],
    cfg: TrackerConfig,
) -> np.ndarray:
    """Tracklet-detection distances: the minimum over the enabled appearance
    channels, forbidden where the spatial gate fails or no channel applies.

    The spatial gate requires the detection's box center to be reachable
    from the tracklet's last box center at ``v_max`` pixels per frame. Box
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
        if t.phase is TrackingPhase.DISAPPEARED:
            raise ValueError("disappeared tracklets cannot participate in matching")
        end = t.end_frame
        if first_frame <= end:
            raise ValueError("detection must be later than the tracklet's last frame")
        tx, ty = t.last_bbox.center
        F = t.fused
        # Channels every detection is compared with.
        shared = [] if F.current is None else [F.current]
        if use_cluster:
            shared += [c.center for c in F.cluster_set.clusters]
        slots = F.orientation_bank.slots
        invalid = F.invalid.feature if use_invalid and F.invalid is not None else None
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
            if invalid is not None and det_invalid:
                d = squared_distance(invalid, emb)
                if d < best:
                    best = d
            m[i, j] = math.sqrt(best)
    return m


def phase_on_match(t: Tracklet, det_status: OcclusionStatus) -> TrackingPhase:
    """Phase transition for a matched tracklet; resets the miss counter."""
    if t.phase is TrackingPhase.DISAPPEARED:
        raise ValueError("cannot match a disappeared tracklet")
    if t.phase is TrackingPhase.INVISIBLE:
        t.phase = TrackingPhase.CONFIRMED
    elif t.phase is TrackingPhase.TENTATIVE:
        if det_status is OcclusionStatus.VALID:
            t.phase = TrackingPhase.CONFIRMED
    t.miss_count = 0
    if t.phase is TrackingPhase.CONFIRMED:
        t.ever_confirmed = True
    return t.phase


def phase_on_miss(t: Tracklet, cfg: TrackerConfig) -> TrackingPhase:
    """Phase transition for an unmatched tracklet.

    Tentative dies on its first miss. Confirmed turns Invisible after
    ``mu_m`` consecutive misses; the counter restarts on phase entry and
    Invisible dies after ``mu_d`` further misses.
    """
    if t.phase is TrackingPhase.DISAPPEARED:
        raise ValueError("cannot miss a disappeared tracklet")
    t.miss_count += 1
    if t.phase is TrackingPhase.TENTATIVE:
        t.phase = TrackingPhase.DISAPPEARED
    elif t.phase is TrackingPhase.CONFIRMED and t.miss_count >= cfg.mu_m:
        t.phase = TrackingPhase.INVISIBLE
        t.miss_count = 0
    elif t.phase is TrackingPhase.INVISIBLE and t.miss_count >= cfg.mu_d:
        t.phase = TrackingPhase.DISAPPEARED
    return t.phase


def init_tracklet(det: DetectionObservation, state: CameraTrackerState) -> Tracklet:
    """Spawn a tracklet from an unmatched detection.

    Highly occluded detections start Tentative (one missed frame kills
    them), trusted ones start Confirmed.
    """
    if det.occlusion is None or det.orientation is None:
        raise ValueError("detection state must be populated before init")
    phase = (
        TrackingPhase.TENTATIVE
        if det.occlusion is OcclusionStatus.INVALID
        else TrackingPhase.CONFIRMED
    )
    t = Tracklet(
        id=state.next_id,
        camera_id=det.camera_id,
        phase=phase,
        fused=update_on_match(FusedTrackingFeature(), det, state.cfg),
        observations=[ObsRecord.from_detection(det)],
        ever_confirmed=phase is TrackingPhase.CONFIRMED,
    )
    state.next_id += 1
    state.tracklets.append(t)
    return t


def physical_constraints_ok(a, b, cfg: TrackerConfig, check_velocity: bool = True) -> bool:
    """The three association vetoes: no temporal overlap, no implausible
    jump between the former's last box and the latter's first box, and no
    gap beyond ``max_gap`` frames.

    Works on anything exposing start_frame/end_frame/first_bbox/last_bbox.
    """
    if a.start_frame <= b.end_frame and b.start_frame <= a.end_frame:
        return False
    former, latter = (a, b) if a.end_frame < b.start_frame else (b, a)
    gap = latter.start_frame - former.end_frame
    if gap > cfg.max_gap:
        return False
    if check_velocity:
        if center_distance(former.last_bbox, latter.first_bbox) > cfg.v_max * gap:
            return False
    return True


def _merge_tracklets(dst: Tracklet, src: Tracklet, cfg: TrackerConfig) -> None:
    """Absorb ``src`` into ``dst`` (dst keeps its id). History is
    concatenated in time order and the fused feature rebuilt by replay."""
    merged = sorted(dst.observations + src.observations, key=lambda o: o.frame)
    for prev, nxt in zip(merged, merged[1:]):
        if nxt.frame <= prev.frame:
            raise ValueError(
                f"merge of tracklets {dst.id} and {src.id} overlaps in time"
            )
    later = dst if dst.end_frame > src.end_frame else src
    dst.observations = merged
    dst.fused = replay_feature(merged, cfg)
    dst.miss_count = later.miss_count
    dst.ever_confirmed = dst.ever_confirmed or src.ever_confirmed


def rectify(state: CameraTrackerState) -> CameraTrackerState:
    """Re-attach Invisible tracklets to newly grown Confirmed ones.

    A Confirmed tracklet qualifies once its length reaches ``l_rectify``;
    pairs are gated by the physical constraints, scored by cluster-set
    distance and accepted greedily below ``theta_rectify``. The Invisible
    tracklet keeps its id and the pair continues as Confirmed.
    """
    cfg = state.cfg
    invisibles = [t for t in state.tracklets if t.phase is TrackingPhase.INVISIBLE]
    confirmeds = [
        t
        for t in state.tracklets
        if t.phase is TrackingPhase.CONFIRMED and len(t) >= cfg.l_rectify
    ]
    if not invisibles or not confirmeds:
        return state
    m = forbidden_matrix(len(invisibles), len(confirmeds))
    for i, ti in enumerate(invisibles):
        for j, tj in enumerate(confirmeds):
            if physical_constraints_ok(ti, tj, cfg):
                m[i, j] = rectify_distance(ti.fused, tj.fused, cfg)
    for i, j in greedy_associate(m, cfg.theta_rectify):
        dst, src = invisibles[i], confirmeds[j]
        _merge_tracklets(dst, src, cfg)
        dst.phase = TrackingPhase.CONFIRMED
        state.id_aliases[src.id] = dst.id
        state.tracklets.remove(src)
        logger.debug(
            "camera %d: rectified tracklet %d into %d", state.camera_id, src.id, dst.id
        )
    return state


def cluster_tracklets(state: CameraTrackerState) -> tuple[CameraTrackerState, list[TrackRow]]:
    """Associate the live tracklet set and emit the window's rows.

    All non-Disappeared tracklets are compared with the min of averaged and
    orientation distances, gated by the physical constraints, and merged
    greedily below ``theta_cluster``. Accepted pairs chain transitively;
    the constraints are rechecked against the merged tracklets before each
    union. Afterwards the rows for frames since the previous emission are
    returned.
    """
    cfg = state.cfg
    live = list(state.tracklets)
    n = len(live)
    m = forbidden_matrix(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            if physical_constraints_ok(live[i], live[j], cfg):
                m[i, j] = cluster_distance(live[i].fused, live[j].fused, cfg)
    rep = list(range(n))

    def find(idx: int) -> int:
        while rep[idx] != idx:
            rep[idx] = rep[rep[idx]]
            idx = rep[idx]
        return idx

    for i, j in greedy_associate(m, cfg.theta_cluster):
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        ti, tj = live[ri], live[rj]
        if not physical_constraints_ok(ti, tj, cfg):
            continue
        # The earlier fragment keeps its id so rows already emitted for it
        # stay consistent.
        if (ti.start_frame, ti.id) <= (tj.start_frame, tj.id):
            dst_idx, src_idx = ri, rj
        else:
            dst_idx, src_idx = rj, ri
        dst, src = live[dst_idx], live[src_idx]
        dst_phase = dst.phase if dst.end_frame > src.end_frame else src.phase
        _merge_tracklets(dst, src, cfg)
        dst.phase = dst_phase
        state.id_aliases[src.id] = dst.id
        state.tracklets.remove(src)
        rep[src_idx] = dst_idx
        logger.debug(
            "camera %d: clustered tracklet %d into %d", state.camera_id, src.id, dst.id
        )
    return state, _emit_window(state)


def _emit_window(state: CameraTrackerState) -> list[TrackRow]:
    """Rows for all frames after the previous emission, from every tracklet
    that ever reached Confirmed (never-confirmed Tentatives are treated as
    false positives and dropped)."""
    if state.current_frame is None:
        return []
    since = state.last_emit_frame
    rows = []
    for t in state.tracklets + state.finished:
        if not t.ever_confirmed:
            continue
        for obs in t.observations:
            if (since is None or obs.frame > since) and obs.frame <= state.current_frame:
                rows.append(TrackRow(state.camera_id, obs.frame, t.id, obs.bbox))
    rows.sort(key=lambda r: (r.frame, r.identity))
    state.last_emit_frame = state.current_frame
    return rows


def _process_one_frame(
    state: CameraTrackerState, frame: int, dets: list[DetectionObservation]
) -> None:
    cfg = state.cfg
    state.current_frame = frame

    populate_state(
        [d for d in dets if d.occlusion is None or d.orientation is None],
        cfg,
        state.orientation_estimator,
    )

    # The invalid slot lives one frame: drop stale ones before matching.
    for t in state.tracklets:
        t.fused = expire_invalid(t.fused, frame)

    matrix = compute_distance_matrix(state.tracklets, dets, cfg)
    result = hungarian(matrix)

    for i, j in result.matched_pairs:
        t, det = state.tracklets[i], dets[j]
        t.append_observation(det)
        t.fused = update_on_match(t.fused, det, cfg)
        t.fused = expire_invalid(t.fused, frame)
        phase_on_match(t, det.occlusion)

    for i in result.unmatched_rows:
        phase_on_miss(state.tracklets[i], cfg)
    for j in result.unmatched_cols:
        init_tracklet(dets[j], state)

    rectify(state)

    dead = [t for t in state.tracklets if t.phase is TrackingPhase.DISAPPEARED]
    if dead:
        state.tracklets = [
            t for t in state.tracklets if t.phase is not TrackingPhase.DISAPPEARED
        ]
        state.finished.extend(dead)


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
    the final state (whose tracklets seed cross-camera association).
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

    rows: list[TrackRow] = []
    for frame in range(first, last + 1):
        step_frame(state, by_frame.get(frame, []), frame)
        if (frame - first + 1) % k == 0:
            state, emitted = cluster_tracklets(state)
            rows.extend(emitted)
    if state.last_emit_frame is None or state.last_emit_frame < last:
        state, emitted = cluster_tracklets(state)
        rows.extend(emitted)
    rows.sort(key=lambda r: r.sort_key())
    return rows, state
