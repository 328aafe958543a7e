"""The fused appearance model of a tracklet and its distances.

A tracklet's appearance is summarized by four parts folded from its valid
detections: the latest valid embedding, a tuple of four per-orientation
running means, an online cluster set (a tuple of at most ``n_c`` running
means), and the running mean over all valid embeddings. Every running mean
is a ``MeanSlot``. A fused feature is the left fold of a history's valid
detections; an invalid detection changes nothing. The paper's fifth part,
the embedding of an occluded detection from the previous frame, is read
from the tracklet's history by the matching code.

A feature whose cluster set is ``None`` keeps none, and every fold passes
the ``None`` on. Cross-camera trajectories are folded that way, because
linking reads only the averaged feature and the orientation slots.

A ``History`` holds the matched detections of a tracklet or a trajectory
with their fused feature, and joins two histories that do not overlap in
time by folding the later detections onto the earlier feature.

Every update of a fused feature is functional: it returns a new object and
never mutates its inputs, so a caller can hold the previous state for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BBox,
    DetectionObservation,
    FORBIDDEN,
    OcclusionStatus,
    TrackerConfig,
    center_distance,
    squared_distance,
)


@dataclass(frozen=True, slots=True)
class MeanSlot:
    """A running mean with its sample count: an orientation slot, a cluster
    (its center is the exact mean of its members) or the overall average."""

    mean: np.ndarray
    count: int

    def fold(self, feature: np.ndarray) -> "MeanSlot":
        """``(mean * count + feature) / (count + 1)``, the same IEEE
        operations, in place on the fresh product: NumPy takes the count as
        a float64 either way, and neither input is written."""
        m = self.mean * float(self.count)
        m += feature
        m /= float(self.count + 1)
        return MeanSlot(m, self.count + 1)


def _fold(slot: Optional[MeanSlot], feature: np.ndarray) -> MeanSlot:
    """``slot`` with ``feature`` folded in; an empty slot starts at it."""
    return MeanSlot(feature, 1) if slot is None else slot.fold(feature)


@dataclass(frozen=True, slots=True)
class FusedTrackingFeature:
    """Appearance state of one tracklet, or of one cross-camera
    trajectory, which keeps no cluster set."""

    current: Optional[np.ndarray] = None
    # One slot per orientation, indexed by ``Orientation.value``.
    orientation_bank: tuple[Optional[MeanSlot], ...] = (None, None, None, None)
    # At most ``n_c`` clusters, in the order they were opened; ``None``
    # when no cluster set is kept.
    cluster_set: Optional[tuple[MeanSlot, ...]] = ()
    avg: Optional[MeanSlot] = None


def update_cluster(
    cluster_set: tuple[MeanSlot, ...], feature: np.ndarray, n_c: int
) -> tuple[MeanSlot, ...]:
    """Fold one valid embedding into the online cluster set.

    Below the cluster cap a new singleton cluster is opened; at the cap the
    nearest center (ties to the lowest index) absorbs the embedding via an
    exact running-mean update.
    """
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    if len(cluster_set) < n_c:
        return cluster_set + (MeanSlot(np.array(feature, dtype=np.float64), 1),)
    # Compare the roots, not the squares: two squares can differ while their
    # roots round equal, and equal roots must tie to the lowest index.
    k, best = 0, FORBIDDEN
    for idx, c in enumerate(cluster_set):
        d = math.sqrt(squared_distance(c.mean, feature))
        if d < best:
            k, best = idx, d
    return cluster_set[:k] + (cluster_set[k].fold(feature),) + cluster_set[k + 1 :]


def update_on_match(F: FusedTrackingFeature, det, cfg: TrackerConfig) -> FusedTrackingFeature:
    """Fold one matched detection into the fused feature.

    ``det`` is a detection with populated state: anything with
    ``embedding``, ``occlusion`` and ``orientation`` attributes. An invalid
    detection leaves ``F`` unchanged. A valid one's embedding is copied
    once; the parts of the new feature share that copy, which is safe
    because no update writes into an array it did not make. A feature that
    keeps no cluster set (``cluster_set`` is ``None``) gets none.
    """
    if det.occlusion is None or det.orientation is None:
        raise ValueError("detection state must be populated before feature updates")
    if det.occlusion is OcclusionStatus.INVALID:
        return F
    emb = np.array(det.embedding, dtype=np.float64)
    bank, o, clusters = F.orientation_bank, det.orientation.value, F.cluster_set
    return FusedTrackingFeature(
        current=emb,
        orientation_bank=bank[:o] + (_fold(bank[o], emb),) + bank[o + 1 :],
        cluster_set=None if clusters is None else update_cluster(clusters, emb, cfg.n_c),
        avg=_fold(F.avg, emb),
    )


def replay_feature(
    observations, cfg: TrackerConfig, start: Optional[FusedTrackingFeature] = None
) -> FusedTrackingFeature:
    """Rebuild a fused feature by folding observations in time order onto
    ``start`` (default: the empty feature; ``FusedTrackingFeature(
    cluster_set=None)`` replays every part but the cluster set).

    This is the reference composition for merged histories: the online
    clustering is order-dependent, so replay is the only well-defined way
    to combine them. A fused feature is the fold of its valid detections
    and nothing else, so when ``start`` is the replay of observations that
    all end before the first of ``observations``, the result is the replay
    of both lists together, bit for bit. ``History.absorb`` keeps that
    precondition.
    """
    F = FusedTrackingFeature() if start is None else start
    for obs in sorted(observations, key=lambda o: o.frame):
        F = update_on_match(F, obs, cfg)
    return F


@dataclass(eq=False, slots=True)
class History:
    """The matched detections of a tracklet or trajectory and ``fused``,
    their replay.

    ``observations`` are the detections themselves, not copies, in strictly
    increasing frame order: a detection must not change once it is held
    here. ``append`` and ``absorb`` keep ``fused`` the replay of them.
    """

    observations: list[DetectionObservation]
    fused: FusedTrackingFeature

    def __post_init__(self):
        for a, b in zip(self.observations, self.observations[1:]):
            if b.frame <= a.frame:
                raise ValueError(
                    f"observation frames must strictly increase ({b.frame} after {a.frame})"
                )

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

    def append(self, det: DetectionObservation, cfg: TrackerConfig) -> None:
        """Fold ``det`` into ``fused`` and hold it; its frame must be later
        than the last one held."""
        if self.observations and det.frame <= self.end_frame:
            raise ValueError(
                f"observation frames must strictly increase ({det.frame} after {self.end_frame})"
            )
        self.fused = update_on_match(self.fused, det, cfg)
        self.observations.append(det)

    def absorb(self, other: "History", cfg: TrackerConfig) -> None:
        """Join ``other`` into this history. The later history's detections
        are folded onto the earlier one's feature and appended to its
        detections, which equals replaying the union; a pair that overlaps
        in time is refused."""
        earlier, later = (self, other) if self.start_frame < other.start_frame else (other, self)
        if later.start_frame <= earlier.end_frame:
            raise ValueError(
                f"histories overlap in time (frames {earlier.start_frame}-"
                f"{earlier.end_frame} and {later.start_frame}-{later.end_frame})"
            )
        self.fused = replay_feature(later.observations, cfg, earlier.fused)
        self.observations = earlier.observations + later.observations


def physical_constraints_ok(
    a: History, b: History, cfg: TrackerConfig, check_velocity: bool = True
) -> bool:
    """The three association vetoes: no temporal overlap, no implausible
    jump between the former's last box and the latter's first box, and no
    gap beyond ``max_gap`` frames."""
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


def rectify_distance(
    a: FusedTrackingFeature, b: FusedTrackingFeature, cfg: TrackerConfig
) -> float:
    """Appearance distance for rectifying: the smallest distance between a
    cluster of ``a`` and one of ``b``, or the forbidden sentinel when the
    cluster channel is off or a set is empty. Like ``cluster_distance`` it
    roots the smallest square, which is the smallest distance (see
    ``squared_distance``)."""
    if not cfg.use_cluster_feature:
        return FORBIDDEN
    squares = (squared_distance(ca.mean, cb.mean) for ca in a.cluster_set for cb in b.cluster_set)
    return math.sqrt(min(squares, default=FORBIDDEN))


def cluster_distance(
    a: FusedTrackingFeature, b: FusedTrackingFeature, cfg: TrackerConfig
) -> float:
    """Appearance distance for clustering and cross-camera linking: the
    smallest distance between the two averaged features or two
    same-orientation slots. Absent parts pair with nothing; with no pair
    left the result is the forbidden sentinel."""
    pairs = [(a.avg, b.avg)]
    if cfg.use_orientation_feature:
        pairs += zip(a.orientation_bank, b.orientation_bank)
    squares = (
        squared_distance(sa.mean, sb.mean) for sa, sb in pairs if sa is not None and sb is not None
    )
    return math.sqrt(min(squares, default=FORBIDDEN))
