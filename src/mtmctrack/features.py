"""The five-part fused appearance model of a tracklet and its distances.

A tracklet's appearance is summarized by: the latest valid embedding, a
per-orientation bank of running means, an online cluster set (capped at
``n_c`` centers), the most recent invalid embedding (kept one frame only),
and the running mean over all valid embeddings. Only valid embeddings feed
the first, second, third and fifth parts; invalid embeddings touch nothing
but the invalid slot.

All update operations are functional: they return a new object and never
mutate their inputs, so a caller can hold the previous state for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import (
    FORBIDDEN,
    OcclusionStatus,
    Orientation,
    TrackerConfig,
    euclidean_distance,
    squared_distance,
)


@dataclass(frozen=True)
class MeanSlot:
    """A running mean with its sample count."""

    mean: np.ndarray
    count: int

    def fold(self, feature: np.ndarray) -> "MeanSlot":
        new_mean = (self.mean * self.count + feature) / (self.count + 1)
        return MeanSlot(new_mean, self.count + 1)


@dataclass(frozen=True)
class Cluster:
    """One appearance mode: a center that is the exact mean of its members."""

    center: np.ndarray
    member_count: int


@dataclass(frozen=True)
class ClusterSet:
    """Ordered list of at most ``n_c`` clusters, grown online."""

    clusters: tuple[Cluster, ...] = ()

    def __len__(self):
        return len(self.clusters)


@dataclass(frozen=True)
class OrientationBank:
    """Per-orientation running means over valid embeddings."""

    slots: tuple[Optional[MeanSlot], ...] = (None, None, None, None)

    def slot(self, orientation: Orientation) -> Optional[MeanSlot]:
        return self.slots[orientation.value]

    def fold(self, orientation: Orientation, feature: np.ndarray) -> "OrientationBank":
        slots = list(self.slots)
        current = slots[orientation.value]
        if current is None:
            slots[orientation.value] = MeanSlot(feature, 1)
        else:
            slots[orientation.value] = current.fold(feature)
        return OrientationBank(tuple(slots))


@dataclass(frozen=True)
class InvalidSlot:
    """The most recent invalid embedding and the frame it came from."""

    feature: np.ndarray
    frame: int


@dataclass(frozen=True)
class FusedTrackingFeature:
    """Full appearance state of one tracklet."""

    current: Optional[np.ndarray] = None
    orientation_bank: OrientationBank = field(default_factory=OrientationBank)
    cluster_set: ClusterSet = field(default_factory=ClusterSet)
    invalid: Optional[InvalidSlot] = None
    avg: Optional[MeanSlot] = None


def update_cluster(
    cluster_set: ClusterSet,
    feature: np.ndarray,
    status: OcclusionStatus,
    n_c: int,
) -> ClusterSet:
    """Fold one embedding into the online cluster set.

    Invalid embeddings are ignored. Below the cluster cap a new singleton
    cluster is opened; at the cap the nearest center (ties to the lowest
    index) absorbs the embedding via an exact running-mean update.
    """
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    if status is OcclusionStatus.INVALID:
        return cluster_set
    clusters = cluster_set.clusters
    if len(clusters) < n_c:
        return ClusterSet(clusters + (Cluster(np.array(feature, dtype=np.float64), 1),))
    # Compare the roots, not the squares: two squares can differ while their
    # roots round equal, and equal roots must tie to the lowest index.
    k, best = 0, FORBIDDEN
    for idx, c in enumerate(clusters):
        d = math.sqrt(squared_distance(c.center, feature))
        if d < best:
            k, best = idx, d
    old = clusters[k]
    new_center = (old.center * old.member_count + feature) / (old.member_count + 1)
    updated = Cluster(new_center, old.member_count + 1)
    return ClusterSet(clusters[:k] + (updated,) + clusters[k + 1 :])


def update_on_match(F: FusedTrackingFeature, det, cfg: TrackerConfig) -> FusedTrackingFeature:
    """Fold one matched detection into the fused feature.

    ``det`` needs ``embedding``, ``occlusion``, ``orientation`` and ``frame``
    attributes; both detections and stored observation records qualify.
    The embedding is copied once; the parts of the new feature share that
    copy, which is safe because no update writes into an array.
    """
    if det.occlusion is None or det.orientation is None:
        raise ValueError("detection state must be populated before feature updates")
    emb = np.array(det.embedding, dtype=np.float64)
    if det.occlusion is OcclusionStatus.INVALID:
        return FusedTrackingFeature(
            F.current, F.orientation_bank, F.cluster_set, InvalidSlot(emb, det.frame), F.avg
        )
    return FusedTrackingFeature(
        current=emb,
        orientation_bank=F.orientation_bank.fold(det.orientation, emb),
        cluster_set=update_cluster(F.cluster_set, emb, det.occlusion, cfg.n_c),
        invalid=None,
        avg=MeanSlot(emb, 1) if F.avg is None else F.avg.fold(emb),
    )


def expire_invalid(F: FusedTrackingFeature, current_frame: int) -> FusedTrackingFeature:
    """Drop the invalid slot once it is older than the previous frame."""
    if F.invalid is not None and F.invalid.frame < current_frame - 1:
        return replace(F, invalid=None)
    return F


def replay_feature(observations, cfg: TrackerConfig) -> FusedTrackingFeature:
    """Rebuild a fused feature by folding observations in time order.

    This is the reference composition for merged tracklets: the online
    clustering is order-dependent, so replay is the only well-defined way
    to combine histories.
    """
    F = FusedTrackingFeature()
    for obs in sorted(observations, key=lambda o: o.frame):
        F = update_on_match(F, obs, cfg)
    if observations:
        F = expire_invalid(F, max(o.frame for o in observations))
    return F


def dist_orientation_banks(a: OrientationBank, b: OrientationBank) -> float:
    """Minimum same-orientation distance between two banks."""
    best = FORBIDDEN
    for o in Orientation:
        sa, sb = a.slot(o), b.slot(o)
        if sa is not None and sb is not None:
            best = min(best, euclidean_distance(sa.mean, sb.mean))
    return best


def dist_cluster_sets(a: ClusterSet, b: ClusterSet) -> float:
    """Minimum center-to-center distance between two cluster sets."""
    if not a.clusters or not b.clusters:
        return FORBIDDEN
    return min(
        euclidean_distance(ca.center, cb.center)
        for ca in a.clusters
        for cb in b.clusters
    )


def rectify_distance(
    a: FusedTrackingFeature, b: FusedTrackingFeature, cfg: TrackerConfig
) -> float:
    """Appearance distance for rectifying: the cluster-set distance, or the
    forbidden sentinel when the cluster channel is off or a set is empty."""
    if not cfg.use_cluster_feature:
        return FORBIDDEN
    return dist_cluster_sets(a.cluster_set, b.cluster_set)


def cluster_distance(
    a: FusedTrackingFeature, b: FusedTrackingFeature, cfg: TrackerConfig
) -> float:
    """Appearance distance for clustering and cross-camera linking: the
    smaller of the averaged-feature and orientation-bank distances. Absent
    parts contribute the forbidden sentinel."""
    d_avg = FORBIDDEN
    if a.avg is not None and b.avg is not None:
        d_avg = euclidean_distance(a.avg.mean, b.avg.mean)
    d_ori = FORBIDDEN
    if cfg.use_orientation_feature:
        d_ori = dist_orientation_banks(a.orientation_bank, b.orientation_bank)
    return min(d_avg, d_ori)
