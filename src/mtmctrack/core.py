"""Shared domain types and elementary geometry/metric helpers.

Everything downstream (state estimation, feature fusion, association,
evaluation) is written against the types in this module. All types are
plain values: safe to copy between threads, no hidden mutability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional

import numpy as np

# Sentinel for "this pairing is forbidden" in any distance matrix. Solvers
# must treat it as never-assign, not as a large cost.
FORBIDDEN = float("inf")

# Number of pose keypoints (COCO layout).
NUM_KEYPOINTS = 17

# COCO keypoint indices used by the state estimator.
NOSE = 0
LEFT_EYE = 1
RIGHT_EYE = 2
LEFT_EAR = 3
RIGHT_EAR = 4
LEFT_SHOULDER = 5
RIGHT_SHOULDER = 6
LEFT_ELBOW = 7
RIGHT_ELBOW = 8
LEFT_WRIST = 9
RIGHT_WRIST = 10
LEFT_HIP = 11
RIGHT_HIP = 12
LEFT_KNEE = 13
RIGHT_KNEE = 14
LEFT_ANKLE = 15
RIGHT_ANKLE = 16


class Orientation(Enum):
    """Body facing of a detection. Order matters: it is the classifier's
    output class order."""

    FRONT = 0
    BACK = 1
    LEFT = 2
    RIGHT = 3


class OcclusionStatus(Enum):
    """Whether a detection's appearance embedding is trustworthy."""

    VALID = 0
    INVALID = 1


def as_feature(values, dim: Optional[int] = None) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 embedding vector.

    Raises ValueError on wrong dimensionality or non-finite components.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"embedding must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"embedding has length {arr.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("embedding contains non-finite components")
    return arr


class PoseKeypoints:
    """The 17 COCO keypoints of one detection, stored as a (17, 3) array
    of [x, y, confidence] rows."""

    __slots__ = ("xyc",)

    def __init__(self, xyc):
        arr = np.asarray(xyc, dtype=np.float64)
        if arr.shape != (NUM_KEYPOINTS, 3):
            raise ValueError(f"pose must have shape (17, 3), got {arr.shape}")
        if not np.isfinite(arr[:, :2]).all():
            raise ValueError("keypoint coordinates must be finite")
        conf = arr[:, 2]
        # Written so that a NaN confidence fails the range check.
        if not ((conf >= 0.0) & (conf <= 1.0)).all():
            raise ValueError("keypoint confidences must lie in [0, 1]")
        self.xyc = arr

    @property
    def confidences(self) -> np.ndarray:
        return self.xyc[:, 2]

    def __eq__(self, other):
        return isinstance(other, PoseKeypoints) and np.array_equal(self.xyc, other.xyc)

    def __repr__(self):
        return f"PoseKeypoints({self.xyc.tolist()!r})"


@dataclass
class BBox:
    """Axis-aligned box: top-left corner plus extent, in pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not (
            math.isfinite(self.x)
            and math.isfinite(self.y)
            and math.isfinite(self.w)
            and math.isfinite(self.h)
        ):
            raise ValueError(
                f"box fields must be finite, got ({self.x}, {self.y}, {self.w}, {self.h})"
            )
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box extent must be positive, got w={self.w}, h={self.h}")

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def area(self) -> float:
        return self.w * self.h


def center_distance(a: BBox, b: BBox) -> float:
    """Straight-line pixel distance between two box centers."""
    ax, ay = a.center
    bx, by = b.center
    return math.hypot(ax - bx, ay - by)


@dataclass
class DetectionObservation:
    """One detector output for one frame.

    ``occlusion`` and ``orientation`` start as None and are populated by the
    state estimator before any association uses the observation.
    """

    camera_id: int
    frame: int
    bbox: BBox
    det_confidence: float
    pose: PoseKeypoints
    embedding: np.ndarray
    occlusion: Optional[OcclusionStatus] = None
    orientation: Optional[Orientation] = None


@dataclass
class TrackerConfig:
    """All tuning knobs of the tracker.

    The appearance-distance thresholds (rectify/cluster/mct) live on the raw
    Euclidean embedding scale; the synthetic generator is calibrated so the
    defaults are meaningful there too.
    """

    gamma_valid: float = 0.3       # keypoint confidence threshold
    theta_valid: int = 7           # visible-keypoint count threshold
    mu_m: int = 10                 # Confirmed -> Invisible after this many misses
    mu_d: int = 300                # Invisible -> Disappeared after this many misses
    k_interval: int = 600          # frames between clustering/output passes
    n_c: int = 4                   # max clusters per tracklet
    l_rectify: int = 30            # min length of the Confirmed side in rectifying
    theta_rectify: float = 20.0
    theta_cluster: float = 30.0
    theta_mct: float = 40.0
    v_max: float = 20.0            # gating speed, pixels per frame
    max_gap: int = 1800            # max frame gap for tracklet association
    feature_dim: int = 128
    # Feature ablation switches; all on reproduces the full tracker.
    use_orientation_feature: bool = True
    use_cluster_feature: bool = True
    use_invalid_feature: bool = True
    # Whether the velocity gate also applies across cameras (image-plane
    # distances are not comparable between views, so off by default).
    mct_velocity_gate: bool = False

    def __post_init__(self):
        positive = [
            ("gamma_valid", self.gamma_valid),
            ("theta_valid", self.theta_valid),
            ("mu_m", self.mu_m),
            ("mu_d", self.mu_d),
            ("k_interval", self.k_interval),
            ("l_rectify", self.l_rectify),
            ("theta_rectify", self.theta_rectify),
            ("theta_cluster", self.theta_cluster),
            ("theta_mct", self.theta_mct),
            ("v_max", self.v_max),
            ("max_gap", self.max_gap),
            ("feature_dim", self.feature_dim),
        ]
        for name, value in positive:
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.theta_valid >= NUM_KEYPOINTS:
            raise ValueError(f"theta_valid must be < {NUM_KEYPOINTS}")
        if not (math.isfinite(self.n_c) and self.n_c >= 1):
            raise ValueError("n_c must be >= 1")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))


def squared_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance between two 1-D float64 arrays of equal
    length, unchecked: the appearance-distance kernel.

    ``d.dot(d)`` is the sum ``np.linalg.norm`` forms for a 1-D float64
    vector, so ``math.sqrt`` of this value is bit-identical to
    ``np.linalg.norm(a - b)``. Correctly rounded sqrt is monotone, so a
    minimum over squared distances has the root of the minimum distance.
    Comparing squares does not decide a tie the same way: two squares can
    differ while their roots round equal.
    """
    d = a - b
    return d.dot(d)


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two embedding vectors of equal length.

    For 1-D float64 inputs the result is bit-identical to
    ``float(np.linalg.norm(a - b))``; see ``squared_distance``. Inputs of
    more dimensions are compared element by element in C order.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return math.sqrt(squared_distance(a.ravel(), b.ravel()))


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    ix = max(a.x, b.x)
    iy = max(a.y, b.y)
    ix2 = min(a.x + a.w, b.x + b.w)
    iy2 = min(a.y + a.h, b.y + b.h)
    iw = max(0.0, ix2 - ix)
    ih = max(0.0, iy2 - iy)
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def forbidden_matrix(rows: int, cols: int) -> np.ndarray:
    """A rows x cols distance matrix with every pairing forbidden."""
    return np.full((rows, cols), FORBIDDEN, dtype=np.float64)


@dataclass(frozen=True)
class TrackRow:
    """One identity-labeled box: the unit of tracker output and ground truth."""

    camera_id: int
    frame: int
    identity: int
    bbox: BBox

    def sort_key(self):
        return (self.camera_id, self.frame, self.identity)
