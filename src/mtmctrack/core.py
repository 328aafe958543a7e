"""Shared domain types and elementary geometry/metric helpers.

Everything downstream (state estimation, feature fusion, association,
evaluation) is written against the types in this module. Not all of them
are immutable: ``state_estimation.populate_state`` fills a detection's
``occlusion`` and ``orientation`` in place, and a ``features.History`` holds
detections by reference and grows as tracking runs. A process that fills
state in a copy of a detection leaves the original without it. Box overlap
has one formula, ``iou_aligned`` over aligned box arrays.
"""

from __future__ import annotations

import math
import numbers
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
LEFT_EAR = 3
RIGHT_EAR = 4
LEFT_SHOULDER = 5
RIGHT_SHOULDER = 6
LEFT_HIP = 11
RIGHT_HIP = 12


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


def as_feature(values) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 embedding vector.

    Raises ValueError when the array is not 1-D or has a non-finite
    component.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"embedding must be 1-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("embedding contains non-finite components")
    return arr


def check_poses(xyc: np.ndarray) -> None:
    """The pose rule, over one (17, 3) pose or a stack of them shaped
    (..., 17, 3): every x and y is finite and every confidence lies in
    [0, 1]. Raises ValueError naming the rule that fails."""
    if not np.isfinite(xyc[..., :2]).all():
        raise ValueError("keypoint coordinates must be finite")
    conf = xyc[..., 2]
    # Written so that a NaN confidence fails the range check.
    if not ((conf >= 0.0) & (conf <= 1.0)).all():
        raise ValueError("keypoint confidences must lie in [0, 1]")


class PoseKeypoints:
    """The 17 COCO keypoints of one detection, stored as a (17, 3) array
    of [x, y, confidence] rows."""

    __slots__ = ("xyc",)

    def __init__(self, xyc):
        arr = np.asarray(xyc, dtype=np.float64)
        if arr.shape != (NUM_KEYPOINTS, 3):
            raise ValueError(f"pose must have shape (17, 3), got {arr.shape}")
        check_poses(arr)
        self.xyc = arr

    @classmethod
    def from_checked(cls, xyc: np.ndarray) -> PoseKeypoints:
        """A pose over a (17, 3) float64 array that ``check_poses`` has
        already passed, with its stack: neither copied nor checked again."""
        pose = cls.__new__(cls)
        pose.xyc = xyc
        return pose

    @property
    def confidences(self) -> np.ndarray:
        return self.xyc[:, 2]

    def __eq__(self, other):
        return isinstance(other, PoseKeypoints) and np.array_equal(self.xyc, other.xyc)

    def __repr__(self):
        return f"PoseKeypoints({self.xyc.tolist()!r})"


@dataclass(slots=True)
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


def center_distance(a: BBox, b: BBox) -> float:
    """Straight-line pixel distance between two box centers."""
    ax, ay = a.center
    bx, by = b.center
    return math.hypot(ax - bx, ay - by)


@dataclass(slots=True)
class DetectionObservation:
    """One detector output for one frame.

    ``embedding`` is coerced by ``as_feature`` on construction, so a
    detection holds a finite 1-D float64 vector; ``from_checked`` takes
    values whose checks the caller has already made. ``occlusion`` and
    ``orientation`` start as None and are populated by the state estimator
    before any association uses the observation.
    """

    camera_id: int
    frame: int
    bbox: BBox
    det_confidence: float
    pose: PoseKeypoints
    embedding: np.ndarray
    occlusion: Optional[OcclusionStatus] = None
    orientation: Optional[Orientation] = None

    def __post_init__(self):
        c = self.det_confidence
        # bool is a real number to Python, not a confidence. A plain float,
        # what parsing gives, skips the slow ABC check.
        if (
            type(c) is not float
            and (isinstance(c, bool) or not isinstance(c, numbers.Real))
        ) or not math.isfinite(c):
            raise ValueError(f"det_confidence must be a finite number, got {c!r}")
        self.embedding = as_feature(self.embedding)

    @classmethod
    def from_checked(
        cls,
        camera_id: int,
        frame: int,
        bbox: BBox,
        det_confidence: float,
        pose: PoseKeypoints,
        embedding: np.ndarray,
    ) -> DetectionObservation:
        """A detection whose confidence is a finite float and whose
        embedding is a finite 1-D float64 array, as the caller has already
        checked: the embedding is neither copied nor checked again."""
        det = cls.__new__(cls)
        det.camera_id = camera_id
        det.frame = frame
        det.bbox = bbox
        det.det_confidence = det_confidence
        det.pose = pose
        det.embedding = embedding
        det.occlusion = None
        det.orientation = None
        return det


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

    def __post_init__(self):
        # The annotations are postponed, so each field's type is its name.
        # bool is an Integral to Python, but neither a count nor a measure.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool":
                if value is not True and value is not False:
                    raise ValueError(f"{f.name} must be True or False, got {value!r}")
                continue
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if f.type == "int" else numbers.Real
            ):
                kind = "an integer" if f.type == "int" else "a number"
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
            try:
                number = float(value)
            except OverflowError:
                raise ValueError(
                    f"{f.name} must be finite, got a value past the double range"
                ) from None
            # A float field holds a double, so the config's text reads back equal.
            if f.type == "float":
                setattr(self, f.name, number)
            # Every count and measure is positive; an integer one is >= 1.
            if not (math.isfinite(number) and number > 0):
                raise ValueError(f"{f.name} must be positive and finite, got {value}")
        # A keypoint confidence lies in [0, 1] and is visible only strictly
        # above gamma_valid, so past these bounds no embedding is ever valid.
        if self.theta_valid >= NUM_KEYPOINTS:
            raise ValueError(f"theta_valid must be < {NUM_KEYPOINTS}")
        if self.gamma_valid >= 1:
            raise ValueError(f"gamma_valid must be < 1, got {self.gamma_valid}")


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


def iou_aligned(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection-over-union of box ``a[k]`` with box ``b[k]`` for every
    ``k``: the one IoU formula of the package.

    ``a`` and ``b`` are float64 arrays of ``(x, y, w, h)`` rows with positive
    extents, shaped (k, 4) or any shapes whose leading axes broadcast; the
    result has the broadcast leading shape. Each entry is the scalar
    formula's double bit for bit: edges by max/min, extents clamped at 0,
    ``inter = iw * ih``, ``union = w*h + w*h - inter``, then ``inter /
    union`` with a union <= 0 read as 0. Only elementwise IEEE operations
    are used, no reduction, so an entry does not depend on the shape or on
    its neighbours. NumPy's maximum/minimum and Python's max/min differ only
    in which zero a tie of 0.0 and -0.0 returns. With positive extents no
    right edge and no extent is -0.0, so such a tie can only be between two
    left edges, and a right edge minus either zero is the same double.
    """
    ax, ay, aw, ah = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx, by, bw, bh = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    # Boxes near the float range overflow to inf and NaN as the scalar
    # formula does, silently.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        iw = np.maximum(0.0, np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx))
        ih = np.maximum(0.0, np.minimum(ay + ah, by + bh) - np.maximum(ay, by))
        inter = iw * ih
        union = aw * ah + bw * bh - inter
        return np.where(union <= 0.0, 0.0, inter / union)


def forbidden_matrix(rows: int, cols: int) -> np.ndarray:
    """A rows x cols distance matrix with every pairing forbidden."""
    return np.full((rows, cols), FORBIDDEN, dtype=np.float64)


@dataclass(frozen=True, slots=True)
class TrackRow:
    """One identity-labeled box: the unit of tracker output and ground truth."""

    camera_id: int
    frame: int
    identity: int
    bbox: BBox

    def sort_key(self):
        return (self.camera_id, self.frame, self.identity)
