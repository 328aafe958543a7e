"""Multi-target multi-camera tracking over precomputed detections."""

from .core import (
    BBox,
    DetectionObservation,
    FORBIDDEN,
    OcclusionStatus,
    Orientation,
    PoseKeypoints,
    TrackRow,
    TrackerConfig,
    iou_aligned,
)
from .features import FusedTrackingFeature
from .sct import CameraTrackerState, Tracklet, TrackingPhase, run_sct
from .mct import Trajectory, associate_mct, run_mct
from .evaluation import clear_metrics, id_measures
from .synth import ScenarioSpec, generate_scenario, scenario_presets

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "CameraTrackerState",
    "DetectionObservation",
    "FORBIDDEN",
    "FusedTrackingFeature",
    "OcclusionStatus",
    "Orientation",
    "PoseKeypoints",
    "ScenarioSpec",
    "TrackRow",
    "TrackerConfig",
    "Tracklet",
    "TrackingPhase",
    "Trajectory",
    "associate_mct",
    "clear_metrics",
    "generate_scenario",
    "id_measures",
    "iou_aligned",
    "run_mct",
    "run_sct",
    "scenario_presets",
]
