"""Synthetic multi-camera scenarios with ground truth.

Agents walk a flat world in meters; each camera projects its view rectangle
onto a pixel image. Per visible agent per frame the generator emits a
ground-truth row and (unless missed) a detection with synthesized COCO
keypoints and an identity-plus-orientation embedding. When two agents'
projections come close, the farther one is occluded: its keypoint
confidences collapse (driving the visible-keypoint count below the
occlusion threshold) and its embedding is pulled toward the occluder with
an event-persistent corruption, mimicking a crop that mostly shows the
front person. Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    BBox,
    DetectionObservation,
    NUM_KEYPOINTS,
    Orientation,
    PoseKeypoints,
    TrackRow,
)

# Unit-box keypoint layout per orientation: (x, y, visible) rows in COCO
# order. A person facing the camera appears mirrored, so their left
# shoulder sits on the image right.
_Y = [0.08, 0.10, 0.10, 0.12, 0.12, 0.22, 0.22, 0.38, 0.38, 0.52, 0.52,
      0.55, 0.55, 0.75, 0.75, 0.95, 0.95]

_FRONT_X = [0.50, 0.56, 0.44, 0.62, 0.38, 0.68, 0.32, 0.72, 0.28, 0.74,
            0.26, 0.62, 0.38, 0.60, 0.40, 0.60, 0.40]

_LEFT_X = [0.40, 0.44, 0.46, 0.55, 0.55, 0.50, 0.50, 0.52, 0.52, 0.42,
           0.42, 0.50, 0.50, 0.48, 0.48, 0.48, 0.48]

# Hidden keypoints per orientation (low confidence): a left-facing person
# hides their right ear, right shoulder and right hip.
_HIDDEN = {
    Orientation.FRONT: frozenset(),
    Orientation.BACK: frozenset(),
    Orientation.LEFT: frozenset({4, 6, 12}),
    Orientation.RIGHT: frozenset({3, 5, 11}),
}

# Keypoints that stay confident on a heavily occluded person (the head).
_OCCLUDED_VISIBLE = frozenset({0, 1, 2, 3, 4})


def _templates():
    out = {}
    out[Orientation.FRONT] = [(x, y) for x, y in zip(_FRONT_X, _Y)]
    out[Orientation.BACK] = [(1.0 - x, y) for x, y in zip(_FRONT_X, _Y)]
    out[Orientation.LEFT] = [(x, y) for x, y in zip(_LEFT_X, _Y)]
    out[Orientation.RIGHT] = [(1.0 - x, y) for x, y in zip(_LEFT_X, _Y)]
    return out


_TEMPLATES = _templates()


@dataclass
class ScenarioSpec:
    """Everything that defines one synthetic scenario.

    ``layout`` picks the walk pattern: "random" scatters agents with a
    drifting heading, "lanes" puts each agent on its own horizontal lane
    with alternating directions, "march" starts everyone near the left
    edge walking right (for camera-handoff runs).
    """

    num_identities: int = 5
    num_cameras: int = 1
    frames: int = 300
    frame_rate: float = 10.0
    world_w: float = 40.0
    world_h: float = 20.0
    camera_views: Optional[list[tuple[float, float, float, float]]] = None
    layout: str = "random"
    speed_min: float = 1.0
    speed_max: float = 1.8
    turn_rate: float = 0.1          # heading drift per frame, radians std
    occlusion_radius_px: float = 0.0  # 0 disables occlusion events
    deep_occlusion_frac: float = 0.45  # below this fraction the detection is dropped
    visible_conf: tuple[float, float] = (0.55, 0.95)
    hidden_conf: tuple[float, float] = (0.0, 0.25)
    base_scale: float = 50.0
    orientation_offset_scale: float = 10.0
    valid_noise_sigma: float = 3.0
    invalid_corruption_sigma: float = 15.0
    occluder_mix: tuple[float, float] = (0.45, 0.75)
    miss_rate: float = 0.0
    fp_rate: float = 0.0
    bbox_jitter_sigma: float = 0.0
    keypoint_jitter_sigma: float = 0.8
    feature_dim: int = 128
    image_w: int = 1920
    image_h: int = 1080
    person_height_px: float = 160.0
    seed: int = 0

    def __post_init__(self):
        for name in ("miss_rate", "fp_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in (
            "valid_noise_sigma",
            "invalid_corruption_sigma",
            "bbox_jitter_sigma",
            "keypoint_jitter_sigma",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.layout not in ("random", "lanes", "march"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.camera_views is not None and len(self.camera_views) != self.num_cameras:
            raise ValueError("camera_views length must equal num_cameras")

    def views(self) -> list[tuple[float, float, float, float]]:
        if self.camera_views is not None:
            return list(self.camera_views)
        slice_w = self.world_w / max(self.num_cameras, 1)
        return [
            (c * slice_w, 0.0, (c + 1) * slice_w, self.world_h)
            for c in range(self.num_cameras)
        ]


@dataclass
class ScenarioData:
    """Generator output plus per-detection diagnostics for tests."""

    spec: ScenarioSpec
    gt_rows: list[TrackRow]
    detections: list[DetectionObservation]
    det_identity: list[int] = field(default_factory=list)  # -1 for false positives
    det_intended_valid: list[bool] = field(default_factory=list)
    det_gt_orientation: list[Optional[Orientation]] = field(default_factory=list)


def _orientation_from_heading(heading: float) -> Orientation:
    dx, dy = math.cos(heading), math.sin(heading)
    if abs(dx) >= abs(dy):
        return Orientation.RIGHT if dx > 0 else Orientation.LEFT
    return Orientation.BACK if dy > 0 else Orientation.FRONT


class _Agent:
    __slots__ = ("x", "y", "heading", "speed", "height_px")

    def __init__(self, x, y, heading, speed, height_px):
        self.x, self.y = x, y
        self.heading = heading
        self.speed = speed
        self.height_px = height_px

    def step(self, spec: ScenarioSpec, rng: np.random.Generator) -> None:
        if spec.turn_rate > 0:
            self.heading += rng.normal(0.0, spec.turn_rate)
        dt = 1.0 / spec.frame_rate
        nx = self.x + self.speed * dt * math.cos(self.heading)
        ny = self.y + self.speed * dt * math.sin(self.heading)
        if nx < 0.0 or nx > spec.world_w:
            self.heading = math.pi - self.heading
            nx = min(max(nx, 0.0), spec.world_w)
        if ny < 0.0 or ny > spec.world_h:
            self.heading = -self.heading
            ny = min(max(ny, 0.0), spec.world_h)
        self.x, self.y = nx, ny


def _spawn_agents(spec: ScenarioSpec, rng: np.random.Generator) -> list[_Agent]:
    agents = []
    for i in range(spec.num_identities):
        speed = rng.uniform(spec.speed_min, spec.speed_max)
        height = spec.person_height_px * rng.uniform(0.92, 1.08)
        if spec.layout == "lanes":
            y = (i + 0.5) * spec.world_h / spec.num_identities
            x = rng.uniform(0.15, 0.85) * spec.world_w
            heading = 0.0 if i % 2 == 0 else math.pi
        elif spec.layout == "march":
            y = (i + 0.5) * spec.world_h / spec.num_identities
            x = rng.uniform(0.01, 0.12) * spec.world_w
            heading = 0.0
        else:
            x = rng.uniform(0.05, 0.95) * spec.world_w
            y = rng.uniform(0.05, 0.95) * spec.world_h
            heading = rng.uniform(-math.pi, math.pi)
        agents.append(_Agent(x, y, heading, speed, height))
    return agents


def _make_embedding_model(spec: ScenarioSpec, rng: np.random.Generator):
    bases = []
    for _ in range(spec.num_identities):
        v = rng.normal(size=spec.feature_dim)
        bases.append(v / np.linalg.norm(v) * spec.base_scale)
    raw = rng.normal(size=(spec.feature_dim, 4))
    q, _ = np.linalg.qr(raw)
    offsets = {
        o: q[:, k] * spec.orientation_offset_scale for k, o in enumerate(Orientation)
    }
    return bases, offsets


def _noise_vector(rng: np.random.Generator, dim: int, sigma: float) -> np.ndarray:
    if sigma <= 0:
        return np.zeros(dim)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    return direction * abs(rng.normal(0.0, sigma))


def _project(view, spec: ScenarioSpec, x: float, y: float) -> tuple[float, float]:
    x0, y0, x1, y1 = view
    px = (x - x0) / (x1 - x0) * spec.image_w
    py = (y - y0) / (y1 - y0) * spec.image_h
    return px, py


def _make_pose(
    spec: ScenarioSpec,
    rng: np.random.Generator,
    bbox: BBox,
    orientation: Orientation,
    occluded: bool,
) -> PoseKeypoints:
    template = _TEMPLATES[orientation]
    hidden = _HIDDEN[orientation]
    xyc = np.empty((NUM_KEYPOINTS, 3))
    for k, (tx, ty) in enumerate(template):
        xyc[k, 0] = bbox.x + tx * bbox.w + rng.normal(0.0, spec.keypoint_jitter_sigma)
        xyc[k, 1] = bbox.y + ty * bbox.h + rng.normal(0.0, spec.keypoint_jitter_sigma)
        if occluded:
            visible = k in _OCCLUDED_VISIBLE
        else:
            visible = k not in hidden
        lo, hi = spec.visible_conf if visible else spec.hidden_conf
        xyc[k, 2] = rng.uniform(lo, hi)
    return PoseKeypoints(xyc)


def generate_scenario(spec: ScenarioSpec) -> ScenarioData:
    """Run the walk, the cameras and the detector for ``spec.frames`` frames."""
    rng = np.random.default_rng(spec.seed)
    data = ScenarioData(spec=spec, gt_rows=[], detections=[])
    if spec.num_identities == 0 or spec.frames == 0 or spec.num_cameras == 0:
        return data

    agents = _spawn_agents(spec, rng)
    bases, offsets = _make_embedding_model(spec, rng)
    views = spec.views()
    # (camera, occludee, occluder) -> (last_frame, mix, corruption)
    events: dict[tuple[int, int, int], tuple[int, float, np.ndarray]] = {}

    for frame in range(spec.frames):
        for agent in agents:
            agent.step(spec, rng)
        for cam, view in enumerate(views):
            visible: list[tuple[int, float, float, BBox]] = []
            for i, agent in enumerate(agents):
                px, py = _project(view, spec, agent.x, agent.y)
                if not (0.0 <= px <= spec.image_w and 0.0 <= py <= spec.image_h):
                    continue
                h = agent.height_px
                w = 0.42 * h
                visible.append((i, px, py, BBox(px - w / 2, py - h / 2, w, h)))

            # Who occludes whom: within the proximity radius the agent
            # projected lower in the image (nearer the camera) wins.
            # occludee -> (pixel distance, occluder id)
            occluders: dict[int, tuple[float, int]] = {}
            radius = spec.occlusion_radius_px
            if radius > 0:
                for a_pos in range(len(visible)):
                    ia, ax, ay, _ = visible[a_pos]
                    for b_pos in range(len(visible)):
                        if a_pos == b_pos:
                            continue
                        ib, bx, by, _ = visible[b_pos]
                        d = math.hypot(ax - bx, ay - by)
                        if d < radius and by > ay:
                            if ia not in occluders or d < occluders[ia][0]:
                                occluders[ia] = (d, ib)

            for i, px, py, gt_box in visible:
                data.gt_rows.append(TrackRow(cam, frame, i + 1, gt_box))
                hit = occluders.get(i)
                occluded = hit is not None
                occ = hit[1] if occluded else -1
                if occluded and hit[0] < spec.deep_occlusion_frac * radius:
                    events.pop((cam, i, occ), None)
                    continue
                if spec.miss_rate > 0 and rng.random() < spec.miss_rate:
                    continue
                orientation = _orientation_from_heading(agents[i].heading)
                jit = spec.bbox_jitter_sigma
                if jit > 0:
                    det_box = BBox(
                        gt_box.x + rng.normal(0.0, jit),
                        gt_box.y + rng.normal(0.0, jit),
                        max(gt_box.w + rng.normal(0.0, 0.5 * jit), 4.0),
                        max(gt_box.h + rng.normal(0.0, 0.5 * jit), 4.0),
                    )
                else:
                    det_box = gt_box
                pose = _make_pose(spec, rng, det_box, orientation, occluded)
                if occluded:
                    key = (cam, i, occ)
                    prev = events.get(key)
                    if prev is not None and prev[0] == frame - 1:
                        _, mix, corruption = prev
                    else:
                        mix = rng.uniform(*spec.occluder_mix)
                        corruption = _noise_vector(
                            rng, spec.feature_dim, spec.invalid_corruption_sigma
                        )
                    events[key] = (frame, mix, corruption)
                    own = bases[i] + offsets[orientation]
                    other = bases[occ] + offsets[
                        _orientation_from_heading(agents[occ].heading)
                    ]
                    emb = (1.0 - mix) * own + mix * other + corruption
                else:
                    emb = bases[i] + offsets[orientation]
                emb = emb + _noise_vector(rng, spec.feature_dim, spec.valid_noise_sigma)
                data.detections.append(
                    DetectionObservation(
                        camera_id=cam,
                        frame=frame,
                        bbox=det_box,
                        det_confidence=rng.uniform(0.8, 0.99),
                        pose=pose,
                        embedding=emb,
                    )
                )
                data.det_identity.append(i + 1)
                data.det_intended_valid.append(not occluded)
                data.det_gt_orientation.append(orientation)

            if spec.fp_rate > 0 and rng.random() < spec.fp_rate:
                h = spec.person_height_px * rng.uniform(0.8, 1.2)
                w = 0.42 * h
                px = rng.uniform(0.0, spec.image_w)
                py = rng.uniform(0.0, spec.image_h)
                box = BBox(px - w / 2, py - h / 2, w, h)
                xyc = np.empty((NUM_KEYPOINTS, 3))
                xyc[:, 0] = box.x + rng.uniform(0.0, 1.0, NUM_KEYPOINTS) * box.w
                xyc[:, 1] = box.y + rng.uniform(0.0, 1.0, NUM_KEYPOINTS) * box.h
                xyc[:, 2] = rng.uniform(*spec.hidden_conf, NUM_KEYPOINTS)
                direction = rng.normal(size=spec.feature_dim)
                direction /= np.linalg.norm(direction)
                data.detections.append(
                    DetectionObservation(
                        camera_id=cam,
                        frame=frame,
                        bbox=box,
                        det_confidence=rng.uniform(0.3, 0.6),
                        pose=PoseKeypoints(xyc),
                        embedding=direction * spec.base_scale,
                    )
                )
                data.det_identity.append(-1)
                data.det_intended_valid.append(False)
                data.det_gt_orientation.append(None)

    data.gt_rows.sort(key=lambda r: r.sort_key())
    return data


def scenario_presets() -> dict[str, ScenarioSpec]:
    """The fixed scenarios used by the acceptance suite.

    easy_single_cam: five well-separated lane walkers, clean detector.
    occlusion_heavy: ten agents in a tight space with frequent crossings,
    detector misses, false positives and orientation-confusable embeddings.
    two_camera_handoff: eight agents marching from camera 0 to camera 1
    through a blind gap.
    """
    easy = ScenarioSpec(
        num_identities=5,
        num_cameras=1,
        frames=400,
        layout="lanes",
        turn_rate=0.0,
        speed_min=1.1,
        speed_max=1.6,
        miss_rate=0.0,
        fp_rate=0.0,
        bbox_jitter_sigma=1.0,
        seed=11,
    )
    heavy = ScenarioSpec(
        num_identities=10,
        num_cameras=1,
        frames=600,
        world_w=26.0,
        world_h=14.0,
        layout="random",
        turn_rate=0.12,
        speed_min=0.9,
        speed_max=1.9,
        occlusion_radius_px=80.0,
        deep_occlusion_frac=0.18,
        base_scale=28.0,
        orientation_offset_scale=40.0,
        valid_noise_sigma=3.0,
        invalid_corruption_sigma=15.0,
        occluder_mix=(0.6, 0.9),
        miss_rate=0.10,
        fp_rate=0.02,
        bbox_jitter_sigma=1.5,
        seed=42,
    )
    handoff = ScenarioSpec(
        num_identities=8,
        num_cameras=2,
        frames=450,
        world_w=60.0,
        world_h=16.0,
        camera_views=[(0.0, 0.0, 26.0, 16.0), (34.0, 0.0, 60.0, 16.0)],
        layout="march",
        turn_rate=0.015,
        speed_min=1.4,
        speed_max=2.0,
        miss_rate=0.02,
        fp_rate=0.0,
        bbox_jitter_sigma=1.0,
        seed=37,
    )
    return {
        "easy_single_cam": easy,
        "occlusion_heavy": heavy,
        "two_camera_handoff": handoff,
    }


def preset_spec(name: str, seed: Optional[int] = None) -> ScenarioSpec:
    """The preset ``name``, reseeded when ``seed`` is given; an unknown name
    is a ValueError."""
    presets = scenario_presets()
    if name not in presets:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(presets))}"
        )
    spec = presets[name]
    if seed is not None:
        spec.seed = seed
    return spec
