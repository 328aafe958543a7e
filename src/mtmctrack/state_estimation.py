"""Occlusion and orientation estimation from pose keypoints.

A detection's embedding is trusted ("valid") only when enough keypoints are
confidently visible. Orientation comes either from a small dense classifier
(weights loaded from file) or from a geometric fallback rule that needs no
trained weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LEFT_EAR,
    LEFT_HIP,
    LEFT_SHOULDER,
    OcclusionStatus,
    Orientation,
    PoseKeypoints,
    RIGHT_EAR,
    RIGHT_HIP,
    RIGHT_SHOULDER,
    TrackerConfig,
)
from .fileio import NON_ASCII_ERROR, UNDERSCORE_ERROR, ParseError

# Input layout of the orientation classifier: normalized position and
# confidence of both shoulders and both hips, then the two ear confidences.
ORIENTATION_INPUT_DIM = 14

# Layer sizes of the orientation classifier, input to output.
MLP_LAYER_SIZES = (ORIENTATION_INPUT_DIM, 128, 64, 128, 64, 4)

# Output class order of the classifier.
ORIENTATION_CLASSES = (
    Orientation.FRONT,
    Orientation.BACK,
    Orientation.LEFT,
    Orientation.RIGHT,
)


@dataclass
class MlpWeights:
    """Dense layers of the orientation classifier: per layer a (out, in)
    weight matrix and an (out,) bias vector."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        expected = list(zip(MLP_LAYER_SIZES[:-1], MLP_LAYER_SIZES[1:]))
        if len(self.layers) != len(expected):
            raise ValueError(
                f"expected {len(expected)} layers, got {len(self.layers)}"
            )
        for idx, ((w, b), (n_in, n_out)) in enumerate(zip(self.layers, expected)):
            if w.shape != (n_out, n_in):
                raise ValueError(
                    f"layer {idx}: weight shape {w.shape} != ({n_out}, {n_in})"
                )
            if b.shape != (n_out,):
                raise ValueError(f"layer {idx}: bias shape {b.shape} != ({n_out},)")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {idx}: non-finite values")

    @classmethod
    def random(cls, rng: np.random.Generator, scale: float = 0.1) -> "MlpWeights":
        layers = []
        for n_in, n_out in zip(MLP_LAYER_SIZES[:-1], MLP_LAYER_SIZES[1:]):
            layers.append(
                (
                    rng.normal(0.0, scale, size=(n_out, n_in)),
                    rng.normal(0.0, scale, size=n_out),
                )
            )
        return cls(layers)


def count_valid_keypoints(pose: PoseKeypoints, gamma_valid: float) -> int:
    """Number of keypoints whose confidence strictly exceeds the threshold."""
    return int(np.count_nonzero(pose.confidences > gamma_valid))


def estimate_occlusion(pose: PoseKeypoints, cfg: TrackerConfig) -> OcclusionStatus:
    """Valid iff strictly more than ``theta_valid`` keypoints are visible."""
    n_valid = count_valid_keypoints(pose, cfg.gamma_valid)
    if n_valid > cfg.theta_valid:
        return OcclusionStatus.VALID
    return OcclusionStatus.INVALID


def build_orientation_input(xyc: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """The (n, 14) classifier input of n detections, from their stacked
    (n, 17, 3) poses and (n, 4) ``(x, y, w, h)`` boxes.

    Keypoint positions are normalized to the box so the classifier is
    scale-free: x_hat = (x - bbox.x) / bbox.w, same for y. Every element
    takes the same IEEE operations whatever the batch size, so each row
    equals the input of that detection alone.
    """
    joints = xyc[:, (LEFT_SHOULDER, RIGHT_SHOULDER, LEFT_HIP, RIGHT_HIP)]
    out = np.empty((len(xyc), ORIENTATION_INPUT_DIM))
    body = out[:, :12].reshape(-1, 4, 3)
    body[..., 0] = (joints[..., 0] - boxes[:, 0, None]) / boxes[:, 2, None]
    body[..., 1] = (joints[..., 1] - boxes[:, 1, None]) / boxes[:, 3, None]
    body[..., 2] = joints[..., 2]
    out[:, 12] = xyc[:, LEFT_EAR, 2]
    out[:, 13] = xyc[:, RIGHT_EAR, 2]
    return out


def mlp_logits(inputs: np.ndarray, weights: MlpWeights) -> np.ndarray:
    """Forward pass over inputs of shape (..., 14), giving logits of shape
    (..., 4): ReLU after every hidden layer, raw logits at the output.

    Each input is a stacked (14, 1) column, so NumPy's matmul calls the
    same BLAS matrix-vector product per item as ``w @ x`` does for one
    input, and each row's logits do not depend on the batch. ``X @ W.T``
    would be one matrix product, whose rounding changes with the batch.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape[-1:] != (ORIENTATION_INPUT_DIM,):
        raise ValueError(f"input shape {x.shape} != (..., {ORIENTATION_INPUT_DIM})")
    h = x[..., :, None]
    last = len(weights.layers) - 1
    for idx, (w, b) in enumerate(weights.layers):
        h = np.matmul(w, h) + b[:, None]
        if idx != last:
            h = np.maximum(h, 0.0)
    return h[..., 0]


def classify_orientation_mlp(inputs: np.ndarray, weights: MlpWeights) -> list[Orientation]:
    """Argmax over the four logits of each (n, 14) input row; ties break to
    the lowest class index."""
    classes = np.argmax(mlp_logits(inputs, weights), axis=-1)
    return [ORIENTATION_CLASSES[k] for k in classes.tolist()]


def classify_orientation_geometric(
    pose: PoseKeypoints, gamma_valid: float
) -> Orientation:
    """Weight-free orientation rule from keypoint laterality.

    A person facing the camera appears mirrored, so a left shoulder to the
    right of the right shoulder means front. Shoulders take precedence, then
    hips; with neither pair visible a single visible ear decides the profile
    side. Defaults to front.
    """
    conf = pose.confidences

    for left_idx, right_idx in (
        (LEFT_SHOULDER, RIGHT_SHOULDER),
        (LEFT_HIP, RIGHT_HIP),
    ):
        if conf[left_idx] > gamma_valid and conf[right_idx] > gamma_valid:
            if pose.xyc[left_idx, 0] > pose.xyc[right_idx, 0]:
                return Orientation.FRONT
            if pose.xyc[left_idx, 0] < pose.xyc[right_idx, 0]:
                return Orientation.BACK
            return Orientation.FRONT

    left_ear = conf[LEFT_EAR] > gamma_valid
    right_ear = conf[RIGHT_EAR] > gamma_valid
    if left_ear and not right_ear:
        return Orientation.LEFT
    if right_ear and not left_ear:
        return Orientation.RIGHT
    return Orientation.FRONT


# Detections per stacked classifier pass. The pass holds a few (n, 128)
# temporaries; over a whole handoff4 stream at once they raised the
# benchmark's peak RSS from 115 to 144 MiB (+25 %), so memory is bounded by
# this constant instead of by the number of detections.
MLP_CHUNK = 256


class OrientationEstimator:
    """Dispatches between the classifier and the geometric rule."""

    def __init__(self, weights: MlpWeights | None = None):
        self.weights = weights

    def classify(self, dets: list, gamma_valid: float) -> list[Orientation]:
        """One orientation per detection: the classifier runs on stacked
        chunks of at most ``MLP_CHUNK`` detections, the geometric rule on
        one detection at a time."""
        if self.weights is None:
            return [classify_orientation_geometric(d.pose, gamma_valid) for d in dets]
        out: list[Orientation] = []
        for start in range(0, len(dets), MLP_CHUNK):
            chunk = dets[start : start + MLP_CHUNK]
            xyc = np.stack([d.pose.xyc for d in chunk])
            boxes = np.array(
                [(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h) for d in chunk], dtype=np.float64
            )
            out += classify_orientation_mlp(build_orientation_input(xyc, boxes), self.weights)
        return out


def populate_state(dets, cfg: TrackerConfig, estimator: OrientationEstimator | None = None):
    """Fill in occlusion and orientation, in place, for each detection of a
    list that lacks either; a detection with both keeps them. Each detection
    gets what it would get alone."""
    if estimator is None:
        estimator = OrientationEstimator()
    todo = [d for d in dets if d.occlusion is None or d.orientation is None]
    for det, orientation in zip(todo, estimator.classify(todo, cfg.gamma_valid)):
        det.occlusion = estimate_occlusion(det.pose, cfg)
        det.orientation = orientation
    return dets


def save_mlp_weights(path, weights: MlpWeights) -> None:
    """Write weights in the plain-text exchange format (see load_mlp_weights)."""
    lines = ["mlp " + " ".join(str(n) for n in MLP_LAYER_SIZES)]
    for w, b in weights.layers:
        n_out, n_in = w.shape
        lines.append(f"layer {n_in} {n_out}")
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(" ".join(repr(float(v)) for v in b))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mlp_weights(path) -> MlpWeights:
    """Parse the text weight format.

    Header line "mlp 14 128 64 128 64 4", then per layer one line
    "layer <in> <out>", <out> rows of <in> weights, one row of <out> biases.
    Shape mismatches are rejected, and so is a ``_`` or a non-ASCII byte on
    any line. Each fault is a ParseError naming its line; a line missing at
    the end is named as the line after the last.
    """
    lines = []  # (line number, tokens) of every non-blank line
    last = 0
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for last, line in enumerate(fh, start=1):
            if not line.isascii():
                raise ParseError(f"{path}: line {last}: {NON_ASCII_ERROR}")
            # float() would read "1_0.5" as 10.5.
            if "_" in line:
                raise ParseError(f"{path}: line {last}: {UNDERSCORE_ERROR}")
            tokens = line.split()
            if tokens:
                lines.append((last, tokens))

    def fault(pos: int, message: str) -> ParseError:
        lineno = lines[pos][0] if pos < len(lines) else last + 1
        return ParseError(f"{path}: line {lineno}: {message}")

    def floats(pos: int) -> list[float]:
        try:
            values = [float(v) for v in lines[pos][1]]
        except ValueError as exc:
            raise fault(pos, str(exc)) from exc
        if not all(map(math.isfinite, values)):
            raise fault(pos, "non-finite value")
        return values

    if not lines:
        raise fault(0, "empty weight file")
    header = lines[0][1]
    expected_header = ["mlp"] + [str(n) for n in MLP_LAYER_SIZES]
    if header != expected_header:
        raise fault(
            0,
            f"bad header {' '.join(header)!r}, expected {' '.join(expected_header)!r}",
        )
    pos = 1
    layers = []
    for n_in, n_out in zip(MLP_LAYER_SIZES[:-1], MLP_LAYER_SIZES[1:]):
        if pos >= len(lines) or lines[pos][1][:1] != ["layer"]:
            raise fault(pos, f"missing 'layer' line for {n_in}->{n_out}")
        decl = lines[pos][1]
        if decl != ["layer", str(n_in), str(n_out)]:
            raise fault(
                pos,
                f"layer declaration {' '.join(decl)!r} does not match "
                f"expected {n_in}->{n_out}",
            )
        pos += 1
        rows = lines[pos : pos + n_out]
        bad = next((k for k, (_, r) in enumerate(rows) if len(r) != n_in), len(rows))
        if bad < n_out:
            raise fault(pos + bad, f"weight block for {n_in}->{n_out} malformed")
        w = np.array([floats(pos + k) for k in range(n_out)], dtype=np.float64)
        pos += n_out
        if pos >= len(lines) or len(lines[pos][1]) != n_out:
            raise fault(pos, f"bias row for {n_in}->{n_out} malformed")
        b = np.array(floats(pos), dtype=np.float64)
        pos += 1
        layers.append((w, b))
    if pos != len(lines):
        raise fault(pos, "trailing content after last layer")
    return MlpWeights(layers)
