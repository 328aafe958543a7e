"""File formats and configuration parsing.

Detections travel as JSON lines (one object per detection: camera, frame,
bbox, conf, 51 keypoint floats, embedding). They are written with the
standard ``json`` module and read back with ``orjson``, whose float
decoding is correctly rounded, so every value parses to the same double
``json.loads`` gives. Each line's shape is checked as it is decoded; the
values of ``DECODE_CHUNK`` records are stacked and checked together, and
the detections are built from the checked stacks. Track rows are CSV:
camera N's rows are MOT-shaped ("frame,id,x,y,w,h,1,-1,-1,-1") in
``cam<N>.txt``, the multi-camera flavor prefixes a camera column; they
are read into a ``TrackTable`` of columns, a chunk of lines at a time. A
metric report is written as ``report.json`` and ``report.txt``. All floats
are serialized with full round-trip precision and every writer goes
through a temp file renamed on success, so a failed run never leaves
partial output.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np
import orjson

from .core import (
    BBox,
    DetectionObservation,
    NUM_KEYPOINTS,
    PoseKeypoints,
    TrackRow,
    TrackTable,
    TrackerConfig,
    check_poses,
)

PathLike = Union[str, Path]

KEYPOINT_FLOATS = NUM_KEYPOINTS * 3
# The Python types a JSON number decodes to; bool, a subclass of int, is not
# among them.
JSON_NUMBER = frozenset((int, float))
# The dtype kinds of a stack of JSON numbers: bool, signed and unsigned
# integer, float. NumPy promotes true and false among numbers, so they read
# as 1 and 0; a string gives a "U" stack and a null an "O" stack.
NUMBER_KINDS = "biuf"
# Records decoded between two stacks of their keypoints and embeddings. One
# np.array call and one pose check per chunk outweigh their fixed cost at a
# few dozen records, while a chunk's decoded lists (about 4.5 KiB a record)
# add to peak memory until they are stacked.
DECODE_CHUNK = 64
# Bytes read from a detection file at a time. A record is about 3.7 KB, so
# the default 8 KiB buffer splits every second or third line, while this
# one holds about seventy records.
READ_BUFFER = 256 * 1024
# Characters of a track file decoded at a time, about 200 rows. A chunk's
# lines, split fields and decoded numbers are the reader's transient memory:
# on a 7,000-row file the reader peaked as high as the row parser did at
# 64 KiB, and two thirds as high at 16 KiB, at the same speed.
TRACK_CHUNK_CHARS = 16 * 1024
# A track table holds its camera, frame and id columns as int64.
INT64 = np.iinfo(np.int64)


class ParseError(ValueError):
    """A file did not match its format; the message names the line."""


# Python's int() and float() read "3_0" as 30; no file format here has one.
UNDERSCORE_ERROR = "'_' is not allowed in a number"
# Every format is ASCII; decoding with surrogateescape leaves it to each line.
NON_ASCII_ERROR = "non-ASCII bytes"


def _atomic_write(path: PathLike, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="ascii")
    os.replace(tmp, path)


def track_file_name(camera_id: int) -> str:
    """File name of one camera's MOT-shaped track rows."""
    return f"cam{camera_id}.txt"


def find_track_files(directory: PathLike) -> dict[int, Path]:
    """The ``cam<N>.txt`` files of a directory, keyed by camera, in path
    order. Raises FileNotFoundError when there are none, and ParseError for
    a name whose N is not a decimal number or for two names of one camera
    (``cam1.txt`` and ``cam01.txt``)."""
    files = sorted(Path(directory).glob("cam*.txt"))
    if not files:
        raise FileNotFoundError(f"no cam*.txt files in {directory}")
    found: dict[int, Path] = {}
    for f in files:
        digits = f.stem[3:]
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"{f}: track file name must be cam<N>.txt, N a number")
        cam = int(digits)
        if cam in found:
            raise ParseError(f"{found[cam]} and {f} both name camera {cam}")
        found[cam] = f
    return found


def write_report(out_dir: PathLike, report: dict) -> None:
    """Write ``report.json`` and its ``key: value`` lines as ``report.txt``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "report.json", json.dumps(report, indent=2) + "\n")
    lines = [f"{key:>6}: {value}" for key, value in report.items()]
    _atomic_write(out_dir / "report.txt", "\n".join(lines) + "\n")


def write_detections(path: PathLike, dets: Iterable[DetectionObservation]) -> None:
    """One JSON object per line; embeddings kept at full precision."""
    lines = []
    for det in dets:
        record = {
            "camera": det.camera_id,
            "frame": det.frame,
            "bbox": [det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h],
            "conf": det.det_confidence,
            "keypoints": [float(v) for v in det.pose.xyc.reshape(-1)],
            "embedding": [float(v) for v in det.embedding],
        }
        lines.append(json.dumps(record))
    _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def parse_detections(path: PathLike, feature_dim: int = 128) -> list[DetectionObservation]:
    """Read a detection file; records are sorted by (camera, frame) stably.

    Each line must be ASCII JSON without ``NaN``/``Infinity`` tokens, with
    integer ``camera`` (not negative) and ``frame`` and numbers for
    everything else (``true`` and ``false`` among keypoints or embedding
    read as 1 and 0). Occlusion and orientation are left unset: they are
    derived state, not detector output.

    Each line is decoded and its shape checked as it is read: JSON, field
    lengths, the types of camera, frame, conf and bbox. Every
    ``DECODE_CHUNK`` records, the keypoints, embeddings, boxes and
    confidences are stacked and their values checked once per chunk (see
    ``_build_chunk``); each detection holds row views of its chunk's pose
    and embedding stacks. A fault names the first faulty line.
    """
    dets = []
    chunk: list[tuple] = []
    with open(path, "rb", buffering=READ_BUFFER) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                chunk.append((lineno, *_decode_record(line, feature_dim)))
            except (KeyError, TypeError, ValueError) as exc:
                # A value fault on an earlier line of the chunk comes first.
                _build_chunk(path, chunk)
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            if len(chunk) == DECODE_CHUNK:
                dets += _build_chunk(path, chunk)
                chunk = []
    dets += _build_chunk(path, chunk)
    dets.sort(key=lambda d: (d.camera_id, d.frame))
    return dets


def _decode_record(line: bytes, feature_dim: int) -> tuple:
    """One line's checks: ASCII, JSON, the lengths of keypoints, embedding
    and bbox, number types of conf and bbox, integer camera and frame, and a
    camera that is not negative; the caller names the line of a fault.
    Returns ``(camera, frame, bbox, conf, keypoints, embedding)`` with the
    two lists as decoded."""
    if not line.isascii():
        raise ValueError(NON_ASCII_ERROR)
    try:
        record = orjson.loads(line)
    except orjson.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    keypoints = record["keypoints"]
    if len(keypoints) != KEYPOINT_FLOATS:
        raise ValueError(f"expected {KEYPOINT_FLOATS} keypoint floats, got {len(keypoints)}")
    embedding = record["embedding"]
    if len(embedding) != feature_dim:
        raise ValueError(f"embedding has length {len(embedding)}, expected {feature_dim}")
    bbox = record["bbox"]
    if len(bbox) != 4:
        raise ValueError(f"bbox needs 4 values, got {len(bbox)}")
    x, y, w, h = bbox
    conf = record["conf"]
    # One set of five types per record; the keypoints and embedding are
    # typed by their chunk's stacks.
    if not {type(conf), type(x), type(y), type(w), type(h)} <= JSON_NUMBER:
        raise ValueError(
            f"conf and bbox must be JSON numbers, got conf {conf!r}, bbox {bbox!r}"
        )
    camera, frame = record["camera"], record["frame"]
    for key, value in (("camera", camera), ("frame", frame)):
        # bool is an int subclass; a float here may be a rounded
        # integer too large for 64 bits.
        if type(value) is not int:
            raise ValueError(f"{key} must be an integer, got {value!r}")
    # Track files are named cam<N>.txt, N a decimal number.
    if camera < 0:
        raise ValueError(f"camera must not be negative, got {camera}")
    return camera, frame, bbox, conf, keypoints, embedding


def _build_chunk(path: PathLike, chunk: list[tuple]) -> list[DetectionObservation]:
    """The detections of a chunk of decoded records, in order.

    The chunk's keypoints, embeddings, boxes and confidences are each
    stacked by one ``np.array`` call. The stacks' number types, the pose
    rule, and finite confidences and embeddings are checked once per chunk,
    and each detection is built by ``DetectionObservation.from_checked`` over
    its rows; only its box checks itself. The boxes and confidences are cast
    to float64 in their stacks, which rounds an integer as ``float()`` does.
    When any check fails, the records are built again one at a time through
    the checking constructors, so the first faulty one raises with its line
    and the message it would raise alone."""
    if not chunk:
        return []
    try:
        xyc, emb = _stack_poses_and_embeddings([r[5] for r in chunk], [r[6] for r in chunk])
        boxes = np.array([r[3] for r in chunk], dtype=np.float64)
        conf = np.array([r[4] for r in chunk], dtype=np.float64)
        if not (emb.ndim == 2 and np.isfinite(conf).all() and np.isfinite(emb).all()):
            raise ValueError("a confidence or embedding check failed")
        return [
            DetectionObservation.from_checked(
                r[1], r[2], BBox(*box), c, PoseKeypoints.from_checked(pose), row
            )
            for r, box, c, pose, row in zip(chunk, boxes.tolist(), conf.tolist(), xyc, emb)
        ]
    except (TypeError, ValueError):
        pass
    for lineno, camera, frame, (x, y, w, h), c, keypoints, embedding in chunk:
        try:
            xyc, emb = _stack_poses_and_embeddings([keypoints], [embedding])
            DetectionObservation(
                camera_id=camera,
                frame=frame,
                bbox=BBox(float(x), float(y), float(w), float(h)),
                det_confidence=float(c),
                pose=PoseKeypoints.from_checked(xyc[0]),
                embedding=emb[0],
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    raise AssertionError("a chunk check failed, but no record of the chunk did")


def _stack_poses_and_embeddings(
    keypoints: list[list], embeddings: list[list]
) -> tuple[np.ndarray, np.ndarray]:
    """The keypoints of n records as an (n, 17, 3) and their embeddings as
    an (n, ...) float64 stack, each made by one ``np.array`` call without a
    dtype. Both stacks must have a number dtype kind and the keypoints must
    be flat; the pose rule is checked over the whole stack."""
    xyc = np.array(keypoints)
    emb = np.array(embeddings)
    if (
        xyc.dtype.kind not in NUMBER_KINDS
        or xyc.ndim != 2
        or emb.dtype.kind not in NUMBER_KINDS
    ):
        raise ValueError("keypoints and embedding must be JSON numbers")
    xyc = xyc.astype(np.float64, copy=False).reshape(len(keypoints), NUM_KEYPOINTS, 3)
    check_poses(xyc)
    return xyc, emb.astype(np.float64, copy=False)


def write_track_rows(
    path: PathLike, rows: list[TrackRow], include_camera: bool = False
) -> None:
    """Track rows as CSV.

    Single-camera files are MOT-shaped ("frame,id,x,y,w,h,1,-1,-1,-1");
    with ``include_camera`` a leading camera column is added
    ("camera,frame,id,x,y,w,h").
    """
    lines = []
    for r in sorted(rows, key=lambda r: r.sort_key()):
        b = r.bbox
        coords = f"{_num(b.x)},{_num(b.y)},{_num(b.w)},{_num(b.h)}"
        if include_camera:
            lines.append(f"{r.camera_id},{r.frame},{r.identity},{coords}")
        else:
            lines.append(f"{r.frame},{r.identity},{coords},1,-1,-1,-1")
    _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def _num(v: float) -> str:
    # Integral values print without a trailing ".0"; everything else keeps
    # full round-trip precision. int() would drop the sign of -0.0.
    v = float(v)
    if v == 0.0:
        return "-0" if math.copysign(1.0, v) < 0.0 else "0"
    if v.is_integer():
        return str(int(v))
    return repr(v)


def parse_track_rows(path: PathLike, camera_id: Optional[int] = None) -> TrackTable:
    """Read either CSV flavor into a ``TrackTable``, rows in file order.

    7-column rows carry their camera; 10-column MOT rows need ``camera_id``
    from the caller (usually derived from the file name). Given
    ``camera_id``, a 7-column row of another camera is an error. A ``_``
    anywhere in a row is an error: ``int()`` and ``float()`` would read it
    as a digit separator. A camera, frame or id outside int64 is an error.

    The file's bytes are read once, and their line ends ``\\r\\n`` and
    ``\\r`` become ``\\n``, as universal newlines read them. The bytes are
    checked once for non-ASCII bytes and ``_``, and then decoded a chunk of
    about ``TRACK_CHUNK_CHARS`` characters at a time: each column by
    ``map(int, ...)`` or ``map(float, ...)`` into preallocated arrays, and
    the boxes checked together at the end, so no decoded copy of the whole
    file is made. When any of this fails, or a chunk mixes 7- and 10-column
    lines, the whole text is decoded and read again line by line with the
    row checks (``_parse_track_lines``), so a fault names its line, and a
    clean file of mixed flavors gets its table from that pass.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        # One replacement per statement, so at most two copies are alive.
        data = data.replace(b"\r\n", b"\n")
        data = data.replace(b"\r", b"\n")
    if data.isascii() and b"_" not in data:
        table = _decode_track_columns(data, camera_id)
        if table is not None:
            return table
    # A non-ASCII byte decodes to a lone surrogate, which strip() keeps, so
    # either fault sits on a line that is not blank.
    return _parse_track_lines(path, data.decode("ascii", "surrogateescape"), camera_id)


def _decode_track_columns(data: bytes, camera_id: Optional[int]) -> Optional[TrackTable]:
    """The table of ASCII track bytes without ``_`` and with ``\\n`` line
    ends, or None when a column check fails: a chunk whose lines do not all
    have 7 (or, given ``camera_id``, all 10) columns, a value that ``int()``
    or ``float()`` refuses, an integer outside int64, a 7-column row of
    another camera than ``camera_id``, or a box that is not finite with
    positive extents."""
    size = data.count(b"\n") + 1  # the line count bounds the row count
    camera = np.empty(size, dtype=np.int64)
    frame = np.empty(size, dtype=np.int64)
    identity = np.empty(size, dtype=np.int64)
    boxes = np.empty((size, 4), dtype=np.float64)
    n = start = 0
    try:
        while start < len(data):
            end = data.find(b"\n", start + TRACK_CHUNK_CHARS)
            if end < 0:
                end = len(data)
            text = data[start:end].decode("ascii")
            lines = [line for line in map(str.strip, text.split("\n")) if line]
            start = end + 1
            if not lines:
                continue
            commas = set(map(str.count, lines, itertools.repeat(",")))
            if commas == {6}:
                width, x_col = 7, 3
            elif commas == {9} and camera_id is not None:
                width, x_col = 10, 2
            else:
                return None
            fields = ",".join(lines).split(",")
            count = len(lines)
            rows = slice(n, n + count)
            if width == 7:
                camera[rows] = np.fromiter(map(int, fields[0::7]), np.int64, count)
                if camera_id is not None and (camera[rows] != camera_id).any():
                    return None
            else:
                camera[rows] = camera_id
            frame[rows] = np.fromiter(map(int, fields[x_col - 2 :: width]), np.int64, count)
            identity[rows] = np.fromiter(map(int, fields[x_col - 1 :: width]), np.int64, count)
            for c in range(4):
                column = map(float, fields[x_col + c :: width])
                boxes[rows, c] = np.fromiter(column, np.float64, count)
            n += count
    except (OverflowError, ValueError):
        return None
    boxes = boxes[:n]
    if not (np.isfinite(boxes).all() and (boxes[:, 2] > 0).all() and (boxes[:, 3] > 0).all()):
        return None
    return TrackTable(camera[:n], frame[:n], identity[:n], boxes)


def _parse_track_lines(path: PathLike, text: str, camera_id: Optional[int]) -> TrackTable:
    """``parse_track_rows`` line by line, each line checked on its own: the
    first faulty line raises ParseError naming it."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            if not line.isascii():
                raise ValueError(NON_ASCII_ERROR)
            if "_" in line:
                raise ValueError(UNDERSCORE_ERROR)
            parts = line.split(",")
            if len(parts) == 7:
                cam, frame, ident, x, y, w, h = parts
                cam = int(cam)
                if camera_id is not None and cam != camera_id:
                    raise ValueError(f"row of camera {cam} in a file of camera {camera_id}")
            elif len(parts) == 10:
                if camera_id is None:
                    raise ValueError("10-column row needs an explicit camera id")
                cam = camera_id
                frame, ident, x, y, w, h = parts[:6]
            else:
                raise ValueError(f"expected 7 or 10 columns, got {len(parts)}")
            row = TrackRow(
                cam,
                int(frame),
                int(ident),
                BBox(float(x), float(y), float(w), float(h)),
            )
            # Last, so that a row with another fault keeps its message.
            for name, value in (("camera", cam), ("frame", row.frame), ("id", row.identity)):
                if not INT64.min <= value <= INT64.max:
                    raise ValueError(f"{name} is outside the int64 range")
            rows.append(row)
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    return TrackTable.from_rows(rows)


def parse_track_files(files: dict[int, Path]) -> TrackTable:
    """The rows of per-camera track files, ``{camera: path}`` as
    ``find_track_files`` gives them, in camera order."""
    return TrackTable.concatenate(
        [parse_track_rows(files[cam], camera_id=cam) for cam in sorted(files)]
    )


def load_config(path: Optional[PathLike] = None) -> TrackerConfig:
    """Flat "key = value" config; unknown and repeated keys are rejected to
    catch typos.

    Missing keys keep their defaults; a missing path means all defaults.
    Boolean switches take exactly 0 or 1. A value with a ``_`` is rejected,
    although ``float()`` would read it as a digit separator.
    """
    if path is None:
        return TrackerConfig()
    # core postpones its annotations, so each field's type is its name:
    # "bool", "int" or "float".
    kinds = {f.name: f.type for f in dataclasses.fields(TrackerConfig)}
    values = {}
    first_line = {}
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                # A comment is checked too: every byte of the file is ASCII.
                if not line.isascii():
                    raise ValueError(NON_ASCII_ERROR)
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ValueError("expected 'key = value'")
                key, _, raw = stripped.partition("=")
                key = key.strip()
                raw = raw.strip()
                if key not in kinds:
                    raise ValueError(f"unknown key {key!r}")
                if key in first_line:
                    raise ValueError(f"{key} repeats line {first_line[key]}")
                first_line[key] = lineno
                if "_" in raw:
                    raise ValueError(UNDERSCORE_ERROR)
                try:
                    number = float(raw)
                except ValueError as exc:
                    raise ValueError(f"non-numeric value {raw!r} for {key}") from exc
                if not math.isfinite(number):
                    raise ValueError(f"{key} must be finite, got {raw!r}")
                if kinds[key] == "bool":
                    if number not in (0.0, 1.0):
                        raise ValueError(f"{key} must be 0 or 1, got {raw!r}")
                    values[key] = number == 1.0
                elif kinds[key] == "int":
                    if number != int(number):
                        raise ValueError(f"{key} must be an integer")
                    try:
                        # Exact past 2**53, where float() rounds.
                        values[key] = int(raw)
                    except ValueError:
                        values[key] = int(number)
                else:
                    values[key] = number
                # Every field is checked on its own, so a value TrackerConfig
                # refuses is named with its line.
                TrackerConfig(**{key: values[key]})
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    return TrackerConfig(**values)


def config_as_text(cfg: TrackerConfig) -> str:
    """The effective configuration in the same flat format load_config reads."""
    lines = []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = int(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"
