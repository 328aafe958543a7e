"""Correctness checks on the tracker's outputs, counted as operations.

Every check is one attempted operation; a failed check, a CLI call with a
non-zero exit and an exception all count as failed ones. The checks read
the files with their own parsers, not the tracker's.
"""

from __future__ import annotations

import json
from pathlib import Path


class Ledger:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def detection_keys(path: Path) -> set:
    """(camera, frame, x, y, w, h) of every record in a detection file."""
    keys = set()
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                keys.add((rec["camera"], rec["frame"], *map(float, rec["bbox"])))
    return keys


def track_row_problems(path: Path, det_keys: set) -> list[str]:
    """Rows of a camera-column track file ("camera,frame,id,x,y,w,h") that
    match no input detection's (camera, frame, bbox), or repeat a
    (camera, frame, id)."""
    problems = []
    seen = set()
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            cam, frame, ident, *box = line.strip().split(",")
            if (int(cam), int(frame), *map(float, box)) not in det_keys:
                problems.append(f"{path.name}: line {lineno} matches no detection")
            key = (cam, frame, ident)
            if key in seen:
                problems.append(f"{path.name}: line {lineno} repeats (camera, frame, id)")
            seen.add(key)
    return problems


def move_one_box(path: Path) -> None:
    """Shift the first row's box by half a pixel, off every detection."""
    lines = path.read_text().splitlines()
    parts = lines[0].split(",")
    parts[3] = repr(float(parts[3]) + 0.5)
    lines[0] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")

