"""Machine-speed calibration, so that times from a shared machine compare.

On a machine shared with other tenants, the speed of the same code drifts
by up to about two times, over seconds and over minutes, on both cores at
once, with no steal time to show for it. A fixed calibration loop, timed
just before and just after each unit of measured work, slows with the
machine. The benchmark reports each time at the reference speed, at which
the loop takes ``REFERENCE_S``:

    reported = REFERENCE_S * sum(unit times) / sum(calibration times)

where a unit's calibration time is the loop's mean time around it. This
ratio of sums is steadier than normalising by one figure for the whole
run, because it follows the machine from unit to unit. The tracker does
not follow the loop exactly: when the loop ran 30 to 50 % faster, the
tracker gained about half as much, so a fast spell still raises the
reported times a little.

The loop mixes the kinds of work the tracker does: interpreted arithmetic
and dict updates, small NumPy products, matrix-vector products of the
orientation classifier's size, and decoding JSON detection records. Each
kind tracked the machine's drift better than none, and the mix best over
both workloads. The loop lives here, apart from the tracker, so that no
change to the tracker can change it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

REFERENCE_S = 0.015
LOOPS_PER_CALIBRATION = 3

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random((8, 8))
_HIDDEN = _RNG.random((128, 40))
_OUT = _RNG.random((64, 128))
_INPUT = _RNG.random(40)
# Records shaped like the generated detections: a box, 17 keypoints and a
# 128-d embedding, at full float precision.
_RECORDS = [
    json.dumps(
        {
            "camera": 0,
            "frame": i,
            "bbox": (_RNG.random(4) * 500).tolist(),
            "conf": float(_RNG.random()),
            "keypoints": (_RNG.random(51) * 500).tolist(),
            "embedding": _RNG.standard_normal(128).tolist(),
        }
    )
    for i in range(40)
]


def calibration_loop() -> float:
    total = 0
    table: dict[int, int] = {}
    for i in range(30_000):
        total += i * i
        table[i & 255] = total
    norm = 0.0
    for _ in range(750):
        norm += float(np.linalg.norm(_SMALL @ _SMALL))
    for _ in range(200):
        norm += float(np.maximum(_OUT @ np.maximum(_HIDDEN @ _INPUT, 0.0), 0.0).sum())
    for record in _RECORDS:
        norm += len(json.loads(record)["embedding"])
    return norm + len(table)


def calibrate() -> float:
    """Mean time of a few back-to-back calibration loops."""
    times = []
    for _ in range(LOOPS_PER_CALIBRATION):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.fmean(times)


class Speed:
    """Times units of work, each with the calibration around it. The
    calibration after one unit is the one before the next. ``calibrate``
    returns the seconds of one calibration."""

    def __init__(self, calibrate=calibrate):
        self.calibrate = calibrate
        self.calibrations: list[float] = []
        self._before: float | None = None

    def time(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; returns its result and a (seconds,
        calibration seconds) pair."""
        if self._before is None:
            self._before = self.calibrate()
            self.calibrations.append(self._before)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        after = self.calibrate()
        self.calibrations.append(after)
        timing = (seconds, (self._before + after) / 2)
        self._before = after
        return result, timing


def at_reference(timings, reference_s: float = REFERENCE_S) -> float:
    """Mean time of the units at the reference speed, at which one
    calibration takes ``reference_s``."""
    return reference_s * sum(s for s, _ in timings) / sum(c for _, c in timings)
