"""The benchmark's own tests: tiny-scale smoke runs and the negative checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from checks import detection_keys, move_one_box, track_row_problems  # noqa: E402
from speed import REFERENCE_S, Speed, at_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--scale", "0.05", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in DECLARED["workloads"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke(workload, trace):
    proc, result = run_bench("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)


def test_moved_box_fails_the_run():
    proc, result = run_bench("--workload", "crowd", "--fault")
    assert proc.returncode != 0
    assert result["failed"] > 0 and not result["correct"]


def test_track_row_problems_finds_moved_box(tmp_path):
    dets = tmp_path / "detections.jsonl"
    dets.write_text(
        json.dumps({"camera": 0, "frame": 1, "bbox": [10.0, 20.0, 30.5, 60.0]}) + "\n"
        + json.dumps({"camera": 0, "frame": 2, "bbox": [11.0, 20.0, 30.5, 60.0]}) + "\n"
    )
    tracks = tmp_path / "tracks_mct.csv"
    tracks.write_text("0,1,1,10,20,30.5,60\n0,2,1,11,20,30.5,60\n")
    keys = detection_keys(dets)
    assert track_row_problems(tracks, keys) == []
    move_one_box(tracks)
    assert len(track_row_problems(tracks, keys)) == 1
    tracks.write_text("0,1,1,10,20,30.5,60\n0,1,1,10,20,30.5,60\n")
    assert len(track_row_problems(tracks, keys)) == 1


def test_times_scale_to_the_reference_speed():
    # Units of 2 s and 1 s, timed while the calibration loop ran twice as
    # slow as at the reference speed: a mean of 1.5 s becomes 0.75 s.
    assert at_reference([(2.0, 2 * REFERENCE_S), (1.0, 2 * REFERENCE_S)]) == pytest.approx(0.75)
    result, (seconds, calibration) = Speed().time(sorted, [3, 1, 2])
    assert result == [1, 2, 3] and seconds >= 0 and calibration > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench("--workload", "crowd", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
