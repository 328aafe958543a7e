"""The SCT stage tracks its cameras in forked worker processes: the files,
the log and the errors are those of tracking them one after another."""

import dataclasses
import logging
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mtmctrack import pipeline
from mtmctrack.cli import main as cli_main
from mtmctrack.core import TrackerConfig
from mtmctrack.fileio import parse_detections, track_file_name, write_track_rows
from mtmctrack.sct import run_sct
from mtmctrack.state_estimation import MlpWeights, OrientationEstimator
from mtmctrack.synth import scenario_presets

# Six people walk a corridor past three cameras in a row.
THREE_CAMERAS = {
    "num_cameras": 3,
    "world_w": 86.0,
    "world_h": 16.0,
    "camera_views": [(0.0, 0.0, 26.0, 16.0), (30.0, 0.0, 56.0, 16.0), (60.0, 0.0, 86.0, 16.0)],
    "num_identities": 6,
    "frames": 420,
    "miss_rate": 0.05,
    "seed": 5,
}
# More groups than this machine may have CPUs, so that workers always run.
GROUPS = 3


@pytest.fixture(scope="module")
def det_path(tmp_path_factory):
    spec = dataclasses.replace(scenario_presets()["two_camera_handoff"], **THREE_CAMERAS)
    path, _ = pipeline.run_synth_stage(spec, tmp_path_factory.mktemp("three_cameras"))
    return path


@pytest.fixture(autouse=True)
def no_process_left():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def groups(monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: GROUPS)


def _dets(det_path):
    return parse_detections(det_path, TrackerConfig().feature_dim)


def _groups(dets) -> list[list[int]]:
    """The camera groups of the stage: the calling process tracks the
    first, a worker each other."""
    by_camera = {}
    for det in dets:
        by_camera.setdefault(det.camera_id, []).append(det)
    return pipeline._camera_groups(by_camera, GROUPS)


def _files(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_camera_groups_balance_detection_counts():
    by_camera = {0: [0] * 5, 1: [0] * 9, 2: [0] * 5, 3: [0] * 2, 4: [0] * 1}
    assert pipeline._camera_groups(by_camera, 2) == [[1, 3], [0, 2, 4]]
    assert pipeline._camera_groups(by_camera, 1) == [[1, 0, 2, 3, 4]]


@pytest.mark.parametrize("offline", [True, False])
def test_workers_write_what_serial_tracking_writes(det_path, tmp_path, groups, caplog, offline):
    cfg = TrackerConfig()
    estimator = OrientationEstimator(MlpWeights.random(np.random.default_rng(5)))
    reference = tmp_path / "reference"
    reference.mkdir()
    ref_dets = _dets(det_path)
    for cam in sorted({d.camera_id for d in ref_dets}):
        rows, _ = run_sct(
            [d for d in ref_dets if d.camera_id == cam],
            cfg,
            camera_id=cam,
            offline=offline,
            orientation_estimator=estimator,
        )
        write_track_rows(reference / track_file_name(cam), rows, include_camera=False)
    out = tmp_path / "out"
    dets = _dets(det_path)
    with caplog.at_level(logging.INFO, logger="mtmctrack.pipeline"):
        written = pipeline.run_sct_stage(dets, cfg, out, offline, estimator)

    assert sorted(written) == [0, 1, 2]
    assert _files(out) == _files(reference)
    logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("sct:")]
    assert [m.split()[2] for m in logged] == ["0", "1", "2"]
    # A worker's cameras come back without state, and cross-camera linking
    # fills it with what the worker computed.
    assert any(d.occlusion is None for d in dets)
    pipeline.run_mct_stage(written, dets, cfg, out, estimator)
    pipeline.run_mct_stage(
        {cam: reference / track_file_name(cam) for cam in written}, ref_dets, cfg, reference, estimator
    )
    assert _files(out) == _files(reference)


def test_one_group_tracks_in_process(det_path, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    dets = _dets(det_path)
    pipeline.run_sct_stage(dets, TrackerConfig(), tmp_path, offline=True)
    assert all(d.occlusion is not None for d in dets)


@pytest.mark.parametrize("in_worker", [True, False])
def test_an_error_on_one_camera_fails_the_cli(det_path, tmp_path, groups, monkeypatch, caplog, in_worker):
    dets = _dets(det_path)
    failing = _groups(dets)[1 if in_worker else 0][0]

    def refuse(dets, cfg, camera_id, **kwargs):
        if camera_id == failing:
            raise ValueError(f"camera {camera_id} refused")
        return run_sct(dets, cfg, camera_id=camera_id, **kwargs)

    monkeypatch.setattr(pipeline, "run_sct", refuse)
    code = cli_main(["sct", "--dets", str(det_path), "--out", str(tmp_path), "--offline"])
    assert code == 1
    assert f"camera {failing} refused" in caplog.text


@pytest.mark.parametrize("worker_reply", ["rows", "a large error"])
def test_workers_of_a_failed_caller_exit_quietly(det_path, tmp_path, worker_reply):
    # A fresh process, so that the workers write to the CLI's own stderr. A
    # reply larger than a pipe's buffer must not keep a worker waiting.
    failing = _groups(_dets(det_path))[0][0]
    script = f"""
import sys
from mtmctrack import cli, pipeline
from mtmctrack.sct import run_sct

def refuse(dets, cfg, camera_id, **kwargs):
    if camera_id == {failing}:
        raise ValueError("camera {failing} refused")
    if {worker_reply == "a large error"}:
        raise ValueError("x" * 2**20)
    return run_sct(dets, cfg, camera_id=camera_id, **kwargs)

pipeline._usable_cpus = lambda: {GROUPS}
pipeline.run_sct = refuse
sys.exit(cli.main(["sct", "--dets", sys.argv[1], "--out", sys.argv[2], "--offline"]))
"""
    src = str(Path(pipeline.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, str(det_path), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.endswith(f"ERROR mtmctrack: camera {failing} refused\n")
    assert "Traceback" not in proc.stderr


def test_a_worker_that_dies_raises(det_path, tmp_path, groups, monkeypatch):
    dets = _dets(det_path)
    dying = _groups(dets)[1][0]
    parent = os.getpid()

    def die(dets, cfg, camera_id, **kwargs):
        if camera_id == dying and os.getpid() != parent:
            os._exit(3)
        return run_sct(dets, cfg, camera_id=camera_id, **kwargs)

    monkeypatch.setattr(pipeline, "run_sct", die)
    with pytest.raises(ValueError, match=rf"cameras \[.*{dying}.*\] exited with code 3"):
        pipeline.run_sct_stage(dets, TrackerConfig(), tmp_path, offline=True)
