"""The measured process: run the documented CLI flow on generated inputs.

One repetition runs, for every scene of the workload, ``mtmctrack sct``,
``mtmctrack mct`` and ``mtmctrack eval`` through ``mtmctrack.cli.main``,
the stage functions ``run_pipeline`` calls after synth. Each repetition
is followed by a live pass, which feeds each camera to ``sct.step_frame``
frame by frame and clusters on the frames where ``run_sct`` would, timing
every camera-frame. Results go to a JSON file; the process's peak RSS is
tracker memory, since inputs are generated elsewhere.

The machine this runs on may be shared, and its speed drifts with the
load of other tenants. So every CLI call and every live pass is timed
with ``speed.py``'s calibration loop around it, and each time is reported
at the loop's reference speed. Every repetition does the same work on the
same input, so a time is the sum, over scenes and CLI stages, of the
stage's mean call at that speed.

With ``--trace`` the process instead alternates untraced and traced CLI
repetitions, compares their outputs, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from mtmctrack import cli
from mtmctrack.core import TrackerConfig
from mtmctrack.fileio import parse_detections, write_track_rows
from mtmctrack.sct import CameraTrackerState, cluster_tracklets, step_frame
from mtmctrack.state_estimation import OrientationEstimator, load_mlp_weights

from checks import Ledger, detection_keys, move_one_box, track_row_problems
from speed import REFERENCE_S, Speed, at_reference
from tracer import Tracer
from workloads import WORKLOADS

MIN_REPS = 2
# Calls of each CLI stage per scene in one repetition. eval is short next
# to sct and mct, so it gets two, to give its mean more samples.
CALLS_PER_REP = {"sct": 1, "mct": 1, "eval": 2}


class Scene:
    """One recording: its inputs and the directory the CLI writes to."""

    def __init__(self, inputs: Path, out: Path, mlp: bool):
        self.inputs = inputs
        self.out = out
        self.dets = inputs / "detections.jsonl"
        self.orientation = ["--orientation", f"mlp:{inputs / 'mlp.txt'}"] if mlp else []
        self.cams: list[str] = []

    def outputs(self) -> dict[str, bytes]:
        names = self.cams + ["tracks_mct.csv", "report.json"]
        return {name: (self.out / name).read_bytes() for name in names}


class Flow:
    """The CLI flow of one workload over all its scenes."""

    def __init__(self, wl, inputs: Path, out: Path, ledger: Ledger, fault: bool, calls: dict, speed: Speed):
        self.wl = wl
        self.ledger = ledger
        self.fault = fault
        self.calls = calls
        self.speed = speed
        self.scenes = [
            Scene(inputs / f"scene{i}", out / f"scene{i}", wl.mlp) for i in range(wl.scenes)
        ]

    def _call(self, argv) -> bool:
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is one failed operation, not the end of the report
            return self.ledger.check(False, f"mtmctrack {argv[0]} raised {exc!r}")
        return self.ledger.check(rc == 0, f"mtmctrack {argv[0]} exited {rc}")

    def _stage(self, argv) -> list[tuple] | None:
        """The timings of the stage's calls, or None if one failed."""
        timings = []
        for _ in range(self.calls[argv[0]]):
            ok, timing = self.speed.time(self._call, argv)
            if not ok:
                return None
            timings.append(timing)
        return timings

    def run(self) -> list[dict] | None:
        """One repetition; returns each scene's call timings per stage, or
        None if a call failed."""
        times = []
        offline = ["--offline"] if self.wl.offline else []
        for sc in self.scenes:
            out = str(sc.out)
            stages = {
                "sct": ["sct", "--dets", str(sc.dets), "--out", out] + offline + sc.orientation,
                "mct": ["mct", "--tracks", out, "--dets", str(sc.dets), "--out", out] + sc.orientation,
                "eval": ["eval", "--gt", str(sc.inputs / "gt.csv"), "--pred", f"{out}/tracks_mct.csv", "--out", out],
            }
            scene_times = {}
            for stage, argv in stages.items():
                if stage == "eval" and self.fault:
                    move_one_box(sc.out / "tracks_mct.csv")
                scene_times[stage] = self._stage(argv)
                if scene_times[stage] is None:
                    return None
            times.append(scene_times)
            sc.cams = sorted(p.name for p in sc.out.glob("cam*.txt"))
        return times

    def outputs(self) -> list[dict[str, bytes]]:
        return [sc.outputs() for sc in self.scenes]


def live_pass(dets, cfg, estimator, offline: bool, out: Path) -> list[float]:
    """Track every camera frame by frame, as a live caller would; returns
    one latency per camera-frame and writes each camera's rows to ``out``."""
    for det in dets:
        det.occlusion = None
        det.orientation = None
    by_camera: dict[int, list] = {}
    for det in dets:
        by_camera.setdefault(det.camera_id, []).append(det)
    samples = []
    perf_counter = time.perf_counter
    for cam in sorted(by_camera):
        state = CameraTrackerState(camera_id=cam, cfg=cfg, orientation_estimator=estimator)
        by_frame: dict[int, list] = {}
        for det in sorted(by_camera[cam], key=lambda d: d.frame):
            by_frame.setdefault(det.frame, []).append(det)
        first, last = min(by_frame), max(by_frame)
        k = last - first + 1 if offline else cfg.k_interval
        rows = []
        for frame in range(first, last + 1):
            start = perf_counter()
            step_frame(state, by_frame.get(frame, []), frame)
            if (frame - first + 1) % k == 0:
                state, emitted = cluster_tracklets(state)
                rows.extend(emitted)
            if frame == last and (state.last_emit_frame is None or state.last_emit_frame < last):
                state, emitted = cluster_tracklets(state)
                rows.extend(emitted)
            samples.append(perf_counter() - start)
        rows.sort(key=lambda r: r.sort_key())
        write_track_rows(out / f"cam{cam}.txt", rows, include_camera=False)
    return samples


def pooled_quality(reports: list[dict]) -> dict:
    """IDF1, MOTA and identity switches of the whole batch of scenes."""
    idtp = sum(r["idtp"] for r in reports)
    idfp = sum(r["idfp"] for r in reports)
    idfn = sum(r["idfn"] for r in reports)
    errors = sum(r["fn"] + r["fp"] + r["ids"] for r in reports)
    return {
        "idf1": 2 * idtp / (2 * idtp + idfp + idfn),
        "mota": 1.0 - errors / (idtp + idfn),
        "id_switches": sum(r["ids"] for r in reports),
    }


def typical(reps: list[list[dict]], stages) -> float:
    """Sum over scenes and stages of the mean call of each, at the
    reference speed."""
    return sum(
        at_reference([t for rep in reps for t in rep[scene][stage]])
        for scene in range(len(reps[0]))
        for stage in stages
    )


def measure(flow: Flow, seconds: float, live_out: Path) -> dict:
    """Cycles of one CLI repetition and live passes until ``seconds`` are
    used, so that both kinds of sample are spread over the whole run."""
    ledger = flow.ledger
    cfg = TrackerConfig()
    start = time.perf_counter()
    reps, passes = [], []
    reference = live = None
    while True:
        rep = flow.run()
        if rep is None:
            return {}
        reps.append(rep)
        if reference is None:
            reference = flow.outputs()
            for sc in flow.scenes:
                problems = track_row_problems(sc.out / "tracks_mct.csv", detection_keys(sc.dets))
                ledger.check(not problems, "; ".join(problems[:3]))
            live = []
            for sc in flow.scenes:
                weights = load_mlp_weights(sc.inputs / "mlp.txt") if flow.wl.mlp else None
                out = live_out / sc.out.name
                out.mkdir(parents=True, exist_ok=True)
                live.append((parse_detections(sc.dets, cfg.feature_dim), OrientationEstimator(weights), out))
        else:
            ledger.check(flow.outputs() == reference, f"repetition {len(reps)} changed the outputs")
        per_scene, (_, calibration) = flow.speed.time(
            lambda: [live_pass(dets, cfg, est, flow.wl.offline, out) for dets, est, out in live]
        )
        samples = [t for scene in per_scene for t in scene]
        passes.append((samples, (sum(samples), calibration)))
        for (_, _, out), ref in zip(live, reference):
            for name in ref:
                if name.startswith("cam"):
                    ledger.check(
                        (out / name).read_bytes() == ref[name],
                        f"live pass {len(passes)}: {out.name}/{name} differs from the CLI's",
                    )
        if len(passes) == 1:
            # One CLI flow, then one live pass: later cycles hold the live
            # inputs while the CLI runs, which no user does.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > seconds:
            break
    # Each pass's camera-frames, at the reference speed of that pass.
    frame_ms = np.concatenate(
        [np.asarray(samples) * 1e3 * REFERENCE_S / calibration for samples, (_, calibration) in passes]
    )
    camera_frames = len(passes[0][0])
    quality = pooled_quality([json.loads(ref["report.json"]) for ref in reference])
    return {
        "reps": reps,
        "track_s": typical(reps, ("sct", "mct")),
        "eval_s": typical(reps, ("eval",)),
        "frame_ms_mean": at_reference([timing for _, timing in passes]) * 1e3 / camera_frames,
        "frame_ms_p50": float(np.percentile(frame_ms, 50)),
        "frame_ms_p99": float(np.percentile(frame_ms, 99)),
        "camera_frames": camera_frames,
        "frame_samples": len(frame_ms),
        "speed_scale": REFERENCE_S / statistics.fmean(flow.speed.calibrations),
        "peak_rss_mb": peak_rss_mb,
        **quality,
    }


def measure_traced(flow: Flow, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced and traced repetitions; per-layer metrics are the
    medians over traced ones, and both kinds must write the same files."""
    ledger = flow.ledger
    tracer = Tracer()
    start = time.perf_counter()
    plain, traced = [], []
    reference = None
    while True:
        rep = flow.run()
        if rep is None:
            return {}
        plain.append(rep)
        if reference is None:
            reference = flow.outputs()
        tracer.install()
        try:
            rep = flow.run()
        finally:
            tracer.uninstall()
        if rep is None:
            return {}
        traced.append(rep)
        ledger.check(
            flow.outputs() == reference, f"traced repetition {tracer.run} changed the outputs"
        )
        tracer.run += 1
        elapsed = time.perf_counter() - start
        if tracer.run >= 2 and elapsed + elapsed / tracer.run > seconds:
            break
    tracer.dump(trace_path)
    layers = tracer.metrics()
    track = ("sct", "mct")
    layers["trace.overhead_ratio"] = typical(traced, track) / typical(plain, track)
    return {"layers": layers}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--fault", action="store_true", help="move one output box off every detection")
    args = parser.parse_args()

    ledger = Ledger()
    # A traced repetition calls each stage once, so per-layer counts are per flow.
    calls = dict.fromkeys(CALLS_PER_REP, 1) if args.trace else CALLS_PER_REP
    flow = Flow(WORKLOADS[args.workload], args.inputs, args.out / "cli", ledger, args.fault, calls, Speed())
    if args.trace:
        result = measure_traced(flow, args.seconds, args.out / "trace.json")
    else:
        result = measure(flow, args.seconds, args.out / "live")
    logging.shutdown()
    result.update(attempted=ledger.attempted, failures=ledger.failures)
    args.result.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
