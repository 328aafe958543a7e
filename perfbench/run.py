"""Tracker benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The steps, each in its own process
and one at a time:

1. generate the workload's inputs from the seed (cached per workload and
   seed under ``.perfbench_work/inputs``);
2. time set-up (import, config, orientation estimator) in fresh processes
   and keep the median, each probe timed against a reference import;
3. run the measured process (``measure.py``): CLI repetitions and the live
   per-frame pass, or with ``--trace 1`` the traced repetitions.

A human-readable summary goes to standard error. The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics that ``BENCHMARK.json`` lists: the end-to-end ones, or with
``--trace 1`` the per-layer ones. Any failed operation or check makes the
exit code non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from checks import Ledger
from speed import Speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 4
# Set-up is timed against the import of a fixed set of the tracker's
# dependencies in a fresh process (reference_probe.py), which slows with
# the machine as set-up does; the calibration loop does not track process
# start-up. Set-up times are reported at the speed where that import takes
# this long.
REFERENCE_IMPORT_S = 0.6
KEEP_INPUT_SETS = 10  # input sets are tens of MB each; older ones are evicted
# End-to-end figures printed in the summary but not in BENCHMARK.json:
# the first two can be 0 on a correct run, which a bounded metric may not
# be. Per-frame latency has several modes (frames with few or many people
# in view), so its percentiles jump between modes from seed to seed by more
# than any bound; its mean is the bounded figure.
SUMMARY_ONLY = {
    "id_switches": "count",
    "error_rate": "ratio",
    "frame_ms_p50": "ms",
    "frame_ms_p99": "ms",
    "camera_frames": "count",
    "frame_samples": "count",
    "speed_scale": "ratio",
}


class Run:
    def __init__(self, scale: float):
        self.scale = scale
        self.ledger = Ledger()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    def python(self, script: str, *args, timeout: float, log: Path | None = None) -> str | None:
        """Run one benchmark script to completion; returns its stdout, or
        None (recorded as a failed operation) if it fails."""
        cmd = [sys.executable, str(HERE / script), *map(str, args)]
        try:
            if log is None:
                proc = subprocess.run(
                    cmd, env=self.env, cwd=ROOT, timeout=timeout, capture_output=True, text=True
                )
                stdout, stderr = proc.stdout, proc.stderr
            else:
                with open(log, "w") as fh:
                    proc = subprocess.run(
                        cmd, env=self.env, cwd=ROOT, timeout=timeout, stdout=fh, stderr=fh, text=True
                    )
                stdout, stderr = "", log.read_text()
        except subprocess.TimeoutExpired:
            self.ledger.check(False, f"{script} timed out after {timeout:.0f} s")
            return None
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        if not self.ledger.check(proc.returncode == 0, f"{script} exited {proc.returncode}: {tail}"):
            return None
        return stdout

    def inputs(self, workload: str, seed: int) -> Path | None:
        """The input set of (workload, seed), generated unless cached. The
        cache key covers the workload's definition and the tracker's
        sources, so a change to either generates afresh."""
        digest = hashlib.sha1(repr(WORKLOADS[workload]).encode())
        for source in sorted((SRC / "mtmctrack").glob("*.py")):
            digest.update(source.read_bytes())
        inputs_root = WORK / "inputs"
        path = inputs_root / f"{workload}-seed{seed}-x{self.scale:g}-{digest.hexdigest()[:12]}"
        if not (path / "meta.json").is_file():
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir(parents=True)
            if self.python(
                "gen_inputs.py", "--workload", workload, "--seed", seed,
                "--scale", self.scale, "--out", path, timeout=600,
            ) is None:
                return None
        os.utime(path / "meta.json")
        cached = sorted(
            (p for p in inputs_root.iterdir() if (p / "meta.json").is_file()),
            key=lambda p: (p / "meta.json").stat().st_mtime,
        )
        for old in cached[:-KEEP_INPUT_SETS]:
            shutil.rmtree(old, ignore_errors=True)
        return path

    def reference_import(self) -> float:
        out = self.python("reference_probe.py", timeout=120)
        if out is None:
            raise RuntimeError("reference probe failed")
        return float(out)

    def setup(self, weights: Path | None, probes: int) -> dict:
        """Medians of the set-up probes, each at the reference speed of
        the reference imports around it, after one unmeasured warm-up
        that fills the bytecode cache."""
        args = ["--weights", weights] if weights else []
        try:
            if self.python("setup_probe.py", *args, timeout=120) is None:
                return {}
            speed = Speed(self.reference_import)
            results = []
            for _ in range(probes):
                out, (_, calibration) = speed.time(self.python, "setup_probe.py", *args, timeout=120)
                if out is None:
                    return {}
                scale = REFERENCE_IMPORT_S / calibration
                results.append({k: v * scale for k, v in json.loads(out).items()})
        except RuntimeError:
            return {}
        return {k: statistics.median(r[k] for r in results) for k in results[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shorten the streams (smoke tests)")
    parser.add_argument(
        "--fault", action="store_true", help="move one output box off every detection (negative check)"
    )
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "mtmctrack" / "__init__.py").is_file():
        print(f"error: no tracker sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]

    run = Run(args.scale)
    wl = WORKLOADS[args.workload]
    values: dict[str, float] = {}
    summary: dict[str, float] = {}
    inputs = run.inputs(wl.name, args.seed)
    if inputs is not None:
        meta = json.loads((inputs / "meta.json").read_text())
        weights = inputs / "scene0" / "mlp.txt" if wl.mlp else None
        setup = run.setup(weights, SETUP_PROBES)
        out = WORK / "runs" / wl.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        result_path = out / "result.json"
        cmd = [
            "--workload", wl.name, "--inputs", inputs, "--out", out,
            "--seconds", args.seconds, "--result", result_path,
        ]
        cmd += ["--trace"] if args.trace else []
        cmd += ["--fault"] if args.fault else []
        if setup and run.python("measure.py", *cmd, timeout=2 * args.seconds + 150, log=out / "measure.log") is not None:
            result = json.loads(result_path.read_text())
            run.ledger.attempted += result["attempted"]
            run.ledger.failures += result["failures"]
            if args.trace:
                values.update(result.get("layers", {}))
                values["synth.generate_s"] = meta["generate_s"]
                values["setup.import_s"] = setup["import_s"]
                values["setup.estimator_s"] = setup["estimator_s"]
            else:
                values.update({k: v for k, v in result.items() if isinstance(v, (int, float))})
                values["setup_s"] = setup["setup_s"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}
    missing = [m["name"] for m in declared if m["name"] not in values]
    ledger = run.ledger
    ledger.check(not missing, "not measured: " + ", ".join(missing))
    failed = len(ledger.failures)
    correct = failed == 0
    for failure in ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if not args.trace:
        summary.update((k, values[k]) for k in SUMMARY_ONLY if k in values)
        summary["error_rate"] = failed / ledger.attempted
    print(f"{wl.name} seed={args.seed} trace={args.trace}:", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for name, value in summary.items():
        print(f"  {name:48s} {value:>14.6g} {SUMMARY_ONLY[name]}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
