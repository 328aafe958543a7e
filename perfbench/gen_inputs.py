"""Generate one workload's inputs for one seed, in its own process.

Writes ``scene<i>/detections.jsonl``, ``scene<i>/gt.csv`` and, when the
workload uses the classifier, ``scene<i>/mlp.txt`` for each scene, then
``meta.json`` last, so a directory with ``meta.json`` holds a complete
input set.

    python3 perfbench/gen_inputs.py --workload crowd --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import time
from pathlib import Path

import numpy as np

from mtmctrack.pipeline import run_synth_stage
from mtmctrack.state_estimation import MlpWeights, save_mlp_weights
from mtmctrack.synth import scenario_presets

from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING)

    wl = WORKLOADS[args.workload]
    generate_s = 0.0
    for scene in range(wl.scenes):
        overrides = wl.spec_overrides(args.seed, scene, args.scale)
        spec = dataclasses.replace(scenario_presets()[wl.preset], **overrides)
        out = args.out / f"scene{scene}"
        start = time.perf_counter()
        run_synth_stage(spec, out)
        generate_s += time.perf_counter() - start
        if wl.mlp:
            weights = MlpWeights.random(np.random.default_rng(overrides["seed"]))
            save_mlp_weights(out / "mlp.txt", weights)
    meta = {"generate_s": generate_s}
    (args.out / "meta.json").write_text(json.dumps(meta) + "\n")


if __name__ == "__main__":
    main()
