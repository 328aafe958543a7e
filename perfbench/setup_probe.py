"""Time a user's set-up in a fresh process: import the CLI, load the config
and build the orientation estimator (parsing the MLP weight file if one is
given). Prints one JSON object.

    python3 perfbench/setup_probe.py [--weights FILE]
"""

import time

start = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import mtmctrack.cli  # noqa: E402,F401
from mtmctrack.fileio import load_config  # noqa: E402
from mtmctrack.state_estimation import OrientationEstimator, load_mlp_weights  # noqa: E402

imported = time.perf_counter()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--weights", default=None)
    args = parser.parse_args()
    t0 = time.perf_counter()
    load_config(None)
    weights = load_mlp_weights(args.weights) if args.weights else None
    OrientationEstimator(weights)
    end = time.perf_counter()
    print(
        json.dumps(
            {
                "setup_s": (imported - start) + (end - t0),
                "import_s": imported - start,
                "estimator_s": end - t0,
            }
        )
    )


if __name__ == "__main__":
    main()
