"""Time the calibration for set-up in a fresh process: importing a fixed
set of the tracker's dependencies, not the tracker. Prints the seconds.

    python3 perfbench/reference_probe.py
"""

import time

start = time.perf_counter()

import argparse  # noqa: E402,F401
import dataclasses  # noqa: E402,F401
import json  # noqa: E402,F401
import logging  # noqa: E402,F401

import numpy  # noqa: E402,F401
import scipy.optimize  # noqa: E402,F401

print(time.perf_counter() - start)
