"""Spans and counters around the tracker's public functions (its layers).

The tracer patches each traced function in every ``mtmctrack`` module that
binds it, because callers look names up in their own module: ``hungarian``
is called through ``mtmctrack.sct`` and ``mtmctrack.evaluation``,
``parse_detections`` through ``mtmctrack.cli`` and ``mtmctrack.pipeline``.
Nothing under ``src/`` changes; ``uninstall`` restores every binding.

A span is (id, name, start, end, parent id, run id). A layer's self time is
its span's duration minus the time its direct child spans cover; it is
accumulated as spans close, per run and also per (run, parent name).
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Layer:
    module: str
    function: str
    # pre(args) runs before the call; post(args, result, pre) returns the
    # counter increments of one call. Both run outside the span.
    post: Optional[Callable] = None
    pre: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.function}"


def _identities(rows) -> int:
    return len({r.identity for r in rows})


LAYERS = (
    Layer("mtmctrack.fileio", "parse_detections", post=lambda a, r, p: {"records": len(r)}),
    Layer("mtmctrack.fileio", "parse_track_rows"),
    Layer("mtmctrack.fileio", "write_track_rows"),
    Layer("mtmctrack.state_estimation", "load_mlp_weights"),
    Layer("mtmctrack.state_estimation", "populate_state", post=lambda a, r, p: {"dets": len(a[0])}),
    Layer(
        "mtmctrack.sct",
        "step_frame",
        pre=lambda a: len(a[0].finished),
        post=lambda a, r, p: {"disappeared": len(r.finished) - p},
    ),
    Layer(
        "mtmctrack.sct",
        "compute_distance_matrix",
        post=lambda a, r, p: {"pairs": r.size, "finite": int(np.isfinite(r).sum())},
    ),
    Layer("mtmctrack.features", "update_on_match"),
    Layer(
        "mtmctrack.sct",
        "rectify",
        pre=lambda a: len(a[0].tracklets),
        post=lambda a, r, p: {"merges": p - len(r.tracklets)},
    ),
    Layer(
        "mtmctrack.sct",
        "cluster_tracklets",
        pre=lambda a: len(a[0].tracklets),
        post=lambda a, r, p: {"merges": p - len(r[0].tracklets)},
    ),
    Layer("mtmctrack.assignment", "hungarian", post=lambda a, r, p: {"cells": a[0].size}),
    Layer("mtmctrack.assignment", "greedy_associate"),
    Layer("mtmctrack.pipeline", "trajectories_from_rows"),
    Layer(
        "mtmctrack.features",
        "replay_feature",
        post=lambda a, r, p: {"observations": len(a[0])},
    ),
    Layer("mtmctrack.mct", "build_mct_matrix"),
    Layer("mtmctrack.mct", "associate_mct", post=lambda a, r, p: {"links": len(a[0]) - len(r)}),
    Layer(
        "mtmctrack.evaluation",
        "id_measures",
        post=lambda a, r, p: {"gt_pred_pairs": _identities(a[0]) * _identities(a[1])},
    ),
    Layer("mtmctrack.evaluation", "clear_metrics", post=lambda a, r, p: {"ids": r.ids}),
)

# Self time of hungarian split by the traced caller, because SCT and eval
# both solve assignments and an optimisation may touch only one of them.
HUNGARIAN_PARENTS = ("sct.step_frame", "evaluation.clear_metrics")


class Tracer:
    def __init__(self):
        self.layers = LAYERS
        self.run = 0
        self.spans: list[tuple] = []
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name, start, child time]
        self.self_s: dict = defaultdict(float)  # (run, name) -> s
        self.self_by_parent: dict = defaultdict(float)  # (run, name, parent) -> s
        self.counts: dict = defaultdict(int)  # (run, name, counter) -> n
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, layer: Layer, fn):
        name = layer.name
        perf_counter = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            before = layer.pre(args) if layer.pre else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                run = self.run
                self_time = duration - frame[3]
                self.self_s[(run, name)] += self_time
                if parent is not None:
                    self.self_by_parent[(run, name, parent[1])] += self_time
                self.counts[(run, name, "calls")] += 1
                self.spans.append(
                    (span_id, name, frame[2], end, parent[0] if parent else -1, run)
                )
            if layer.post:
                for key, n in layer.post(args, result, before).items():
                    self.counts[(run, name, key)] += n
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer in self.layers:
            original = getattr(importlib.import_module(layer.module), layer.function)
            wrapper = self._wrap(layer, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "mtmctrack" or mod_name.startswith("mtmctrack.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def run_metrics(self, run: int) -> dict:
        """Per-layer metrics of one run: ``<module>.<function>.<stat>``."""
        out = {}
        for layer in self.layers:
            out[f"{layer.name}.self_s"] = self.self_s[(run, layer.name)]
        for (r, name, counter), n in self.counts.items():
            if r == run and counter != "finite":
                out[f"{name}.{counter}"] = n
        for layer in self.layers:
            out.setdefault(f"{layer.name}.calls", 0)
        pairs = self.counts[(run, "sct.compute_distance_matrix", "pairs")]
        finite = self.counts[(run, "sct.compute_distance_matrix", "finite")]
        out["sct.compute_distance_matrix.gate_pass_ratio"] = finite / pairs if pairs else 0.0
        for parent in HUNGARIAN_PARENTS:
            short = parent.rsplit(".", 1)[-1]
            out[f"assignment.hungarian.self_s_in_{short}"] = self.self_by_parent[
                (run, "assignment.hungarian", parent)
            ]
        return out

    def metrics(self) -> dict:
        """The median of each per-layer metric over all traced runs."""
        runs = sorted({s[5] for s in self.spans})
        per_run = [self.run_metrics(r) for r in runs]
        keys = sorted(set().union(*per_run)) if per_run else []
        return {k: statistics.median(m.get(k, 0) for m in per_run) for k in keys}

    def dump(self, path) -> None:
        """Write every span and counter as JSON."""
        doc = {
            "span_fields": ["id", "name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "counts": [[r, name, key, n] for (r, name, key), n in sorted(self.counts.items())],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
