"""Command-line surface: synth, sct, mct, eval and pipeline subcommands."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .fileio import (
    ParseError,
    config_as_text,
    find_track_files,
    load_config,
    parse_detections,
    parse_track_files,
    parse_track_rows,
)
from .pipeline import (
    run_eval_stage,
    run_mct_stage,
    run_sct_stage,
    run_synth_stage,
    run_pipeline,
)
from .state_estimation import OrientationEstimator, load_mlp_weights
from .synth import preset_spec, scenario_presets

logger = logging.getLogger("mtmctrack")


def _orientation_arg(value: str) -> str:
    # Only the form is checked here: argparse would turn a weight-file
    # fault into a usage error, so ``main`` loads the file.
    if value != "geometric" and not value.startswith("mlp:"):
        raise argparse.ArgumentTypeError(
            f"--orientation must be 'geometric' or 'mlp:<weightfile>', got {value!r}"
        )
    return value


def _estimator_from_arg(value: str) -> OrientationEstimator:
    return OrientationEstimator(None if value == "geometric" else load_mlp_weights(value[4:]))


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--out", required=True, type=Path, help="output directory")
    parser.add_argument("--config", type=Path, default=None, help="tracker config file")
    parser.add_argument(
        "--orientation",
        type=_orientation_arg,
        default="geometric",
        metavar="{geometric|mlp:<weightfile>}",
        help="orientation classifier to use (default: geometric)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtmctrack",
        description="Multi-target multi-camera tracking over precomputed detections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario")
    p_synth.add_argument("--preset", required=True, choices=sorted(scenario_presets()))
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--out", required=True, type=Path)

    p_sct = sub.add_parser("sct", help="single-camera tracking")
    p_sct.add_argument("--dets", required=True, type=Path, help="detections (JSON lines)")
    p_sct.add_argument(
        "--offline",
        action="store_true",
        help="one clustering pass at sequence end instead of every K frames",
    )
    _add_common(p_sct)

    p_mct = sub.add_parser("mct", help="cross-camera association")
    p_mct.add_argument(
        "--tracks",
        required=True,
        type=Path,
        help="directory of per-camera track files (cam<N>.txt)",
    )
    p_mct.add_argument("--dets", required=True, type=Path)
    _add_common(p_mct)

    p_eval = sub.add_parser("eval", help="ID measures and CLEAR metrics")
    p_eval.add_argument("--gt", required=True, type=Path)
    p_eval.add_argument(
        "--pred",
        required=True,
        type=Path,
        help="camera-column CSV, or a directory of per-camera cam<N>.txt files",
    )
    p_eval.add_argument("--out", type=Path, default=None)
    p_eval.add_argument("--iou", type=float, default=0.5)

    p_pipe = sub.add_parser("pipeline", help="synth -> sct -> mct -> eval")
    p_pipe.add_argument("--preset", required=True, choices=sorted(scenario_presets()))
    p_pipe.add_argument("--seed", type=int, default=None)
    p_pipe.add_argument(
        "--online",
        dest="offline",
        action="store_false",
        help="cluster every K frames instead of once at sequence end",
    )
    _add_common(p_pipe)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("sct", "mct", "pipeline"):
            cfg = load_config(args.config)
            logger.info("effective config:\n%s", config_as_text(cfg).rstrip())
            estimator = _estimator_from_arg(args.orientation)
        report = None
        if args.command == "synth":
            det_path, gt_path = run_synth_stage(preset_spec(args.preset, args.seed), args.out)
            logger.info("wrote %s and %s", det_path, gt_path)
        elif args.command == "sct":
            dets = parse_detections(args.dets, cfg.feature_dim)
            run_sct_stage(dets, cfg, args.out, args.offline, estimator)
        elif args.command == "mct":
            track_files = find_track_files(args.tracks)
            dets = parse_detections(args.dets, cfg.feature_dim)
            run_mct_stage(track_files, dets, cfg, args.out, estimator)
        elif args.command == "eval":
            gt_rows = parse_track_rows(args.gt)
            if args.pred.is_dir():
                pred_rows = parse_track_files(find_track_files(args.pred))
            else:
                pred_rows = parse_track_rows(args.pred)
            report = run_eval_stage(gt_rows, pred_rows, args.out, args.iou)
        else:  # pipeline
            report = run_pipeline(
                args.preset, args.out, cfg, seed=args.seed, offline=args.offline, estimator=estimator
            )
        if report is not None:
            print(" ".join(f"{k}={report[k]}" for k in ("idf1", "idp", "idr", "mota", "ids")))
    except (OSError, ParseError, ValueError) as exc:
        logger.error("%s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
