import json

import numpy as np
import pytest

from mtmctrack.cli import main
from mtmctrack.core import BBox, TrackRow, TrackerConfig
from mtmctrack.fileio import (
    ParseError,
    RunManifest,
    config_as_text,
    load_config,
    parse_detections,
    parse_track_rows,
    write_detections,
    write_track_rows,
)
from mtmctrack.synth import generate_scenario, scenario_presets


@pytest.fixture(scope="module")
def sample_detections():
    spec = scenario_presets()["easy_single_cam"]
    data = generate_scenario(spec)
    return data.detections[:50]


class TestDetectionFile:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert parse_detections(path) == []

    def test_round_trip_bitwise(self, tmp_path, sample_detections):
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_detections(p1, sample_detections)
        parsed = parse_detections(p1)
        write_detections(p2, parsed)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(parsed) == len(sample_detections)
        for d1, d2 in zip(sample_detections, parsed):
            assert np.array_equal(d1.embedding, d2.embedding)
            assert np.array_equal(d1.pose.xyc, d2.pose.xyc)
            assert d1.bbox == d2.bbox
            assert d2.occlusion is None and d2.orientation is None

    def test_parser_sorts_by_camera_and_frame(self, tmp_path, sample_detections):
        path = tmp_path / "shuffled.jsonl"
        shuffled = list(reversed(sample_detections))
        write_detections(path, shuffled)
        parsed = parse_detections(path)
        keys = [(d.camera_id, d.frame) for d in parsed]
        assert keys == sorted(keys)

    def test_wrong_keypoint_arity_names_51(self, tmp_path):
        record = {
            "camera": 0,
            "frame": 1,
            "bbox": [0, 0, 10, 10],
            "conf": 0.9,
            "keypoints": [0.0] * 50,
            "embedding": [0.0] * 128,
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError, match="51"):
            parse_detections(path)

    def test_wrong_embedding_arity(self, tmp_path):
        record = {
            "camera": 0,
            "frame": 1,
            "bbox": [0, 0, 10, 10],
            "conf": 0.9,
            "keypoints": [0.0] * 51,
            "embedding": [0.0] * 100,
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_detections(path)

    @pytest.mark.parametrize(
        "field,index",
        [("conf", None), ("keypoints", 0), ("keypoints", 1), ("keypoints", 2), ("bbox", 2)],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_names_line(self, tmp_path, field, index, value):
        good = {
            "camera": 0,
            "frame": 1,
            "bbox": [0, 0, 10, 10],
            "conf": 0.9,
            "keypoints": [0.5] * 51,
            "embedding": [0.0] * 128,
        }
        bad = json.loads(json.dumps(good))
        if index is None:
            bad[field] = value
        else:
            bad[field][index] = value
        path = tmp_path / "bad.jsonl"
        # json writes NaN and Infinity, and reads them back.
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_detections(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"camera": 0}\nnot json\n')
        with pytest.raises(ParseError, match="line 1"):
            parse_detections(path)


class TestTrackRowFile:
    def test_empty_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_track_rows(path, [])
        assert path.read_text() == ""
        assert parse_track_rows(path) == []

    def test_single_camera_format_line(self, tmp_path):
        path = tmp_path / "cam1.txt"
        write_track_rows(
            path, [TrackRow(1, 5, 3, BBox(10, 20, 30, 40))], include_camera=False
        )
        assert path.read_text() == "5,3,10,20,30,40,1,-1,-1,-1\n"

    def test_camera_column_format_line(self, tmp_path):
        path = tmp_path / "mct.csv"
        write_track_rows(
            path, [TrackRow(2, 5, 3, BBox(10.5, 20, 30, 40))], include_camera=True
        )
        assert path.read_text() == "2,5,3,10.5,20,30,40\n"

    def test_round_trip_thousand_random_rows(self, tmp_path):
        rng = np.random.default_rng(61)
        rows = [
            TrackRow(
                int(rng.integers(0, 4)),
                int(rng.integers(0, 1000)),
                int(rng.integers(1, 50)),
                BBox(*rng.uniform(0, 500, 2), *rng.uniform(1, 200, 2)),
            )
            for _ in range(1000)
        ]
        path = tmp_path / "rows.csv"
        write_track_rows(path, rows, include_camera=True)
        parsed = parse_track_rows(path)
        assert sorted(parsed, key=lambda r: r.sort_key()) == sorted(
            rows, key=lambda r: r.sort_key()
        )

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_box_names_line(self, tmp_path, text):
        path = tmp_path / "tracks.csv"
        path.write_text(f"0,1,1,0,0,5,5\n0,2,1,0,{text},5,5\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_track_rows(path)
        mot = tmp_path / "cam0.txt"
        mot.write_text(f"1,1,0,0,5,5,1,-1,-1,-1\n2,1,{text},0,5,5,1,-1,-1,-1\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_track_rows(mot, camera_id=0)

    def test_mot_rows_need_camera(self, tmp_path):
        path = tmp_path / "cam0.txt"
        write_track_rows(path, [TrackRow(0, 1, 1, BBox(0, 0, 5, 5))])
        with pytest.raises(ParseError):
            parse_track_rows(path)
        assert parse_track_rows(path, camera_id=0)[0].camera_id == 0


class TestConfigFile:
    def test_missing_path_gives_defaults(self):
        assert load_config(None) == TrackerConfig()

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("")
        cfg = load_config(path)
        assert cfg == TrackerConfig()
        assert cfg.gamma_valid == 0.3 and cfg.theta_valid == 7
        assert cfg.mu_m == 10 and cfg.mu_d == 300
        assert cfg.theta_rectify == 20 and cfg.theta_cluster == 30
        assert cfg.theta_mct == 40 and cfg.n_c == 4 and cfg.k_interval == 600

    def test_single_override(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("theta_mct = 55\n")
        cfg = load_config(path)
        assert cfg.theta_mct == 55.0
        assert cfg.theta_cluster == 30.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("thta_mct = 55\n")
        with pytest.raises(ParseError, match="unknown key"):
            load_config(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("theta_mct = fast\n")
        with pytest.raises(ParseError, match="non-numeric"):
            load_config(path)

    @pytest.mark.parametrize("key", ["v_max", "mu_m", "use_cluster_feature"])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, key, raw):
        # One float, one int and one boolean field.
        path = tmp_path / "cfg.txt"
        path.write_text(f"mu_d = 200\n{key} = {raw}\n")
        with pytest.raises(ParseError, match="line 2"):
            load_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# tuning\n\nmu_m = 12\nuse_invalid_feature = 0\n")
        cfg = load_config(path)
        assert cfg.mu_m == 12
        assert cfg.use_invalid_feature is False

    def test_round_trip_through_text(self, tmp_path):
        cfg = TrackerConfig(theta_mct=55.0, mu_m=12, use_cluster_feature=False)
        path = tmp_path / "cfg.txt"
        path.write_text(config_as_text(cfg))
        assert load_config(path) == cfg


class TestManifest:
    def test_missing_input_rejected(self, tmp_path):
        manifest = RunManifest(
            input_paths=[tmp_path / "absent.jsonl"],
            config_path=None,
            output_dir=tmp_path,
            mode="offline",
            cameras=[0],
        )
        with pytest.raises(FileNotFoundError):
            manifest.validate()

    def test_valid_manifest(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        p.write_text("")
        RunManifest([p], None, tmp_path, "online", [0]).validate()

    def test_bad_mode(self, tmp_path):
        with pytest.raises(ValueError):
            RunManifest([], None, tmp_path, "batch", [0]).validate()


class TestCli:
    def test_eval_identical_files(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        rows = [TrackRow(0, f, 1, BBox(10, 10, 20, 40)) for f in range(5)]
        write_track_rows(gt, rows, include_camera=True)
        code = main(["eval", "--gt", str(gt), "--pred", str(gt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "idf1=1.0" in out

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--preset", "easy_single_cam", "--frobs", "3"])
        assert exc.value.code == 2

    def test_missing_input_returns_error(self, tmp_path):
        code = main(
            ["sct", "--dets", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path)]
        )
        assert code == 1

    def test_synth_then_sct_then_eval(self, tmp_path):
        out = tmp_path / "run"
        assert main(["synth", "--preset", "easy_single_cam", "--out", str(out)]) == 0
        assert (out / "detections.jsonl").exists()
        assert (out / "gt.csv").exists()
        assert (
            main(
                [
                    "sct",
                    "--dets",
                    str(out / "detections.jsonl"),
                    "--out",
                    str(out),
                    "--offline",
                ]
            )
            == 0
        )
        assert (out / "cam0.txt").exists()
        assert (
            main(
                [
                    "eval",
                    "--gt",
                    str(out / "gt.csv"),
                    "--pred",
                    str(out),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        report = json.loads((out / "report.json").read_text())
        assert report["idf1"] >= 0.95

    def test_bad_config_returns_error(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus_key = 1\n")
        out = tmp_path / "o"
        dets = tmp_path / "d.jsonl"
        dets.write_text("")
        code = main(
            ["sct", "--dets", str(dets), "--config", str(cfg), "--out", str(out)]
        )
        assert code == 1

    def test_mlp_orientation_flag(self, tmp_path):
        from mtmctrack.state_estimation import MlpWeights, save_mlp_weights

        weights_path = tmp_path / "orientation.weights"
        save_mlp_weights(weights_path, MlpWeights.random(np.random.default_rng(77)))
        out = tmp_path / "run"
        assert main(["synth", "--preset", "easy_single_cam", "--out", str(out)]) == 0
        code = main(
            [
                "sct",
                "--dets",
                str(out / "detections.jsonl"),
                "--out",
                str(out),
                "--offline",
                "--orientation",
                f"mlp:{weights_path}",
            ]
        )
        assert code == 0
        assert (out / "cam0.txt").exists()

    def test_no_partial_output_on_error(self, tmp_path):
        target = tmp_path / "no_such_dir" / "rows.csv"
        with pytest.raises(OSError):
            write_track_rows(target, [TrackRow(0, 1, 1, BBox(0, 0, 5, 5))])
        assert not target.exists()
        assert not target.parent.exists()

    def test_config_flows_through_pipeline(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("theta_mct = 55\n")
        out = tmp_path / "p"
        code = main(
            [
                "pipeline",
                "--preset",
                "easy_single_cam",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "report.json").exists()
