import dataclasses
import json
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mtmctrack import fileio
from mtmctrack.cli import main
from mtmctrack.core import (
    BBox,
    DetectionObservation,
    NUM_KEYPOINTS,
    PoseKeypoints,
    TrackRow,
    TrackTable,
    TrackerConfig,
)
from mtmctrack.fileio import (
    ParseError,
    config_as_text,
    find_track_files,
    load_config,
    parse_detections,
    parse_track_rows,
    write_detections,
    write_track_rows,
)
from mtmctrack.synth import ScenarioSpec, generate_scenario, scenario_presets


@pytest.fixture(scope="module")
def sample_detections():
    spec = scenario_presets()["easy_single_cam"]
    data = generate_scenario(spec)
    return data.detections[:50]


GOOD_RECORD = {
    "camera": 0,
    "frame": 1,
    "bbox": [0, 0, 10, 10],
    "conf": 0.9,
    "keypoints": [0.5] * 51,
    "embedding": [0.0] * 128,
}

# Values at the edges of float64 that a decoder can get wrong.
EDGE_FLOATS = [
    -0.0, 5e-324, -5e-324, 1e300, 1.7976931348623157e308, -1.7976931348623157e308
]
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**53), 2**53).map(float),
)
unit = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 5e-324, 1.0]))
extent = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.sampled_from([5e-324, 1e300, 1.7976931348623157e308]),
)
FEATURE_DIM = 4


@st.composite
def detections(draw):
    keypoints = [
        [draw(finite), draw(finite), draw(unit)] for _ in range(NUM_KEYPOINTS)
    ]
    return DetectionObservation(
        camera_id=draw(st.integers(0, 3)),
        frame=draw(st.integers(0, 2**40)),
        bbox=BBox(draw(finite), draw(finite), draw(extent), draw(extent)),
        det_confidence=draw(finite),
        pose=PoseKeypoints(keypoints),
        embedding=np.array([draw(finite) for _ in range(FEATURE_DIM)]),
    )


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# One line of drawn bytes without a line break: ASCII pieces of the text
# formats and config keys, non-ASCII characters in UTF-8 and bytes that are
# not UTF-8.
ASCII_PIECES = list("0123456789_,=#.-e ") + [f.name for f in dataclasses.fields(TrackerConfig)]
drawn_line = st.lists(
    st.one_of(
        st.sampled_from(ASCII_PIECES).map(str.encode),
        st.characters(min_codepoint=0x80, blacklist_categories=("Cs",)).map(str.encode),
        st.integers(0x80, 0xFF).map(lambda b: bytes([b])),
    ),
    max_size=20,
).map(b"".join)


def replace_line(path, draw):
    """Replace a drawn line of the file with a drawn line; returns its
    number, counted from 1."""
    lines = path.read_bytes().splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    lines[k] = draw(drawn_line)
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return k + 1


def assert_parses_or_names_line(parse, path, lineno, later=False):
    """``parse(path)`` succeeds or raises a ParseError naming line
    ``lineno``, or with ``later`` a line at or after it."""
    try:
        parse(path)
    except ParseError as exc:
        named = re.match(rf"{re.escape(str(path))}: line (\d+): ", str(exc))
        assert named, str(exc)
        n = int(named.group(1))
        assert n >= lineno if later else n == lineno, str(exc)


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
        with pytest.raises(ParseError, match="line 1: embedding has length 100, expected 128"):
            parse_detections(path)

    def test_nested_embedding_names_line(self, tmp_path):
        # The length is checked while parsing, the values by the detection.
        record = {
            "camera": 0,
            "frame": 1,
            "bbox": [0, 0, 10, 10],
            "conf": 0.9,
            "keypoints": [0.0] * 51,
            "embedding": [[0.0]] * 128,
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError, match="line 1: embedding must be 1-D"):
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

    @pytest.mark.parametrize("field,index", [("conf", None), ("bbox", 0), ("bbox", 3)])
    @pytest.mark.parametrize("value", [True, "0.9", "10", None])
    def test_conf_and_bbox_must_be_json_numbers(self, tmp_path, field, index, value):
        bad = json.loads(json.dumps(GOOD_RECORD))
        if index is None:
            bad[field] = value
        else:
            bad[field][index] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ParseError, match="line 2: conf and bbox must be JSON numbers"):
            parse_detections(path)

    def test_integer_conf_and_bbox_read_as_floats(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text(json.dumps(dict(GOOD_RECORD, conf=1)) + "\n")
        (det,) = parse_detections(path)
        assert type(det.det_confidence) is float and det.det_confidence == 1.0
        assert all(type(v) is float for v in dataclasses.astuple(det.bbox))

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"camera": 0}\nnot json\n')
        with pytest.raises(ParseError, match="line 1"):
            parse_detections(path)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.lists(detections(), max_size=6))
    def test_round_trip_property_bit_exact(self, tmp_path, dets):
        path = tmp_path / "dets.jsonl"
        write_detections(path, dets)
        parsed = parse_detections(path, FEATURE_DIM)
        expected = sorted(dets, key=lambda d: (d.camera_id, d.frame))
        assert len(parsed) == len(expected)
        for want, got in zip(expected, parsed):
            assert (got.camera_id, got.frame) == (want.camera_id, want.frame)
            assert np.array_equal(
                bits(dataclasses.astuple(got.bbox)), bits(dataclasses.astuple(want.bbox))
            )
            assert bits(got.det_confidence) == bits(want.det_confidence)
            assert np.array_equal(bits(got.pose.xyc), bits(want.pose.xyc))
            assert np.array_equal(bits(got.embedding), bits(want.embedding))

    def test_long_decimal_strings_parse_as_json_does(self, tmp_path):
        # Digit strings longer than a double's 17 significant digits, and
        # classic hard cases for correct rounding (halfway points, the
        # smallest normal, the largest finite), must round as json does.
        rng = np.random.default_rng(2024)
        texts = [
            "2.2250738585072011e-308",
            "2.2250738585072012e-308",
            "4.9406564584124654e-324",
            "2.4703282292062328e-324",
            "1.7976931348623157e308",
            "1.7976931348623158e308",
            "9007199254740993",
            "9007199254740993.0000000000000001",
            "0.1000000000000000055511151231257827",
            "1.00000000000000011102230246251565404236316680908203125",
            "-0.0",
        ]
        for _ in range(128 * 40 - len(texts)):
            digits = "".join(map(str, rng.integers(0, 10, int(rng.integers(17, 26)))))
            sign = "-" if rng.random() < 0.5 else ""
            texts.append(f"{sign}{digits[0]}.{digits[1:]}e{int(rng.integers(-320, 300))}")
        lines = []
        for i in range(0, len(texts), 128):
            record = dict(GOOD_RECORD, frame=i)
            line = json.dumps(record).replace(
                json.dumps(record["embedding"])[1:-1], ", ".join(texts[i : i + 128])
            )
            lines.append(line)
        path = tmp_path / "long.jsonl"
        path.write_text("\n".join(lines) + "\n")
        parsed = parse_detections(path)
        assert len(parsed) == len(lines)
        for det, line in zip(parsed, lines):
            reference = json.loads(line)["embedding"]
            assert np.array_equal(bits(det.embedding), bits(reference))

    def test_non_finite_token_is_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(dict(GOOD_RECORD, conf=float("nan"))) + "\n")
        with pytest.raises(ParseError, match="line 1: invalid JSON"):
            parse_detections(path)

    @pytest.mark.parametrize("key", ["camera", "frame"])
    @pytest.mark.parametrize("value", ["1.5", "3.0", "true", '"3"', str(2**64)])
    def test_camera_and_frame_must_be_integers(self, tmp_path, key, value):
        good = json.dumps(GOOD_RECORD)
        bad = good.replace(f'"{key}": {GOOD_RECORD[key]}', f'"{key}": {value}')
        assert bad != good
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ParseError, match=f"line 2: {key} must be an integer"):
            parse_detections(path)

    @pytest.mark.parametrize("camera", [-1, -(2**63)])
    def test_negative_camera_names_line(self, tmp_path, camera):
        # Its track file would be named cam-1.txt, which mct and eval refuse.
        path = tmp_path / "bad.jsonl"
        write_records(path, [GOOD_RECORD, dict(GOOD_RECORD, camera=camera)])
        with pytest.raises(
            ParseError, match=f"line 2: camera must not be negative, got {camera}$"
        ):
            parse_detections(path)

    def test_non_ascii_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        bad = json.dumps(GOOD_RECORD).replace('"conf"', '"conf", "note": "\u00e9"', 1)
        path.write_bytes(
            (json.dumps(GOOD_RECORD) + "\n").encode() + bad.encode("utf-8") + b"\n"
        )
        with pytest.raises(ParseError, match="line 2: non-ASCII"):
            parse_detections(path)

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_every_fault_names_its_line(self, tmp_path, sample_detections, data):
        path = tmp_path / "dets.jsonl"
        write_detections(path, sample_detections[:8])
        lineno = replace_line(path, data.draw)
        assert_parses_or_names_line(parse_detections, path, lineno)


def random_records(count, seed=0):
    """``count`` detection records of FEATURE_DIM embeddings, in (camera,
    frame) order, each value drawn so that no two records agree."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        xyc = rng.normal(0.0, 100.0, (NUM_KEYPOINTS, 3))
        xyc[:, 2] = rng.uniform(0.0, 1.0, NUM_KEYPOINTS)
        records.append(
            {
                "camera": i % 3,
                "frame": i,
                "bbox": [*rng.normal(0.0, 100.0, 2), *rng.uniform(1.0, 50.0, 2)],
                "conf": float(rng.uniform()),
                "keypoints": xyc.reshape(-1).tolist(),
                "embedding": rng.normal(0.0, 10.0, FEATURE_DIM).tolist(),
            }
        )
    records.sort(key=lambda r: (r["camera"], r["frame"]))
    return records


def write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.fixture(params=[None, 1, 3], ids=["default", "chunk1", "chunk3"])
def chunk(request, monkeypatch):
    """The decode chunk, at its own value or patched to 1 and 3."""
    if request.param is not None:
        monkeypatch.setattr(fileio, "DECODE_CHUNK", request.param)
    return fileio.DECODE_CHUNK


class TestDetectionChunks:
    @pytest.mark.parametrize("count", ["0", "1", "C-1", "C", "C+1", "2C+1"])
    def test_every_chunk_boundary_parses_bit_for_bit(self, tmp_path, chunk, count):
        sizes = {"0": 0, "1": 1, "C-1": chunk - 1, "C": chunk, "C+1": chunk + 1}
        n = sizes.get(count, 2 * chunk + 1)
        records = random_records(n)
        path = tmp_path / "dets.jsonl"
        write_records(path, records)
        parsed = parse_detections(path, FEATURE_DIM)
        assert len(parsed) == n
        for want, got in zip(records, parsed):
            assert (got.camera_id, got.frame) == (want["camera"], want["frame"])
            assert np.array_equal(bits(dataclasses.astuple(got.bbox)), bits(want["bbox"]))
            assert bits(got.det_confidence) == bits(want["conf"])
            assert np.array_equal(bits(got.pose.xyc.reshape(-1)), bits(want["keypoints"]))
            assert np.array_equal(bits(got.embedding), bits(want["embedding"]))

    @pytest.mark.parametrize("where", ["1", "C", "C+1", "last"])
    @pytest.mark.parametrize(
        "field,index,value,message",
        [
            ("keypoints", 5, 1.5, "keypoint confidences must lie in"),
            ("keypoints", 3, "0.5", "keypoints and embedding must be JSON numbers"),
            ("keypoints", 2, None, "keypoints and embedding must be JSON numbers"),
            ("embedding", 1, "0.5", "keypoints and embedding must be JSON numbers"),
            ("embedding", 0, None, "keypoints and embedding must be JSON numbers"),
            ("embedding", 2, {}, "keypoints and embedding must be JSON numbers"),
            (
                "embedding",
                None,
                [[0.5]] * FEATURE_DIM,
                re.escape("embedding must be 1-D, got shape (4, 1)"),
            ),
            ("bbox", 2, 0.0, "box extent must be positive"),
            ("bbox", 2, -3.5, re.escape("box extent must be positive, got w=-3.5, h=")),
            ("conf", None, 1e308 * 10, "invalid JSON"),
        ],
    )
    def test_value_fault_names_its_own_line(
        self, tmp_path, chunk, where, field, index, value, message
    ):
        records = random_records(2 * chunk + 1)
        line = {"1": 1, "C": chunk, "C+1": chunk + 1, "last": len(records)}[where]
        bad = records[line - 1]
        if index is None:
            bad[field] = value
        else:
            bad[field][index] = value
        path = tmp_path / "bad.jsonl"
        write_records(path, records)
        with pytest.raises(ParseError, match=f"line {line}: {message}"):
            parse_detections(path, FEATURE_DIM)

    @pytest.mark.parametrize(
        "field,index,message",
        [
            ("conf", None, "det_confidence must be a finite number, got nan"),
            ("embedding", 3, "embedding contains non-finite components"),
            ("bbox", 1, re.escape("box fields must be finite, got (")),
        ],
    )
    def test_non_finite_value_past_the_decoder_names_its_own_line(
        self, tmp_path, chunk, monkeypatch, field, index, message
    ):
        # orjson refuses NaN, so only a decoder that reads it, as the
        # standard json module does, lets one reach the chunk's checks.
        monkeypatch.setattr(
            fileio,
            "orjson",
            types.SimpleNamespace(loads=json.loads, JSONDecodeError=json.JSONDecodeError),
        )
        records = random_records(2 * chunk + 1)
        bad = records[chunk]
        if index is None:
            bad[field] = float("nan")
        else:
            bad[field][index] = float("nan")
        path = tmp_path / "bad.jsonl"
        write_records(path, records)
        with pytest.raises(ParseError, match=f"line {chunk + 1}: {message}"):
            parse_detections(path, FEATURE_DIM)

    def test_earlier_value_fault_comes_before_a_later_line_fault(self, tmp_path, chunk):
        records = random_records(3)
        records[1]["keypoints"][2] = 2.0
        path = tmp_path / "bad.jsonl"
        write_records(path, records[:2])
        with open(path, "a") as fh:
            fh.write("not json\n")
        with pytest.raises(ParseError, match="line 2: keypoint confidences must lie in"):
            parse_detections(path, FEATURE_DIM)

    @pytest.mark.parametrize("nested", [[[0.5]] * 51, [[0.5, 0.5, 0.5]] * 17 + [[]] * 34])
    def test_nested_keypoints_name_line(self, tmp_path, chunk, nested):
        # 51 one-element lists stack to as many numbers as 17 x 3 keypoints.
        path = tmp_path / "bad.jsonl"
        write_records(path, [GOOD_RECORD, dict(GOOD_RECORD, keypoints=nested)])
        with pytest.raises(ParseError, match="line 2: "):
            parse_detections(path)

    def test_true_and_false_read_as_one_and_zero(self, tmp_path):
        # NumPy promotes booleans among numbers; refusing them would take a
        # check of every value.
        record = dict(GOOD_RECORD, keypoints=[True, False, True] * NUM_KEYPOINTS)
        path = tmp_path / "bools.jsonl"
        path.write_text(json.dumps(record) + "\n")
        (det,) = parse_detections(path)
        assert det.pose.xyc.dtype == np.float64
        assert det.pose.xyc.tolist() == [[1.0, 0.0, 1.0]] * NUM_KEYPOINTS

    def test_integer_values_round_as_float_does(self, tmp_path, chunk):
        # An all-integer stack is int64 or uint64 and is cast to float64;
        # a mixed one promotes each value. The boxes and confidences are
        # cast in one float64 array per chunk. Each must round as float()
        # does, past 2**63 too, where a JSON integer is still an int.
        values = [2**53 + 1, 2**63 - 1, 2**63 + 1025, 2**64 - 1, 2**62 + 3, 3]
        records = []
        for i, value in enumerate(values):
            records.append(
                dict(
                    GOOD_RECORD,
                    frame=i,
                    bbox=[-value, value - 1, value, value - 2 if value > 2 else 1.5],
                    conf=value if i % 2 else -value,
                    keypoints=[0] * fileio.KEYPOINT_FLOATS,
                    embedding=[value - k for k in range(128)],
                )
            )
        path = tmp_path / "ints.jsonl"
        write_records(path, records)
        for det, record in zip(parse_detections(path), records):
            assert np.array_equal(
                bits(det.embedding), bits([float(v) for v in record["embedding"]])
            )
            assert np.array_equal(
                bits(dataclasses.astuple(det.bbox)), bits([float(v) for v in record["bbox"]])
            )
            assert type(det.det_confidence) is float
            assert bits(det.det_confidence) == bits(float(record["conf"]))


class TestTrackRowFile:
    def test_empty_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_track_rows(path, [])
        assert path.read_text() == ""
        assert len(parse_track_rows(path)) == 0

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

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 2**40),
                st.integers(-5, 2**40),
                finite,
                finite,
                extent,
                extent,
            ),
            max_size=20,
        ),
        st.booleans(),
    )
    def test_round_trip_property_bit_exact(self, tmp_path, fields, include_camera):
        # -0.0, 5e-324 and 1e300 are among the edges `finite` and `extent` draw.
        rows = [
            TrackRow(cam if include_camera else 2, frame, ident, BBox(x, y, w, h))
            for cam, frame, ident, x, y, w, h in fields
        ]
        path = tmp_path / "rows.csv"
        write_track_rows(path, rows, include_camera=include_camera)
        parsed = parse_track_rows(path, camera_id=None if include_camera else 2)
        want = sorted(rows, key=lambda r: r.sort_key())
        assert [r.sort_key() for r in parsed] == [r.sort_key() for r in want]
        boxes = [dataclasses.astuple(r.bbox) for r in parsed]
        assert np.array_equal(bits(boxes), bits([dataclasses.astuple(r.bbox) for r in want]))

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        path = tmp_path / "mct.csv"
        write_track_rows(path, [TrackRow(0, 1, 1, BBox(-0.0, 0.0, 5, 5))], include_camera=True)
        assert path.read_text() == "0,1,1,-0,0,5,5\n"
        (row,) = parse_track_rows(path)
        assert np.copysign(1.0, row.bbox.x) == -1.0 and np.copysign(1.0, row.bbox.y) == 1.0

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

    def test_non_ascii_names_line(self, tmp_path):
        path = tmp_path / "tracks.csv"
        path.write_bytes("0,1,2,3,10,10,20\n1,2,3,10,1\u00e90,20,40\n".encode())
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: non-ASCII bytes$"):
            parse_track_rows(path)

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(include_camera=st.booleans(), data=st.data())
    def test_every_fault_names_its_line(self, tmp_path, include_camera, data):
        path = tmp_path / "cam0.txt"
        rows = [TrackRow(0, f, i, BBox(f, 2.5 * i, 10, 20)) for f in range(4) for i in (1, 2)]
        write_track_rows(path, rows, include_camera=include_camera)
        lineno = replace_line(path, data.draw)
        assert_parses_or_names_line(lambda p: parse_track_rows(p, camera_id=0), path, lineno)

    @pytest.mark.parametrize(
        "text, camera_id",
        [
            # int() and float() would read these as frame 30 and x 10.5.
            ("0,1,1,0,0,5,5\n0,3_0,1,1_0.5,2,3,4\n", None),
            ("1,1,0,0,5,5,1,-1,-1,-1\n3_0,1,1_0.5,2,3,4,1,-1,-1,-1\n", 0),
        ],
        ids=["7_columns", "10_columns"],
    )
    def test_underscore_in_a_number_names_line(self, tmp_path, text, camera_id):
        path = tmp_path / "tracks.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="line 2: '_' is not allowed"):
            parse_track_rows(path, camera_id=camera_id)

    def test_camera_column_row_must_match_camera_id(self, tmp_path):
        path = tmp_path / "cam0.txt"
        path.write_text("0,4,7,10,10,20,40\n1,5,7,10,10,20,40\n")
        with pytest.raises(ParseError, match="line 2: row of camera 1 in a file of camera 0"):
            parse_track_rows(path, camera_id=0)
        assert [r.camera_id for r in parse_track_rows(path)] == [0, 1]

    @pytest.mark.parametrize("command", ["mct", "eval"])
    def test_track_file_row_of_another_camera_returns_error(
        self, tmp_path, sample_detections, command, caplog
    ):
        dets = tmp_path / "dets.jsonl"
        write_detections(dets, sample_detections)
        tracks = tmp_path / "tracks"
        tracks.mkdir()
        (tracks / "cam0.txt").write_text("1,5,7,10,10,20,40\n")
        gt = tmp_path / "gt.csv"
        write_track_rows(gt, [TrackRow(1, 5, 7, BBox(10, 10, 20, 40))], include_camera=True)
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "mct": ["mct", "--tracks", str(tracks), "--dets", str(dets)],
            "eval": ["eval", "--gt", str(gt), "--pred", str(tracks)],
        }[command]
        assert main(argv + ["--out", str(out)]) == 1
        assert f"{tracks / 'cam0.txt'}: line 1: row of camera 1" in caplog.text
        assert list(out.rglob("*")) == []

    def test_mot_rows_need_camera(self, tmp_path):
        path = tmp_path / "cam0.txt"
        write_track_rows(path, [TrackRow(0, 1, 1, BBox(0, 0, 5, 5))])
        with pytest.raises(ParseError):
            parse_track_rows(path)
        assert parse_track_rows(path, camera_id=0).camera.tolist() == [0]


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def reference_track_rows(path, camera_id=None):
    """Track rows read one line at a time: the row parser that
    ``parse_track_rows`` replaced, with its checks and messages, plus the
    int64 rule. Returns a list of TrackRow."""
    rows = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    raise ValueError("non-ASCII bytes")
                if "_" in line:
                    raise ValueError("'_' is not allowed in a number")
                parts = line.split(",")
                if len(parts) == 7:
                    cam, frame, ident, x, y, w, h = parts
                    cam = int(cam)
                    if camera_id is not None and cam != camera_id:
                        raise ValueError(f"row of camera {cam} in a file of camera {camera_id}")
                elif len(parts) == 10:
                    if camera_id is None:
                        raise ValueError("10-column row needs an explicit camera id")
                    cam = camera_id
                    frame, ident, x, y, w, h = parts[:6]
                else:
                    raise ValueError(f"expected 7 or 10 columns, got {len(parts)}")
                row = TrackRow(
                    cam, int(frame), int(ident), BBox(float(x), float(y), float(w), float(h))
                )
                for name, value in (("camera", cam), ("frame", row.frame), ("id", row.identity)):
                    if not INT64_MIN <= value <= INT64_MAX:
                        raise ValueError(f"{name} is outside the int64 range")
                rows.append(row)
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    return rows


def assert_same_table(table, rows):
    """``table`` holds ``rows`` bit for bit, in order."""
    want = TrackTable.from_rows(rows)
    for name in ("camera", "frame", "identity"):
        got = getattr(table, name)
        assert got.dtype == np.int64 and got.tolist() == getattr(want, name).tolist(), name
    assert table.boxes.dtype == np.float64 and table.boxes.shape == (len(rows), 4)
    assert np.array_equal(table.boxes.view(np.uint64), want.boxes.view(np.uint64))


# Whitespace that str.strip() removes but a text file does not end a line
# at; str.splitlines() would split at the last two.
PAD = st.sampled_from(["", " ", "  ", "\t", "\x0b", "\x0c"])
# True about once in 40 draws. Hypothesis draws the ends of a range more
# often than its middle, so the rare value sits in the middle.
RARELY = st.integers(0, 39).map(lambda k: k == 20)


@st.composite
def int_field(draw):
    """An integer's text: sign, leading zeros and padding drawn, with
    values at and past the int64 edges, and now and then a token int()
    refuses."""
    if draw(RARELY):
        return draw(st.sampled_from(["", "1.5", "x", "1e3", "0x10"]))
    if draw(RARELY):
        value = draw(st.sampled_from([INT64_MIN, INT64_MAX, INT64_MIN - 1, INT64_MAX + 1, 2**70]))
    else:
        value = draw(st.integers(-5, 2**40))
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    zeros = "0" * draw(st.integers(0, 2))
    return f"{draw(PAD)}{sign}{zeros}{abs(value)}{draw(PAD)}"


@st.composite
def float_field(draw, extent_only=False):
    """A float's text: repr, exponent or integer form, sign, leading zeros
    and padding drawn, and now and then a value a box refuses."""
    if draw(RARELY):
        return draw(st.sampled_from(["nan", "inf", "-inf", "0", "-1", "x", ""]))
    value = draw(extent if extent_only else finite)
    form = draw(st.sampled_from(["repr", "exponent", "integer"]))
    if form == "exponent":
        text = f"{abs(value):.17e}"
    elif form == "integer" and value.is_integer():
        text = str(int(abs(value)))
    else:
        text = repr(abs(value))
    sign = "-" if math.copysign(1.0, value) < 0 else draw(st.sampled_from(["", "+"]))
    zeros = "0" * draw(st.integers(0, 2))
    return f"{draw(PAD)}{sign}{zeros}{text}{draw(PAD)}"


@st.composite
def track_line(draw, camera_id):
    """One row of either flavor; with ``camera_id`` the 7-column rows
    mostly name that camera, and now and then a row has a column too few
    or too many."""
    fields = [draw(int_field()), draw(int_field()), draw(float_field()), draw(float_field())]
    fields += [draw(float_field(True)), draw(float_field(True))]
    if camera_id is None or draw(st.booleans()):
        if camera_id is not None and not draw(RARELY):
            cam = f"{draw(PAD)}{camera_id}{draw(PAD)}"
        else:
            cam = draw(int_field())
        fields.insert(0, cam)
    else:
        fields += ["1", "-1", " -1", "-1 "]
    if draw(RARELY):
        fields = fields[:-1] if draw(st.booleans()) else fields + ["0"]
    return ",".join(fields)


@st.composite
def track_text(draw, camera_id):
    """Rows and blank lines, each ended by a drawn \\n, \\r\\n or lone \\r; the
    last line end may be left out."""
    lines = draw(
        st.lists(st.one_of(track_line(camera_id), PAD, st.just("  \t ")), max_size=12)
    )
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


class TestTrackTableReader:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        camera_id=st.sampled_from([None, 2]),
        chunk=st.sampled_from([1, 40, None]),
        data=st.data(),
    )
    def test_matches_the_row_reader_bit_for_bit(
        self, tmp_path, monkeypatch, camera_id, chunk, data
    ):
        # Small chunks put chunk ends at every line, so 7- and 10-column
        # rows meet in one chunk and across two.
        if chunk is not None:
            monkeypatch.setattr(fileio, "TRACK_CHUNK_CHARS", chunk)
        path = tmp_path / "cam2.txt"
        path.write_bytes(data.draw(track_text(camera_id)).encode("ascii"))
        try:
            want = reference_track_rows(path, camera_id)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_track_rows(path, camera_id)
            assert str(got.value) == str(exc)
        else:
            assert_same_table(parse_track_rows(path, camera_id), want)

    def test_mixed_flavors_in_one_file(self, tmp_path):
        path = tmp_path / "cam2.txt"
        path.write_text("2,1,7,0,0,5,5\n\n 3 ,8, 1e1,+0.5,5,5,1,-1,-1,-1\r\n2,4,9,-1,2,3,4\n")
        table = parse_track_rows(path, camera_id=2)
        assert_same_table(table, reference_track_rows(path, camera_id=2))
        assert table.frame.tolist() == [1, 3, 4] and table.boxes[1].tolist() == [10.0, 0.5, 5, 5]

    def test_a_form_feed_does_not_end_a_line(self, tmp_path):
        # str.splitlines() would cut this row in two at the \x0c.
        path = tmp_path / "tracks.csv"
        path.write_text("0,1,7,0,0,5,5\x0c\n\x0c\n0,2,7,0,0,5,5\n")
        assert parse_track_rows(path).frame.tolist() == [1, 2]


class TestTrackIntegerRange:
    @pytest.mark.parametrize("value", [INT64_MIN - 1, INT64_MAX + 1])
    @pytest.mark.parametrize(
        "flavor, column",
        [("7", "camera"), ("7", "frame"), ("7", "id"), ("10", "frame"), ("10", "id")],
    )
    def test_value_outside_int64_names_line(self, tmp_path, flavor, column, value):
        fields = {"camera": 0, "frame": 5, "id": 7}
        fields[column] = value
        if flavor == "7":
            line, camera_id = "{camera},{frame},{id},10,10,20,40", None
        else:
            line, camera_id = "{frame},{id},10,10,20,40,1,-1,-1,-1", 0
        path = tmp_path / "cam0.txt"
        path.write_text(line.format(camera=0, frame=4, id=7) + "\n" + line.format(**fields) + "\n")
        message = f"{column} is outside the int64 range"
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: {message}$"):
            parse_track_rows(path, camera_id=camera_id)

    def test_mot_file_of_a_camera_outside_int64_names_line(self, tmp_path):
        # A MOT row's camera is its file's N, which find_track_files reads
        # as a decimal number of any size.
        path = tmp_path / f"cam{INT64_MAX + 1}.txt"
        path.write_text("4,7,10,10,20,40,1,-1,-1,-1\n")
        message = "line 1: camera is outside the int64 range"
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {message}$"):
            fileio.parse_track_files(find_track_files(tmp_path))

    def test_int64_edges_read_exactly(self, tmp_path):
        path = tmp_path / f"cam{INT64_MAX}.txt"
        path.write_text(f"{INT64_MIN},{INT64_MAX},10,10,20,40,1,-1,-1,-1\n")
        table = fileio.parse_track_files(find_track_files(tmp_path))
        columns = (table.camera.tolist(), table.frame.tolist(), table.identity.tolist())
        assert columns == ([INT64_MAX], [INT64_MIN], [INT64_MAX])


def whole_file_split(path):
    """The columns of a camera-column track file from one split of its
    whole text: the table reader without its chunks."""
    with open(path) as fh:
        lines = [line for line in map(str.strip, fh.read().split("\n")) if line]
    fields = ",".join(lines).split(",")
    ints = [np.array(list(map(int, fields[k::7])), dtype=np.int64) for k in range(3)]
    floats = [np.array(list(map(float, fields[k::7]))) for k in range(3, 7)]
    return ints, np.column_stack(floats)


def test_track_reader_peak_memory(tmp_path):
    # 200,000 camera-column rows with full-precision boxes: 16 MiB of text.
    # Under tracemalloc (Python 3.11, NumPy 2.4) the reader peaked at
    # 32 MiB, while reading: the file's bytes and their decoded text. The
    # text and the 11 MiB table come to 27 MiB. The row reader peaked at
    # 50 MiB and the unchunked split at 140 MiB.
    n = 200_000
    rng = np.random.default_rng(71)
    ints = (rng.integers(0, 4, n).tolist(), range(n), rng.integers(1, 50, n).tolist())
    spans = ((0, 1900), (0, 1000), (1, 200), (1, 400))
    floats = (rng.uniform(low, high, n).tolist() for low, high in spans)
    path = tmp_path / "tracks.csv"
    with open(path, "w") as fh:
        for c, f, i, x, y, w, h in zip(*ints, *floats):
            fh.write(f"{c},{f},{i},{x!r},{y!r},{w!r},{h!r}\n")
    bound = 40 * 2**20

    def peak(read):
        tracemalloc.start()
        try:
            read(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(parse_track_rows) < bound
    assert peak(reference_track_rows) > bound
    assert peak(whole_file_split) > bound


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

    @pytest.mark.parametrize("second", ["7", "5"])
    def test_repeated_key_names_both_lines(self, tmp_path, second):
        # A later value must not win silently, even an equal one.
        path = tmp_path / "cfg.txt"
        path.write_text(f"mu_m = 5\n# retuned\nmu_d = 200\nmu_m = {second}\n")
        with pytest.raises(ParseError, match="line 4: mu_m repeats line 1"):
            load_config(path)

    @pytest.mark.parametrize("second", ["# caf\u00e9", "mu_d = 2\u00e90"])
    def test_non_ascii_names_line(self, tmp_path, second):
        # A comment is refused too: every line of the file must be ASCII.
        path = tmp_path / "cfg.txt"
        path.write_bytes(f"mu_m = 5\n{second}\n".encode())
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: non-ASCII bytes$"):
            load_config(path)

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_every_fault_names_its_line(self, tmp_path, data):
        # A repeated key is named at its later line, so a fault drawn into
        # line k is named at line k or after it.
        path = tmp_path / "cfg.txt"
        path.write_text(config_as_text(TrackerConfig()))
        lineno = replace_line(path, data.draw)
        assert_parses_or_names_line(load_config, path, lineno, later=True)

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

    @pytest.mark.parametrize("key, raw", [("k_interval", "6_00"), ("theta_mct", "4_0.5")])
    def test_underscore_in_a_value_names_line(self, tmp_path, key, raw):
        # One integer and one float field; float() would read 600 and 40.5.
        path = tmp_path / "cfg.txt"
        path.write_text(f"mu_d = 200\n{key} = {raw}\n")
        with pytest.raises(ParseError, match="line 2: '_' is not allowed"):
            load_config(path)

    @pytest.mark.parametrize("raw", ["0.5", "2", "-1"])
    def test_switch_other_than_zero_or_one_names_line(self, tmp_path, raw):
        path = tmp_path / "cfg.txt"
        path.write_text(f"mu_d = 200\nuse_cluster_feature = {raw}\n")
        with pytest.raises(ParseError, match="line 2.*must be 0 or 1"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("n_c", "0", "n_c must be positive and finite, got 0"),
            ("gamma_valid", "1", "gamma_valid must be < 1, got 1.0"),
            ("theta_valid", "17", "theta_valid must be < 17"),
        ],
    )
    def test_value_the_config_refuses_names_line(self, tmp_path, key, raw, message):
        path = tmp_path / "cfg.txt"
        path.write_text(f"mu_d = 200\n{key} = {raw}\n")
        with pytest.raises(ParseError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: line 2: {message}"

    # The kind of every config field, written out by hand.
    INT_FIELDS = (
        "theta_valid", "mu_m", "mu_d", "k_interval",
        "n_c", "l_rectify", "max_gap", "feature_dim",
    )
    SWITCHES = ("use_orientation_feature", "use_cluster_feature", "use_invalid_feature")
    FLOAT_FIELDS = ("gamma_valid", "theta_rectify", "theta_cluster", "theta_mct", "v_max")

    def test_schema_names_every_field(self):
        names = [f.name for f in dataclasses.fields(TrackerConfig)]
        assert sorted(names) == sorted(self.INT_FIELDS + self.SWITCHES + self.FLOAT_FIELDS)

    @pytest.mark.parametrize("key", INT_FIELDS)
    def test_integer_field_rejects_fraction(self, tmp_path, key):
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = 2.5\n")
        with pytest.raises(ParseError, match=f"line 1: {key} must be an integer"):
            load_config(path)

    @pytest.mark.parametrize("key", SWITCHES)
    def test_switch_rejects_two(self, tmp_path, key):
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = 2\n")
        with pytest.raises(ParseError, match=f"line 1: {key} must be 0 or 1"):
            load_config(path)

    @pytest.mark.parametrize("key", FLOAT_FIELDS)
    def test_float_field_accepts_fraction(self, tmp_path, key):
        # 0.5, not 2.5: gamma_valid is a confidence threshold below 1.
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = 0.5\n")
        assert getattr(load_config(path), key) == 0.5

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

    # Every value TrackerConfig accepts.
    ACCEPTED = st.fixed_dictionaries(
        {
            **{key: st.integers(1, 2**70) for key in INT_FIELDS},
            "theta_valid": st.integers(1, 16),
            **{key: st.booleans() for key in SWITCHES},
            **{
                key: st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
                | st.integers(1, 2**1023)
                for key in FLOAT_FIELDS
            },
            "gamma_valid": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        }
    )

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(values=ACCEPTED)
    def test_every_accepted_config_round_trips(self, tmp_path, values):
        cfg = TrackerConfig(**values)
        path = tmp_path / "cfg.txt"
        path.write_text(config_as_text(cfg))
        assert load_config(path) == cfg


class TestCli:
    def test_eval_identical_files(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        rows = [TrackRow(0, f, 1, BBox(10, 10, 20, 40)) for f in range(5)]
        write_track_rows(gt, rows, include_camera=True)
        code = main(["eval", "--gt", str(gt), "--pred", str(gt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "idf1=1.0" in out

    def test_eval_of_drawn_truth_against_itself(self, tmp_path, capsys):
        # Several of these boxes have an IoU with themselves a few ulps
        # above 1.
        gt = tmp_path / "gt.csv"
        rows = generate_scenario(ScenarioSpec(num_identities=3, frames=30, seed=5)).gt_rows
        write_track_rows(gt, rows, include_camera=True)
        assert main(["eval", "--gt", str(gt), "--pred", str(gt)]) == 0
        assert "idf1=1.0 idp=1.0 idr=1.0 mota=1.0 ids=0" in capsys.readouterr().out

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--preset", "easy_single_cam", "--frobs", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "case", ["sct_dets", "sct_config", "mct_dets", "mct_no_track_files"]
    )
    def test_missing_input_returns_error(self, tmp_path, sample_detections, case):
        dets = tmp_path / "dets.jsonl"
        write_detections(dets, sample_detections)
        tracks = tmp_path / "tracks"
        tracks.mkdir()
        if case != "mct_no_track_files":
            write_track_rows(tracks / "cam0.txt", [], include_camera=False)
        absent = str(tmp_path / "absent")
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "sct_dets": ["sct", "--dets", absent],
            "sct_config": ["sct", "--dets", str(dets), "--config", absent],
            "mct_dets": ["mct", "--tracks", str(tracks), "--dets", absent],
            "mct_no_track_files": ["mct", "--tracks", str(tracks), "--dets", str(dets)],
        }[case]
        assert main(argv + ["--out", str(out)]) == 1
        assert list(out.rglob("*")) == []

    def test_sct_refuses_negative_camera(self, tmp_path, caplog):
        # cam-1.txt would name no camera that mct and eval can read back.
        dets = tmp_path / "dets.jsonl"
        write_records(dets, [dict(GOOD_RECORD, frame=f, camera=-1) for f in range(5)])
        out = tmp_path / "out"
        out.mkdir()
        assert main(["sct", "--dets", str(dets), "--out", str(out)]) == 1
        assert f"{dets}: line 1: camera must not be negative, got -1" in caplog.text
        assert list(out.rglob("*")) == []

    def test_mct_repeated_track_row_returns_error(self, tmp_path, sample_detections, caplog):
        dets = tmp_path / "dets.jsonl"
        write_detections(dets, sample_detections)
        d = sample_detections[0]
        tracks = tmp_path / "tracks"
        tracks.mkdir()
        row = TrackRow(d.camera_id, d.frame, 3, d.bbox)
        write_track_rows(tracks / f"cam{d.camera_id}.txt", [row, row])
        out = tmp_path / "out"
        out.mkdir()
        argv = ["mct", "--tracks", str(tracks), "--dets", str(dets), "--out", str(out)]
        assert main(argv) == 1
        assert f"repeat (camera {d.camera_id}, frame {d.frame}, id 3)" in caplog.text
        assert list(out.rglob("*")) == []

    @pytest.mark.parametrize(
        "names,message",
        [
            (["cam1.txt", "cam01.txt"], "cam01.txt and .*cam1.txt both name camera 1"),
            (["camX.txt"], "camX.txt: track file name must be cam<N>.txt"),
        ],
    )
    @pytest.mark.parametrize("command", ["mct", "eval"])
    def test_ambiguous_track_file_names_return_error(
        self, tmp_path, sample_detections, names, message, command, caplog
    ):
        dets = tmp_path / "dets.jsonl"
        write_detections(dets, sample_detections)
        tracks = tmp_path / "tracks"
        tracks.mkdir()
        for name in names:
            write_track_rows(tracks / name, [TrackRow(1, 1, 1, BBox(0, 0, 5, 5))])
        with pytest.raises(ParseError, match=message):
            find_track_files(tracks)
        gt = tmp_path / "gt.csv"
        write_track_rows(gt, [TrackRow(1, 1, 1, BBox(0, 0, 5, 5))], include_camera=True)
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "mct": ["mct", "--tracks", str(tracks), "--dets", str(dets)],
            "eval": ["eval", "--gt", str(gt), "--pred", str(tracks)],
        }[command]
        assert main(argv + ["--out", str(out)]) == 1
        assert list(out.rglob("*")) == []
        assert all(str(tracks / name) in caplog.text for name in names)

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

    def test_orientation_flag_form_is_a_usage_error(self, tmp_path):
        dets = tmp_path / "d.jsonl"
        dets.write_text("")
        argv = ["sct", "--dets", str(dets), "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as info:
            main(argv + ["--orientation", "mlp-weights.txt"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["sct", "mct", "pipeline"])
    @pytest.mark.parametrize("fault", ["missing", "malformed"])
    def test_weight_file_fault_returns_error_naming_it(self, tmp_path, caplog, command, fault):
        weights = tmp_path / "orientation.weights"
        if fault == "malformed":
            weights.write_text("mlp 14 128 64 128 64 4\nlayer 14 99\n")
        dets = tmp_path / "d.jsonl"
        dets.write_text("")
        tracks = tmp_path / "tracks"
        tracks.mkdir()
        write_track_rows(tracks / "cam0.txt", [])
        out = tmp_path / "out"
        argv = {
            "sct": ["sct", "--dets", str(dets)],
            "mct": ["mct", "--tracks", str(tracks), "--dets", str(dets)],
            "pipeline": ["pipeline", "--preset", "easy_single_cam"],
        }[command]
        code = main(argv + ["--out", str(out), "--orientation", f"mlp:{weights}"])
        assert code == 1
        assert str(weights) in caplog.text
        if fault == "malformed":
            assert f"{weights}: line 2: layer declaration" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "sct_config", "sct_weights"])
    def test_non_ascii_byte_returns_error_naming_its_line(self, tmp_path, caplog, command):
        from mtmctrack.state_estimation import MlpWeights, save_mlp_weights

        gt = tmp_path / "gt.csv"
        write_track_rows(gt, [TrackRow(1, 2, 3, BBox(10, 10, 20, 40))], include_camera=True)
        dets = tmp_path / "d.jsonl"
        dets.write_text("")
        if command == "eval":
            bad, lineno = tmp_path / "pred.csv", 2
            bad.write_bytes("1,1,3,10,10,20,40\n1,2,3,10,1\u00e90,20,40\n".encode())
            argv = ["eval", "--gt", str(gt), "--pred", str(bad)]
        elif command == "sct_config":
            bad, lineno = tmp_path / "cfg.txt", 2
            bad.write_bytes("mu_m = 5\n# caf\u00e9\n".encode())
            argv = ["sct", "--dets", str(dets), "--config", str(bad)]
        else:
            bad, lineno = tmp_path / "orientation.weights", 6
            save_mlp_weights(bad, MlpWeights.random(np.random.default_rng(3)))
            lines = bad.read_bytes().splitlines()
            lines[5] += " \u00e9".encode()
            bad.write_bytes(b"".join(line + b"\n" for line in lines))
            argv = ["sct", "--dets", str(dets), "--orientation", f"mlp:{bad}"]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert f"{bad}: line {lineno}: non-ASCII bytes" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, offline", [([], True), (["--online"], False)], ids=["default", "online"]
    )
    def test_pipeline_clustering_flag(self, tmp_path, monkeypatch, flags, offline):
        calls = []
        report = dict.fromkeys(["idf1", "idp", "idr", "mota", "ids"], 0)
        monkeypatch.setattr(
            "mtmctrack.cli.run_pipeline", lambda *a, **kw: calls.append(kw) or report
        )
        argv = ["pipeline", "--preset", "easy_single_cam", "--out", str(tmp_path)]
        assert main(argv + flags) == 0
        assert [kw["offline"] for kw in calls] == [offline]

    def test_pipeline_offline_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["pipeline", "--preset", "easy_single_cam", "--out", str(tmp_path), "--offline"])
        assert info.value.code == 2

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
