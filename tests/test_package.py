"""Structure of the package: modules share only public names."""

import ast
import csv
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import mtmctrack
from mtmctrack.core import TrackerConfig

PACKAGE = Path(mtmctrack.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def test_no_private_imports_between_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_mct_does_not_import_sct():
    # Cross-camera linking joins histories with the gate beside ``History``;
    # it needs nothing of the single-camera tracker.
    tree = ast.parse((PACKAGE / "mct.py").read_text())
    imported = {
        node.module or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    assert "features" in imported
    assert "sct" not in imported


def test_every_config_field_is_read():
    # A knob that no module besides the one defining it reads changes nothing.
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    fields = [f.name for f in dataclasses.fields(TrackerConfig)]
    assert [name for name in fields if name not in read] == []


def test_readme_config_table_lists_every_field_with_its_default():
    section = (ROOT / "README.md").read_text().split("\n## Configuration\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, flags=re.M)
    defaults = {f.name: f.default for f in dataclasses.fields(TrackerConfig)}
    assert sorted(key for key, _ in rows) == sorted(defaults)
    # A switch's default is written as 1 or 0.
    assert [key for key, default in rows if float(default) != defaults[key]] == []


def test_every_class_field_is_read():
    # A field that is only ever written records state that changes nothing.
    # The synthetic generator's diagnostics exist for the tests, so it is
    # left out. Writing into a field's dict or list is not a read of it.
    read = set()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        written_into = {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
        }
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in written_into
        )
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "synth.py":
            continue
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(cls, ast.ClassDef):
                unread += [
                    f"{cls.name}.{node.target.id}"
                    for node in cls.body
                    if isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id not in read
                ]
    assert unread == []


def test_every_exported_name_resolves():
    assert [name for name in mtmctrack.__all__ if not hasattr(mtmctrack, name)] == []


def test_every_exported_name_is_used():
    # An export that no module of the package and no benchmark script loads
    # or imports is API that nothing calls. Tests do not count: a test keeps
    # any name it checks alive.
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert [name for name in mtmctrack.__all__ if name not in used] == []


def test_third_party_imports_are_declared_dependencies():
    # Both ways: an import that is not declared fails, and so does a
    # declared runtime dependency that nothing under src imports.
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    # Each import name here equals its distribution's name.
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in tomllib.loads((ROOT / "pyproject.toml").read_text())["project"][
            "dependencies"
        ]
    }
    imported = set()
    for path in sorted((ROOT / "src" / "mtmctrack").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "mtmctrack"}
    assert third_party, "no third-party import found; is the source tree readable?"
    assert sorted(third_party) == sorted(declared)


def test_importing_the_cli_loads_no_scipy():
    # The assignment solver is the package's own; SciPy is only the tests'
    # oracle. A fresh process sees what the import alone loads.
    code = (
        "import sys, mtmctrack.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def source_words():
    """Every Python source under src, tests and perfbench, and the count of
    each word in them. A name counts as used when its word appears anywhere
    besides its own definition: the benchmark's tracer names the layers it
    wraps in strings."""
    sources = {
        path: path.read_text()
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    return sources, Counter(w for text in sources.values() for w in re.findall(r"\w+", text))


def test_every_top_level_name_is_used():
    sources, words = source_words()
    unused = []
    for path in sorted((ROOT / "src" / "mtmctrack").glob("*.py")):
        for node in ast.parse(sources[path], filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()
                ]
            else:
                continue
            unused += [
                f"{path.name}: {name}"
                for name in names
                if words[name] <= 1 and name not in mtmctrack.__all__
            ]
    assert unused == []


def test_every_public_method_is_used():
    # Methods and properties of every class, by the same word count.
    sources, words = source_words()
    unused = []
    for path in sorted((ROOT / "src" / "mtmctrack").glob("*.py")):
        for cls in ast.walk(ast.parse(sources[path], filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            unused += [
                f"{path.name}: {cls.name}.{node.name}"
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
                and words[node.name] <= 1
            ]
    assert unused == []


def load_tracer(monkeypatch):
    """The benchmark's ``perfbench/tracer.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_resolves(monkeypatch):
    # The benchmark's tracer wraps its layers by module and function name,
    # so a renamed layer would otherwise fail only in a traced benchmark run.
    tracer = load_tracer(monkeypatch)
    assert tracer.LAYERS
    missing = [
        f"{layer.module}.{layer.function}"
        for layer in tracer.LAYERS
        if not callable(getattr(importlib.import_module(layer.module), layer.function, None))
    ]
    assert missing == []


def test_traced_run_reports_every_declared_layer_metric(tmp_path, monkeypatch):
    # A counter reads the layers' arguments and results (``state.finished``,
    # ``tracklets``, ``ids``), so renaming one would otherwise fail only in
    # the benchmark's own tests. A tracer counter other than ``calls`` is
    # reported only once its layer has run, so the one-camera online run,
    # the shape of the benchmark's ``crowd``, checks that every declared
    # layer still runs there.
    from mtmctrack.pipeline import run_pipeline

    # The benchmark's scripts add these four beside the tracer's metrics.
    added_by_scripts = {
        "setup.import_s",
        "setup.estimator_s",
        "synth.generate_s",
        "trace.overhead_ratio",
    }
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}

    def written(folder):
        return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}

    for preset, offline in (("two_camera_handoff", True), ("easy_single_cam", False)):
        tracer = load_tracer(monkeypatch).Tracer()
        tracer.install()
        try:
            run_pipeline(preset, tmp_path / preset / "traced", offline=offline)
        finally:
            tracer.uninstall()
        run_pipeline(preset, tmp_path / preset / "plain", offline=offline)
        assert sorted(declared - added_by_scripts - set(tracer.run_metrics(0))) == [], preset
        assert written(tmp_path / preset / "traced") == written(tmp_path / preset / "plain")


def test_traced_identity_pairs_match_the_written_files(tmp_path, monkeypatch):
    # The tracer counts id_measures' pairs by iterating its two arguments,
    # track tables that yield their rows; counted here from the files.
    from mtmctrack.pipeline import run_pipeline

    tracer = load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        run_pipeline("two_camera_handoff", tmp_path, offline=True)
    finally:
        tracer.uninstall()

    def identities(name):
        # camera,frame,id,x,y,w,h
        with open(tmp_path / name, newline="") as fh:
            return len({int(row[2]) for row in csv.reader(fh)})

    truth, predicted = identities("gt.csv"), identities("tracks_mct.csv")
    assert truth > 1 and predicted > 1
    pairs = tracer.run_metrics(0)["evaluation.id_measures.gt_pred_pairs"]
    assert pairs == truth * predicted
