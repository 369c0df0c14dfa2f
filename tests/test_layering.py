"""Module boundaries: no module imports another module's private names,
the CLI loads no test-only dependency, and the package exports a pinned
list of names."""

import ast
import os
import pathlib
import subprocess
import sys

import proxrf

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("proxrf"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.startswith("__"):
                yield f"{path.relative_to(ROOT)}:{node.lineno} imports {name}"


def test_no_private_imports_across_modules():
    paths = sorted((ROOT / "src" / "proxrf").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in _private_imports(path)]
    assert found == []


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; importing it costs most of a CLI start
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, proxrf.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_thread_pool():
    # forest.train imports its thread pool only when asked for threads > 1;
    # concurrent.futures (with logging and queue) costs each CLI start ~15 ms
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, proxrf.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_public_surface_is_pinned():
    # adding or dropping a package-level name is a change to this list
    assert sorted(proxrf.__all__) == [
        "AnnotationConflict", "CollectiveAnnotation", "CollectiveLabel", "ConfigError",
        "ConfusionMatrix", "CorruptModel", "EmptyTrainingSet", "EvalReport",
        "FOOT_POINTS", "FoldSplit", "ForestConfig", "GroupBlock", "InteractionLabel",
        "InvalidConfig", "InvalidFeature", "InvalidParams", "LAYOUTS",
        "LabelCoverageError", "MissingFrames", "ModelShapeMismatch", "PairAnnotation",
        "ParseError", "PidConfig", "Pipeline", "PipelineConfig", "PolarGrid", "ProxrfError",
        "RandomForest", "ReferentialError", "SceneRecording", "ShapeMismatch",
        "SmoothingConfig", "SynthParams", "TimedPosition", "TrackStates", "Trajectory",
        "ablation", "adapt_external", "apply_homography", "build_run_config", "cbd", "config",
        "cross_dataset", "cue_columns", "dataset", "deserialize", "dispersion_change",
        "errors", "evaluate", "evaluate_predictions", "forest", "gen_collective", "gen_pair",
        "interaction_histogram", "keyed", "kfold_evaluate", "load_run_config",
        "make_collective_corpus", "make_contrast_corpus", "make_pair_corpus", "mean_speed",
        "pair_vectors", "parse_canonical", "parse_config_text", "pid", "pool_votes",
        "read_corpus", "read_scene", "serialize", "shape_ratio", "smoothed_states",
        "synth", "train", "trajectory", "windows", "wrap_angle", "write_corpus", "write_scene",
    ]
