"""Config parsing/precedence and the command-line front end."""

import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrf.cbd import CollectiveLabel
from proxrf import cli
from proxrf.cli import build_parser, main, overrides_from_args
from proxrf.config import (
    SETTINGS,
    build_run_config,
    load_run_config,
    parse_config_text,
)
from proxrf.errors import InvalidConfig, ProxrfError
from proxrf.evaluate import PipelineConfig
from proxrf.forest import ForestConfig, deserialize, serialize, train
from proxrf.pid import InteractionLabel

ROOT = pathlib.Path(__file__).resolve().parent.parent

# ------------------------------------------------------------- config file


def test_parse_config_text_scalars_and_comments():
    text = """
# full-line comment
seed = 12
alpha = 0.75          # trailing comment
include_shape = false
interaction_max_depth = none
assignment = "hard"   # the '#' below stays inside the quotes
drop_labels = ["Queuing", "Talking"]
t2 = 32
"""
    values = parse_config_text(text)
    assert values == {
        "seed": 12,
        "alpha": 0.75,
        "include_shape": False,
        "interaction_max_depth": None,
        "assignment": "hard",
        "drop_labels": ["Queuing", "Talking"],
        "t2": 32,
    }


def test_parse_config_text_quote_aware_comments():
    values = parse_config_text('assignment = "ha#rd"\n')
    assert values == {"assignment": "ha#rd"}


@pytest.mark.parametrize(
    "text, needle",
    [
        ("wibble = 3\n", "line 1: unknown key"),
        ("seed = 1\nseed = 2\n", "line 2: duplicate"),
        ("seed\n", "expected key = value"),
        ('drop_labels = ["Queuing"\n', "unterminated list"),
        ('assignment = "oops\n', "malformed string"),
        ("alpha = fast\n", "cannot parse value"),
        ("alpha =\n", "missing value"),
        # beyond Python's 4,300-digit int() limit, not the float inf
        pytest.param("t1 = 64\nseed = " + "9" * 5000, "line 2: integer literal too long",
                     id="long-int-seed"),
        pytest.param("alpha = " + "9" * 5000, "line 1: integer literal too long",
                     id="long-int-alpha"),
    ],
)
def test_parse_config_text_errors(text, needle):
    with pytest.raises(InvalidConfig, match=needle):
        parse_config_text(text)


# a value of any kind, in range or not
_CONFIG_VALUES = st.one_of(
    st.integers(-2, 70).map(str),
    st.integers(-10**400, 10**400).map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "false", "none", '"kde"', '"hard"', '"', '""', "[", "[]",
                     '["Queuing"]', '["Queuing", "Zz"]', '[1, "Talking"]', '["a" # "b"]']),
    st.text(max_size=8),
)


@st.composite
def _config_texts(draw):
    """Config text: distinct settings with values of any kind, and now and
    then a line of arbitrary text or a repeated key."""
    keys = draw(st.lists(st.sampled_from([key for key, *_ in SETTINGS]), unique=True,
                         max_size=8))
    lines = [f"{key} = {draw(_CONFIG_VALUES)}" for key in keys]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        repeat = st.builds("{} = {}".format, st.sampled_from(keys or ["x"]), _CONFIG_VALUES)
        junk = draw(st.text(max_size=16) | repeat)
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_config_texts())
def test_config_text_parses_or_raises_proxrf_error(text):
    try:
        run = build_run_config(parse_config_text(text))
    except ProxrfError:
        return
    assert isinstance(run, PipelineConfig)


def test_precedence_flags_over_file_over_defaults():
    run = build_run_config({"seed": 3, "t2": 32}, {"seed": 7})
    assert run.seed == 7
    assert run.t2 == 32
    assert run.step == 5
    # a None override for a regular key means "not set on the command line"
    run = build_run_config({"seed": 3}, {"seed": None})
    assert run.seed == 3


def test_absent_flags_do_not_shadow_file_depths():
    args = build_parser().parse_args(["synth", "--out", "x"])
    overrides = overrides_from_args(args)
    run = build_run_config({"interaction_max_depth": 4}, overrides)
    assert run.forest.max_depth == 4


def test_flag_overrides_reach_nested_configs():
    args = build_parser().parse_args(
        ["synth", "--out", "x", "--alpha", "0.9", "--interaction-trees", "7",
         "--assignment", "hard", "--include-shape", "false",
         "--drop-labels", "Queuing,Talking", "--collective-max-depth", "3"]
    )
    run = build_run_config(None, overrides_from_args(args))
    assert run.smoothing.alpha == 0.9
    assert run.forest.n_trees == 7
    assert run.pid.assignment == "hard"
    assert run.include_shape is False
    assert run.drop_labels == (CollectiveLabel.Queuing, CollectiveLabel.Talking)
    assert run.forest2.max_depth == 3
    assert run.forest.max_depth is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t2": 48},
        {"t2": 1},
        {"step": 0},
        {"stride": 0},
        {"threads": 0},
        {"max_gap": -1},
        {"drop_labels": ("Q",)},
    ],
)
def test_run_config_validation(kwargs):
    with pytest.raises(InvalidConfig):
        PipelineConfig(**kwargs)


@pytest.mark.parametrize(
    "values",
    [
        {"seed": "x"},
        {"seed": True},
        {"alpha": True},
        {"include_shape": 1},
        {"assignment": 5},
        {"drop_labels": "Q"},
        {"drop_labels": [1]},
        {"wibble": 3},
        {"alpha": 1.5},
        {"l_max": -1},
        {"drop_labels": ["Zz"]},
        {"interaction_trees": 0},
        {"sigma_rho": math.nan},
        {"sigma_rho": math.inf},
        {"sigma_theta": math.nan},
        {"sigma_theta": math.inf},
        {"k_s": math.inf},
        {"speed_threshold": math.nan},
        {"speed_threshold": math.inf},
        {"alpha": 10**400},
    ],
)
def test_bad_values_rejected(values):
    (key,) = values
    with pytest.raises(InvalidConfig, match=key):
        build_run_config(values)


def test_features_per_split_bounded_by_descriptor_length():
    build_run_config({"interaction_features_per_split": 19,
                      "collective_features_per_split": 9})
    build_run_config({"interaction_features_per_split": 23, "l_max": 2})
    build_run_config({"collective_features_per_split": 8, "include_shape": False})
    for values in (
        {"interaction_features_per_split": 20},
        {"interaction_features_per_split": 23, "l_max": 0},
        {"collective_features_per_split": 10},
        {"collective_features_per_split": 9, "include_shape": False},
    ):
        with pytest.raises(InvalidConfig, match="features_per_split must be <="):
            build_run_config(values)


def test_load_run_config_missing_file(tmp_path):
    with pytest.raises(InvalidConfig, match="cannot read config file"):
        load_run_config(str(tmp_path / "nope.cfg"))


def test_load_run_config_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('seed = 4\nsigma_rho = 0.3\ngrid_samples = 7\n')
    run = load_run_config(str(cfg), {"seed": 9})
    assert run.seed == 9
    assert run.pid.sigma_rho == 0.3
    assert run.pid.grid_samples_per_axis == 7


# key -> (PipelineConfig attribute, file value, its setting, flag, its setting)
SETTING_CASES = {
    "seed": ("seed", "7", 7, ["--seed", "9"], 9),
    "threads": ("threads", "3", 3, ["--threads", "2"], 2),
    "t1": ("pid.t1", "32", 32, ["--t1", "16"], 16),
    "t2": ("t2", "32", 32, ["--t2", "128"], 128),
    "step": ("step", "3", 3, ["--step", "4"], 4),
    "stride": ("stride", "2", 2, ["--stride", "7"], 7),
    "max_gap": ("max_gap", "2", 2, ["--max-gap", "0"], 0),
    "alpha": ("smoothing.alpha", "0.3", 0.3, ["--alpha", "0.8"], 0.8),
    "speed_threshold": ("smoothing.t_s", "0.5", 0.5, ["--speed-threshold", "0.1"], 0.1),
    "sigma_rho": ("pid.sigma_rho", "0.3", 0.3, ["--sigma-rho", "0.4"], 0.4),
    "sigma_theta": ("pid.sigma_theta", "1", 1.0, ["--sigma-theta", "0.2"], 0.2),
    "k_s": ("pid.k_s", "2", 2.0, ["--k-s", "2.5"], 2.5),
    "l_max": ("pid.l_max", "2", 2, ["--l-max", "0"], 0),
    "grid_samples": ("pid.grid_samples_per_axis", "7", 7, ["--grid-samples", "5"], 5),
    "assignment": ("pid.assignment", '"hard"', "hard", ["--assignment", "hard"], "hard"),
    "variance_denominator": ("pid.variance_denominator", "true", True,
                             ["--variance-denominator"], True),
    "include_shape": ("include_shape", "false", False, ["--include-shape", "false"], False),
    "drop_labels": ("drop_labels", '["Queuing"]', (CollectiveLabel.Queuing,),
                    ["--drop-labels", "Chasing, Walking"],
                    (CollectiveLabel.Chasing, CollectiveLabel.Walking)),
    "interaction_trees": ("forest.n_trees", "11", 11, ["--interaction-trees", "12"], 12),
    "collective_trees": ("forest2.n_trees", "13", 13, ["--collective-trees", "14"], 14),
    "interaction_max_depth": ("forest.max_depth", "4", 4,
                              ["--interaction-max-depth", "5"], 5),
    "collective_max_depth": ("forest2.max_depth", "6", 6,
                             ["--collective-max-depth", "7"], 7),
    "interaction_min_samples_split": ("forest.min_samples_split", "3", 3,
                                      ["--interaction-min-samples-split", "4"], 4),
    "collective_min_samples_split": ("forest2.min_samples_split", "5", 5,
                                     ["--collective-min-samples-split", "6"], 6),
    "interaction_features_per_split": ("forest.features_per_split", "3", 3,
                                       ["--interaction-features-per-split", "5"], 5),
    "collective_features_per_split": ("forest2.features_per_split", "2", 2,
                                      ["--collective-features-per-split", "6"], 6),
}
# keys whose flag can set only one non-default value: the precedence check
# writes the default into the file instead
PRECEDENCE_FILE = {"assignment": '"kde"', "include_shape": "true",
                   "variance_denominator": "false"}


def _configured(tmp_path, file_text=None, flags=()):
    """The pipeline config main() would build from a config file and flags."""
    argv = ["synth", "--out", "x"]
    if file_text is not None:
        path = tmp_path / "run.cfg"
        path.write_text(file_text)
        argv += ["--config", str(path)]
    args = build_parser().parse_args(argv + list(flags))
    return load_run_config(args.config, overrides_from_args(args))


def _attr(cfg, path):
    for name in path.split("."):
        cfg = getattr(cfg, name)
    return cfg


def test_setting_cases_cover_every_key():
    assert sorted(SETTING_CASES) == sorted(key for key, *_ in SETTINGS)


@pytest.mark.parametrize("key", [key for key, *_ in SETTINGS])
def test_every_setting_is_wired(key, tmp_path):
    attr, file_text, file_value, flags, flag_value = SETTING_CASES[key]
    default = _attr(_configured(tmp_path), attr)
    assert default not in (file_value, flag_value)
    # the file beats the default and the flag sets the same attribute
    assert _attr(_configured(tmp_path, f"{key} = {file_text}\n"), attr) == file_value
    assert _attr(_configured(tmp_path, None, flags), attr) == flag_value
    # the flag beats the file
    both_text = PRECEDENCE_FILE.get(key, file_text)
    both = _configured(tmp_path, f"{key} = {both_text}\n", flags)
    assert _attr(both, attr) == flag_value
    assert _attr(_configured(tmp_path, f"{key} = {both_text}\n"), attr) != flag_value
    # and the README documents it in its own row of the configuration table
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    section = re.search(r"^## Configuration\n(.*?)^## ", readme, re.S | re.M).group(1)
    assert re.search(rf"^\| `{key}` \|", section, re.M), key


# ------------------------------------------------------------------- CLI

SMALL = ["--interaction-trees", "10", "--collective-trees", "12"]


@pytest.fixture(scope="module")
def pair_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli") / "pairs"
    rc = main(["synth", "--out", str(d), "--set", "pairs",
               "--scenes-per-class", "1", "--noise-sigma", "0.02", "--seed", "3"])
    assert rc == 0
    return str(d)


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli") / "mixed"
    rc = main(["synth", "--out", str(d), "--set", "all",
               "--scenes-per-class", "1", "--noise-sigma", "0.02", "--seed", "3"])
    assert rc == 0
    return str(d)


@pytest.fixture(scope="module")
def stage1_model(pair_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "stage1.json"
    rc = main(["train", "interactions", pair_corpus, "--out", str(out)] + SMALL)
    assert rc == 0
    return str(out)


def _tree(root):
    out = {}
    for base, _dirs, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


def test_synth_corpus_readable_and_deterministic(pair_corpus, tmp_path, capsys):
    from proxrf.dataset import read_corpus

    recs = read_corpus(pair_corpus)
    assert len(recs) == 6
    assert {a.label for r in recs for a in r.pair_annotations} == set(InteractionLabel)
    again = tmp_path / "again"
    assert main(["synth", "--out", str(again), "--set", "pairs",
                 "--scenes-per-class", "1", "--noise-sigma", "0.02",
                 "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith("wrote 6 scenes")
    assert _tree(pair_corpus) == _tree(str(again))


def test_synth_rejects_bad_params(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "x"), "--group-size", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR InvalidParams:")


def test_extract_pid_format(pair_corpus, tmp_path):
    out = tmp_path / "pid.csv"
    assert main(["extract", pair_corpus, "--kind", "pid", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# pid d=19 t1=64 l_max=1 step=5"
    assert lines[1].startswith("# sequence,")
    rows = [l for l in lines if not l.startswith("#")]
    assert len(rows) == 120  # 6 scenes x 10 centers x 2 orderings
    first = rows[0].split(",")
    assert first[4] in {l.code for l in InteractionLabel}
    assert len(first) == 5 + 19
    assert abs(sum(float(v) for v in first[5:21]) - 1.0) < 1e-9


def test_extract_cbd_needs_model(mixed_corpus, tmp_path, capsys):
    rc = main(["extract", mixed_corpus, "--kind", "cbd",
               "--out", str(tmp_path / "cbd.csv")])
    assert rc == 2
    assert "ERROR ConfigError" in capsys.readouterr().err


def test_extract_cbd_format(mixed_corpus, stage1_model, tmp_path):
    out = tmp_path / "cbd.csv"
    assert main(["extract", mixed_corpus, "--kind", "cbd",
                 "--model", stage1_model, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# cbd d=9 t2=64")
    rows = [l for l in lines if not l.startswith("#")]
    assert len(rows) == 60  # 6 collective scenes x 10 centers
    first = rows[0].split(",")
    assert len(first) == 4 + 9
    assert "|" in first[2]


def test_model_shape_mismatch_exits_3(mixed_corpus, stage1_model, tmp_path, capsys):
    rc = main(["extract", mixed_corpus, "--kind", "cbd", "--model", stage1_model,
               "--l-max", "2", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("ERROR ModelShapeMismatch:")


def test_train_interactions_deterministic(pair_corpus, stage1_model, tmp_path):
    model = deserialize(open(stage1_model, "rb").read())
    assert model.feature_count == 19
    assert model.class_names == tuple(l.code for l in InteractionLabel)
    out2 = tmp_path / "again.json"
    assert main(["train", "interactions", pair_corpus, "--out", str(out2)]
                + SMALL) == 0
    assert open(stage1_model, "rb").read() == out2.read_bytes()


def test_train_collective_writes_sidecar(mixed_corpus, tmp_path):
    out = tmp_path / "coll.json"
    assert main(["train", "collective", mixed_corpus, "--out", str(out)]
                + SMALL) == 0
    side = tmp_path / "coll.stage1.json"
    assert side.exists()
    stage2 = deserialize(out.read_bytes())
    assert stage2.feature_count == 9
    assert stage2.class_names == tuple(l.code for l in CollectiveLabel)
    assert deserialize(side.read_bytes()).feature_count == 19


def test_train_collective_with_existing_stage1(mixed_corpus, stage1_model, tmp_path):
    out = tmp_path / "coll8.json"
    assert main(["train", "collective", mixed_corpus, "--stage1", stage1_model,
                 "--out", str(out), "--include-shape", "false"] + SMALL) == 0
    assert deserialize(out.read_bytes()).feature_count == 8
    assert not (tmp_path / "coll8.stage1.json").exists()


def test_eval_writes_stable_reports(pair_corpus, tmp_path):
    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    argv = ["eval", pair_corpus, "--task", "interaction", "--folds", "2"] + SMALL
    with pytest.warns(UserWarning, match="round-robin"):
        assert main(argv + ["--out-dir", d1]) == 0
    with pytest.warns(UserWarning, match="round-robin"):
        assert main(argv + ["--out-dir", d2]) == 0
    for name in ("report.json", "confusion.txt", "per_class.csv"):
        b1 = open(os.path.join(d1, name), "rb").read()
        assert b1 == open(os.path.join(d2, name), "rb").read()
    doc = json.loads(open(os.path.join(d1, "report.json")).read())
    assert sum(sum(row) for row in doc["confusion"]["counts"]) == 120


def test_eval_with_folds_file(pair_corpus, tmp_path, capsys):
    from proxrf.dataset import read_corpus

    ids = sorted(r.sequence_id for r in read_corpus(pair_corpus))
    folds = tmp_path / "folds.csv"
    folds.write_text("".join(f"{s},{i % 2}\n" for i, s in enumerate(ids)))
    rc = main(["eval", pair_corpus, "--task", "interaction", "--folds", "2",
               "--folds-file", str(folds), "--out-dir", str(tmp_path / "r")]
              + SMALL)
    assert rc == 0
    assert "mpca" in capsys.readouterr().out
    bad = tmp_path / "bad.csv"
    bad.write_text("s0;0\n")
    rc = main(["eval", pair_corpus, "--folds-file", str(bad),
               "--out-dir", str(tmp_path / "rb")])
    assert rc == 4


def test_predict_pair_rows(pair_corpus, stage1_model, tmp_path):
    out = tmp_path / "pred.csv"
    assert main(["predict", pair_corpus, "--interactions-model", stage1_model,
                 "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 120
    parts = rows[0].split(",")
    assert parts[2] == "pair" and "|" in parts[3]
    assert parts[4] in {l.code for l in InteractionLabel}
    probs = [float(v) for v in parts[5:]]
    assert len(probs) == 6
    assert abs(sum(probs) - 1.0) < 1e-9


def test_predict_group_rows(mixed_corpus, stage1_model, tmp_path):
    coll = tmp_path / "coll.json"
    assert main(["train", "collective", mixed_corpus, "--stage1", stage1_model,
                 "--out", str(coll)] + SMALL) == 0
    out = tmp_path / "pred.csv"
    assert main(["predict", mixed_corpus, "--interactions-model", stage1_model,
                 "--collective-model", str(coll), "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if not l.startswith("#")]
    kinds = {r[2] for r in rows}
    assert kinds == {"pair", "group"}
    group_rows = [r for r in rows if r[2] == "group"]
    assert len(group_rows) == 60
    assert group_rows[0][4] in {l.code for l in CollectiveLabel}
    assert len(group_rows[0]) == 5 + 6


def test_predict_rows_match_pipeline(mixed_corpus, stage1_model, tmp_path):
    from proxrf.dataset import read_corpus
    from proxrf.evaluate import CUE_NAMES, Pipeline, cue_columns

    coll = tmp_path / "coll.json"
    assert main(["train", "collective", mixed_corpus, "--stage1", stage1_model,
                 "--out", str(coll)] + SMALL) == 0
    out = tmp_path / "pred.csv"
    assert main(["predict", mixed_corpus, "--interactions-model", stage1_model,
                 "--collective-model", str(coll), "--out", str(out)]) == 0
    got = {}
    for line in out.read_text().splitlines()[1:]:
        seq, center, kind, ids, label, *probs = line.split(",")
        got[seq, int(center), kind, ids] = (label, probs)

    stage1 = deserialize(open(stage1_model, "rb").read())
    stage2 = deserialize(coll.read_bytes())
    pipe = Pipeline(read_corpus(mixed_corpus), build_run_config(None, {}))
    pair_rows, pair_x, _ = pipe.pair_matrix(pipe.seq_ids)
    group_rows, group_x, _ = pipe.group_matrix(stage1, pipe.seq_ids)
    want = {}
    for kind, rows, model, x in (
        ("pair", pair_rows, stage1, pair_x),
        ("group", group_rows, stage2, group_x[:, cue_columns(CUE_NAMES)]),
    ):
        for (seq, center, ids), frac in zip(rows, model.vote_fractions(x)):
            label = model.class_names[int(np.argmax(frac))]
            want[seq, center, kind, "|".join(ids)] = (label, [repr(float(p)) for p in frac])
    assert pair_rows and group_rows
    assert got == want


def test_predict_and_extract_keep_file_order(tmp_path):
    # `a.b.trj` sorts before `a.trj`, though the id "a" sorts before "a.b":
    # rows come recording by recording in file order, pair rows first,
    # however many recordings one Pipeline describes
    from proxrf.dataset import SceneRecording, read_corpus, write_corpus
    from proxrf.synth import SynthParams, make_collective_corpus, make_pair_corpus

    p = SynthParams(seed=5, noise_sigma=0.02)
    scenes = make_pair_corpus(p, 1)[:2] + make_collective_corpus(p, 1)[:2]
    corpus = tmp_path / "corpus"
    write_corpus([SceneRecording(seq, r.fps, r.trajectories, r.pair_annotations,
                                 r.collective_annotations)
                  for seq, r in zip(["a", "a.b", "g", "g.h"], scenes)], str(corpus))
    assert [r.sequence_id for r in read_corpus(str(corpus))] == ["a.b", "a", "g.h", "g"]
    coll = tmp_path / "coll.json"
    assert main(["train", "collective", str(corpus), "--out", str(coll)] + SMALL) == 0
    stage1 = str(tmp_path / "coll.stage1.json")
    runs = (
        (["extract", str(corpus), "--kind", "pid"], ["a.b", "a"]),
        (["extract", str(corpus), "--kind", "cbd", "--model", stage1], ["g.h", "g"]),
        (["predict", str(corpus), "--interactions-model", stage1, "--collective-model",
          str(coll)], [("a.b", "pair"), ("a", "pair"), ("g.h", "group"), ("g", "group")]),
    )
    for argv, want in runs:
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        seen = []
        for line in out.read_text().splitlines():
            if not line.startswith("#"):
                fields = line.split(",")
                key = (fields[0], fields[2]) if argv[0] == "predict" else fields[0]
                if not seen or seen[-1] != key:
                    seen.append(key)
        assert seen == want, argv
        for size in (1, 3):
            with mock.patch.object(cli, "_PIPELINE_RECORDINGS", size):
                assert main(argv + ["--out", str(tmp_path / "runs.csv")]) == 0
            assert (tmp_path / "runs.csv").read_bytes() == out.read_bytes(), (argv, size)


def test_predict_refuses_unwritable_sequence_id(pair_corpus, stage1_model, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in sorted(os.listdir(pair_corpus))[:2]:
        stem, ext = os.path.splitext(name)
        (corpus / ("we,ird" + ext)).write_bytes(open(os.path.join(pair_corpus, name), "rb").read())
    out = tmp_path / "p.csv"
    rc = main(["predict", str(corpus), "--interactions-model", stage1_model, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("ERROR ParseError:") and "we,ird.trj: sequence id 'we,ird'" in err, err
    assert not out.exists()


def test_exit_code_config_error(pair_corpus, tmp_path, capsys):
    out = str(tmp_path / "m.json")
    for argv in (
        ["eval", pair_corpus, "--t2", "48", "--out-dir", str(tmp_path / "r")],
        ["eval", pair_corpus, "--folds", "0", "--out-dir", str(tmp_path / "r")],
        ["eval", pair_corpus, "--folds", "-1", "--out-dir", str(tmp_path / "r")],
        ["extract", pair_corpus, "--kind", "pid", "--sigma-rho", "nan",
         "--out", str(tmp_path / "x.csv")],
        ["train", "collective", pair_corpus, "--out", out,
         "--interaction-features-per-split", "50"],
        ["train", "collective", pair_corpus, "--out", out,
         "--collective-features-per-split", "50"],
    ):
        rc = main(argv)
        assert rc == 2, argv
        assert capsys.readouterr().err.startswith("ERROR InvalidConfig:"), argv
    # errors of a nested config name the setting, not the library field
    for flag, value in (("--collective-trees", "0"), ("--speed-threshold", "nan")):
        assert main(["synth", "--out", str(tmp_path / "s"), flag, value]) == 2
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"ERROR InvalidConfig: {key}: "), flag


@pytest.mark.parametrize("how", ["flag", "config"])
def test_huge_l_max_is_refused_without_building_it(how, tmp_path):
    # 2**l_max would take 2**40 bits (or 2**63): the check must compare
    # exponents, so a 1 GiB address-space limit is plenty
    if how == "flag":
        extra = ["--l-max", "1099511627776"]
    else:
        (tmp_path / "run.cfg").write_text("l_max = 9223372036854775808\n")
        extra = ["--config", str(tmp_path / "run.cfg")]
    limit = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
             "from proxrf.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", limit, "synth", "--out", str(tmp_path / "d")]
                         + extra, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("ERROR InvalidConfig: l_max:"), out.stderr


def test_exit_code_parse_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "broken.trj").write_text("# fps=10.0\n0,a,1.0\n")
    rc = main(["extract", str(corpus), "--kind", "pid",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("ERROR ParseError:")


def _train_parse_error(corpus, tmp_path, capsys, needle):
    rc = main(["train", "interactions", str(corpus), "--out", str(tmp_path / "m.json")] + SMALL)
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("ERROR ParseError:") and needle in err, err


_TRACKS = "0,a,0.0,0.0\n1,a,0.1,0.0\n0,b,1.0,0.0\n1,b,1.1,0.0\n"


@pytest.mark.parametrize("fps", ["nan", "inf", "-inf"])
def test_exit_code_non_finite_fps(fps, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "s.trj").write_text(f"# fps={fps}\n" + _TRACKS)
    _train_parse_error(corpus, tmp_path, capsys, "fps must be finite and > 0")


@pytest.mark.parametrize("frame", [2**63, -(2**63) - 1, 10**40, 2**53 + 1, 2**63 - 200])
def test_exit_code_frame_beyond_int64(frame, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "s.trj").write_text(f"# fps=10.0\n{frame},c,0.0,0.0\n" + _TRACKS)
    _train_parse_error(corpus, tmp_path, capsys, "s.trj:2: bad number")


def test_exit_code_velocity_overflow(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    wild = "".join(f"{f},c,{3e307 * (-1) ** f!r},0.0\n" for f in range(8))
    (corpus / "s.trj").write_text("# fps=10.0\n" + wild + _TRACKS)
    rc = main(["train", "interactions", str(corpus), "--out", str(tmp_path / "m.json")] + SMALL)
    err = capsys.readouterr().err
    assert rc == 6, err
    assert err.startswith("ERROR InvalidFeature: track c: velocity overflows at frame 0"), err


def test_exit_code_fill_overflow(tmp_path, capsys):
    # the gap at frame 2 interpolates between +-1e308, which overflows
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "c.trj").write_text("# fps=10.0\n1,a,1e308,0.0\n3,a,-1e308,0.0\n")
    rc = main(["extract", str(corpus), "--kind", "pid", "--t1", "4",
               "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 6, err
    assert err.startswith(
        "ERROR InvalidFeature: track a: interpolated position overflows at frame 2"), err


def test_exit_code_stage1_class_name_unknown(stage1_model, pair_corpus, mixed_corpus,
                                             tmp_path, capsys):
    doc = json.loads(pathlib.Path(stage1_model).read_text())
    doc["class_names"][-1] = "Milling"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    # every command that loads a stage-one model refuses it
    for argv in (
        ["extract", mixed_corpus, "--kind", "cbd", "--model", str(bad),
         "--out", str(tmp_path / "x.csv")],
        ["predict", pair_corpus, "--interactions-model", str(bad),
         "--out", str(tmp_path / "p.csv")],
        ["train", "collective", mixed_corpus, "--stage1", str(bad),
         "--out", str(tmp_path / "c.json")] + SMALL,
    ):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 3, (argv, err)
        assert err.startswith(
            "ERROR ModelShapeMismatch: model class 'Milling' is no interaction label"), err
    assert not any((tmp_path / name).exists() for name in ("x.csv", "p.csv", "c.json"))


def _stage2_file(path, class_names, y, stage1_path):
    """A 9-feature stage-two model over the given class names, stamped as
    trained at the default config on the stage-one model at stage1_path."""
    x = np.linspace(0.0, 1.0, 9 * len(y)).reshape(len(y), 9)
    model = train(x, y, ForestConfig(n_trees=3, seed=0), class_names=class_names)
    model.provenance = cli._provenance(build_run_config(None, {}), "collective",
                                       pathlib.Path(stage1_path).read_bytes())
    path.write_bytes(serialize(model))
    return str(path)


def test_predict_maps_collective_votes_by_class_name(mixed_corpus, stage1_model, tmp_path,
                                                     capsys):
    # stage two after dropping four labels, as cross_dataset trains it
    subset = _stage2_file(tmp_path / "subset.json", ["Talking", "Queuing"], [1], stage1_model)
    out = tmp_path / "p.csv"
    assert main(["predict", mixed_corpus, "--interactions-model", stage1_model,
                 "--collective-model", subset, "--out", str(out)]) == 0
    groups = [l.split(",")[4:] for l in out.read_text().splitlines() if ",group," in l]
    assert len(groups) == 60 and all(g == ["Queuing", "0.0", "1.0"] for g in groups)
    # a class name that is no collective label, or every name an interaction code
    for names, first_bad in ((["Talking", "Milling"], "Milling"),
                             ([l.code for l in InteractionLabel], "BF")):
        bad = _stage2_file(tmp_path / "bad.json", names, np.arange(len(names)), stage1_model)
        rc = main(["predict", mixed_corpus, "--interactions-model", stage1_model,
                   "--collective-model", bad, "--out", str(tmp_path / "u.csv")])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err.startswith(
            f"ERROR ModelShapeMismatch: model class {first_bad!r} is no collective label"), err
    assert not (tmp_path / "u.csv").exists()


@pytest.fixture(scope="module")
def stage2_model(mixed_corpus, stage1_model, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "coll.json"
    assert main(["train", "collective", mixed_corpus, "--stage1", stage1_model,
                 "--out", str(out)] + SMALL) == 0
    return str(out)


def test_models_record_their_provenance(stage1_model, stage2_model):
    stage1_bytes = pathlib.Path(stage1_model).read_bytes()
    # every descriptor, smoothing and heading-draw setting; no forest
    # setting, and neither threads, step nor stride
    want = {
        "descriptor_version": 1,
        "max_gap": 5,
        "seed": 0,
        "pid.t1": 64,
        "pid.sigma_rho": 0.25,
        "pid.sigma_theta": math.pi / 8,
        "pid.k_s": 3.0,
        "pid.l_max": 1,
        "pid.grid_samples_per_axis": 9,
        "pid.variance_denominator": False,
        "pid.assignment": "kde",
        "pid.grid.distance_boundaries": [0.5, 1.25, 3.5],
        "pid.grid.angular_sector_count": 4,
        "smoothing.alpha": 0.5,
        "smoothing.t_s": 0.25,
    }
    assert deserialize(stage1_bytes).provenance == want
    want.update(t2=64, stride=5, include_shape=True,
                stage1_sha256=hashlib.sha256(stage1_bytes).hexdigest())
    assert deserialize(pathlib.Path(stage2_model).read_bytes()).provenance == want


@pytest.mark.parametrize("flags, key, was, now", [
    (["--sigma-rho", "0.5"], "pid.sigma_rho", "0.25", "0.5"),
    (["--max-gap", "10"], "max_gap", "5", "10"),
    (["--seed", "8"], "seed", "0", "8"),
    (["--assignment", "hard"], "pid.assignment", '"kde"', '"hard"'),
])
def test_stage1_model_refused_under_another_descriptor_config(
        flags, key, was, now, stage1_model, pair_corpus, mixed_corpus, tmp_path, capsys):
    outputs = [tmp_path / name for name in ("p.csv", "x.csv", "c.json")]
    for argv in (
        ["predict", pair_corpus, "--interactions-model", stage1_model, "--out", str(outputs[0])],
        ["extract", mixed_corpus, "--kind", "cbd", "--model", stage1_model,
         "--out", str(outputs[1])],
        ["train", "collective", mixed_corpus, "--stage1", stage1_model,
         "--out", str(outputs[2])] + SMALL,
    ):
        rc = main(argv + flags)
        err = capsys.readouterr().err
        assert rc == 3, (argv, err)
        assert err == (f"ERROR ModelShapeMismatch: interaction model was trained with {key} = "
                       f"{was}, but this run has {key} = {now}\n"), err
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("flags", [["--stride", "2"], ["--step", "10"],
                                   ["--include-shape", "false"], ["--threads", "2"]])
def test_stage1_model_loads_under_other_window_settings(flags, stage1_model, pair_corpus,
                                                         mixed_corpus, tmp_path):
    assert main(["predict", pair_corpus, "--interactions-model", stage1_model,
                 "--out", str(tmp_path / "p.csv")] + flags) == 0
    assert main(["extract", mixed_corpus, "--kind", "cbd", "--model", stage1_model,
                 "--out", str(tmp_path / "x.csv")] + flags) == 0
    assert main(["train", "collective", mixed_corpus, "--stage1", stage1_model,
                 "--out", str(tmp_path / "c.json")] + SMALL + flags) == 0


def test_stage2_model_refused_under_another_config_or_stage1(
        stage2_model, stage1_model, pair_corpus, mixed_corpus, tmp_path, capsys):
    out = tmp_path / "p.csv"
    predict = ["predict", mixed_corpus, "--collective-model", stage2_model, "--out", str(out)]
    assert main(predict + ["--interactions-model", stage1_model]) == 0
    out.unlink()
    for flags, detail in (
        (["--stride", "2"], "collective model was trained with stride = 5, "
                            "but this run has stride = 2"),
        (["--t2", "32"], "collective model was trained with t2 = 64, but this run has t2 = 32"),
        # the shape cue also sets the feature count, which is checked first
        (["--include-shape", "false"], "collective model expects 9 features, "
                                       "but the configured descriptor has 8"),
    ):
        rc = main(predict + ["--interactions-model", stage1_model] + flags)
        err = capsys.readouterr().err
        assert rc == 3, (flags, err)
        assert err == f"ERROR ModelShapeMismatch: {detail}\n", err
    # another stage-one model, trained under the same descriptor config
    other = tmp_path / "other.json"
    assert main(["train", "interactions", pair_corpus, "--out", str(other),
                 "--interaction-trees", "11"]) == 0
    rc = main(predict + ["--interactions-model", str(other)])
    err = capsys.readouterr().err
    assert rc == 3, err
    digests = [hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()
               for p in (stage1_model, other)]
    assert err == ("ERROR ModelShapeMismatch: collective model was trained with stage1_sha256 = "
                   f'"{digests[0]}", but this run has stage1_sha256 = "{digests[1]}"\n'), err
    assert not out.exists()


def test_model_without_provenance_exits_3(stage1_model, stage2_model, mixed_corpus, tmp_path,
                                          capsys):
    out = tmp_path / "p.csv"
    for stage, flag, path in (("interaction", "--interactions-model", stage1_model),
                              ("collective", "--collective-model", stage2_model)):
        doc = json.loads(pathlib.Path(path).read_text())
        for provenance, detail in (
            ({}, f"ModelShapeMismatch: {stage} model {{}} records no provenance; retrain it"),
            (dict(doc["provenance"], cues=3), f"ModelShapeMismatch: {stage} model was trained "
                                              "with cues = 3, but this run has cues = (absent)"),
            (None, "CorruptModel: model document missing field 'provenance'"),
        ):
            bare = tmp_path / f"{stage}.json"
            if provenance is None:
                del doc["provenance"]
            else:
                doc["provenance"] = provenance
            bare.write_text(json.dumps(doc))
            argv = ["predict", mixed_corpus, "--interactions-model", stage1_model,
                    "--collective-model", stage2_model, "--out", str(out), flag, str(bare)]
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc == 3, err
            assert err == f"ERROR {detail.format(bare)}\n", err
    assert not out.exists()


@pytest.mark.parametrize("suffix", [".trj", ".pia"])
def test_exit_code_non_utf8_corpus_file(suffix, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "s.trj").write_text("# fps=10.0\n" + _TRACKS)
    (corpus / "s.pia").write_text("0,1,a,b,WT\n")
    path = corpus / f"s{suffix}"
    path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
    _train_parse_error(corpus, tmp_path, capsys, f"s{suffix}: not UTF-8 text")


def test_exit_code_non_utf8_folds_file(pair_corpus, tmp_path, capsys):
    folds = tmp_path / "folds.csv"
    folds.write_bytes(b"s\xff,0\n")
    rc = main(["eval", pair_corpus, "--folds-file", str(folds), "--out-dir", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("ERROR ParseError:") and "folds.csv: not UTF-8 text" in err, err


def test_exit_code_missing_and_corrupt_model(pair_corpus, tmp_path, capsys):
    rc = main(["predict", pair_corpus, "--interactions-model",
               str(tmp_path / "no.json"), "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    rc = main(["predict", pair_corpus, "--interactions-model", str(bad),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 3
    assert "ERROR CorruptModel" in capsys.readouterr().err
    deep = tmp_path / "deep.json"
    deep.write_text('{"version": 4, "feature": [' + '{"left": ' * 3000 + "{}" + "}" * 3000 + "]}")
    rc = main(["predict", pair_corpus, "--interactions-model", str(deep),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("ERROR CorruptModel")


def test_exit_code_label_coverage(mixed_corpus, tmp_path, capsys):
    rc = main(["cross", mixed_corpus, mixed_corpus, "--drop-labels", "Queuing",
               "--out-dir", str(tmp_path / "r")] + SMALL)
    assert rc == 5
    assert capsys.readouterr().err.startswith("ERROR LabelCoverageError:")


def test_exit_code_empty_training_set(tmp_path, capsys):
    coll = tmp_path / "coll"
    assert main(["synth", "--out", str(coll), "--set", "collective",
                 "--scenes-per-class", "1"]) == 0
    rc = main(["train", "interactions", str(coll),
               "--out", str(tmp_path / "m.json")] + SMALL)
    assert rc == 6
    assert capsys.readouterr().err.startswith("ERROR EmptyTrainingSet:")


def test_exit_code_oserror(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["synth", "--out", str(blocker / "sub"), "--set", "pairs",
               "--scenes-per-class", "1"])
    assert rc == 6
    assert "ERROR OSError" in capsys.readouterr().err


def test_version_and_usage():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    help_text = build_parser().format_help()
    for cmd in ("synth", "adapt", "extract", "train", "eval", "cross", "predict"):
        assert cmd in help_text


@pytest.mark.parametrize("tracks, hom", [
    ("0,p1,nan,200\n1,p1,110,200\n", "1 0 0\n0 1 0\n0 0 1\n"),
    ("0,p1,1,0\n1,p1,2,0\n", "1 0 0\n0 1 0\n1 0 -1\n"),  # (1, 0) on the horizon
], ids=["nan-coordinate", "horizon-point"])
def test_adapt_non_finite_ground_point(tracks, hom, tmp_path, capsys):
    seq = tmp_path / "ext" / "seq1"
    seq.mkdir(parents=True)
    (seq / "tracks.txt").write_text("# fps=10.0\n" + tracks)
    (seq / "H.hom").write_text(hom)
    rc = main(["adapt", str(tmp_path / "ext"), "--layout", "ncad-like",
               "--out", str(tmp_path / "canon")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("ERROR ParseError:") and "track 'p1'" in err, err


@pytest.mark.parametrize("tracks, message", [
    ("0,,100,200\n1,,110,200\n", "tracks.txt:2: empty track id"),
    ("", "tracks.txt: no trajectory data"),
], ids=["empty-id", "header-only"])
def test_adapt_bad_track_file(tracks, message, tmp_path, capsys):
    seq = tmp_path / "ext" / "seq1"
    seq.mkdir(parents=True)
    (seq / "tracks.txt").write_text("# fps=10.0\n" + tracks)
    (seq / "H.hom").write_text("1 0 0\n0 1 0\n0 0 1\n")
    rc = main(["adapt", str(tmp_path / "ext"), "--layout", "ncad-like",
               "--out", str(tmp_path / "canon")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("ERROR ParseError:") and err.rstrip().endswith(message), err


def test_adapt_writes_every_track_id_it_reads(tmp_path, capsys):
    # `#` starts a comment only at the start of a line
    seq = tmp_path / "ext" / "seq1"
    seq.mkdir(parents=True)
    (seq / "tracks.txt").write_text("# fps=10.0\n0,a#1,100,200\n1,a#1,110,200\n")
    (seq / "H.hom").write_text("0.1 0 0\n0 0.1 0\n0 0 1\n")
    rc = main(["adapt", str(tmp_path / "ext"), "--layout", "ncad-like",
               "--out", str(tmp_path / "canon")])
    assert rc == 0, capsys.readouterr().err
    from proxrf.dataset import adapt_external, read_corpus

    recs = read_corpus(str(tmp_path / "canon"))
    assert recs == adapt_external(str(tmp_path / "ext"), "ncad-like")
    assert [t.track_id for t in recs[0].trajectories] == ["a#1"]


def test_adapt_command(tmp_path, capsys):
    seq = tmp_path / "ext" / "seq1"
    seq.mkdir(parents=True)
    (seq / "tracks.txt").write_text(
        "# fps=25.0\n0,p1,100,200\n1,p1,110,200\n0,p2,300,400\n1,p2,310,400\n")
    (seq / "H.hom").write_text("0.1 0 0\n0 0.1 0\n0 0 1\n")
    (seq / "pairs.txt").write_text("0,1,p1,p2,WT\n")
    out = tmp_path / "canon"
    rc = main(["adapt", str(tmp_path / "ext"), "--layout", "ncad-like",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("adapted 1 sequences")
    from proxrf.dataset import read_corpus

    recs = read_corpus(str(out))
    assert len(recs) == 1 and recs[0].fps == 25.0
    np.testing.assert_allclose(recs[0].track("p1").xy[0], [10.0, 20.0], atol=1e-12)
