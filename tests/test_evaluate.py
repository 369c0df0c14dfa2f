"""Metrics, fold plumbing, ablation consistency and cross-corpus transfer."""

import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from proxrf import cbd as cbd_module
from proxrf import evaluate as evaluate_module
from proxrf import pid as pid_module
from proxrf.cbd import CollectiveLabel
from proxrf.dataset import (
    CollectiveAnnotation,
    FoldSplit,
    PairAnnotation,
    SceneRecording,
    windows,
)
from proxrf.errors import (
    ConfigError,
    EmptyTrainingSet,
    InvalidConfig,
    LabelCoverageError,
)
from proxrf.evaluate import (
    CUE_NAMES,
    ConfusionMatrix,
    Pipeline,
    PipelineConfig,
    ablation,
    cross_dataset,
    evaluate_predictions,
    fold_seeds,
    kfold_evaluate,
    report_from_confusion,
)
from proxrf.forest import ForestConfig
from proxrf.pid import InteractionLabel, PairBatch
from proxrf.synth import SynthParams, make_collective_corpus, make_pair_corpus
from proxrf.trajectory import Trajectory, smoothed_states

from conftest import make_traj, straight_traj
from per_sample import GroupWindow, derivative, dispersion, lone_cbd

C = CollectiveLabel


# ------------------------------------------------------------------ metrics

def test_confusion_matrix_bookkeeping():
    cm = ConfusionMatrix(("x", "y", "z"))
    cm.add(0, 0, 3)
    cm.add(0, 1)
    cm.add(2, 2, 2)
    assert cm.total == 6
    assert list(cm.support) == [4, 0, 2]
    acc, names = cm.per_class_accuracy()
    assert names == ("x", "z")
    np.testing.assert_allclose(acc, [0.75, 1.0])
    other = ConfusionMatrix(("x", "y", "z"))
    other.add(1, 1, 5)
    cm.merge(other)
    assert cm.total == 11 and cm.counts[1, 1] == 5
    with pytest.raises(ValueError):
        cm.merge(ConfusionMatrix(("x", "y")))
    with pytest.raises(ValueError):
        ConfusionMatrix(("x", "x"))
    with pytest.raises(ValueError):
        ConfusionMatrix(("x", "y"), counts=[[1, 2, 3]])
    with pytest.raises(ValueError):
        ConfusionMatrix(("x", "y"), counts=[[1, -2], [0, 1]])


def test_identity_predictions_score_one():
    truths = list(range(6)) * 10
    rep = evaluate_predictions(truths, truths, tuple("abcdef"))
    assert rep.mpca == 1.0 and rep.std == 0.0
    assert rep.confusion.total == 60


def test_std_is_population_not_sample():
    diag = [84, 81, 90, 86, 90, 92]
    counts = np.zeros((6, 6), dtype=int)
    for i, d in enumerate(diag):
        counts[i, i] = d
        counts[i, (i + 1) % 6] += 100 - d
    rep = report_from_confusion(ConfusionMatrix(tuple("abcdef"), counts))
    accs = [d / 100 for d in diag]
    mean = sum(accs) / 6
    pop = math.sqrt(sum((a - mean) ** 2 for a in accs) / 6)
    sample = math.sqrt(sum((a - mean) ** 2 for a in accs) / 5)
    assert rep.mpca == pytest.approx(mean, abs=1e-12)
    assert rep.std == pytest.approx(pop, abs=1e-12)
    assert abs(rep.std - sample) > 1e-3


def test_missing_class_warns_and_is_excluded():
    cm = ConfusionMatrix(("a", "b", "c"))
    cm.add(0, 0, 4)
    cm.add(2, 0, 4)
    with pytest.warns(UserWarning, match="no test windows"):
        rep = report_from_confusion(cm)
    assert rep.class_names == ("a", "c")
    assert rep.mpca == pytest.approx(0.5)


def test_no_windows_at_all_rejected():
    with pytest.warns(UserWarning):
        with pytest.raises(InvalidConfig):
            report_from_confusion(ConfusionMatrix(("a", "b")))


def test_random_predictor_sits_near_chance():
    rng = np.random.default_rng(12)
    truths = np.repeat(np.arange(6), 100)
    preds = rng.integers(0, 6, truths.size)
    rep = evaluate_predictions(truths, preds, tuple("abcdef"))
    assert 0.10 < rep.mpca < 0.24


def test_report_serialization_formats():
    cm = ConfusionMatrix(("a", "b"), counts=[[3, 1], [0, 4]])
    rep = report_from_confusion(cm, [(0, cm)])
    doc = json.loads(rep.to_json())
    assert set(doc) == {"mpca", "std", "per_class_accuracy", "confusion", "folds"}
    assert doc["confusion"]["classes"] == ["a", "b"]
    assert doc["confusion"]["counts"] == [[3, 1], [0, 4]]
    assert doc["per_class_accuracy"]["a"] == 0.75
    assert doc["folds"][0]["fold"] == 0
    csv = rep.per_class_csv()
    lines = csv.splitlines()
    assert lines[0] == "class,accuracy" and len(lines) == 3
    assert csv.endswith("\n")
    assert float(lines[1].split(",")[1]) == 0.75


def test_fold_seed_derivation_is_stable():
    assert fold_seeds(7, 0) == fold_seeds(7, 0)
    assert fold_seeds(7, 0) != fold_seeds(7, 1)
    assert fold_seeds(7, 0) != fold_seeds(8, 0)
    s1, s2 = fold_seeds(7, 3)
    assert s1 != s2


def test_stage2_forest_defaults_to_stage1_config():
    cfg = PipelineConfig()
    assert cfg.stage2_forest is cfg.forest
    small = ForestConfig(n_trees=3)
    assert PipelineConfig(forest2=small).stage2_forest is small


# ------------------------------------------------------------ fold plumbing

def _two_scene_corpus():
    recs = []
    for seq in ("s0", "s1"):
        a = straight_traj("a", 1.2, 0.0, 64)
        b = straight_traj("b", 1.2, 0.0, 64, origin=(0.0, 1.0))
        ann = PairAnnotation(0, 63, "a", "b", InteractionLabel.WalkingTogether)
        recs.append(SceneRecording(seq, 10.0, [a, b], [ann]))
    return recs


def test_fold_configuration_errors():
    recs = _two_scene_corpus()
    cfg = PipelineConfig(forest=ForestConfig(n_trees=3))
    with pytest.raises(ConfigError, match=">= 2 folds"):
        kfold_evaluate(recs, FoldSplit({"s0": 0, "s1": 0}, 1), cfg, "interaction")
    with pytest.raises(ConfigError, match="no fold assignment"):
        kfold_evaluate(recs, FoldSplit({"s0": 0}, 2), cfg, "interaction")
    dup = [recs[0], SceneRecording("s0", 10.0, recs[1].trajectories,
                                   recs[1].pair_annotations)]
    with pytest.raises(ConfigError, match="duplicate"):
        kfold_evaluate(dup, FoldSplit({"s0": 0}, 2), cfg, "interaction")
    with pytest.raises(ConfigError, match="task"):
        kfold_evaluate(recs, FoldSplit.round_robin(["s0", "s1"], 2), cfg, "both")


def test_interaction_kfold_counts_and_sanity(tiny_pair_corpus):
    folds = FoldSplit.round_robin([r.sequence_id for r in tiny_pair_corpus], 2)
    cfg = PipelineConfig(forest=ForestConfig(n_trees=15), seed=5)
    rep = kfold_evaluate(tiny_pair_corpus, folds, cfg, "interaction")
    # 12 scenes x 10 centers x 2 orderings, every window tested once
    assert rep.confusion.total == 240
    assert len(rep.folds) == 2
    assert sum(cm.total for _, cm in rep.folds) == 240
    assert rep.mpca > 0.8
    assert set(rep.class_names) <= set(l.code for l in InteractionLabel)


# ------------------------------------------- collective evaluation/ablation

@pytest.fixture(scope="module")
def mixed_corpus():
    p = SynthParams(seed=21, noise_sigma=0.02)
    return make_pair_corpus(p, 1) + make_collective_corpus(p, 2)


@pytest.fixture(scope="module")
def mixed_cfg():
    return PipelineConfig(
        forest=ForestConfig(n_trees=12), forest2=ForestConfig(n_trees=20), seed=9
    )


@pytest.fixture(scope="module")
def mixed_folds(mixed_corpus):
    return FoldSplit.round_robin([r.sequence_id for r in mixed_corpus], 2)


def test_collective_kfold_window_accounting(mixed_corpus, mixed_folds, mixed_cfg):
    rep = kfold_evaluate(mixed_corpus, mixed_folds, mixed_cfg, "collective")
    # only the 12 collective scenes contribute group windows
    assert rep.confusion.total == 120
    assert rep.confusion.class_names == tuple(l.code for l in C)


def test_ablation_full_cue_set_reproduces_kfold(mixed_corpus, mixed_folds, mixed_cfg):
    rep = kfold_evaluate(mixed_corpus, mixed_folds, mixed_cfg, "collective")
    runs = ablation(
        mixed_corpus,
        mixed_folds,
        [("interaction_hist",), ("mean_speed", "interaction_hist"), CUE_NAMES],
        mixed_cfg,
    )
    assert [cues for cues, _ in runs] == [
        ("interaction_hist",),
        ("interaction_hist", "mean_speed"),
        CUE_NAMES,
    ]
    full = runs[-1][1]
    np.testing.assert_array_equal(full.confusion.counts, rep.confusion.counts)
    assert full.mpca == rep.mpca
    for (_, r), (_, r2) in zip(rep.folds, full.folds):
        np.testing.assert_array_equal(r.counts, r2.counts)


def test_ablation_rejects_bad_cue_sets(mixed_corpus, mixed_folds, mixed_cfg):
    with pytest.raises(InvalidConfig, match="unknown cue"):
        ablation(mixed_corpus, mixed_folds, [("speediness",)], mixed_cfg)
    with pytest.raises(InvalidConfig, match="empty cue set"):
        ablation(mixed_corpus, mixed_folds, [()], mixed_cfg)
    wide = replace(mixed_cfg, forest2=replace(mixed_cfg.stage2_forest, features_per_split=8))
    with pytest.raises(InvalidConfig, match=r"<= 6, the width of the cue set \('interaction_hist',\)"):
        ablation(mixed_corpus, mixed_folds, [CUE_NAMES, ("interaction_hist",)], wide)


def test_cross_dataset_degenerate_transfer(mixed_corpus, mixed_cfg):
    rep = cross_dataset(mixed_corpus, mixed_corpus, mixed_cfg)
    assert rep.confusion.total == 120
    assert rep.mpca > 0.9  # train == test, so this is re-substitution


def test_cross_dataset_drop_labels(mixed_corpus, mixed_cfg):
    no_queue = [
        r for r in mixed_corpus
        if all(a.label is not C.Queuing for a in r.collective_annotations)
    ]
    drop_queue = replace(mixed_cfg, drop_labels=(C.Queuing,))
    rep = cross_dataset(mixed_corpus, no_queue, drop_queue)
    assert "Queuing" not in rep.confusion.class_names
    assert len(rep.confusion.class_names) == 5
    assert rep.confusion.total == 100
    with pytest.raises(LabelCoverageError):
        cross_dataset(mixed_corpus, mixed_corpus, drop_queue)


def test_cross_dataset_unseen_test_label(mixed_corpus, mixed_cfg):
    train = [
        r for r in mixed_corpus
        if not r.collective_annotations
        or r.collective_annotations[0].label in (C.Talking, C.Queuing)
    ]
    with pytest.raises(LabelCoverageError):
        cross_dataset(train, mixed_corpus, mixed_cfg)


def test_cross_dataset_without_shape_cue(mixed_corpus, mixed_cfg):
    no_shape = replace(mixed_cfg, include_shape=False)
    rep = cross_dataset(mixed_corpus, mixed_corpus, no_shape)
    assert rep.confusion.total == 120


def test_empty_training_set_is_reported(mixed_corpus, mixed_cfg):
    coll_only = [r for r in mixed_corpus if r.collective_annotations]
    with pytest.raises(EmptyTrainingSet):
        cross_dataset(coll_only, coll_only, mixed_cfg)


# ------------------------------------------------ stage-one votes and group cues

class _LabelModel:
    """Stage-one stand-in: a fixed label per vector, shifted by ``salt``,
    with every predict_batch call recorded."""

    class_names = tuple(l.code for l in InteractionLabel)

    def __init__(self, salt=0):
        self.salt = salt
        self.calls = []

    def predict_batch(self, x):
        self.calls.append(np.array(x))
        return (np.floor(np.abs(x).sum(axis=1) * 7.0).astype(np.int64) + self.salt) % 6


@pytest.fixture(scope="module")
def dropped_corpus():
    """Group scenes with dropped detections, one member split by a hole
    beyond max_gap and one that leaves early, so membership changes from
    frame to frame and from window to window."""
    rng = np.random.default_rng(17)
    scenes = []
    labels = (C.Gathering, C.Walking, C.Queuing)
    for rec in make_collective_corpus(SynthParams(seed=23, noise_sigma=0.02), 1):
        if rec.collective_annotations[0].label not in labels:
            continue
        tracks = []
        for k, t in enumerate(rec.trajectories):
            last = len(t) - 1
            keep = [s for i, s in enumerate(t.samples) if i in (0, last) or rng.random() > 0.15]
            if k == 1:
                keep = [s for s in keep if not 40 <= s.frame <= 47]
            if k == 2:
                keep = keep[: 2 * len(keep) // 3]
            tracks.append(Trajectory(t.track_id, keep, t.fps))
        scenes.append(SceneRecording(rec.sequence_id, rec.fps, tracks,
                                     rec.pair_annotations, rec.collective_annotations))
    assert len(scenes) == len(labels)
    return scenes


_VOTE_CFG = PipelineConfig(stride=8, seed=5)


def _lone_windows(rec, cfg):
    """Every kept group window of a recording, built on its own."""
    for center, ids, _ in windows(rec, cfg.t2, cfg.step, "group", cfg.max_gap):
        states = {i: smoothed_states(rec.track(i), cfg.smoothing, max_gap=cfg.max_gap)
                  for i in ids}
        yield GroupWindow(center, cfg.t2, rec.fps, states)


def _distinct_keys(rec, cfg):
    """(anchor, target, center) of every pair-center the recording's group
    windows pool, found frame by frame."""
    frames = {t.track_id: set(smoothed_states(t, cfg.smoothing, cfg.max_gap).frames.tolist())
              for t in rec.trajectories}
    back, fwd = cfg.pid.window_halves
    keys = set()
    for w in _lone_windows(rec, cfg):
        start, end = w.span
        for c in range(start, end + 1, cfg.stride):
            present = [i for i in w.member_states
                       if all(f in frames[i] for f in range(c - back, c + fwd + 1))]
            keys.update((a, b, c) for a in present for b in present if a != b)
    return keys


def test_group_matrix_votes_each_pair_center_once(dropped_corpus):
    # one vote per group_matrix call, whose rows hold each recording's
    # distinct keys once, one recording after another
    pipe = Pipeline(dropped_corpus, _VOTE_CFG)
    model = _LabelModel()
    want = [len(_distinct_keys(pipe._recordings[s], _VOTE_CFG)) for s in pipe.seq_ids]
    assert len(want) > 1 and min(want) > 0
    for _ in range(2):  # the vectors are kept, the votes are not: the second call votes again
        model.calls.clear()
        pipe.group_matrix(model, pipe.seq_ids)
        [x] = model.calls
        assert len(x) == sum(want)
        for part in np.split(x, np.cumsum(want)[:-1]):
            assert len(np.unique(part, axis=0)) == len(part)


def _count_extraction(monkeypatch):
    """Calls of pair_keys, of each cue function and of PairBatch, by name,
    counted in every proxrf module that binds them: each call's first
    argument (a GroupBlock, or shape_ratio's stack of point sets, one per
    window)."""
    calls = {}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(args[0])
            return real(*args, **kwargs)
        return wrapper

    for name in ("pair_keys", "mean_speed", "dispersion_change", "shape_ratio"):
        real = getattr(cbd_module, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("proxrf") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))

    class Counting(PairBatch):
        __slots__ = ()

        def __init__(self, pairs, *args):
            calls.setdefault("PairBatch", []).append(pairs)
            super().__init__(pairs, *args)

    monkeypatch.setattr(pid_module, "PairBatch", Counting)
    return calls


def _windows_per_recording(rows, seq_ids) -> list:
    """Group rows of each recording that has any, in seq_ids order."""
    counts = [sum(seq == s for seq, _, _ in rows) for s in seq_ids]
    return [n for n in counts if n]


def test_group_matrix_enumerates_each_window_once(dropped_corpus, monkeypatch):
    # one block per recording, whose windows are that recording's rows
    calls = _count_extraction(monkeypatch)
    pipe = Pipeline(dropped_corpus, _VOTE_CFG)
    rows, _, _ = pipe.group_matrix(_LabelModel(), pipe.seq_ids)
    blocks = calls["pair_keys"]
    assert [len(b) for b in blocks] == _windows_per_recording(rows, pipe.seq_ids)
    assert len(blocks) == len(pipe.seq_ids) > 1 and sum(len(b) for b in blocks) == len(rows)
    assert len({id(b) for b in blocks}) == len(blocks)
    assert [c for b in blocks for c in b.centers.tolist()] == [c for _, c, _ in rows]
    for name in ("mean_speed", "dispersion_change", "shape_ratio"):
        assert [len(a) for a in calls[name]] == [len(b) for b in blocks]
    assert [id(b) for b in calls["mean_speed"]] == [id(b) for b in blocks]
    pipe.group_matrix(_LabelModel(salt=2), pipe.seq_ids)  # once per Pipeline
    assert len(calls["pair_keys"]) == len(calls["shape_ratio"]) == len(pipe.seq_ids)


def test_second_matrix_call_describes_nothing(mixed_corpus, monkeypatch):
    calls = _count_extraction(monkeypatch)
    pipe = Pipeline(mixed_corpus, _VOTE_CFG)
    first = pipe.pair_matrix(pipe.seq_ids), pipe.group_matrix(_LabelModel(), pipe.seq_ids)
    assert sorted(calls) == ["PairBatch", "dispersion_change", "mean_speed", "pair_keys",
                             "shape_ratio"]
    # one block per recording with group windows, the pair-only ones none
    per_recording = _windows_per_recording(first[1][0], pipe.seq_ids)
    assert 1 < len(per_recording) < len(pipe.seq_ids)
    for name in ("pair_keys", "mean_speed", "dispersion_change", "shape_ratio"):
        assert [len(a) for a in calls[name]] == per_recording, name
    calls.clear()
    again = pipe.pair_matrix(pipe.seq_ids), pipe.group_matrix(_LabelModel(), pipe.seq_ids)
    assert calls == {}
    for (rows, x, labels), (rows2, x2, labels2) in zip(first, again):
        assert rows == rows2 and labels == labels2 and np.array_equal(x, x2)


def test_ablation_extracts_each_group_window_once(mixed_corpus, mixed_cfg, monkeypatch):
    calls = _count_extraction(monkeypatch)
    folds = FoldSplit.round_robin([r.sequence_id for r in mixed_corpus], 3)
    [(_, full), _] = ablation(mixed_corpus, folds, [CUE_NAMES, CUE_NAMES[:3]], mixed_cfg)
    n_windows = full.confusion.total  # every group window is tested once
    # one block per recording with group placements, over the whole ablation
    grouped = [rec for rec in mixed_corpus
               if any(windows(rec, mixed_cfg.t2, mixed_cfg.step, "group", mixed_cfg.max_gap))]
    for name in ("pair_keys", "mean_speed", "dispersion_change", "shape_ratio"):
        assert len(calls[name]) == len(grouped) > 1, name
        assert sum(len(a) for a in calls[name]) == n_windows > 0, name
        assert len({id(a) for a in calls[name]}) == len(grouped)


def test_ablation_votes_once_per_fold(mixed_corpus, mixed_cfg, monkeypatch):
    # each fold pools the votes of its training and test windows together
    pooled = []

    def counting(model, vectors, window, row, n_windows):
        pooled.append(n_windows)
        return cbd_module.pool_votes(model, vectors, window, row, n_windows)

    pipe = Pipeline(mixed_corpus, mixed_cfg)
    rows, _, _ = pipe.group_matrix(_LabelModel(), pipe.seq_ids)
    monkeypatch.setattr(evaluate_module, "pool_votes", counting)
    folds = FoldSplit.round_robin([r.sequence_id for r in mixed_corpus], 3)
    [(_, full)] = ablation(mixed_corpus, folds, [CUE_NAMES], mixed_cfg)
    assert pooled == [len(rows)] * 3 and full.confusion.total == len(rows)


def test_group_blocks_of_any_size_give_the_same_matrix(dropped_corpus, tiny_stage1,
                                                       monkeypatch):
    # recordings split into blocks of a few windows each give the rows,
    # labels and CBD bits of one block per recording, describe the same
    # keys in the same batches, and vote once
    calls = _count_extraction(monkeypatch)

    def described():
        return [(aid, tid, list(centers)) for pairs in calls.pop("PairBatch")
                for _, _, aid, tid, centers in pairs]

    whole = Pipeline(dropped_corpus, _VOTE_CFG)
    want = whole.group_matrix(tiny_stage1, whole.seq_ids)
    want_keys = described()
    assert len(calls["pair_keys"]) == len(whole.seq_ids)
    calls.clear()
    monkeypatch.setattr(evaluate_module, "_BLOCK_SLOTS", 3 * 5 * _VOTE_CFG.t2)
    split = Pipeline(dropped_corpus, _VOTE_CFG)
    rows, x, labels = split.group_matrix(tiny_stage1, split.seq_ids)
    assert rows == want[0] and labels == want[2] and x.tobytes() == want[1].tobytes()
    assert described() == want_keys
    blocks = calls["pair_keys"]
    assert len(blocks) > 2 * len(split.seq_ids) and max(len(b) for b in blocks) <= 3
    model = _LabelModel()
    split.group_matrix(model, split.seq_ids)
    [votes] = model.calls
    assert len(np.unique(votes, axis=0)) == len(votes)


def test_block_runs_fill_each_block_to_the_bound(monkeypatch):
    # at most 6 windows x members a block (t2 = 4): a run ends only where
    # the next placement does not fit, and the next run counts its own
    # members alone; a placement that is too big alone gets its own block
    monkeypatch.setattr(evaluate_module, "_BLOCK_SLOTS", 6 * 4)
    members = [("a", "b")] * 3 + [("c",)] * 4 + [tuple("cdefghi"), ("c",)]
    placed = [(center, ids, None) for center, ids in enumerate(members)]
    assert list(evaluate_module._block_runs(placed, 4)) == [(0, 3), (3, 7), (7, 8), (8, 9)]
    assert list(evaluate_module._block_runs(placed[7:], 4)) == [(0, 1), (1, 2)]
    assert list(evaluate_module._block_runs([], 4)) == []


def test_group_matrix_labels_do_not_leak_across_models(dropped_corpus):
    a, b = _LabelModel(salt=0), _LabelModel(salt=3)
    shared = Pipeline(dropped_corpus, _VOTE_CFG)
    _, x_a, _ = shared.group_matrix(a, shared.seq_ids)
    _, x_b, _ = shared.group_matrix(b, shared.seq_ids)
    fresh = Pipeline(dropped_corpus, _VOTE_CFG)
    _, x_fresh, _ = fresh.group_matrix(b, fresh.seq_ids)
    np.testing.assert_array_equal(x_b, x_fresh)
    assert not np.array_equal(x_a[:, :6], x_b[:, :6])


def test_pair_and_group_windows_of_one_pair_describe_like_lone_windows(tiny_stage1,
                                                                        monkeypatch):
    # two tracks that carry both pair annotations and a collective one, so
    # group_matrix describes new centers of the pairs that pair_matrix
    # described, over frames that pair_matrix's series already filled
    rng = np.random.default_rng(29)
    n = 200
    steps = np.zeros((n, 2))
    steps[60:140, 0] = 0.13  # the anchor stands, with random headings, at both ends
    a_xy = np.cumsum(steps, axis=0) + 0.01 * rng.standard_normal((n, 2))
    b_xy = a_xy + [0.4, 1.0] + 0.02 * rng.standard_normal((n, 2))
    a, b = make_traj("a", a_xy), make_traj("b", b_xy)
    wt = InteractionLabel.WalkingTogether
    rec = SceneRecording("both", 10.0, [a, b],
                         [PairAnnotation(0, n - 1, "a", "b", wt),
                          PairAnnotation(0, n - 1, "b", "a", wt)],
                         [CollectiveAnnotation(0, n - 1, C.Walking)])
    cfg = PipelineConfig(seed=3)
    states = {t.track_id: smoothed_states(t, cfg.smoothing, max_gap=cfg.max_gap)
              for t in (a, b)}
    described = []

    class Recording(PairBatch):
        __slots__ = ()

        def __init__(self, pairs, *args):
            super().__init__(pairs, *args)
            keys = [(aid, tid, int(c)) for _, _, aid, tid, centers in pairs for c in centers]
            described.extend(zip(keys, self.vectors))

    monkeypatch.setattr(pid_module, "PairBatch", Recording)
    pipe = Pipeline([rec], cfg)
    rows, x, _ = pipe.pair_matrix(pipe.seq_ids)
    pair_keys = {(aid, tid, c) for _, c, (aid, tid) in rows}
    assert sorted(pair_keys) == sorted(key for key, _ in described)
    vectors = dict(described)
    assert np.array_equal(x, [vectors[aid, tid, c] for _, c, (aid, tid) in rows])
    pipe.group_matrix(tiny_stage1, pipe.seq_ids)
    group_keys = {key for key, _ in described} - pair_keys
    back, fwd = cfg.pid.window_halves
    pair_frames = {(aid, tid, f) for aid, tid, c in pair_keys for f in range(c - back, c + fwd + 1)}
    assert any((aid, tid, f) in pair_frames
               for aid, tid, c in group_keys for f in range(c - back, c + fwd + 1))
    assert len(described) == len(pair_keys) + len(group_keys)
    for (aid, tid, center), vec in described:
        lone = PairBatch([(states[aid], states[tid], aid, tid, [center])], cfg.pid, rec.fps,
                         cfg.seed)
        assert lone.complete[0] and np.array_equal(vec, lone.vectors[0]), (aid, tid, center)


def _frame_states(w):
    """frame -> (speed, position) of each member present there, in
    member order, read frame by frame from the member states."""
    start, end = w.span
    found = {f: [] for f in range(start, end + 1)}
    for st in w.member_states.values():
        for f, xy, speed in zip(st.frames.tolist(), st.xy.tolist(), st.speed.tolist()):
            if f in found:
                found[f].append((speed, tuple(xy)))
    return found


def _ref_mean_speed(w):
    per_frame = [sum(speed for speed, _ in present) / len(present)
                 for present in _frame_states(w).values()]
    return float(np.mean(per_frame))


def _ref_dispersion_change(w):
    series = [(f, dispersion([xy for _, xy in present]))
              for f, present in _frame_states(w).items()]
    return float(np.mean([v for _, v in derivative(series, w.fps)]))


def test_group_matrix_matches_lone_windows(dropped_corpus, tiny_stage1):
    pipe = Pipeline(dropped_corpus, _VOTE_CFG)
    rows, x, _ = pipe.group_matrix(tiny_stage1, pipe.seq_ids)
    ref, uneven = [], 0
    for rec in sorted(dropped_corpus, key=lambda r: r.sequence_id):
        for w in _lone_windows(rec, _VOTE_CFG):
            vec = lone_cbd(w, tiny_stage1, _VOTE_CFG.pid, _VOTE_CFG.stride, _VOTE_CFG.seed)
            assert vec[6] == _ref_mean_speed(w)
            assert vec[7] == _ref_dispersion_change(w)
            ref.append(vec)
            uneven += len({len(present) for present in _frame_states(w).values()}) > 1
    assert len(rows) == len(ref) and uneven > 0
    np.testing.assert_array_equal(x, np.array(ref))


def _renamed(rec, seq):
    return SceneRecording(seq, rec.fps, rec.trajectories, rec.pair_annotations,
                          rec.collective_annotations)


def test_one_pipeline_equals_one_per_recording(dropped_corpus):
    # recordings described together (one describe_pairs call per frame
    # rate, all tracks smoothed at once) give each recording's own rows,
    # vectors and labels: 10 and 25 fps, pair and group scenes, gapped
    # tracks, and the ids "a" and "a.b", whose order is not file order
    fast = SynthParams(fps=25.0, seed=31, noise_sigma=0.02)
    slow = SynthParams(seed=32, noise_sigma=0.02)
    pairs10, pairs25 = make_pair_corpus(slow, 1), make_pair_corpus(fast, 1)
    recs = (pairs10[:2] + [_renamed(pairs25[0], "a.b")] + dropped_corpus[:2]
            + make_collective_corpus(fast, 1)[:2] + [_renamed(pairs10[2], "a")] + pairs25[1:3])
    assert {rec.fps for rec in recs} == {10.0, 25.0}
    cfg = PipelineConfig(forest=ForestConfig(n_trees=8), stride=8, seed=4)
    order = [rec.sequence_id for rec in recs]
    whole = Pipeline(recs, cfg)
    stage1 = whole.train_stage1(whole.seq_ids, seed=11)
    got = whole.pair_matrix(order), whole.group_matrix(stage1, order)
    alone = [Pipeline([rec], cfg) for rec in recs]
    want = ([p.pair_matrix([s]) for p, s in zip(alone, order)],
            [p.group_matrix(stage1, [s]) for p, s in zip(alone, order)])
    for (rows, x, labels), parts in zip(got, want):
        assert rows == [row for part in parts for row in part[0]]
        assert labels == [label for part in parts for label in part[2]]
        assert x.tobytes() == np.concatenate([part[1] for part in parts]).tobytes()
    fps = {rec.sequence_id: rec.fps for rec in recs}
    pair_rows, group_rows = got[0][0], got[1][0]
    assert {seq for seq, _, _ in pair_rows} >= {"a", "a.b"}
    assert {seq for seq, _, _ in group_rows} >= {dropped_corpus[0].sequence_id}
    for rows in (pair_rows, group_rows):
        assert {fps[seq] for seq, _, _ in rows} == {10.0, 25.0}
