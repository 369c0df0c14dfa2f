"""The two-stage pipeline, with cross-validation, metrics and ablation.

``Pipeline`` is the one path from recordings to PID rows, stage-one
forest, CBD rows and stage-two forest; the evaluation drivers and the
CLI all go through it.  Descriptor extraction is shared across folds
(descriptors do not depend on the fold), while first- and second-stage
forests are retrained per fold with seeds derived from (seed, fold).
Reports carry the pooled confusion matrix, per-class accuracies, their
mean (MPCA) and their population standard deviation, plus the per-fold
breakdown.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from . import keyed
from .cbd import CollectiveLabel, GroupBlock, group_cues, pair_vectors, pool_votes
from .dataset import FoldSplit, SceneRecording, windows
from .errors import (
    ConfigError,
    EmptyTrainingSet,
    InvalidConfig,
    LabelCoverageError,
)
from .forest import ForestConfig, RandomForest, train
from .pid import InteractionLabel, PidConfig, describe_pairs
from .trajectory import DEFAULT_MAX_GAP, SmoothingConfig, smoothed_states

CUE_NAMES = ("interaction_hist", "mean_speed", "dispersion_change", "shape_ratio")

_INTERACTION_CODES = tuple(l.code for l in InteractionLabel)
_COLLECTIVE_CODES = tuple(l.code for l in CollectiveLabel)


@dataclass(frozen=True)
class PipelineConfig:
    """Every run setting: everything the two-stage pipeline needs besides
    the data.  ``proxrf.config.build_run_config`` fills it from a config
    file and flags.

    ``forest`` configures the first-stage forest; ``forest2`` the
    second-stage one, defaulting to ``forest`` when None.  Seeds inside
    them are ignored by the evaluation drivers, which derive per-fold,
    per-stage seeds from ``seed``.  ``drop_labels`` is read only by
    cross_dataset.
    """

    pid: PidConfig = field(default_factory=PidConfig)
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    forest2: Optional[ForestConfig] = None
    t2: int = 64
    step: int = 5
    stride: int = 5
    include_shape: bool = True
    max_gap: int = DEFAULT_MAX_GAP
    seed: int = 0
    threads: int = 1
    drop_labels: tuple = ()

    def __post_init__(self):
        if self.t2 < 2 or self.t2 & (self.t2 - 1):
            raise InvalidConfig(f"t2 must be a power of two >= 2, got {self.t2}")
        if self.step < 1 or self.stride < 1:
            raise InvalidConfig("step and stride must be >= 1")
        if self.threads < 1:
            raise InvalidConfig(f"threads must be >= 1, got {self.threads}")
        if self.max_gap < 0:
            raise InvalidConfig(f"max_gap must be >= 0, got {self.max_gap}")
        for lab in self.drop_labels:
            if not isinstance(lab, CollectiveLabel):
                raise InvalidConfig(f"drop_labels entries must be collective labels, got {lab!r}")
        _check_split_width("interaction", self.forest, self.pid.descriptor_length,
                           "PID descriptor")
        _check_split_width("collective", self.stage2_forest, len(cue_columns(self.cues)),
                           f"cue set {self.cues}")

    @property
    def stage2_forest(self) -> ForestConfig:
        return self.forest2 if self.forest2 is not None else self.forest

    @property
    def cues(self) -> tuple:
        """The CBD cues the second stage sees: CUE_NAMES, less the shape
        cue when ``include_shape`` is false."""
        return CUE_NAMES if self.include_shape else CUE_NAMES[:3]


class ConfusionMatrix:
    """Integer confusion counts; rows are truth, columns are prediction."""

    def __init__(self, class_names: Sequence[str], counts=None):
        self.class_names = tuple(str(c) for c in class_names)
        k = len(self.class_names)
        if len(set(self.class_names)) != k or k == 0:
            raise ValueError("class names must be unique and non-empty")
        if counts is None:
            self.counts = np.zeros((k, k), dtype=np.int64)
        else:
            self.counts = np.asarray(counts, dtype=np.int64).copy()
            if self.counts.shape != (k, k) or np.any(self.counts < 0):
                raise ValueError(f"counts must be a non-negative {k}x{k} matrix")

    def add(self, truth: int, pred: int, n: int = 1):
        self.counts[truth, pred] += n

    def merge(self, other: "ConfusionMatrix"):
        if other.class_names != self.class_names:
            raise ValueError("cannot merge confusion matrices over different classes")
        self.counts += other.counts

    @property
    def support(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def per_class_accuracy(self) -> tuple:
        """(accuracies, class names) over classes with non-zero support."""
        sup = self.support
        keep = sup > 0
        acc = np.diag(self.counts)[keep] / sup[keep]
        names = tuple(np.array(self.class_names)[keep])
        return acc, names

    def text(self) -> str:
        """Plain fixed-width table, truth in rows."""
        width = max(5, max(len(c) for c in self.class_names) + 1)
        head = " " * width + "".join(f"{c:>{width}}" for c in self.class_names)
        lines = [head]
        for name, row in zip(self.class_names, self.counts):
            lines.append(f"{name:<{width}}" + "".join(f"{v:>{width}}" for v in row))
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Pooled metrics plus per-fold confusion matrices.

    ``class_names`` and ``per_class_accuracy`` cover only classes that
    had test windows; ``mpca`` is exactly their mean and ``std`` their
    population standard deviation (divide by K, not K-1).
    """

    class_names: tuple
    per_class_accuracy: np.ndarray
    mpca: float
    std: float
    confusion: ConfusionMatrix
    folds: tuple

    def to_json(self) -> str:
        doc = {
            "mpca": self.mpca,
            "std": self.std,
            "per_class_accuracy": {
                c: float(a) for c, a in zip(self.class_names, self.per_class_accuracy)
            },
            "confusion": {
                "classes": list(self.confusion.class_names),
                "counts": self.confusion.counts.tolist(),
            },
            "folds": [
                {"fold": f, "counts": cm.counts.tolist()} for f, cm in self.folds
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def per_class_csv(self) -> str:
        lines = ["class,accuracy"]
        lines += [f"{c},{float(a)!r}" for c, a in zip(self.class_names, self.per_class_accuracy)]
        return "\n".join(lines) + "\n"


def report_from_confusion(confusion: ConfusionMatrix, folds: Iterable = ()) -> EvalReport:
    acc, names = confusion.per_class_accuracy()
    if len(names) < len(confusion.class_names):
        missing = sorted(set(confusion.class_names) - set(names))
        warnings.warn(f"no test windows for {missing}; excluded from MPCA", stacklevel=2)
    if len(acc) == 0:
        raise InvalidConfig("evaluation produced no test windows at all")
    return EvalReport(
        class_names=names,
        per_class_accuracy=acc,
        mpca=float(acc.mean()),
        std=float(acc.std()),
        confusion=confusion,
        folds=tuple(folds),
    )


def evaluate_predictions(truths, preds, class_names: Sequence[str]) -> EvalReport:
    """Report from already-made class-id predictions (no folds)."""
    cm = ConfusionMatrix(class_names)
    for t, p in zip(truths, preds):
        cm.add(int(t), int(p))
    return report_from_confusion(cm)


def fold_seeds(seed: int, fold: int) -> tuple:
    """(stage-one seed, stage-two seed) derived from a run seed and a token:
    the hashes of the keys (seed, token, 0) and (seed, token, 1).

    Cross-validation passes the fold index, a model trained on a whole
    corpus passes 0 and cross_dataset passes 202.
    """
    a, b = keyed.key_hash(keyed.FOLD, seed, fold, np.arange(2)).tolist()
    return a, b


def _check_split_width(stage: str, forest: ForestConfig, width: int, what: str) -> None:
    """InvalidConfig unless ``forest`` draws at most ``width`` features per split."""
    per_split = forest.features_per_split
    if per_split is not None and per_split > width:
        raise InvalidConfig(f"{stage}_features_per_split must be <= {width}, "
                            f"the width of the {what}, got {per_split}")


def cue_columns(cues: Sequence[str]) -> list:
    """Columns of a full CBD vector that carry the given cues."""
    n_hist = len(InteractionLabel)
    cols = []
    for i, cue in enumerate(CUE_NAMES):
        if cue in cues:
            cols.extend(range(n_hist) if i == 0 else [n_hist + i - 1])
    return cols


# windows x members x t2 slots that one GroupBlock holds at most, so a
# long recording with many tracks is split into blocks of a few MB
_BLOCK_SLOTS = 2**16


def _block_runs(placed: Sequence, t2: int):
    """(lo, hi) runs of consecutive group-window placements (center,
    members, label) that share one GroupBlock: a run's windows times the
    members of any of them times t2 stays within _BLOCK_SLOTS, except
    that a placement alone in its run may exceed it."""
    lo, members = 0, set()
    for i, (_, ids, _) in enumerate(placed):
        grown = members.union(ids)
        if i > lo and (i + 1 - lo) * len(grown) * t2 > _BLOCK_SLOTS:
            yield lo, i
            lo, grown = i, set(ids)
        members = grown
    if placed:
        yield lo, len(placed)


class Pipeline:
    """The two-stage hierarchy over one corpus.

    Pair windows become PID rows, which train the stage-one forest; group
    windows become CBD rows under a stage-one model, which train the
    stage-two forest.  Only the pooled stage-one labels of a group window
    depend on the model, so everything else is computed once and shared
    by every fold, cue set and stage-one model: the smoothed tracks of
    every recording (one smoothed_states call, on construction); the
    pair windows' rows, PID vectors and labels of every recording (one
    describe_pairs call per frame rate, on the first pair_matrix call);
    and per recording, when a matrix first asks for it, the group
    windows' rows, labels, speed, dispersion and shape cues
    (group_cues) and distinct pair vectors with each key's window and
    row (pair_vectors), all from the recording's GroupBlocks, which are
    not kept.
    Matrices come back as ``(rows, X, labels)`` with one ``(sequence id,
    center frame, track ids)`` row per window.
    """

    def __init__(self, recordings: Sequence[SceneRecording], cfg: PipelineConfig):
        self.cfg = cfg
        self._recordings = {rec.sequence_id: rec for rec in recordings}
        self.seq_ids = tuple(sorted(self._recordings))
        tracks = [t for rec in self._recordings.values() for t in rec.trajectories]
        states = iter(smoothed_states(tracks, cfg.smoothing, max_gap=cfg.max_gap))
        self._states = {seq: {t.track_id: next(states) for t in rec.trajectories}
                        for seq, rec in self._recordings.items()}
        self._pairs = {}
        self._groups = {}

    def _pair_cache(self, seq: str) -> tuple:
        """(rows, PID matrix, labels) of the recording's pair windows.

        The first call fills the cache of every recording: the pairs of
        all recordings with one frame rate are described in one
        describe_pairs call, each recording's pairs in first-seen order.
        """
        if not self._pairs:
            cfg, by_fps = self.cfg, {}
            for seq_id, rec in self._recordings.items():
                states = self._states[seq_id]
                placed = list(windows(rec, cfg.pid.t1, cfg.step, "pairs", cfg.max_gap))
                by_pair = {}
                for k, (center, pair, _) in enumerate(placed):
                    by_pair.setdefault(pair, []).append(k)
                pairs = [(states[a], states[t], a, t, [placed[k][0] for k in ks])
                         for (a, t), ks in by_pair.items()]
                order = [k for ks in by_pair.values() for k in ks]
                by_fps.setdefault(rec.fps, []).append((seq_id, placed, pairs, order))
            for fps, group in by_fps.items():
                x = describe_pairs([p for _, _, pairs, _ in group for p in pairs], cfg.pid, fps,
                                   cfg.seed)
                at = 0
                for seq_id, placed, _, order in group:
                    x_seq = np.empty((len(placed), cfg.pid.descriptor_length))
                    x_seq[order] = x[at:at + len(placed)]
                    at += len(placed)
                    self._pairs[seq_id] = ([(seq_id, c, pair) for c, pair, _ in placed], x_seq,
                                           [label for _, _, label in placed])
        return self._pairs[seq]

    def _group_cache(self, seq: str) -> tuple:
        """(rows, labels, windows x 3 cues, pair_vectors) of the
        recording's group windows, from one GroupBlock per run of
        consecutive placements (see _block_runs); placements with a frame
        where no member is present are skipped."""
        if seq not in self._groups:
            cfg, rec, states = self.cfg, self._recordings[seq], self._states[seq]
            placed = list(windows(rec, cfg.t2, cfg.step, "group", cfg.max_gap))
            rows, labels, blocks = [], [], []
            for lo, hi in _block_runs(placed, cfg.t2):
                run = placed[lo:hi]
                ids = {i for _, members, _ in run for i in members}
                block = GroupBlock([c for c, _, _ in run], cfg.t2, rec.fps,
                                   {i: states[i] for i in ids})
                kept = [run[k] for k in block.kept.tolist()]
                rows += [(seq, center, members) for center, members, _ in kept]
                labels += [label for _, _, label in kept]
                blocks.append(block)
            cues = np.concatenate([np.empty((0, 3))] + [group_cues(b) for b in blocks])
            self._groups[seq] = (rows, labels, cues,
                                 pair_vectors(blocks, cfg.pid, cfg.stride, cfg.seed))
        return self._groups[seq]

    def pair_matrix(self, seq_ids: Sequence[str]) -> tuple:
        """PID vectors and interaction labels of every pair window."""
        rows, vecs, labels = [], [np.empty((0, self.cfg.pid.descriptor_length))], []
        for seq in seq_ids:
            seq_rows, x, seq_labels = self._pair_cache(seq)
            rows += seq_rows
            vecs.append(x)
            labels += seq_labels
        return rows, np.concatenate(vecs), labels

    def group_matrix(self, stage1: RandomForest, seq_ids: Sequence[str]) -> tuple:
        """Full CBD vectors (every cue) and collective labels of every
        group window under a stage-one model; slice them with cue_columns.
        The distinct pair vectors of all the recordings are voted in one
        predict_batch call (pool_votes): each recording's pair_vectors
        triple is appended to the others', its window and row indices
        shifted past theirs.
        """
        rows, labels = [], []
        cues, vectors = [np.empty((0, 3))], [np.empty((0, self.cfg.pid.descriptor_length))]
        window, row = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
        n_vectors = 0
        for seq in seq_ids:
            seq_rows, seq_labels, seq_cues, (x, w, r) = self._group_cache(seq)
            window.append(w + len(rows))
            row.append(r + n_vectors)
            rows += seq_rows
            labels += seq_labels
            cues.append(seq_cues)
            vectors.append(x)
            n_vectors += len(x)
        hist = pool_votes(stage1, np.concatenate(vectors), np.concatenate(window),
                          np.concatenate(row), len(rows))
        return rows, np.hstack([hist, np.concatenate(cues)]), labels

    def train_stage1(self, seq_ids: Sequence[str], seed: int) -> RandomForest:
        """Interaction forest over the pair windows of the given recordings."""
        _, x, labels = self.pair_matrix(seq_ids)
        if not labels:
            raise EmptyTrainingSet("no pairwise training windows")
        return self._train(x, labels, replace(self.cfg.forest, seed=seed), _INTERACTION_CODES)

    def train_stage2(
        self, x: np.ndarray, labels: Sequence, seed: int, class_names=_COLLECTIVE_CODES
    ) -> RandomForest:
        """Collective forest over group rows (any column slice); a label's
        class id is the position of its code in ``class_names``."""
        if not labels:
            raise EmptyTrainingSet("no group training windows")
        return self._train(x, labels, replace(self.cfg.stage2_forest, seed=seed), class_names)

    def _train(self, x, labels, forest_cfg: ForestConfig, class_names) -> RandomForest:
        index = {name: i for i, name in enumerate(class_names)}
        y = np.fromiter((index[lab.code] for lab in labels), np.int64, len(labels))
        return train(x, y, forest_cfg, class_names=class_names, threads=self.cfg.threads)


def _check_folds(recordings, folds: FoldSplit):
    for rec in recordings:
        if rec.sequence_id not in folds.assignments:
            raise ConfigError(f"sequence {rec.sequence_id!r} has no fold assignment")
    ids = [rec.sequence_id for rec in recordings]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate sequence ids in the evaluation corpus")


def _cross_validate(recordings, folds: FoldSplit, cfg: PipelineConfig, class_names, score) -> list:
    """The fold loop: one pooled report per evaluation sharing the folds.

    Each fold trains stage one on the other folds, then
    ``score(pipeline, stage1, train_ids, test_ids, stage2_seed)`` returns
    the fold's true class ids and, per evaluation, its predicted ones.
    """
    _check_folds(recordings, folds)
    pipe = Pipeline(recordings, cfg)
    fold_parts = []
    for fold in range(folds.n_folds):
        train_ids = [s for s in pipe.seq_ids if folds.fold_of(s) != fold]
        test_ids = [s for s in pipe.seq_ids if folds.fold_of(s) == fold]
        s1_seed, s2_seed = fold_seeds(cfg.seed, fold)
        stage1 = pipe.train_stage1(train_ids, s1_seed)
        truth, runs = score(pipe, stage1, train_ids, test_ids, s2_seed)
        if not truth:
            warnings.warn(f"fold {fold} produced no test windows", stacklevel=3)
        parts = []
        for preds in runs:
            part = ConfusionMatrix(class_names)
            for t, p in zip(truth, preds):
                part.add(t, int(p))
            parts.append((fold, part))
        fold_parts.append(parts)
    reports = []
    for parts in zip(*fold_parts):
        total = ConfusionMatrix(class_names)
        for _, part in parts:
            total.merge(part)
        reports.append(report_from_confusion(total, parts))
    return reports


def kfold_evaluate(
    recordings: Sequence[SceneRecording],
    folds: FoldSplit,
    cfg: PipelineConfig,
    task: str = "collective",
) -> EvalReport:
    """Cross-validated evaluation of the pipeline.

    task "interaction" scores the first stage on pairwise windows; task
    "collective" trains both stages per fold (the second stage sees CBDs
    built with that fold's first-stage model) and scores the second: it
    is ablation() over the single cue set ``cfg.cues``.
    """
    if task == "collective":
        return ablation(recordings, folds, [cfg.cues], cfg)[0][1]
    if task != "interaction":
        raise ConfigError(f"task must be 'interaction' or 'collective', got {task!r}")

    def score(pipe, stage1, train_ids, test_ids, s2_seed):
        _, x, labels = pipe.pair_matrix(test_ids)
        return [lab.class_id for lab in labels], [stage1.predict_batch(x)]

    return _cross_validate(recordings, folds, cfg, _INTERACTION_CODES, score)[0]


def ablation(
    recordings: Sequence[SceneRecording],
    folds: FoldSplit,
    cue_sets: Sequence[Sequence[str]],
    cfg: PipelineConfig,
) -> list:
    """One collective evaluation per cue set, sharing all extraction.

    Cue names: interaction_hist, mean_speed, dispersion_change,
    shape_ratio.  Returns [(cue tuple, EvalReport)] in input order; the
    full cue set yields exactly kfold_evaluate's report for the same
    seed because the fold seeds and descriptors are shared.
    """
    canon_sets = []
    for cue_set in cue_sets:
        cues = tuple(c for c in CUE_NAMES if c in set(cue_set))
        unknown = set(cue_set) - set(CUE_NAMES)
        if unknown:
            raise InvalidConfig(f"unknown cue names {sorted(unknown)}; valid: {CUE_NAMES}")
        if not cues:
            raise InvalidConfig("empty cue set")
        _check_split_width("collective", cfg.stage2_forest, len(cue_columns(cues)),
                           f"cue set {cues}")
        canon_sets.append(cues)
    columns = [cue_columns(cues) for cues in canon_sets]

    def score(pipe, stage1, train_ids, test_ids, s2_seed):
        # one stage-one vote over both sides; votes are per row, so the
        # rows split as two calls would give them
        rows, x, labels = pipe.group_matrix(stage1, train_ids + test_ids)
        test = set(test_ids)
        n = sum(seq not in test for seq, _, _ in rows)
        x_train, train_labels, x_test, test_labels = x[:n], labels[:n], x[n:], labels[n:]
        runs = [
            pipe.train_stage2(x_train[:, cols], train_labels, s2_seed).predict_batch(
                x_test[:, cols]
            )
            for cols in columns
        ]
        return [lab.class_id for lab in test_labels], runs

    reports = _cross_validate(recordings, folds, cfg, _COLLECTIVE_CODES, score)
    return list(zip(canon_sets, reports))


def cross_dataset(
    train_recordings: Sequence[SceneRecording],
    test_recordings: Sequence[SceneRecording],
    cfg: PipelineConfig,
) -> EvalReport:
    """Train on one corpus, evaluate collective labels on another.

    Training sequences carrying any collective label in
    ``cfg.drop_labels`` are discarded entirely; a test label that the
    remaining training corpus never exhibits raises LabelCoverageError.
    """
    drop = set(cfg.drop_labels)
    kept_train = [
        rec
        for rec in train_recordings
        if not any(a.label in drop for a in rec.collective_annotations)
    ]
    if not kept_train:
        raise EmptyTrainingSet("every training sequence was dropped")
    class_names = tuple(l.code for l in CollectiveLabel if l not in drop)
    cols = cue_columns(cfg.cues)

    train_pipe = Pipeline(kept_train, cfg)
    s1_seed, s2_seed = fold_seeds(cfg.seed, 202)
    stage1 = train_pipe.train_stage1(train_pipe.seq_ids, s1_seed)
    _, x_train, train_labels = train_pipe.group_matrix(stage1, train_pipe.seq_ids)
    stage2 = train_pipe.train_stage2(x_train[:, cols], train_labels, s2_seed, class_names)

    test_pipe = Pipeline(test_recordings, cfg)
    _, x_test, test_labels = test_pipe.group_matrix(stage1, test_pipe.seq_ids)
    seen = set(train_labels)
    for lab in test_labels:
        if lab not in seen:
            raise LabelCoverageError(
                f"test label {lab.code} absent from the training corpus after drops"
            )
    truths = [class_names.index(lab.code) for lab in test_labels]
    return evaluate_predictions(truths, stage2.predict_batch(x_test[:, cols]), class_names)
