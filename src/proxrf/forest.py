"""Random forest over fixed-length real descriptors, written from scratch.

Bootstrap bagging, per-node random feature subsets, axis-aligned Gini
splits with midpoint thresholds, majority voting, impurity-based feature
importance, and a versioned JSON model format.  Everything is
deterministic for a fixed seed: per-tree streams are derived from
(seed, tree index), ties break toward the lowest class id, the lowest
feature index and the lowest threshold.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CorruptModel,
    EmptyTrainingSet,
    InvalidFeature,
    ShapeMismatch,
)

MODEL_VERSION = 1

# a split must beat this impurity decrease, so float dust never splits
_MIN_DECREASE = 1e-12


@dataclass(frozen=True, eq=False)
class LabeledSample:
    """One descriptor vector with its integer class id."""

    features: np.ndarray
    label: int


@dataclass(frozen=True)
class ForestConfig:
    """Ensemble size and tree-growing limits.

    ``max_depth`` None means unlimited; ``features_per_split`` None means
    ceil(sqrt(d)) resolved at training time.
    """

    n_trees: int = 100
    max_depth: Optional[int] = None
    min_samples_split: int = 2
    features_per_split: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1")


class _Tree:
    """Flat-array decision tree: preorder nodes, -1 marks leaves."""

    __slots__ = ("feature", "threshold", "left", "right", "counts", "leaf_class")

    def __init__(self, feature, threshold, left, right, counts):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.leaf_class = np.argmax(self.counts, axis=1)

    def leaf_indices(self, x_mat: np.ndarray) -> np.ndarray:
        idx = np.zeros(len(x_mat), dtype=np.int64)
        while True:
            rows = np.flatnonzero(self.feature[idx] >= 0)
            if len(rows) == 0:
                return idx
            at = idx[rows]
            go_left = x_mat[rows, self.feature[at]] <= self.threshold[at]
            idx[rows] = np.where(go_left, self.left[at], self.right[at])

    def votes(self, x_mat: np.ndarray) -> np.ndarray:
        return self.leaf_class[self.leaf_indices(x_mat)]

    def importance(self, d: int) -> np.ndarray:
        """Per-feature impurity decrease, weighted by node mass."""
        imp = np.zeros(d)
        total = self.counts[0].sum()
        n = self.counts.sum(axis=1).astype(float)
        gini = 1.0 - (self.counts**2).sum(axis=1) / np.maximum(n, 1) ** 2
        for i in np.flatnonzero(self.feature >= 0):
            l, r = self.left[i], self.right[i]
            drop = n[i] * gini[i] - n[l] * gini[l] - n[r] * gini[r]
            imp[self.feature[i]] += drop / total
        return imp


class RandomForest:
    """Immutable trained ensemble; build with train(), not directly."""

    def __init__(self, trees, config, feature_count, class_names):
        self.trees = tuple(trees)
        self.config = config
        self.feature_count = int(feature_count)
        self.class_names = tuple(str(c) for c in class_names)
        self.class_count = len(self.class_names)

    def _check(self, x_mat: np.ndarray) -> np.ndarray:
        x_mat = np.asarray(x_mat, dtype=float)
        if x_mat.ndim != 2 or x_mat.shape[1] != self.feature_count:
            raise ShapeMismatch(
                f"expected feature vectors of length {self.feature_count}, "
                f"got shape {x_mat.shape}"
            )
        return x_mat

    def vote_fractions(self, x_mat: np.ndarray) -> np.ndarray:
        """Fraction of trees voting each class, shape (n, class_count)."""
        x_mat = self._check(x_mat)
        frac = np.zeros((len(x_mat), self.class_count))
        rows = np.arange(len(x_mat))
        for tree in self.trees:
            frac[rows, tree.votes(x_mat)] += 1.0
        return frac / len(self.trees)

    def predict_batch(self, x_mat: np.ndarray) -> np.ndarray:
        """Majority-vote class ids; ties go to the lowest class id."""
        return np.argmax(self.vote_fractions(x_mat), axis=1)

    def predict(self, features) -> tuple:
        """(class id, per-class vote fractions) for one vector."""
        frac = self.vote_fractions(np.asarray(features, dtype=float)[None, :])[0]
        return int(np.argmax(frac)), frac

    def feature_importance(self) -> np.ndarray:
        """Mean impurity decrease per feature, normalized to sum 1.

        A forest with no internal node anywhere (all-constant features)
        reports a uniform vector.
        """
        imp = np.zeros(self.feature_count)
        for tree in self.trees:
            imp += tree.importance(self.feature_count)
        total = imp.sum()
        if total <= 0.0:
            return np.full(self.feature_count, 1.0 / self.feature_count)
        return imp / total


def best_split(x_mat, y, idx, feats, class_count, parent_counts):
    """Best (decrease, feature, threshold) over candidate features.

    Thresholds are midpoints of consecutive distinct sorted values.
    Features are scanned in ascending order with strict improvement, and
    within a feature the first best threshold wins, so ties resolve to
    the lowest feature index then the lowest threshold.
    """
    n = len(idx)
    gini_parent = 1.0 - ((parent_counts / n) ** 2).sum()
    y_node = y[idx]
    best = None
    for f in feats:
        v = x_mat[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        splits = np.flatnonzero(vs[1:] != vs[:-1]) + 1
        if len(splits) == 0:
            continue
        onehot = np.zeros((n, class_count))
        onehot[np.arange(n), y_node[order]] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        nl = splits.astype(float)
        nr = n - nl
        cl = prefix[splits - 1]
        cr = parent_counts - cl
        gl = 1.0 - (cl**2).sum(axis=1) / nl**2
        gr = 1.0 - (cr**2).sum(axis=1) / nr**2
        dec = gini_parent - (nl * gl + nr * gr) / n
        j = int(np.argmax(dec))
        if dec[j] > (best[0] if best is not None else _MIN_DECREASE):
            thr = 0.5 * (vs[splits[j] - 1] + vs[splits[j]])
            best = (float(dec[j]), int(f), float(thr))
    return best


def _grow_tree(x_mat, y, cfg, m_feats, class_count, tree_idx):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, tree_idx]))
    n, d = x_mat.shape
    boot = rng.integers(0, n, size=n)

    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node(node_counts):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(node_counts)
        return len(feature) - 1

    # (node id, member indices, depth); explicit stack, left child first
    root_counts = np.bincount(y[boot], minlength=class_count)
    stack = [(new_node(root_counts), boot, 0)]
    while stack:
        node, idx, depth = stack.pop()
        node_counts = counts[node]
        if (
            len(idx) < cfg.min_samples_split
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
            or np.count_nonzero(node_counts) <= 1
        ):
            continue
        feats = np.sort(rng.choice(d, size=m_feats, replace=False))
        found = best_split(x_mat, y, idx, feats, class_count, node_counts)
        if found is None and m_feats < d:
            # every drawn feature was constant here; fall back to a full
            # deterministic scan before giving up on the node
            found = best_split(x_mat, y, idx, np.arange(d), class_count, node_counts)
        if found is None:
            continue
        _, f, thr = found
        mask = x_mat[idx, f] <= thr
        l_idx, r_idx = idx[mask], idx[~mask]
        feature[node] = f
        threshold[node] = thr
        l_node = new_node(np.bincount(y[l_idx], minlength=class_count))
        r_node = new_node(np.bincount(y[r_idx], minlength=class_count))
        left[node] = l_node
        right[node] = r_node
        stack.append((r_node, r_idx, depth + 1))
        stack.append((l_node, l_idx, depth + 1))
    return _Tree(feature, threshold, left, right, np.array(counts))


def train(
    samples: Sequence[LabeledSample],
    cfg: ForestConfig,
    class_names: Optional[Sequence[str]] = None,
    threads: int = 1,
) -> RandomForest:
    """Fit a forest on labeled descriptors.

    ``class_names`` fixes the class-id domain (ids index into it); by
    default ids 0..max(label) are used.  ``threads`` > 1 grows trees in a
    pool; results are identical regardless of scheduling because each
    tree's randomness depends only on (seed, tree index).
    """
    if len(samples) == 0:
        raise EmptyTrainingSet("no training samples")
    d = len(samples[0].features)
    for s in samples:
        if len(s.features) != d:
            raise ShapeMismatch(f"feature length {len(s.features)} != {d}")
    x_mat = np.array([s.features for s in samples], dtype=float)
    if not np.all(np.isfinite(x_mat)):
        raise InvalidFeature("non-finite feature value in training set")
    y = np.array([s.label for s in samples], dtype=np.int64)
    if np.any(y < 0):
        raise InvalidFeature("negative class id")
    if class_names is None:
        class_names = [str(i) for i in range(int(y.max()) + 1)]
    class_count = len(class_names)
    if int(y.max()) >= class_count:
        raise InvalidFeature(f"class id {int(y.max())} outside {class_count} classes")

    m_feats = cfg.features_per_split
    if m_feats is None:
        m_feats = math.isqrt(d)
        if m_feats * m_feats < d:
            m_feats += 1
    if not 1 <= m_feats <= d:
        raise ValueError(f"features_per_split {m_feats} outside 1..{d}")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(
                pool.map(
                    lambda i: _grow_tree(x_mat, y, cfg, m_feats, class_count, i),
                    range(cfg.n_trees),
                )
            )
    else:
        trees = [_grow_tree(x_mat, y, cfg, m_feats, class_count, i) for i in range(cfg.n_trees)]
    return RandomForest(trees, cfg, d, class_names)


def _node_to_json(tree: _Tree, node: int):
    if tree.feature[node] < 0:
        return {"counts": tree.counts[node].tolist()}
    return {
        "feature": int(tree.feature[node]),
        "threshold": float(tree.threshold[node]),
        "left": _node_to_json(tree, int(tree.left[node])),
        "right": _node_to_json(tree, int(tree.right[node])),
    }


def serialize(model: RandomForest) -> bytes:
    """Versioned JSON document; byte-identical for identical models."""
    doc = {
        "version": MODEL_VERSION,
        "class_names": list(model.class_names),
        "feature_count": model.feature_count,
        "config": asdict(model.config),
        "trees": [_node_to_json(t, 0) for t in model.trees],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _node_from_json(rec, class_count, feature_count, feature, threshold, left, right, counts):
    """Rebuild flat arrays; returns (node id, count vector)."""
    if not isinstance(rec, dict):
        raise CorruptModel(f"node record must be an object, got {type(rec).__name__}")
    node = len(feature)
    feature.append(-1)
    threshold.append(0.0)
    left.append(-1)
    right.append(-1)
    counts.append(None)
    if "counts" in rec:
        c = rec["counts"]
        if (
            not isinstance(c, list)
            or len(c) != class_count
            or any(not isinstance(v, int) or v < 0 for v in c)
        ):
            raise CorruptModel(f"bad leaf counts {c!r}")
        counts[node] = np.array(c, dtype=np.int64)
        return node, counts[node]
    try:
        f = rec["feature"]
        thr = rec["threshold"]
        l_rec = rec["left"]
        r_rec = rec["right"]
    except KeyError as e:
        raise CorruptModel(f"node record missing field {e}") from None
    if not isinstance(f, int) or not 0 <= f < feature_count:
        raise CorruptModel(f"feature index {f!r} outside 0..{feature_count - 1}")
    if not isinstance(thr, (int, float)) or not math.isfinite(thr):
        raise CorruptModel(f"non-finite threshold {thr!r}")
    l_node, l_counts = _node_from_json(
        l_rec, class_count, feature_count, feature, threshold, left, right, counts
    )
    r_node, r_counts = _node_from_json(
        r_rec, class_count, feature_count, feature, threshold, left, right, counts
    )
    feature[node] = f
    threshold[node] = float(thr)
    left[node] = l_node
    right[node] = r_node
    # internal counts are not stored; they are the sum of the children
    counts[node] = l_counts + r_counts
    return node, counts[node]


def deserialize(blob: bytes) -> RandomForest:
    """Inverse of serialize; malformed input raises CorruptModel."""
    try:
        doc = json.loads(blob)
    except (ValueError, UnicodeDecodeError, RecursionError) as e:
        raise CorruptModel(f"not a valid model document: {e}") from None
    if not isinstance(doc, dict):
        raise CorruptModel("model document must be a JSON object")
    version = doc.get("version")
    if version != MODEL_VERSION:
        raise CorruptModel(f"unsupported model version {version!r}, expected {MODEL_VERSION}")
    try:
        class_names = doc["class_names"]
        feature_count = doc["feature_count"]
        config_doc = doc["config"]
        tree_docs = doc["trees"]
    except KeyError as e:
        raise CorruptModel(f"model document missing field {e}") from None
    if not isinstance(class_names, list) or not class_names:
        raise CorruptModel("class_names must be a non-empty list")
    if not isinstance(feature_count, int) or feature_count < 1:
        raise CorruptModel(f"bad feature_count {feature_count!r}")
    if not isinstance(tree_docs, list) or not tree_docs:
        raise CorruptModel("trees must be a non-empty list")
    try:
        cfg = ForestConfig(**config_doc)
    except (TypeError, ValueError) as e:
        raise CorruptModel(f"bad config: {e}") from None
    trees = []
    for rec in tree_docs:
        feature, threshold, left, right, counts = [], [], [], [], []
        _node_from_json(
            rec, len(class_names), feature_count, feature, threshold, left, right, counts
        )
        trees.append(_Tree(feature, threshold, left, right, np.array(counts)))
    return RandomForest(trees, cfg, feature_count, class_names)
