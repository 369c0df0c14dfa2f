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
from dataclasses import dataclass, asdict
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CorruptModel,
    EmptyTrainingSet,
    InvalidFeature,
    ShapeMismatch,
)

MODEL_VERSION = 2

# rows that vote_fractions steps through the node table together
_VOTE_BLOCK = 128

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


class RandomForest:
    """Immutable trained ensemble held as one node table for all trees;
    build it with train() or deserialize(), not directly.

    Node arrays are indexed by global node id.  ``trees`` holds each
    tree's root id, starting at 0 and increasing; a tree owns the nodes
    from its root up to the next tree's root.  Training puts the root
    first and appends both children of a node together (left, then
    right) when it splits the node, so every child id is greater than its
    parent's and inside its tree; deserialize() checks exactly that, so
    every walk from a root ends at a leaf of the same tree.
    ``feature`` is -1 at leaves; ``counts`` holds the bootstrap class
    counts at leaves (``leaf_counts`` in node order) and zeros at
    internal nodes.
    """

    def __init__(self, roots, feature, threshold, left, right, leaf_counts, config,
                 feature_count, class_names):
        self.trees = np.asarray(roots, dtype=np.int64)
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.config = config
        self.feature_count = int(feature_count)
        self.class_names = tuple(str(c) for c in class_names)
        self.class_count = len(self.class_names)
        self.counts = np.zeros((len(self.feature), self.class_count), dtype=np.int64)
        self.counts[self.feature < 0] = leaf_counts
        self.leaf_class = np.argmax(self.counts, axis=1)

    def _check(self, x_mat: np.ndarray) -> np.ndarray:
        x_mat = np.asarray(x_mat, dtype=float)
        if x_mat.ndim != 2 or x_mat.shape[1] != self.feature_count:
            raise ShapeMismatch(
                f"expected feature vectors of length {self.feature_count}, "
                f"got shape {x_mat.shape}"
            )
        return x_mat

    def vote_fractions(self, x_mat: np.ndarray) -> np.ndarray:
        """Fraction of trees voting each class, shape (n, class_count).

        Every (row, tree) pair of a block of rows steps through the node
        table at once, and the block's votes are counted before the next
        block starts, so the working arrays stay O(_VOTE_BLOCK x trees)
        whatever the number of rows.
        """
        x_mat = self._check(x_mat)
        n, n_trees, k = len(x_mat), len(self.trees), self.class_count
        votes = np.empty((n, k), dtype=np.int64)
        for start in range(0, n, _VOTE_BLOCK):
            block = x_mat[start:start + _VOTE_BLOCK]
            b = len(block)
            node = np.tile(self.trees, b)
            row = np.repeat(np.arange(b), n_trees)
            live = np.arange(len(node))
            while len(live):
                at = node[live]
                f = self.feature[at]
                inner = f >= 0
                live, at, f = live[inner], at[inner], f[inner]
                go_left = block[row[live], f] <= self.threshold[at]
                node[live] = np.where(go_left, self.left[at], self.right[at])
            slots = self.leaf_class[node] + k * row
            votes[start:start + b] = np.bincount(slots, minlength=b * k).reshape(b, k)
        return votes / n_trees

    def predict_batch(self, x_mat: np.ndarray) -> np.ndarray:
        """Majority-vote class ids; ties go to the lowest class id."""
        return np.argmax(self.vote_fractions(x_mat), axis=1)

    def predict(self, features) -> tuple:
        """(class id, per-class vote fractions) for one vector."""
        frac = self.vote_fractions(np.asarray(features, dtype=float)[None, :])[0]
        return int(np.argmax(frac)), frac

    def feature_importance(self) -> np.ndarray:
        """Mean impurity decrease per feature, normalized to sum 1.

        Each split's decrease is weighted by its node's share of its
        tree's bootstrap sample.  A forest with no internal node anywhere
        (all-constant features) reports a uniform vector.
        """
        inner = np.flatnonzero(self.feature >= 0)
        counts = self.counts.astype(float)
        for i in inner[::-1]:  # children come after their parent
            counts[i] = counts[self.left[i]] + counts[self.right[i]]
        n = counts.sum(axis=1)
        gini = 1.0 - (counts**2).sum(axis=1) / np.maximum(n, 1.0) ** 2
        mass = n * gini
        drop = mass[inner] - mass[self.left[inner]] - mass[self.right[inner]]
        tree_size = n[self.trees][np.searchsorted(self.trees, inner, side="right") - 1]
        imp = np.bincount(
            self.feature[inner], weights=drop / tree_size, minlength=self.feature_count
        )
        total = imp.sum()
        if total <= 0.0:
            return np.full(self.feature_count, 1.0 / self.feature_count)
        return imp / total


def rank_table(x_mat: np.ndarray) -> np.ndarray:
    """(features, rows) rank of each value among its column's distinct
    values, in the smallest signed integer type that holds the row count.

    Ranks are monotone in value and equal values (-0.0 and 0.0 included)
    share one, so a stable sort by rank orders members exactly as a
    stable sort by value; 8- and 16-bit keys make numpy's stable
    argsort a radix sort.
    """
    n, d = x_mat.shape
    ranks = np.empty((d, n), dtype=np.min_scalar_type(-n))
    for f in range(d):
        ranks[f] = np.unique(x_mat[:, f], return_inverse=True)[1]
    return ranks


def best_split(x_mat, ranks, y, idx, feats, parent_counts):
    """Best (decrease, feature, threshold) over candidate features.

    ``ranks`` is ``rank_table(x_mat)``; ``y`` holds integer class ids
    and ``parent_counts`` the class counts of the node's members ``idx``.
    Thresholds are midpoints of consecutive distinct sorted values.  All
    candidate features are scored in one pass over the node's rank
    block; the first feature (in ``feats`` order) reaching the largest
    decrease wins, and within it the first best threshold, so ties
    resolve to the lowest feature index then the lowest threshold.

    The sums of squared class counts on either side of each candidate
    are exact integers: a member that is the w-th of its class in value
    order adds 2w + 1 to the left sum and 2w + 1 - 2 P[class] to the
    right sum, which starts at sum(P**2) for the parent's counts P.
    They equal the float sums of squared counts (every term is an
    integer below 2**53), so every decrease is the same double as with
    one float count per class.
    """
    n = len(idx)
    if n < 2:
        return None
    block = ranks.take(feats, axis=0).take(idx, axis=1)
    order = block.argsort(axis=1, kind="stable")  # (features, n) members in value order
    rows = np.arange(0, block.size, n)[:, None]  # each row's start in block.ravel()
    labels = y.take(idx).take(order)
    # each member's index among the earlier members of its class: in class
    # order a class's members are its 0th, 1st, ... in value order, and put
    # cycles that one vector over every feature's row
    by_class = labels.argsort(axis=1, kind="stable")
    within = np.empty(block.shape, dtype=np.int64)
    first = np.cumsum(parent_counts) - parent_counts
    within.put(by_class + rows, np.arange(n) - np.repeat(first, parent_counts))
    steps = 2 * within + 1
    sq_left = steps.cumsum(axis=1)[:, :-1]
    sq_right = parent_counts @ parent_counts + (
        steps - (2 * parent_counts).take(labels)).cumsum(axis=1)[:, :-1]
    nl = np.arange(1.0, n)
    nr = n - nl
    gl = 1.0 - sq_left / nl**2
    gr = 1.0 - sq_right / nr**2
    gini_parent = 1.0 - ((parent_counts / n) ** 2).sum()
    dec = gini_parent - (nl * gl + nr * gr) / n
    sorted_ranks = block.take(order + rows)
    dec[sorted_ranks[:, 1:] == sorted_ranks[:, :-1]] = -np.inf
    row_best = np.maximum.reduce(dec, axis=1)
    k = int(row_best.argmax())
    if not row_best[k] > _MIN_DECREASE:
        return None
    j = int(dec[k].argmax())
    f = int(feats[k])
    lo, hi = x_mat[idx[order[k, j:j + 2]], f]
    return float(dec[k, j]), f, float(0.5 * (lo + hi))


def _grow_tree(x_mat, ranks, y, cfg, m_feats, class_count, tree_idx):
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
        found = best_split(x_mat, ranks, y, idx, feats, node_counts)
        if found is None and m_feats < d:
            # every drawn feature was constant here; fall back to a full
            # deterministic scan before giving up on the node
            found = best_split(x_mat, ranks, y, idx, np.arange(d), node_counts)
        if found is None:
            continue
        _, f, thr = found
        mask = x_mat[idx, f] <= thr
        l_idx, r_idx = idx[mask], idx[~mask]
        feature[node] = f
        threshold[node] = thr
        l_counts = np.bincount(y[l_idx], minlength=class_count)
        l_node = new_node(l_counts)
        r_node = new_node(node_counts - l_counts)
        left[node] = l_node
        right[node] = r_node
        stack.append((r_node, r_idx, depth + 1))
        stack.append((l_node, l_idx, depth + 1))
    return feature, threshold, left, right, counts


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

    # small label and rank types, shared read-only by every tree
    labels = y.astype(np.min_scalar_type(-class_count))
    grow = partial(_grow_tree, x_mat, rank_table(x_mat), labels, cfg, m_feats, class_count)
    if threads > 1:
        # imported here: concurrent.futures costs every CLI start ~15 ms
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(grow, range(cfg.n_trees)))
    else:
        trees = [grow(i) for i in range(cfg.n_trees)]
    # one node table: each tree's node ids shift by the nodes before it
    sizes = [len(t[0]) for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, left, right, counts = (np.concatenate(col) for col in zip(*trees))
    offset = np.repeat(roots, sizes)
    left = np.where(left >= 0, left + offset, -1)
    right = np.where(right >= 0, right + offset, -1)
    leaf_counts = counts[feature < 0]
    return RandomForest(roots, feature, threshold, left, right, leaf_counts, cfg, d, class_names)


def serialize(model: RandomForest) -> bytes:
    """Versioned JSON document of the node table; byte-identical for
    identical models.  Leaf counts are listed in node order."""
    doc = {
        "version": MODEL_VERSION,
        "class_names": list(model.class_names),
        "feature_count": model.feature_count,
        "config": asdict(model.config),
        "roots": model.trees.tolist(),
        "feature": model.feature.tolist(),
        "threshold": model.threshold.tolist(),
        "left": model.left.tolist(),
        "right": model.right.tolist(),
        "leaf_counts": model.counts[model.feature < 0].tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _array(doc: dict, key: str, kinds: str, ndim: int = 1) -> np.ndarray:
    """doc[key] as a non-empty ``ndim``-d array of a dtype kind in ``kinds``."""
    try:
        arr = np.array(doc[key])
    except ValueError:  # ragged nesting
        raise CorruptModel(f"{key} is not a regular array") from None
    if arr.dtype.kind not in kinds or arr.ndim != ndim or arr.size == 0:
        what = "integers" if kinds == "i" else "numbers"
        raise CorruptModel(f"{key} must be a non-empty {ndim}-d array of {what}")
    return arr


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
        roots, feature, left, right = (
            _array(doc, key, "i") for key in ("roots", "feature", "left", "right")
        )
        threshold = _array(doc, "threshold", "if").astype(float)
        leaf_counts = _array(doc, "leaf_counts", "i", ndim=2)
    except KeyError as e:
        raise CorruptModel(f"model document missing field {e}") from None
    if not isinstance(class_names, list) or not class_names:
        raise CorruptModel("class_names must be a non-empty list")
    if not isinstance(feature_count, int) or feature_count < 1:
        raise CorruptModel(f"bad feature_count {feature_count!r}")
    try:
        cfg = ForestConfig(**config_doc)
    except (TypeError, ValueError) as e:
        raise CorruptModel(f"bad config: {e}") from None
    n = len(feature)
    if not len(threshold) == len(left) == len(right) == n:
        raise CorruptModel("feature, threshold, left and right differ in length")
    if roots[0] != 0 or np.any(np.diff(roots) <= 0) or roots[-1] >= n:
        raise CorruptModel("roots must start at 0 and increase inside the node table")
    if np.any((feature < -1) | (feature >= feature_count)):
        raise CorruptModel(f"feature index outside -1..{feature_count - 1}")
    inner = np.flatnonzero(feature >= 0)
    if not np.all(np.isfinite(threshold[inner])):
        raise CorruptModel("non-finite threshold at an internal node")
    tree_end = np.append(roots[1:], n)[np.searchsorted(roots, inner, side="right") - 1]
    for child in (left[inner], right[inner]):
        if np.any((child <= inner) | (child >= tree_end)):
            raise CorruptModel("child index not after its parent inside its tree")
    shape = (n - len(inner), len(class_names))
    if leaf_counts.shape != shape or np.any(leaf_counts < 0):
        raise CorruptModel(f"leaf_counts must be {shape[0]} rows of {shape[1]} counts >= 0")
    return RandomForest(roots, feature, threshold, left, right, leaf_counts, cfg, feature_count,
                        class_names)
