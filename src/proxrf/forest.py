"""Random forest over fixed-length real descriptors, written from scratch.

Bootstrap bagging, per-node random feature subsets, axis-aligned Gini
splits with midpoint thresholds, majority voting and a versioned JSON
model format that stores no node-table field a loader can derive.
Everything is deterministic for a fixed seed: every draw is keyed (see
keyed) by the seed, the tree index and, for a node's features, the
node's id in its tree, and ties break toward the lowest class id, the
lowest feature index and the lowest threshold.  All trees of a forest
grow together, one node of each tree per step, and every step's nodes
are scored in one batched split search.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import keyed
from .errors import (
    CorruptModel,
    EmptyTrainingSet,
    InvalidConfig,
    InvalidFeature,
    ShapeMismatch,
)

MODEL_VERSION = 4

# rows that vote_fractions steps through the node table together
_VOTE_BLOCK = 128

# a split must beat this impurity decrease, so float dust never splits
_MIN_DECREASE = 1e-12

# members that best_splits scores in one pass, so its working arrays
# stay in cache
_SEARCH_BLOCK = 2048

# a pass holds fewer than this many (node, row) slots, so its (node,
# rank) sort keys fit int16 and numpy's stable argsort stays a radix sort
_KEY_BOUND = 2**15


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
    first and gives both children of a node the tree's next two ids
    (left, then right) when it splits the node, so a node's right child
    is ``left + 1``, and both children's ids are greater than their
    parent's and inside its tree.  Each tree pops its nodes from a
    depth-first stack, left child on top, so ``feature`` alone fixes
    ``trees`` and ``left``: serialize() stores neither, and deserialize()
    derives both by replaying that allocation.
    ``feature`` is -1 at leaves; ``threshold`` is 0.0 there; ``counts``
    holds the bootstrap class counts at leaves (``leaf_counts`` in node
    order) and zeros at internal nodes.  ``provenance`` is a JSON object
    that serialize() writes and deserialize() reads back; the forest
    never reads it, and it is the one attribute a caller may set (the
    CLI records there what a model was trained on).
    """

    def __init__(self, roots, feature, threshold, left, leaf_counts, config, feature_count,
                 class_names, provenance=None):
        self.trees = np.asarray(roots, dtype=np.int64)
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.config = config
        self.feature_count = int(feature_count)
        self.class_names = tuple(str(c) for c in class_names)
        self.class_count = len(self.class_names)
        self.counts = np.zeros((len(self.feature), self.class_count), dtype=np.int64)
        self.counts[self.feature < 0] = leaf_counts
        self.leaf_class = np.argmax(self.counts, axis=1)
        self.provenance = {} if provenance is None else provenance

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
                node[live] = self.left[at] + ~go_left
            slots = self.leaf_class[node] + k * row
            votes[start:start + b] = np.bincount(slots, minlength=b * k).reshape(b, k)
        return votes / n_trees

    def predict_batch(self, x_mat: np.ndarray) -> np.ndarray:
        """Majority-vote class ids; ties go to the lowest class id."""
        return np.argmax(self.vote_fractions(x_mat), axis=1)


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


def _chunks(sizes, n_rows):
    """(start, stop) ranges of consecutive nodes that best_splits scores
    in one pass: each holds at most _SEARCH_BLOCK members, and its node
    count times n_rows stays below _KEY_BOUND, except that a node alone
    in its range may exceed either bound."""
    max_nodes = max(1, (_KEY_BOUND - 1) // n_rows)
    start, members = 0, 0
    for i, size in enumerate(sizes):
        if i > start and (members + size > _SEARCH_BLOCK or i - start == max_nodes):
            yield start, i
            start, members = i, 0
        members += size
    yield start, len(sizes)


def _search_chunk(x_mat, ranks, y, idx, sizes, feats, parent):
    """best_splits over one chunk: ``idx`` holds every node's members one
    node after another, ``sizes`` their counts."""
    n_nodes, m = feats.shape
    n_rows, class_count = ranks.shape[1], parent.shape[1]
    total = len(idx)
    cols = np.arange(total)
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(n_nodes), sizes)  # each column's node
    # (node, rank) keys of each member at each drawn feature of its node;
    # a stable sort of them keeps every node in its own columns, with its
    # members in the order a stable sort of the node alone gives
    block = ranks.take(feats.T.take(seg, axis=1) * n_rows + idx)
    key = block + (seg * n_rows).astype(np.min_scalar_type(-n_nodes * n_rows))
    order = key.argsort(axis=1, kind="stable")  # (features, members) in value order
    rows = np.arange(0, key.size, total)[:, None]  # each row's start in key.ravel()
    # (node, class) of each sorted member; in that order a node's class
    # has its 0th, 1st, ... member in value order, so one vector gives
    # every member's index among the earlier members of its class
    node_class = y.take(idx).take(order) + (seg * class_count).astype(
        np.min_scalar_type(-n_nodes * class_count))
    by_class = node_class.argsort(axis=1, kind="stable")
    counts = parent.ravel()
    first = np.cumsum(counts) - counts
    within = np.empty(key.shape, dtype=np.int64)
    within.put(by_class + rows, cols - np.repeat(first, counts))
    steps = 2 * within + 1
    # a node's steps add up to sum(P**2) in every row, and its right steps
    # to -sum(P**2), so one running sum per row serves all nodes once the
    # sums of the nodes before each node are taken off
    sq_parent = (parent * parent).sum(axis=1)
    before = np.cumsum(sq_parent) - sq_parent
    sq_left = steps.cumsum(axis=1)
    sq_left -= before.take(seg)
    steps -= (2 * counts).take(node_class)
    sq_right = steps.cumsum(axis=1)
    sq_right += (sq_parent + before).take(seg)
    n = sizes.take(seg).astype(float)
    nl = cols - starts.take(seg) + 1.0
    # a node's last column is no candidate: its right side is held at one
    # member so the division stays finite, and it is masked below
    nr = np.maximum(n - nl, 1.0)
    gl = 1.0 - sq_left / nl**2
    gr = 1.0 - sq_right / nr**2
    gini_parent = 1.0 - ((parent / sizes[:, None]) ** 2).sum(axis=1)
    dec = gini_parent.take(seg) - (nl * gl + nr * gr) / n
    sorted_key = key.take(order + rows)
    no_cut = np.empty(key.shape, dtype=bool)
    np.equal(sorted_key[:, 1:], sorted_key[:, :-1], out=no_cut[:, :-1])
    no_cut[:, starts + sizes - 1] = True
    dec[no_cut] = -np.inf
    # first feature reaching each node's largest decrease, then the first
    # column reaching it in that feature's row
    node_best = np.maximum.reduceat(dec, starts, axis=1)
    k = node_best.argmax(axis=0)
    best = node_best[k, np.arange(n_nodes)]
    at_best = dec[k.take(seg), cols] == best.take(seg)
    j = np.minimum.reduceat(np.where(at_best, cols, total), starts)
    found = best > _MIN_DECREASE
    feature = np.where(found, feats[np.arange(n_nodes), k], -1)
    k, j, f = k[found], j[found], feature[found]
    threshold = np.zeros(n_nodes)
    threshold[found] = 0.5 * (x_mat[idx.take(order[k, j]), f] + x_mat[idx.take(order[k, j + 1]), f])
    return best, feature, threshold


def best_splits(x_mat, ranks, y, members, feats, parent_counts):
    """Best (decrease, feature, threshold) of each node of a batch, as
    three arrays; feature -1 where no candidate splits the node.

    ``ranks`` is ``rank_table(x_mat)`` and ``y`` holds integer class
    ids.  Node i has the members ``members[i]`` (row indices, at least
    one), the candidate features ``feats[i]`` (a row of an (nodes, m)
    array) and the class counts ``parent_counts[i]`` of its members.
    Thresholds are midpoints of consecutive distinct sorted values.  The
    first candidate feature reaching a node's largest decrease wins, and
    within it the first best threshold, so ties resolve to the lowest
    feature index then the lowest threshold.  A decrease must exceed
    _MIN_DECREASE.

    Nodes are scored in chunks of consecutive nodes (see _chunks), each
    in one pass over the ranks of its members at their nodes' features.
    The sums of squared class counts on either side of each candidate
    are exact integers: a member that is the w-th of its class in value
    order adds 2w + 1 to the left sum and 2w + 1 - 2 P[class] to the
    right sum, which starts at sum(P**2) for its node's counts P.  Each
    node's sums run over its own columns only, and every decrease is
    the same double as with one float count per class and one node at a
    time.
    """
    n_nodes = len(members)
    sizes = np.array([len(i) for i in members])
    decrease, feature = np.full(n_nodes, -np.inf), np.full(n_nodes, -1)
    threshold = np.zeros(n_nodes)
    for lo, hi in _chunks(sizes.tolist(), ranks.shape[1]):
        idx = np.concatenate(members[lo:hi])
        decrease[lo:hi], feature[lo:hi], threshold[lo:hi] = _search_chunk(
            x_mat, ranks, y, idx, sizes[lo:hi], feats[lo:hi], parent_counts[lo:hi])
    return decrease, feature, threshold


def _may_split(counts, depth, cfg):
    """Which nodes, with these class counts at these depths, are big
    enough, shallow enough and mixed enough to try a split."""
    ok = (counts.sum(axis=1) >= cfg.min_samples_split) & (np.count_nonzero(counts, axis=1) > 1)
    if cfg.max_depth is not None:
        ok &= depth < cfg.max_depth
    return ok.tolist()


# keys that bootstrap hashes in one keyed.uniform call, so its working
# arrays stay at a few hundred kB however many trees and rows it draws
_BOOTSTRAP_KEYS = 2**16


def bootstrap(seed: int, trees, n: int) -> np.ndarray:
    """(trees, n) bootstrap samples of ``n`` row indices, one row per
    tree id of ``trees``, in the smallest signed integer type that holds
    ``n``: draw i of tree t is floor(n u) for the uniform u of the key
    (seed, t, i).  The key block is drawn in chunks of at most
    _BOOTSTRAP_KEYS keys: whole trees when a tree has no more keys than
    that, else runs of one tree's draws."""
    trees = np.asarray(trees, dtype=np.int64).reshape(-1)
    boots = np.empty((len(trees), n), dtype=np.min_scalar_type(-n))
    per_chunk = max(1, _BOOTSTRAP_KEYS // max(n, 1))
    width = min(n, _BOOTSTRAP_KEYS)
    for t in range(0, len(trees), per_chunk):
        for i in range(0, n, width):
            u = keyed.uniform(keyed.BOOTSTRAP, seed, trees[t:t + per_chunk, None],
                              np.arange(i, min(i + width, n)))
            boots[t:t + per_chunk, i:i + width] = u * n
    return boots


def feature_draws(seed: int, trees, nodes, d: int, m: int) -> np.ndarray:
    """Sorted candidate features of each node, as a (nodes, m) array: the
    m features of smallest hash of the key (seed, tree, node id,
    feature), a uniform m-subset of the d features, drawn for every node
    by one argpartition."""
    h = keyed.key_hash(keyed.FEATURES, seed, np.asarray(trees)[:, None],
                       np.asarray(nodes)[:, None], np.arange(d))
    return np.sort(h.argpartition(m - 1, axis=1)[:, :m], axis=1)


def _grow_trees(x_mat, ranks, y, cfg, m_feats, class_count, tree_ids):
    """Grow the trees ``tree_ids`` in lockstep into one node table:
    (roots, feature, threshold, left, counts), node ids from 0.  A
    right child's id is its left sibling's plus one.

    Each tree has a depth-first stack of its nodes that may split, as
    (node id, members, depth, class counts), left child on top.  Every
    step pops the top node of each unfinished tree, draws the feature
    subsets of all popped nodes at once (feature_draws), and scores them
    in one best_splits call; a split node's children take the tree's
    next two ids, left then right.  So each tree numbers the same nodes
    in the same order as when grown alone, node by node, and its draws,
    keyed by (seed, tree, node id), stay a function of (seed, tree).
    The step's split nodes route their members with one comparison, and
    one bincount gives the left children's class counts.
    """
    n, d = x_mat.shape
    tree_ids = np.asarray(tree_ids)
    # every tree's bootstrap from one bounded key block; every tree's
    # pending members are held at once, so they take the rank table's
    # small integer type, which bootstrap gives
    boots = bootstrap(cfg.seed, tree_ids, n)
    root_counts = np.array([np.bincount(y[boot], minlength=class_count) for boot in boots])
    stacks = [[(0, boot, 0, c)] if ok else []
              for boot, c, ok in zip(boots, root_counts, _may_split(root_counts, 0, cfg))]
    tree_size = np.ones(len(tree_ids), dtype=np.int64)
    # per step: split nodes' (tree, node id, feature, threshold, left child
    # id) and their children's class counts
    steps = []
    growing = [t for t, stack in enumerate(stacks) if stack]
    while growing:
        popped = [stacks[t].pop() for t in growing]
        members = [p[1] for p in popped]
        feats = feature_draws(cfg.seed, tree_ids[growing], [p[0] for p in popped], d, m_feats)
        parent = np.array([p[3] for p in popped])
        _, feature, threshold = best_splits(x_mat, ranks, y, members, feats, parent)
        retry = np.flatnonzero(feature < 0) if m_feats < d else ()
        if len(retry):
            # every drawn feature was constant at these nodes; fall back
            # to a full deterministic scan before giving up on them
            _, feature[retry], threshold[retry] = best_splits(
                x_mat, ranks, y, [members[i] for i in retry],
                np.tile(np.arange(d), (len(retry), 1)), parent[retry])
        split = np.flatnonzero(feature >= 0)
        if len(split):
            split_list = split.tolist()
            tree = np.array(growing).take(split)
            node = np.array([popped[i][0] for i in split_list])
            depth = np.array([popped[i][2] for i in split_list]) + 1
            left = tree_size[tree]
            tree_size[tree] += 2
            f, thr = feature[split], threshold[split]
            idx = np.concatenate([members[i] for i in split_list])
            sizes = [len(members[i]) for i in split_list]
            seg = np.repeat(np.arange(len(split)), sizes)
            go_left = x_mat[idx, f.take(seg)] <= thr.take(seg)
            l_counts = np.bincount((seg * class_count + y.take(idx))[go_left],
                                   minlength=len(split) * class_count).reshape(-1, class_count)
            r_counts = parent[split] - l_counts
            steps.append((tree, node, f, thr, left, l_counts, r_counts))
            starts = np.cumsum(sizes) - sizes
            rows = zip(split_list, tree.tolist(), left.tolist(), depth.tolist(), starts.tolist(),
                       sizes, _may_split(l_counts, depth, cfg), _may_split(r_counts, depth, cfg))
            for s, (i, t, l_node, child_depth, start, size, l_ok, r_ok) in enumerate(rows):
                side = go_left[start:start + size]
                if r_ok:
                    stacks[t].append((l_node + 1, members[i][~side], child_depth, r_counts[s]))
                if l_ok:
                    stacks[t].append((l_node, members[i][side], child_depth, l_counts[s]))
        growing = [t for t in growing if stacks[t]]

    # one node table: each tree's node ids shift by the nodes before it
    roots = np.cumsum(tree_size) - tree_size
    total = int(tree_size.sum())
    feature, left = np.full(total, -1), np.full(total, -1)
    threshold = np.zeros(total)
    counts = np.empty((total, class_count), dtype=np.int64)
    counts[roots] = root_counts
    for tree, node, f, thr, l_node, l_counts, r_counts in steps:
        node = roots[tree] + node
        l_node = roots[tree] + l_node
        feature[node], threshold[node], left[node] = f, thr, l_node
        counts[l_node], counts[l_node + 1] = l_counts, r_counts
    return roots, feature, threshold, left, counts


def _join(parts):
    """One node table from the tables _grow_trees made for consecutive
    ranges of trees: each part's node ids shift by the nodes of the
    parts before it."""
    shift = np.cumsum([0] + [len(part[1]) for part in parts[:-1]])
    roots, feature, threshold, left, counts = zip(*parts)
    return (
        np.concatenate([r + s for r, s in zip(roots, shift)]),
        np.concatenate(feature),
        np.concatenate(threshold),
        np.concatenate([np.where(l >= 0, l + s, -1) for l, s in zip(left, shift)]),
        np.concatenate(counts),
    )


def train(
    x,
    y,
    cfg: ForestConfig,
    class_names: Optional[Sequence[str]] = None,
    threads: int = 1,
) -> RandomForest:
    """Fit a forest on descriptors ``x`` (rows, features) with integer
    class ids ``y``, one per row.

    ``class_names`` fixes the class-id domain (ids index into it); by
    default ids 0..max(y) are used.  All trees grow in lockstep
    (see _grow_trees); ``threads`` > 1 splits them into that many
    contiguous ranges, each grown by one worker of a pool.  Results are
    identical regardless of scheduling because each tree's randomness
    depends only on (seed, tree index).  Any integer seed works, taken
    modulo 2**64.
    """
    try:
        x_mat = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ShapeMismatch("features must be a (rows, features) matrix of numbers") from None
    if x_mat.ndim and not len(x_mat):
        raise EmptyTrainingSet("no training samples")
    if x_mat.ndim != 2:
        raise ShapeMismatch(f"features must be a (rows, features) matrix, got shape {x_mat.shape}")
    y = np.asarray(y)
    if y.shape != (len(x_mat),):
        raise ShapeMismatch(f"{len(x_mat)} feature rows but labels of shape {y.shape}")
    if y.dtype.kind not in "iu":
        raise InvalidFeature(f"class ids must be integers, got {y.dtype}")
    if not np.all(np.isfinite(x_mat)):
        raise InvalidFeature("non-finite feature value in training set")
    if np.any(y < 0):
        raise InvalidFeature("negative class id")
    d = x_mat.shape[1]
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
        raise InvalidConfig(f"features_per_split {m_feats} outside 1..{d}")

    # small label and rank types, shared read-only by every tree
    labels = y.astype(np.min_scalar_type(-class_count))
    grow = partial(_grow_trees, x_mat, rank_table(x_mat), labels, cfg, m_feats, class_count)
    if threads > 1:
        # imported here: concurrent.futures costs every CLI start ~15 ms
        from concurrent.futures import ThreadPoolExecutor

        # each worker grows a contiguous range of trees in lockstep
        bounds = [cfg.n_trees * w // threads for w in range(threads + 1)]
        ranges = [range(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(grow, ranges))
        roots, feature, threshold, left, counts = _join(parts)
    else:
        roots, feature, threshold, left, counts = grow(range(cfg.n_trees))
    leaf_counts = counts[feature < 0]
    return RandomForest(roots, feature, threshold, left, leaf_counts, cfg, d, class_names)


def serialize(model: RandomForest) -> bytes:
    """Versioned JSON document of the node table; byte-identical for
    identical models.  It stores ``feature`` for every node, ``threshold``
    for internal nodes only and ``leaf_counts`` as one flat row-major
    list of the leaves' class counts in node order; deserialize()
    derives the rest."""
    leaf = model.feature < 0
    doc = {
        "version": MODEL_VERSION,
        "class_names": list(model.class_names),
        "feature_count": model.feature_count,
        "config": asdict(model.config),
        "feature": model.feature.tolist(),
        "threshold": model.threshold[~leaf].tolist(),
        "leaf_counts": model.counts[leaf].ravel().tolist(),
        "provenance": model.provenance,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _array(doc: dict, key: str, kinds: str) -> np.ndarray:
    """doc[key] as a 1-d array, empty or of a dtype kind in ``kinds``."""
    try:
        arr = np.array(doc[key])
    except ValueError:  # ragged nesting
        raise CorruptModel(f"{key} is not a regular array") from None
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in kinds):
        what = "integers" if kinds == "i" else "numbers"
        raise CorruptModel(f"{key} must be a 1-d array of {what}")
    return arr


def _config(doc) -> ForestConfig:
    """The ForestConfig of a model document's ``config`` object: every
    field present and a plain integer, or null where None is allowed."""
    names = [f.name for f in fields(ForestConfig)]
    if not isinstance(doc, dict) or sorted(doc) != sorted(names):
        raise CorruptModel(f"config must be an object of exactly {', '.join(names)}")
    for key, value in doc.items():
        nullable = key in ("max_depth", "features_per_split")
        if type(value) is not int and not (nullable and value is None):
            raise CorruptModel(f"config {key} must be an integer, got {value!r}")
    try:
        return ForestConfig(**doc)
    except ValueError as e:
        raise CorruptModel(f"bad config: {e}") from None


def _replay(feature: list, n_trees: int) -> tuple:
    """(roots, left) of the node table whose ``feature`` column this is.

    Training's allocation, replayed tree by tree: a tree's root takes the
    next free id; pop a node, and if it is internal give its children the
    next two ids and push the right child, then the left.  Training pops
    the same internal nodes in the same order, since a leaf it never
    pushes allocates nothing here either."""
    n, left, roots = len(feature), [-1] * len(feature), []
    free = 0
    for tree in range(n_trees):
        if free == n:
            raise CorruptModel(f"feature holds {tree} trees, but config n_trees is {n_trees}")
        roots.append(free)
        stack = [free]
        free += 1
        while stack:
            node = stack.pop()
            if feature[node] >= 0:
                if free + 2 > n:
                    raise CorruptModel(f"feature ends inside tree {tree}")
                left[node] = free
                stack += (free + 1, free)
                free += 2
    if free < n:
        raise CorruptModel(f"{n - free} nodes left over after the last of {n_trees} trees")
    return roots, left


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
        cfg = _config(doc["config"])
        provenance = doc["provenance"]
        feature = _array(doc, "feature", "i")
        threshold = _array(doc, "threshold", "if").astype(float)
        leaf_counts = _array(doc, "leaf_counts", "i")
    except KeyError as e:
        raise CorruptModel(f"model document missing field {e}") from None
    if not isinstance(class_names, list) or not class_names:
        raise CorruptModel("class_names must be a non-empty list")
    if not all(isinstance(c, str) for c in class_names):
        raise CorruptModel("class_names must hold strings only")
    if len(set(class_names)) != len(class_names):
        raise CorruptModel("class_names must not repeat a name")
    if type(feature_count) is not int or feature_count < 1:
        raise CorruptModel(f"bad feature_count {feature_count!r}")
    if not isinstance(provenance, dict):
        raise CorruptModel("provenance must be a JSON object")
    if np.any((feature < -1) | (feature >= feature_count)):
        raise CorruptModel(f"feature index outside -1..{feature_count - 1}")
    roots, left = _replay(feature.tolist(), cfg.n_trees)
    inner = feature >= 0
    n_inner = int(np.count_nonzero(inner))
    if len(threshold) != n_inner:
        raise CorruptModel(f"threshold must hold {n_inner} values, one per internal node")
    if not np.all(np.isfinite(threshold)):
        raise CorruptModel("non-finite threshold at an internal node")
    shape = (len(feature) - n_inner, len(class_names))
    if len(leaf_counts) != shape[0] * shape[1] or np.any(leaf_counts < 0):
        raise CorruptModel(f"leaf_counts must be {shape[0]} x {shape[1]} counts >= 0")
    full = np.zeros(len(feature))
    full[inner] = threshold
    return RandomForest(roots, feature, full, left, leaf_counts.reshape(shape), cfg,
                        feature_count, class_names, provenance)
