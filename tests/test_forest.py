"""From-scratch random forest: splits, determinism, serialization."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from per_sample import reference_best_split, reference_forest
from proxrf.errors import (
    CorruptModel,
    EmptyTrainingSet,
    InvalidConfig,
    InvalidFeature,
    ShapeMismatch,
)
from proxrf.forest import (
    ForestConfig,
    best_splits,
    deserialize,
    rank_table,
    serialize,
    train,
)


def _blobs(rng, n_per_class, d=6, k=3, spread=0.5):
    xs, ys = [], []
    for c in range(k):
        center = np.zeros(d)
        center[c % d] = 4.0
        xs.append(center + spread * rng.standard_normal((n_per_class, d)))
        ys.append(np.full(n_per_class, c))
    x = np.vstack(xs)
    y = np.concatenate(ys)
    return x, y


# ------------------------------------------------------------ split oracle

def _ref_gini(counts, n):
    return 1.0 - sum((c / n) ** 2 for c in counts)


def _ref_best_split(x, y, class_count):
    """Brute-force scan: features ascending, thresholds ascending, strict
    improvement over 1e-12, mirroring the production tie-breaks."""
    n = len(x)
    parent = np.bincount(y, minlength=class_count)
    g_parent = _ref_gini(parent, n)
    best = None
    for f in range(x.shape[1]):
        vals = np.unique(x[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (lo + hi)
            mask = x[:, f] <= thr
            nl = int(mask.sum())
            nr = n - nl
            cl = np.bincount(y[mask], minlength=class_count)
            dec = g_parent - (nl * _ref_gini(cl, nl) + nr * _ref_gini(parent - cl, nr)) / n
            if dec > (best[0] if best is not None else 1e-12):
                best = (dec, f, thr)
    return best


def _split_one(x, y, idx, feats, parent):
    """best_splits on a batch of one node, as (decrease, feature,
    threshold) or None."""
    dec, f, thr = best_splits(x, rank_table(x), y, [idx], np.array([feats]), np.array([parent]))
    return None if f[0] < 0 else (float(dec[0]), int(f[0]), float(thr[0]))


def test_best_split_matches_brute_force():
    rng = np.random.default_rng(19)
    for trial in range(60):
        n = int(rng.integers(8, 40))
        d = int(rng.integers(2, 7))
        k = int(rng.integers(2, 5))
        if trial % 2:
            x = rng.integers(0, 5, size=(n, d)).astype(float)  # exact ties
        else:
            x = rng.standard_normal((n, d))
        y = rng.integers(0, k, size=n)
        parent = np.bincount(y, minlength=k)
        got = _split_one(x, y, np.arange(n), np.arange(d), parent)
        want = _ref_best_split(x, y, k)
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert got[1] == want[1] and got[2] == want[2]
        assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-12)


def test_split_tie_breaks():
    # duplicated column: the lower feature index wins the tie
    x = np.array([[0.0, 7.0, 0.0], [1.0, 7.0, 1.0], [2.0, 7.0, 2.0], [3.0, 7.0, 3.0]])
    x[:, 2] = x[:, 0]
    y = np.array([0, 0, 1, 1])
    dec, f, thr = _split_one(x, y, np.arange(4), np.arange(3), np.bincount(y))
    assert f == 0 and thr == 1.5
    # symmetric labels: equal decrease at 0.5 and 2.5, lowest threshold wins
    y2 = np.array([0, 1, 1, 0])
    dec, f, thr = _split_one(x, y2, np.arange(4), np.arange(3), np.bincount(y2))
    assert (f, thr) == (0, 0.5)


@st.composite
def _batches(draw):
    """(x, y, members, feats, class_count) of a batch of 1-40 nodes on one
    table: columns that are constant, heavily tied (signed zeros
    included) or continuous, 1-200 members per node drawn with
    duplicates, and a sorted random feature subset per node, all of one
    size."""
    rows = draw(st.integers(1, 60))
    d = draw(st.integers(1, 6))
    class_count = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.empty((rows, d))
    for f in range(d):
        kind = draw(st.sampled_from(["constant", "ties", "zeros", "normal"]))
        if kind == "constant":
            x[:, f] = rng.standard_normal()
        elif kind == "ties":
            x[:, f] = rng.integers(-2, 3, rows) * 0.5
        elif kind == "zeros":
            x[:, f] = rng.choice([-0.0, 0.0, 1.0, -1.0], rows)
        else:
            x[:, f] = rng.standard_normal(rows)
    span = draw(st.integers(1, class_count))
    y = draw(st.integers(0, class_count - span)) + rng.integers(0, span, rows)
    sizes = draw(st.lists(st.integers(1, 200), min_size=1, max_size=40))
    members = [rng.integers(0, rows, size) for size in sizes]
    m = draw(st.integers(1, d))
    feats = np.array([np.sort(rng.choice(d, m, replace=False)) for _ in sizes])
    return x, y, members, feats, class_count


def _wide_ranks_node():
    """One feature with more distinct values than int16 holds."""
    rng = np.random.default_rng(5)
    n = 2**15 + 40
    x = np.column_stack([rng.permutation(n) * 0.25, np.repeat([0.0, -0.0], n // 2)])
    y = (x[:, 0] > n / 9).astype(np.int64) ^ (rng.random(n) < 0.3)
    return x, y, rng.integers(0, n, n), np.arange(2), 2


def _wide_keys_batch():
    """A batch on a table of more than 2**15 rows, so no two nodes share
    a pass and every (node, rank) key is wider than int16: a whole
    bootstrap sample, then small nodes."""
    x, y, boot, feats, class_count = _wide_ranks_node()
    rng = np.random.default_rng(7)
    members = [boot] + [rng.integers(0, len(x), size) for size in (2, 90, 700)]
    return x, y, members, np.tile(feats, (len(members), 1)), class_count


def _node_capped_batch():
    """40 nodes on a 1,000-row table: 40 x 1,000 slots would overflow
    int16 keys, so the batch is split into passes of at most 32 nodes."""
    rng = np.random.default_rng(8)
    x = np.column_stack([rng.integers(0, 9, 1000) * 0.5, rng.standard_normal(1000)])
    y = rng.integers(0, 3, 1000)
    members = [rng.integers(0, 1000, size) for size in rng.integers(2, 50, 40)]
    feats = np.array([[0], [1]] * 20)
    return x, y, members, feats, 3


def _wide_labels_batch():
    """Class ids from 128 up, beyond int8."""
    rng = np.random.default_rng(6)
    x = rng.integers(0, 7, (90, 3)).astype(float)
    y = 128 + rng.integers(0, 72, 90)
    members = [rng.integers(0, 90, size) for size in (90, 2, 40, 17)]
    feats = np.array([[0, 2], [1, 2], [0, 1], [0, 2]])
    return x, y, members, feats, 200


@settings(max_examples=400, deadline=None)
@given(_batches())
@example(_wide_keys_batch())
@example(_node_capped_batch())
@example(_wide_labels_batch())
def test_best_split_equals_float_reference(batch):
    x, y, members, feats, class_count = batch
    parent = np.array([np.bincount(y[idx], minlength=class_count) for idx in members])
    labels = y.astype(np.min_scalar_type(-class_count))  # as train() stores them
    dec, f, thr = best_splits(x, rank_table(x), labels, members, feats, parent)
    for i, idx in enumerate(members):
        want = reference_best_split(x, y, idx, feats[i], class_count, parent[i])
        got = None if f[i] < 0 else (float(dec[i]), int(f[i]), float(thr[i]))
        assert got == want
        if got is not None:  # a threshold between -0.0 and 0.0 keeps its sign
            assert np.signbit(got[2]) == np.signbit(want[2])


def test_rank_table_widens_past_int16():
    x = _wide_ranks_node()[0]
    assert rank_table(x).dtype == np.int32
    assert rank_table(x[:2**15]).dtype == np.int16
    assert rank_table(x[:128]).dtype == np.int8


@pytest.mark.parametrize("cfg, threads", [
    (ForestConfig(n_trees=8, seed=3), 1),
    (ForestConfig(n_trees=8, max_depth=2, seed=4), 1),
    (ForestConfig(n_trees=8, min_samples_split=6, seed=5), 1),
    (ForestConfig(n_trees=8, features_per_split=1, seed=6), 1),
    (ForestConfig(n_trees=8, seed=7), 2),
])
def test_forest_bytes_equal_float_split_search(cfg, threads):
    # lockstep growth with batched split search against trees grown one
    # node at a time, with float class counts and with value ranks
    rng = np.random.default_rng(23)
    x, y = _blobs(rng, 30, d=7, k=4, spread=1.5)
    x[:, 1] = np.round(x[:, 1])  # heavy ties
    x[:, 5] = 2.0  # constant: a draw of it alone falls back to a full scan
    x[::3, 6] = -0.0
    searched = []

    def reference(x_mat, ranks, y, idx, feats, parent_counts):
        searched.append(len(feats))
        return reference_best_split(x_mat, y, idx, feats, len(parent_counts), parent_counts)

    blob = serialize(train(x, y, cfg, threads=threads))
    assert serialize(reference_forest(x, y, cfg, reference)) == blob
    assert serialize(reference_forest(x, y, cfg)) == blob
    if cfg.features_per_split == 1:
        assert x.shape[1] in searched  # the full-scan fallback ran


# --------------------------------------------------------- training quality

def test_forest_separates_blobs():
    rng = np.random.default_rng(101)
    x, y = _blobs(rng, 134)  # ~400 training points
    model = train(x, y, ForestConfig(n_trees=30, seed=7))
    x_test, y_test = _blobs(rng, 134)
    acc = (model.predict_batch(x_test) == y_test).mean()
    assert acc >= 0.95


def test_vote_fractions_normalized():
    rng = np.random.default_rng(5)
    x, y = _blobs(rng, 30)
    model = train(x, y, ForestConfig(n_trees=9, seed=2))
    frac = model.vote_fractions(x)
    assert frac.shape == (len(x), 3)
    np.testing.assert_allclose(frac.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(model.vote_fractions(x[:1])[0], frac[0])
    assert model.predict_batch(x[:1])[0] == int(np.argmax(frac[0]))


def test_prediction_independent_of_batch_order():
    rng = np.random.default_rng(29)
    x, y = _blobs(rng, 40)
    model = train(x, y, ForestConfig(n_trees=11, seed=3))
    perm = rng.permutation(len(x))
    single = np.array([model.predict_batch(v[None, :])[0] for v in x])
    np.testing.assert_array_equal(model.predict_batch(x), single)
    np.testing.assert_array_equal(model.predict_batch(x[perm]), single[perm])


def test_max_depth_zero_gives_majority_stumps():
    rng = np.random.default_rng(3)
    x, y = _blobs(rng, 10)
    # tilt the majority toward class 0
    model = train(np.vstack([x, x[:15]]), np.concatenate([y, y[:15]]),
                  ForestConfig(n_trees=20, max_depth=0, seed=1))
    assert set(model.predict_batch(x)) == {0}


def test_thresholds_are_interior_midpoints():
    rng = np.random.default_rng(12)
    x, y = _blobs(rng, 25)
    model = train(x, y, ForestConfig(n_trees=5, seed=9))
    doc = json.loads(serialize(model))
    train_vals = {f: set(x[:, f].tolist()) for f in range(x.shape[1])}
    inner = [i for i, f in enumerate(doc["feature"]) if f >= 0]
    assert inner and len(inner) == len(doc["threshold"])
    for i, thr in zip(inner, doc["threshold"]):
        f = doc["feature"][i]
        assert x[:, f].min() < thr < x[:, f].max()
        assert thr not in train_vals[f]


# ----------------------------------------------------------- train validation

def test_train_input_validation():
    with pytest.raises(EmptyTrainingSet):
        train([], [], ForestConfig())
    with pytest.raises(EmptyTrainingSet):
        train(np.empty((0, 3)), np.empty(0, dtype=int), ForestConfig())
    a = np.zeros(3)
    with pytest.raises(ShapeMismatch):
        train([a, np.zeros(4)], [0, 1], ForestConfig())
    with pytest.raises(InvalidFeature):
        train([a, np.array([1.0, np.nan, 0.0])], [0, 1], ForestConfig())
    with pytest.raises(InvalidFeature):
        train([a], [-1], ForestConfig())
    with pytest.raises(InvalidFeature):
        train([a], [0], ForestConfig(), class_names=[])  # id 0 outside 0 classes
    with pytest.raises(InvalidConfig):
        train([a, np.ones(3)], [0, 1], ForestConfig(features_per_split=4))
    # array input: every malformed matrix or label vector is a ProxrfError
    x, y = np.zeros((4, 3)), np.array([0, 1, 0, 1])
    for bad_x in (np.zeros(4), np.zeros((4, 3, 1)), np.float64(1.0), [["a", "b"]] * 4):
        with pytest.raises(ShapeMismatch):
            train(bad_x, y, ForestConfig())
    for bad_y in (y[:3], np.append(y, 0), y[:, None], np.int64(0), []):
        with pytest.raises(ShapeMismatch):
            train(x, bad_y, ForestConfig())
    for bad_y in (y + 0.5, y.astype(float), y.astype(bool), y.astype(str), y.astype(object)):
        with pytest.raises(InvalidFeature, match="class ids must be integers"):
            train(x, bad_y, ForestConfig())
    for bad_y in (y - 2, np.array([0, 1, -1, 1], dtype=np.int8)):
        with pytest.raises(InvalidFeature, match="negative class id"):
            train(x, bad_y, ForestConfig())
    for bad in (np.nan, np.inf, -np.inf):
        x_bad = x.copy()
        x_bad[2, 1] = bad
        with pytest.raises(InvalidFeature, match="non-finite feature value"):
            train(x_bad, y, ForestConfig())


def test_features_per_split_beyond_feature_count_is_invalid_config():
    rng = np.random.default_rng(4)
    x = np.array([rng.normal(size=19) for _ in range(20)])
    with pytest.raises(InvalidConfig, match=r"features_per_split 30 outside 1\.\.19"):
        train(x, np.arange(20) % 2, ForestConfig(features_per_split=30))


def test_forest_config_validation():
    for bad in ({"n_trees": 0}, {"max_depth": -1}, {"min_samples_split": 1},
                {"features_per_split": 0}):
        with pytest.raises(ValueError):
            ForestConfig(**bad)


def test_default_class_names_span_label_range():
    rng = np.random.default_rng(2)
    x = np.array([rng.normal(size=4) for _ in range(30)])
    model = train(x, np.arange(30) % 3, ForestConfig(n_trees=3))
    assert model.class_names == ("0", "1", "2")


def test_vote_fractions_shape_checked():
    rng = np.random.default_rng(2)
    x, y = _blobs(rng, 10)
    model = train(x, y, ForestConfig(n_trees=3))
    with pytest.raises(ShapeMismatch):
        model.vote_fractions(x[:, :4])
    with pytest.raises(ShapeMismatch):
        model.vote_fractions(x[0])


# ------------------------------------------------ determinism and round-trip

def test_training_is_byte_deterministic():
    rng = np.random.default_rng(55)
    x, y = _blobs(rng, 40)
    cfg = ForestConfig(n_trees=12, seed=21)
    blob1 = serialize(train(x, y, cfg))
    blob2 = serialize(train(x, y, cfg))
    blob4t = serialize(train(x, y, cfg, threads=4))
    assert blob1 == blob2 == blob4t
    assert blob1 != serialize(train(x, y, ForestConfig(n_trees=12, seed=22)))


def test_any_integer_seed_trains_modulo_2_64():
    rng = np.random.default_rng(57)
    x, y = _blobs(rng, 20)
    forests = [train(x, y, ForestConfig(n_trees=4, seed=seed))
               for seed in (-1, -1, 2**64 - 1, 2**70 + 5, 5)]
    for name in ("trees", "feature", "threshold", "left", "counts"):
        first, *rest = (getattr(f, name) for f in forests)
        assert np.array_equal(first, rest[0]) and np.array_equal(first, rest[1])
        assert np.array_equal(rest[2], rest[3])
    assert serialize(forests[0]) != serialize(forests[4])


def test_more_threads_than_trees():
    rng = np.random.default_rng(56)
    x, y = _blobs(rng, 20)
    cfg = ForestConfig(n_trees=3, seed=5)
    assert serialize(train(x, y, cfg, threads=5)) == serialize(train(x, y, cfg))


def test_round_trip_preserves_predictions():
    rng = np.random.default_rng(66)
    x, y = _blobs(rng, 50)
    model = train(x, y, ForestConfig(n_trees=15, seed=1),
                  class_names=["g", "t", "d"])
    clone = deserialize(serialize(model))
    assert clone.class_names == ("g", "t", "d")
    assert clone.feature_count == 6
    assert clone.config == model.config
    probe = rng.standard_normal((1000, 6)) * 3.0
    np.testing.assert_array_equal(clone.predict_batch(probe), model.predict_batch(probe))
    np.testing.assert_array_equal(clone.vote_fractions(probe), model.vote_fractions(probe))
    assert serialize(clone) == serialize(model)


def _tree_children(doc):
    """(roots, {internal node: (left, right)}) of a model document, from
    its ``feature`` list alone: trees follow one another, and each is
    numbered in depth-first preorder, a split node's two children taking
    the next two ids when the walk reaches that node, left first."""
    feature, children, roots = doc["feature"], {}, []
    free = 0

    def number(node):
        nonlocal free
        if feature[node] >= 0:
            children[node] = (free, free + 1)
            free += 2
            number(children[node][0])
            number(children[node][1])

    for _ in range(doc["config"]["n_trees"]):
        roots.append(free)
        free += 1
        number(roots[-1])
    assert free == len(feature)
    return roots, children


def _walk_votes(doc, x):
    """Vote fractions by walking every row down every tree of a model
    document, one node at a time."""
    roots, children = _tree_children(doc)
    k = len(doc["class_names"])
    inner = [i for i, f in enumerate(doc["feature"]) if f >= 0]
    threshold = dict(zip(inner, doc["threshold"]))
    leaves = [i for i, f in enumerate(doc["feature"]) if f < 0]
    counts = {i: doc["leaf_counts"][k * j:k * j + k] for j, i in enumerate(leaves)}
    votes = np.zeros((len(x), k))
    for r, v in enumerate(x):
        for root in roots:
            i = root
            while i in children:
                go_left = v[doc["feature"][i]] <= threshold[i]
                i = children[i][0] if go_left else children[i][1]
            votes[r, counts[i].index(max(counts[i]))] += 1.0
    return votes / len(roots)


def test_vote_fractions_match_per_tree_walk():
    rng = np.random.default_rng(77)
    x, y = _blobs(rng, 40, spread=1.5)
    model = train(x, y, ForestConfig(n_trees=15, seed=5))
    doc = json.loads(serialize(model))
    # around the 128-row voting block: one block, one full block, one row over
    for n in (1, 7, 128, 129, 2000):
        x = rng.standard_normal((n, 6)) * 3.0
        np.testing.assert_array_equal(model.vote_fractions(x), _walk_votes(doc, x))


def test_vote_blocks_bound_memory_and_keep_fractions():
    rng = np.random.default_rng(91)
    x, y = _blobs(rng, 40, spread=1.5)
    n_trees = 50
    model = train(x, y, ForestConfig(n_trees=n_trees, seed=4))
    x = rng.standard_normal((20_000, 6)) * 3.0
    tracemalloc.start()
    try:
        whole = model.vote_fractions(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pieces = np.vstack([model.vote_fractions(x[i:i + 37]) for i in range(0, len(x), 37)])
    np.testing.assert_array_equal(whole, pieces)
    # one int64 per (row, tree) would take 8 MB; the vote counts and the
    # fractions take 0.5 MB each
    assert peak < len(x) * n_trees * 8 // 4


_CONFIG_DOC = {"n_trees": 2, "max_depth": None, "min_samples_split": 2,
               "features_per_split": None, "seed": 0}


def test_deserialized_stumps_tie_to_lowest_class():
    doc = {
        "version": 4,
        "class_names": ["a", "b"],
        "feature_count": 2,
        "config": _CONFIG_DOC,
        "feature": [-1, -1],
        "threshold": [],
        "leaf_counts": [0, 5, 5, 0],
        "provenance": {},
    }
    model = deserialize(json.dumps(doc).encode())
    np.testing.assert_allclose(model.vote_fractions(np.zeros((1, 2)))[0], [0.5, 0.5])
    assert model.predict_batch(np.zeros((1, 2)))[0] == 0


def _valid_doc():
    """Two one-split trees: nodes 0-2 and nodes 3-5."""
    return {
        "version": 4,
        "class_names": ["a", "b"],
        "feature_count": 2,
        "config": dict(_CONFIG_DOC),
        "feature": [0, -1, -1, 1, -1, -1],
        "threshold": [0.5, -0.25],
        "leaf_counts": [3, 0, 0, 2, 1, 1, 0, 4],
        "provenance": {"seed": 7},
    }


def _corrupt(**changes):
    doc = _valid_doc()
    doc.update(changes)
    return json.dumps(doc).encode()


def _config(**changes):
    return dict(_CONFIG_DOC, **changes)


def test_deserialize_derives_roots_and_left():
    model = deserialize(_corrupt())
    np.testing.assert_array_equal(model.trees, [0, 3])
    np.testing.assert_array_equal(model.left, [1, -1, -1, 4, -1, -1])
    np.testing.assert_array_equal(model.threshold, [0.5, 0.0, 0.0, -0.25, 0.0, 0.0])
    np.testing.assert_array_equal(model.counts, [[0, 0], [3, 0], [0, 2], [0, 0], [1, 1], [0, 4]])
    assert model.provenance == {"seed": 7}
    # a deeper tree: its root's left child splits before its right child
    # is numbered further, so the right child is node 2 and its children
    # come after the left child's
    doc = dict(_valid_doc(), config=_config(n_trees=1), feature=[0, 1, 0, -1, -1, -1, -1],
               threshold=[0.5, 0.25, 0.75], leaf_counts=[1, 0, 0, 1, 2, 0, 0, 2])
    model = deserialize(json.dumps(doc).encode())
    np.testing.assert_array_equal(model.left, [1, 3, 5, -1, -1, -1, -1])
    probe = [[0.0, 0.0], [0.0, 1.0], [0.6, 0.0], [1.0, 0.0]]
    np.testing.assert_array_equal(model.vote_fractions(probe), [[1, 0], [0, 1], [1, 0], [0, 1]])


def test_deserialize_refuses_boolean_feature_count():
    # JSON true is a Python int subclass: without its own check it loads
    # as feature count 1
    one_feature = [0, -1, -1, 0, -1, -1]
    assert deserialize(_corrupt(feature_count=1, feature=one_feature)).feature_count == 1
    for flag in (True, False):
        with pytest.raises(CorruptModel, match=f"bad feature_count {flag}"):
            deserialize(_corrupt(feature_count=flag, feature=one_feature))


def test_deserialize_rejects_corrupt_documents():
    model = deserialize(_corrupt())  # the base document is valid
    assert len(model.trees) == 2
    # null is a valid config value where ForestConfig takes None
    assert deserialize(_corrupt(config=_config(max_depth=3, features_per_split=1))).config == \
        ForestConfig(n_trees=2, max_depth=3, features_per_split=1)
    np.testing.assert_array_equal(model.vote_fractions([[0.0, 0.0], [1.0, 0.0]]),
                                  [[0.5, 0.5], [0.0, 1.0]])
    bad_tree_cases = [
        b"not json at all",
        b"[1,2,3]",
        _corrupt(version=99),
        _corrupt(version=3),
        _corrupt(class_names=[]),
        _corrupt(class_names="ab"),
        # class names that are not strings, or repeat
        _corrupt(class_names=[["x"], 5]),
        _corrupt(class_names=["a", "a"]),
        _corrupt(class_names=["a", None]),
        _corrupt(feature_count=0),
        _corrupt(feature_count="two"),
        _corrupt(feature=[5, -1, -1, 1, -1, -1]),
        _corrupt(feature=[0, -1, -1, -2, -1, -1]),
        _corrupt(feature=[0.0, -1, -1, 1, -1, -1]),
        _corrupt(feature=[[0, -1, -1, 1, -1, -1]]),
        _corrupt(feature=17),
        _corrupt(feature=[]),
        _corrupt(threshold=[float("nan"), -0.25]),
        _corrupt(threshold=[0.5, float("inf")]),
        _corrupt(threshold=[0.5, "x"]),
        _corrupt(threshold=[[0.5, -0.25]]),
        # leaf counts nested, short, long, negative or fractional
        _corrupt(leaf_counts=[[3, 0], [0, 2], [1, 1], [0, 4]]),
        _corrupt(leaf_counts=[3, 0, 0, 2, 1, 1, 0]),
        _corrupt(leaf_counts=[3, 0, 0, 2, 1, 1, 0, 4, 0]),
        _corrupt(leaf_counts=[-1, 2, 0, 2, 1, 1, 0, 4]),
        _corrupt(leaf_counts=[0.5, 2, 0, 2, 1, 1, 0, 4]),
        _corrupt(config={"n_trees": 0}),
        _corrupt(config={"bogus": 1}),
        _corrupt(config=dict(_CONFIG_DOC, bogus=1)),
        _corrupt(config=None),
        # config fields that are not plain integers (null only where
        # ForestConfig takes None)
        _corrupt(config={"n_trees": True, "max_depth": 1.5, "seed": "x"}),
        _corrupt(config=_config(n_trees=True)),
        _corrupt(config=_config(max_depth=1.5)),
        _corrupt(config=_config(seed="x")),
        _corrupt(config=_config(min_samples_split=None)),
        _corrupt(config=_config(features_per_split=False)),
        _corrupt(config=_config(n_trees=2.0)),
        _corrupt(config=[2, None, 2, None, 0]),
        # the feature list ends inside a tree: the second root splits, but
        # one or both of its children are missing
        _corrupt(feature=[0, -1, -1, 1, -1]),
        _corrupt(feature=[0, -1, -1, 1]),
        _corrupt(feature=[0, -1, 0, 1, -1, -1]),
        # nodes left over after the last tree, or too few trees
        _corrupt(feature=[0, -1, -1, 1, -1, -1, -1], leaf_counts=[3, 0] * 5),
        _corrupt(feature=[0, -1, -1]),
        _corrupt(config=_config(n_trees=1)),
        _corrupt(config=_config(n_trees=3)),
        _corrupt(config=_config(n_trees=2**62)),
        # one threshold per internal node
        _corrupt(threshold=[0.5]),
        _corrupt(threshold=[0.5, -0.25, 0.0]),
        _corrupt(threshold=[0.5, 0.0, 0.0, -0.25, 0.0, 0.0]),
        # provenance that is not an object
        _corrupt(provenance=[]),
        _corrupt(provenance="seed=7"),
        _corrupt(provenance=7),
        _corrupt(provenance=None),
    ]
    for missing in ("class_names", "feature_count", "config", "feature", "threshold",
                    "leaf_counts", "provenance"):
        doc = _valid_doc()
        del doc[missing]
        bad_tree_cases.append(json.dumps(doc).encode())
    # a document nested deeper than the interpreter's recursion limit
    deep = b'{"feature": 0, "threshold": 0.5, "right": {"counts": [0, 1]}, "left": ' * 3000
    bad_tree_cases.append(
        b'{"version": 4, "feature": [' + deep + b'{"counts": [1, 0]}' + b"}" * 3000 + b"]}"
    )
    for blob in bad_tree_cases:
        with pytest.raises(CorruptModel):
            deserialize(blob)


def test_deserialize_refuses_version_1():
    v1 = {
        "version": 1,
        "class_names": ["a", "b"],
        "feature_count": 2,
        "config": _CONFIG_DOC,
        "trees": [{"feature": 0, "threshold": 0.5,
                   "left": {"counts": [3, 0]}, "right": {"counts": [0, 2]}}],
    }
    with pytest.raises(CorruptModel, match="unsupported model version 1, expected 4"):
        deserialize(json.dumps(v1).encode())


def test_deserialize_refuses_version_2():
    # version 2 stored each right child and drew from numpy generators
    v2 = dict(_valid_doc(), version=2, right=[2, -1, -1, 5, -1, -1])
    with pytest.raises(CorruptModel, match="unsupported model version 2, expected 4"):
        deserialize(json.dumps(v2).encode())


def test_deserialize_refuses_version_3():
    # version 3 stored roots, left, a threshold per node and nested leaf
    # counts, and no provenance
    v3 = {
        "version": 3,
        "class_names": ["a", "b"],
        "feature_count": 2,
        "config": _CONFIG_DOC,
        "roots": [0, 3],
        "feature": [0, -1, -1, 1, -1, -1],
        "threshold": [0.5, 0.0, 0.0, -0.25, 0.0, 0.0],
        "left": [1, -1, -1, 4, -1, -1],
        "leaf_counts": [[3, 0], [0, 2], [1, 1], [0, 4]],
    }
    with pytest.raises(CorruptModel, match="unsupported model version 3, expected 4"):
        deserialize(json.dumps(v3).encode())


@st.composite
def _training_sets(draw):
    """A small training set and forest config: 1-40 rows of 1-5 features,
    some of them tied or constant, 1-4 classes, and any tree count,
    depth cap, node size and features per split."""
    rows, d = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-3, 4, (rows, d)) * draw(st.sampled_from([0.5, 0.0, 1e-3]))
    x[:, ::2] += rng.standard_normal((rows, (d + 1) // 2)) * draw(st.sampled_from([0.0, 1.0]))
    y = rng.integers(0, draw(st.integers(1, 4)), rows)
    cfg = ForestConfig(
        n_trees=draw(st.integers(1, 6)),
        max_depth=draw(st.none() | st.integers(0, 6)),
        min_samples_split=draw(st.integers(2, 6)),
        features_per_split=draw(st.none() | st.integers(1, d)),
        seed=draw(st.integers(-2**64, 2**64)),
    )
    return x, y, cfg


@settings(max_examples=150, deadline=None)
@given(_training_sets())
def test_format_round_trips_trained_forests(case):
    x, y, cfg = case
    model = train(x, y, cfg)
    model.provenance = {"seed": 1, "pid.t1": 64}
    blob = serialize(model)
    clone = deserialize(blob)
    for name in ("trees", "left", "feature", "threshold", "counts"):
        want, got = getattr(model, name), getattr(clone, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert np.array_equal(np.signbit(clone.threshold), np.signbit(model.threshold))
    assert clone.provenance == model.provenance
    probe = np.vstack([x, np.random.default_rng(0).standard_normal((20, x.shape[1])) * 2.0])
    np.testing.assert_array_equal(clone.vote_fractions(probe), model.vote_fractions(probe))
    np.testing.assert_array_equal(_walk_votes(json.loads(blob), probe),
                                  model.vote_fractions(probe))
    assert serialize(clone) == blob


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=12)


_SMALL_FOREST = train(*_blobs(np.random.default_rng(3), 6, d=3), ForestConfig(n_trees=3, seed=2))
_SMALL_FOREST.provenance = {"descriptor_version": 1, "pid.sigma_rho": 0.25, "seed": 7}


@st.composite
def _mutated_docs(draw):
    """A valid version-4 document of a trained forest with one field
    replaced, or one element of one of its arrays."""
    doc = json.loads(serialize(_SMALL_FOREST))
    key = draw(st.sampled_from(sorted(doc)))
    value = doc[key]
    if isinstance(value, list) and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        near = value[i] if isinstance(value[i], int) else 0
        value[i] = draw(st.integers(near - 3, near + 3) | _JSON_VALUES)
    elif isinstance(value, dict) and draw(st.booleans()):
        value[draw(st.sampled_from(sorted(value)))] = draw(_JSON_VALUES)
    else:
        doc[key] = draw(_JSON_VALUES)
    return json.dumps(doc).encode()


@st.composite
def _mutated_bytes(draw):
    """A trained forest's serialized bytes (a version-4 document) with a
    few bytes replaced, inserted or deleted, or cut short."""
    blob = bytearray(serialize(_SMALL_FOREST))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(blob) - 1))
        kind = draw(st.sampled_from(["replace"] * 4 + ["insert", "delete", "cut"]))
        byte = draw(st.sampled_from(b'0123456789-.,:[]{}"eE') | st.integers(0, 255))
        if kind == "cut":
            del blob[at:]
        elif kind == "delete":
            del blob[at]
        elif kind == "replace":
            blob[at] = byte
        else:
            blob.insert(at, byte)
        if not blob:
            break
    return bytes(blob)


def _loads_or_raises_corrupt_model(blob):
    try:
        model = deserialize(blob)
    except CorruptModel:
        return
    # a document that loads is a forest that every row walks down (at a
    # width that fits in memory)
    if model.feature_count <= 64:
        x = np.random.default_rng(0).standard_normal((5, model.feature_count))
        assert model.vote_fractions(x).shape == (5, model.class_count)


@settings(max_examples=300, deadline=None)
@given(_mutated_docs())
def test_one_field_mutations_load_or_raise_corrupt_model(blob):
    _loads_or_raises_corrupt_model(blob)


@settings(max_examples=300, deadline=None)
@given(_mutated_bytes())
def test_byte_mutations_load_or_raise_corrupt_model(blob):
    _loads_or_raises_corrupt_model(blob)
