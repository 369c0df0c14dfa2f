"""Keyed random draws: the splitmix64 chain, and the headings, bootstraps,
feature subsets and fold seeds drawn from it."""

import math
import warnings

import numpy as np
from scipy import stats

from per_sample import reference_key_hash, reference_splitmix64, tree_bootstrap
from proxrf import keyed
from proxrf.evaluate import fold_seeds
from proxrf.forest import ForestConfig, bootstrap, feature_draws, serialize, train
from proxrf.pid import PolarGrid, heading_draws


def test_splitmix64_gives_its_published_first_outputs():
    # the first two outputs of splitmix64 seeded with state 0
    first, second = 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4
    gamma = 0x9E3779B97F4A7C15
    assert keyed.splitmix64(0).tolist() == [first]
    assert keyed.splitmix64([0, gamma]).tolist() == [first, second]
    assert [reference_splitmix64(0), reference_splitmix64(gamma)] == [first, second]


def test_key_hash_equals_python_reference():
    rng = np.random.default_rng(3)
    edges = np.array([0, 1, -1, 2**31, -2**32, 2**63 - 1, -2**63], dtype=np.int64)
    words = np.concatenate([edges, rng.integers(-2**62, 2**62, size=60)])
    for seed in (0, 7, -1, 2**32 + 7, 2**64 + 7, -2**70):
        got = keyed.key_hash(keyed.HEADING, seed, words[:, None], words[::-1][None, :20])
        want = [[reference_key_hash(keyed.HEADING, seed, int(a), int(b)) for b in words[::-1][:20]]
                for a in words]
        assert got.tolist() == want
    # every domain word keys its own draws
    assert len({int(keyed.key_hash(d, 5, 6)[0]) for d in range(1, 5)}) == 4
    u = keyed.uniform(keyed.FOLD, 2**64 - 1, np.arange(1000))
    assert u.dtype == float and u.min() >= 0.0 and u.max() < 1.0


def test_headings_are_uniform_over_sectors():
    # the slow-anchor angle pi - 2 pi u of one pair over 48,000 frames,
    # counted in 16 sectors
    grid = PolarGrid(angular_sector_count=16)
    theta = math.pi - 2.0 * math.pi * heading_draws(11, 17, 42, np.arange(-8000, 40000))
    counts = np.bincount(grid.sector_of(theta), minlength=16)
    assert stats.chisquare(counts).pvalue > 1e-3
    # and of many pairs at one frame, as a batch draws them
    words = np.arange(48000, dtype=np.uint64)
    theta = math.pi - 2.0 * math.pi * heading_draws(11, words, words[::-1], 5)
    counts = np.bincount(grid.sector_of(theta), minlength=16)
    assert stats.chisquare(counts).pvalue > 1e-3


def test_feature_subsets_are_uniform_sorted_and_distinct():
    d, m, nodes = 19, 5, 4000
    trees, ids = np.arange(nodes) // 100, np.arange(nodes) % 100
    feats = feature_draws(9, trees, ids, d, m)
    assert feats.shape == (nodes, m)
    assert np.all(np.diff(feats, axis=1) > 0)  # sorted, so distinct
    assert feats.min() >= 0 and feats.max() < d
    counts = np.bincount(feats.ravel(), minlength=d)
    # each feature is drawn with probability m/d at each node
    p = m / d
    assert np.all(np.abs(counts - nodes * p) < 5.0 * math.sqrt(nodes * p * (1.0 - p)))
    assert stats.chisquare(counts).pvalue > 1e-3
    # a node's draw depends on its key alone, not on the nodes drawn with it
    pick = np.arange(3, nodes, 7)
    assert np.array_equal(feature_draws(9, trees[pick], ids[pick], d, m), feats[pick])
    assert np.array_equal(feature_draws(9, [0, 3], [1, 2], d, d), np.tile(np.arange(d), (2, 1)))


def test_bootstrap_indices_are_uniform():
    n = 50
    draws = bootstrap(4, range(400), n).ravel()
    assert draws.min() >= 0 and draws.max() < n
    assert stats.chisquare(np.bincount(draws, minlength=n)).pvalue > 1e-3
    assert np.array_equal(bootstrap(4, [7], n), bootstrap(4, [7], n))
    assert not np.array_equal(bootstrap(4, [7], n), bootstrap(4, [8], n))


def test_bootstrap_block_equals_per_tree_draws(monkeypatch):
    # one row per tree, equal to that tree's own keyed draw, whether the
    # tree sits inside a chunk of 2**16 keys, at its edge, or (n > 2**16)
    # spans several chunks itself
    chunk = 2**16
    cases = [(3, range(60, 140), 1000),  # 65 trees a chunk: tree 124 ends the first
             (-9, [5, 2, 900, 2**40], 40000),  # one tree a chunk, ids in any order
             (0, range(2), chunk + 5),  # each tree's draws cross a chunk edge
             (2**64 + 1, range(5), 1),
             (11, range(0), 17)]
    for seed, trees, n in cases:
        block = bootstrap(seed, trees, n)
        assert block.shape == (len(trees), n)
        assert block.dtype == np.min_scalar_type(-n)
        want = np.array([tree_bootstrap(seed, t, n) for t in trees]).reshape(len(trees), n)
        assert np.array_equal(block, want), (seed, n)
    # 2**16 + 3 trees of one row each fill one chunk and start another;
    # every draw is row 0, as floor(u) is for every u in [0, 1)
    block = bootstrap(7, range(chunk + 3), 1)
    assert block.shape == (chunk + 3, 1) and not block.any()
    assert np.array_equal(block[chunk - 1:], [tree_bootstrap(7, t, 1) for t in
                                              range(chunk - 1, chunk + 3)])
    # each keyed call hashes at most 2**16 keys, as few calls as that allows
    sizes = []
    real = keyed.uniform

    def counting(*key):
        u = real(*key)
        sizes.append(u.size)
        return u

    monkeypatch.setattr(keyed, "uniform", counting)
    for trees, n, calls in ((range(130), 1000, 2), (range(2), chunk, 2), (range(2), chunk + 5, 4),
                            (range(chunk + 3), 1, 2)):
        sizes.clear()
        bootstrap(1, trees, n)
        assert len(sizes) == calls and max(sizes) <= chunk and sum(sizes) == len(trees) * n


def test_heading_draws_of_no_frames_are_empty():
    for words in (3, np.array([], dtype=np.uint64)):
        empty = heading_draws(1, words, words, np.array([], dtype=np.int64))
        assert empty.shape == (0,) and empty.dtype == float


def test_keyed_draws_raise_no_warning():
    # uint64 arithmetic on numpy scalars warns on overflow; every draw
    # works on arrays, which wrap silently
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 6))
    y = (x[:, 0] > 0).astype(int)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keyed.key_hash(keyed.HEADING, 2**64 - 1, np.uint64(2**64 - 1), np.int64(-1), -2**63)
        heading_draws(-1, 2**32 - 1, 0, [2**63 - 1, -2**63, 0])
        heading_draws(2**64 + 1, np.uint64(7), np.uint64(8), 3)
        fold_seeds(-5, 202)
        serialize(train(x, y, ForestConfig(n_trees=5, seed=-3), threads=2))
