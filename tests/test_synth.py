"""Analytic properties of the seeded synthetic scene generators."""

import itertools
import math

import numpy as np
import pytest

from proxrf.cbd import CollectiveLabel, shape_ratio
from proxrf.errors import InvalidParams
from proxrf.pid import InteractionLabel
from proxrf.synth import (
    CHASE_GAP,
    CLUSTER_RADIUS,
    FAR_SPACING,
    FOLLOW_GAP,
    STAND_GAP,
    SynthParams,
    gen_collective,
    gen_pair,
    make_collective_corpus,
    make_contrast_corpus,
    make_pair_corpus,
)
from proxrf.dataset import windows

from per_sample import dispersion

P = SynthParams(seed=5)
L = InteractionLabel
C = CollectiveLabel


def _speeds(traj):
    steps = np.diff(traj.xy, axis=0)
    return np.hypot(steps[:, 0], steps[:, 1]) * traj.fps


def _distances(rec, a="A", b="B"):
    return np.hypot(*(rec.track(a).xy - rec.track(b).xy).T)


def test_params_validation():
    for bad in ({"fps": 0}, {"duration_frames": 1}, {"walk_speed": 0.0},
                {"noise_sigma": -0.1}, {"group_size": 0}):
        with pytest.raises(InvalidParams):
            SynthParams(**bad)


# ----------------------------------------------------------------- pairwise

def test_standing_pair_geometry():
    rec = gen_pair(L.StandingPair, P)
    np.testing.assert_allclose(_distances(rec), STAND_GAP, atol=1e-12)
    assert _speeds(rec.track("A")).max() == 0.0
    assert [a.label for a in rec.pair_annotations] == [L.StandingPair] * 2


def test_following_geometry_and_role_swap():
    rec = gen_pair(L.Following, P)
    np.testing.assert_allclose(_distances(rec), FOLLOW_GAP, atol=1e-12)
    np.testing.assert_allclose(_speeds(rec.track("A")), P.walk_speed, atol=1e-9)
    by_anchor = {a.anchor_id: a.label for a in rec.pair_annotations}
    assert by_anchor == {"A": L.Following, "B": L.BeingFollowed}
    # B leads: it sits ahead of A along the motion direction
    step = rec.track("A").xy[1] - rec.track("A").xy[0]
    gap = rec.track("B").xy[0] - rec.track("A").xy[0]
    assert np.dot(step, gap) > 0
    swapped = gen_pair(L.BeingFollowed, P)
    np.testing.assert_array_equal(swapped.track("A").xy, rec.track("B").xy)
    np.testing.assert_array_equal(swapped.track("B").xy, rec.track("A").xy)


def test_walking_together_geometry():
    rec = gen_pair(L.WalkingTogether, P)
    d = _distances(rec)
    np.testing.assert_allclose(d, d[0], atol=1e-12)
    assert 0.6 <= d[0] <= 1.0  # abreast offset scaled by the spread draw
    np.testing.assert_allclose(_speeds(rec.track("B")), P.walk_speed, atol=1e-9)


def test_split_approach_duality():
    split = gen_pair(L.Splitting, P)
    d = _distances(split)
    np.testing.assert_allclose(np.diff(d) * P.fps, P.walk_speed, atol=1e-9)
    toward = gen_pair(L.Approaching, P)
    np.testing.assert_array_equal(toward.track("A").xy, split.track("A").xy[::-1])
    np.testing.assert_array_equal(toward.track("B").xy, split.track("B").xy[::-1])
    np.testing.assert_allclose(np.diff(_distances(toward)) * P.fps,
                               -P.walk_speed, atol=1e-9)


def test_pair_scene_is_deterministic():
    p = SynthParams(seed=99, noise_sigma=0.02)
    assert gen_pair(L.WalkingTogether, p) == gen_pair(L.WalkingTogether, p)
    assert gen_pair(L.WalkingTogether, p) != gen_pair(
        L.WalkingTogether, SynthParams(seed=98, noise_sigma=0.02))


def test_noise_magnitude():
    clean = gen_pair(L.Following, P).track("A").xy
    noisy = gen_pair(L.Following, SynthParams(seed=5, noise_sigma=0.02)).track("A").xy
    delta = noisy - clean
    assert 0.01 < delta.std() < 0.03
    assert np.abs(delta).max() < 0.15


# --------------------------------------------------------------- collective

def _frame_points(rec, f):
    return np.array([t.xy[f] for t in rec.trajectories])


def test_gathering_contracts():
    rec = gen_collective(C.Gathering, P)
    disp = [dispersion(_frame_points(rec, f)) for f in range(P.duration_frames)]
    assert all(d1 < d0 for d0, d1 in zip(disp, disp[1:]))
    assert disp[-1] == pytest.approx(CLUSTER_RADIUS, abs=1e-9)
    assert 4.8 - 1e-9 <= disp[0] <= 7.2 + 1e-9


def test_dismissal_is_time_reversed_gathering():
    gather = gen_collective(C.Gathering, P)
    leave = gen_collective(C.Dismissal, P)
    for t_g, t_l in zip(gather.trajectories, leave.trajectories):
        np.testing.assert_array_equal(t_l.xy, t_g.xy[::-1])


def test_talking_is_standing_isotropic():
    rec = gen_collective(C.Talking, P)
    pts = _frame_points(rec, 0)
    for t in rec.trajectories:
        assert _speeds(t).max() < 0.01
    # a regular polygon has an isotropic covariance
    assert shape_ratio(pts) == pytest.approx(1.0, abs=0.01)


def test_walking_keeps_formation():
    rec = gen_collective(C.Walking, P)
    disp = [dispersion(_frame_points(rec, f)) for f in range(0, P.duration_frames, 7)]
    np.testing.assert_allclose(disp, disp[0], atol=1e-9)
    for t in rec.trajectories:
        np.testing.assert_allclose(_speeds(t), P.walk_speed, atol=1e-9)


def test_chasing_speed_and_file():
    rec = gen_collective(C.Chasing, P)
    for t in rec.trajectories:
        np.testing.assert_allclose(_speeds(t), 2.0 * P.walk_speed, atol=1e-9)
    heads = [rec.track(f"m{i}").xy[0] for i in range(len(rec.trajectories))]
    gaps = [np.linalg.norm(b - a) for a, b in zip(heads, heads[1:])]
    # collinear pursuit file: equal spacing of CHASE_GAP * spread
    np.testing.assert_allclose(gaps, gaps[0], atol=1e-9)
    assert CHASE_GAP * 0.8 - 1e-9 <= gaps[0] <= CHASE_GAP * 1.2 + 1e-9


def test_queuing_shuffle_profile():
    rec = gen_collective(C.Queuing, P)
    steps = np.diff(rec.track("m0").xy, axis=0)
    mags = np.hypot(steps[:, 0], steps[:, 1])
    moving = mags > 1e-12
    # synchronized forward hops: 12-frame bursts of 0.25 m, twice in 112
    assert moving.sum() == 24
    np.testing.assert_allclose(mags[moving], 0.25 / 12.0, atol=1e-12)
    for t in rec.trajectories[1:]:
        np.testing.assert_allclose(np.diff(t.xy, axis=0), steps, atol=1e-12)


def test_queuing_alignment_under_noise():
    p = SynthParams(seed=11, noise_sigma=0.01, group_size=4)
    rec = gen_collective(C.Queuing, p)
    ratios = [shape_ratio(_frame_points(rec, f)) for f in range(p.duration_frames)]
    assert min(ratios) > 50.0


def test_group_size_validation():
    with pytest.raises(InvalidParams):
        gen_collective(C.Talking, SynthParams(group_size=1))
    with pytest.raises(InvalidParams):
        gen_collective(C.Queuing, SynthParams(group_size=3))


# ------------------------------------------------------------------ corpora

def test_pair_corpus_composition():
    scenes = make_pair_corpus(SynthParams(seed=7, noise_sigma=0.02), 5)
    assert len(scenes) == 30
    assert len({s.sequence_id for s in scenes}) == 30
    per_label = {lab: 0 for lab in L}
    for s in scenes:
        per_label[s.pair_annotations[0].label] += 1
        # 112 frames give 10 centers, each annotated in both directions
        assert len(list(windows(s, 64, 5, "pairs"))) == 20
    assert all(v == 5 for v in per_label.values())


def test_collective_corpus_composition():
    scenes = make_collective_corpus(SynthParams(seed=7, noise_sigma=0.02), 6)
    assert len(scenes) == 36
    sizes = [len(s.trajectories) for s in scenes]
    assert sorted(set(sizes)) == [4, 5, 6]
    for s in scenes:
        assert len(list(windows(s, 64, 5, "group"))) == 10


def test_contrast_corpus_matches_everything_but_alignment():
    scenes = make_contrast_corpus(SynthParams(seed=7, noise_sigma=0.0), 4)
    pair_scenes = [s for s in scenes if s.pair_annotations]
    coll = [s for s in scenes if s.collective_annotations]
    assert len(pair_scenes) == 18 and len(coll) == 8
    talk = [s for s in coll if s.collective_annotations[0].label is C.Talking]
    queue = [s for s in coll if s.collective_annotations[0].label is C.Queuing]
    assert len(talk) == len(queue) == 4
    for s_t, s_q in zip(talk, queue):
        assert len(s_t.trajectories) == len(s_q.trajectories)
        for s in (s_t, s_q):
            pts = _frame_points(s, 0)
            nn = min(np.linalg.norm(a - b)
                     for a, b in itertools.combinations(pts, 2))
            # every pair sits beyond the kernel's reach of the outermost
            # band boundary, so pairwise statistics carry no class signal
            assert nn > 3.5 + 0.75
            assert nn < FAR_SPACING + 0.5
            for t in s.trajectories:
                assert _speeds(t).max() < 1e-9
        assert shape_ratio(_frame_points(s_q, 0)) == 0.0  # collinear
        assert shape_ratio(_frame_points(s_t, 0)) < 1.5


def test_contrast_margin_survives_noise():
    scenes = make_contrast_corpus(SynthParams(seed=7, noise_sigma=0.02), 4)
    for s in scenes:
        if not s.collective_annotations:
            continue
        pts = _frame_points(s, 0)
        nn = min(np.linalg.norm(a - b)
                 for a, b in itertools.combinations(pts, 2))
        assert nn > 4.0
