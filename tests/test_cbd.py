"""Group blocks and the collective behavior descriptor cues."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxrf import pid as pid_module
from proxrf.cbd import (
    GroupBlock,
    dispersion_change,
    group_cues,
    interaction_histogram,
    mean_speed,
    pair_keys,
    pair_vectors,
    pool_votes,
    shape_ratio,
)
from proxrf.errors import ModelShapeMismatch
from proxrf.forest import ForestConfig, train
from proxrf.pid import InteractionLabel, PairBatch, PidConfig
from proxrf.trajectory import SmoothingConfig, TrackStates, finite_difference, smoothed_states

from conftest import make_traj, straight_traj, track_states
from per_sample import (
    EmptyGroup,
    GroupWindow,
    classify_interaction,
    dispersion,
    group_window,
    lone_cbd,
    lone_pid,
    point_shape_ratio,
    window_cues,
    window_pair_keys,
)

SMOOTH = SmoothingConfig()


def _injected_block(paths, centers=(9,), t2=16, fps=10.0, speeds=None):
    """GroupBlock over exact per-frame positions, bypassing smoothing.

    ``paths`` maps track id to {frame: (x, y)}; ``speeds`` optionally maps
    track id to a constant reported speed.
    """
    member_states = {
        tid: track_states(frames, 0.0 if speeds is None else speeds.get(tid, 0.0))
        for tid, frames in paths.items()
    }
    return GroupBlock(centers, t2, fps, member_states)


def _block(trajectories, centers, t2):
    """GroupBlock over the tracks, each smoothed over its whole spans."""
    states = {t.track_id: smoothed_states(t, SMOOTH) for t in trajectories}
    return GroupBlock(centers, t2, trajectories[0].fps, states)


def _const_paths(ids_to_xy, start=0, end=20):
    return {tid: {f: xy for f in range(start, end + 1)} for tid, xy in ids_to_xy.items()}


# -------------------------------------------------------------- simple cues

def test_interaction_histogram_counts_and_empty():
    f = InteractionLabel.Following.class_id
    wt = InteractionLabel.WalkingTogether.class_id
    [hist] = interaction_histogram([0, 0, 0], [f, f, wt], 1)
    assert hist[f] == pytest.approx(2.0 / 3.0)
    assert hist[wt] == pytest.approx(1.0 / 3.0)
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(interaction_histogram([], [], 1), np.zeros((1, 6)))
    # several windows in one bincount: a window without predictions is a zero row
    hists = interaction_histogram([2, 0, 2, 2], [f, wt, wt, wt], 4)
    np.testing.assert_array_equal(hists, [np.eye(6)[wt], np.zeros(6),
                                          np.bincount([f, wt, wt], minlength=6) / 3,
                                          np.zeros(6)])


def test_dispersion_known_point_sets():
    assert dispersion([(3.0, -1.0)]) == 0.0
    # unit square corners: every corner is sqrt(0.5) from the centroid
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    assert dispersion(square) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert dispersion([(0.0, 0.0), (1.0, 0.0)]) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(EmptyGroup):
        dispersion([])


def test_shape_ratio_branches_and_invariances():
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    assert shape_ratio(square) == pytest.approx(1.0, abs=1e-9)
    assert shape_ratio(square[:1]) == 0.0
    assert shape_ratio([]) == 0.0
    line = np.column_stack([np.arange(5.0), np.zeros(5)])
    assert shape_ratio(line) == 0.0  # degenerate smallest eigenvalue
    jittered = line + np.array([[0.0, 1e-3], [0.0, -1e-3], [0.0, 1e-3],
                                [0.0, -1e-3], [0.0, 0.0]])
    assert shape_ratio(jittered) > 50.0
    # a 2 m x 2 delta rectangle: population covariance diag(1, delta**2),
    # so the floor on the smallest eigenvalue sits at delta = 3.16e-5; the
    # unscaled scatter (4 delta**2) or the sample covariance (4/3 delta**2)
    # would lift the first set above it
    corners = np.array([(-1.0, 1.0), (1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
    assert shape_ratio(corners * [1.0, 3.0e-5]) == 0.0  # 9.0e-10 m^2
    assert shape_ratio(corners * [1.0, 3.5e-5]) == pytest.approx(1.0 / 3.5e-5 ** 2, rel=1e-9)
    rng = np.random.default_rng(21)
    for trial in range(50):
        pts = rng.normal(size=(int(rng.integers(3, 9)), 2)) * [2.0, 0.7]
        base = shape_ratio(pts)
        for factor in (0.1, 10.0):
            assert shape_ratio(pts * factor) == pytest.approx(base, rel=1e-9)
        phi = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        assert shape_ratio(pts @ rot.T) == pytest.approx(base, rel=1e-6)
        assert base >= 1.0 or base == 0.0


# -------------------------------------------------------------- group block

def test_group_window_span_and_membership():
    w = _injected_block(_const_paths({"b": (1.0, 0.0), "a": (0.0, 0.0)}), centers=(9, 10))
    assert len(w) == 2 and w.centers.tolist() == [9, 10] and w.kept.tolist() == [0, 1]
    assert w.ids == ["a", "b"]  # sorted, whatever the dict order
    assert w.present.shape == (2, 2, 16) and w.present.all()
    # window 1 spans frames 3..18; member b sits at (1, 0) throughout
    assert w.xy.shape == (2, 2, 16, 2) and w.xy[1, 1].tolist() == [[1.0, 0.0]] * 16


def test_group_window_rejects_empty_frame():
    paths = _const_paths({"a": (0.0, 0.0)}, start=2, end=10)
    # frames 11..17 of the window at 9 are empty; the window at 5 is whole
    w = _injected_block(paths, centers=(9, 5, 40), t2=16)
    assert len(w) == 0 and w.kept.tolist() == []
    w = _injected_block(paths, centers=(9, 5, 40), t2=8)
    assert w.centers.tolist() == [5] and w.kept.tolist() == [1]
    assert w.present.shape == (1, 1, 8) and w.present.all()
    assert group_cues(w).shape == (1, 3)
    empty = _injected_block(paths, centers=(), t2=8)
    assert len(empty) == 0 and group_cues(empty).shape == (0, 3)
    assert [len(k) for k in pair_keys(empty, PidConfig(t1=4), 1)] == [0, 0, 0, 0]


def test_group_window_t2_must_be_power_of_two():
    paths = _const_paths({"a": (0.0, 0.0)})
    with pytest.raises(ValueError):
        _injected_block(paths, t2=12)


# ------------------------------------------------------- speed and dispersion

def test_mean_speed_double_average():
    paths = _const_paths({"a": (0.0, 0.0), "b": (2.0, 0.0)})
    w = _injected_block(paths, speeds={"a": 1.0, "b": 3.0})
    assert mean_speed(w)[0] == pytest.approx(2.0, abs=1e-12)


def test_mean_speed_uneven_membership():
    # b exists for the second half only: per-frame member average first
    paths = {"a": {f: (0.0, 0.0) for f in range(0, 20)},
             "b": {f: (1.0, 0.0) for f in range(10, 20)}}
    w = _injected_block(paths, centers=(9, 11), t2=16, speeds={"a": 1.0, "b": 3.0})
    # frames 2..9 average 1.0, frames 10..17 average 2.0; the window at
    # 11 has two frames fewer at 1.0 and two more at 2.0
    np.testing.assert_allclose(mean_speed(w), [1.5, 1.625], atol=1e-12)


def test_mean_speed_from_trajectories():
    a = straight_traj("a", 1.5, 0.2, 60)
    b = straight_traj("b", 1.5, 0.2, 60, origin=(0.0, 1.0))
    w = _block([a, b], [30], 32)
    assert mean_speed(w)[0] == pytest.approx(1.5, abs=0.05)


def test_dispersion_change_linear_expansion():
    # members recede at 0.5 m/s each, so the RMS radius grows at 0.5 m/s
    paths = {"a": {f: (-(1.0 + 0.05 * f), 0.0) for f in range(30)},
             "b": {f: (1.0 + 0.05 * f, 0.0) for f in range(30)}}
    shrink = {"a": {f: (-(2.0 - 0.05 * f), 0.0) for f in range(30)},
              "b": {f: (2.0 - 0.05 * f, 0.0) for f in range(30)}}
    for path, rate in ((paths, 0.5), (shrink, -0.5)):
        w = _injected_block(path, centers=(8, 14, 20), t2=16)
        np.testing.assert_allclose(dispersion_change(w), [rate] * 3, atol=1e-9)


def test_dispersion_change_time_reversal_antisymmetry():
    # f -> 23 - f maps frames 0..23 onto themselves, and the span 4..19
    # of the window at 11 onto itself
    rng = np.random.default_rng(33)
    for trial in range(10):
        paths = {
            str(i): {f: tuple(rng.normal(scale=2.0, size=2) + 0.05 * f * np.ones(2) * i)
                     for f in range(24)}
            for i in range(1, 4)
        }
        back = {tid: {23 - f: p for f, p in frames.items()} for tid, frames in paths.items()}
        fwd, rev = (dispersion_change(_injected_block(p, centers=(11,))) for p in (paths, back))
        assert rev[0] == pytest.approx(-fwd[0], abs=1e-9)


@pytest.mark.parametrize("n_members", [3, 8, 12, 20])
def test_cues_equal_per_frame_reference_at_any_group_size(n_members):
    # the member sums run in member order at every group size, though
    # numpy's pairwise summation would start at 8 values; the frames of a
    # window are averaged as numpy's mean over them
    rng = np.random.default_rng(n_members)
    t2, fps = 16, 10.0
    for trial in range(25):
        present = rng.random((n_members, 40)) < 0.6
        present[rng.integers(n_members, size=40), np.arange(40)] = True
        xy = rng.normal(scale=3.0, size=(n_members, 40, 2))
        speed = rng.gamma(2.0, 0.7, size=(n_members, 40))
        member_states = {}
        for i in rng.permutation(n_members):  # dict order is not id order
            frames = np.flatnonzero(present[i])
            member_states[f"m{i}"] = TrackStates(frames, xy[i, frames], np.zeros((len(frames), 2)),
                                                 speed[i, frames], np.full(len(frames), np.nan))
        centers = rng.integers(8, 32, size=3)
        w = GroupBlock(centers, t2, fps, member_states)
        ids = [int(tid[1:]) for tid in sorted(member_states)]  # the block's member order
        for k, center in enumerate(centers.tolist()):
            per_frame_speed, spread = [], []
            for f in range(center - t2 // 2 + 1, center + t2 // 2 + 1):
                here = [i for i in ids if present[i, f]]
                per_frame_speed.append(sum(speed[i, f] for i in here) / len(here))
                spread.append(dispersion([tuple(xy[i, f]) for i in here]))
            want_speed = float(np.mean(per_frame_speed))
            want_change = float(np.mean(finite_difference(np.array(spread), 1.0 / fps)))
            assert mean_speed(w)[k] == want_speed
            assert dispersion_change(w)[k] == want_change


def test_shape_ratio_of_a_stack_equals_each_set_alone():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 9, 2)) * [2.0, 0.7]
    present = rng.random((40, 9)) < 0.6
    present[:3] = [True] * 2 + [False] * 7  # two points
    present[3:5] = False  # no point
    pts[5:8] = np.column_stack([np.arange(9.0), np.zeros(9)])  # collinear
    present[5:8] = True
    want = [point_shape_ratio(p[m]) for p, m in zip(pts, present)]
    got = shape_ratio(pts, present)
    assert got.shape == (40,) and np.array_equal(got, want)
    assert np.array_equal(shape_ratio(pts.reshape(4, 10, 9, 2), present.reshape(4, 10, 9)),
                          np.reshape(want, (4, 10)))
    assert np.array_equal(shape_ratio(pts[5:]), [point_shape_ratio(p) for p in pts[5:]])
    assert type(shape_ratio(pts[9])) is np.float64


# Block cases: (spans of each track as (first frame, length) runs, t2,
# stride, t1, step, seed for the positions and speeds).  These three
# always run, and test_block_cases_cover_gaps_empty_frames_and_large_groups
# checks that they hold what their names say.
_GAPS_CASE = ([[(0, 30), (34, 40)], [(5, 70)], [(20, 8), (40, 10)], [(60, 5)]], 16, 3, 8, 2,
              1)
_EMPTY_FRAME_CASE = ([[(0, 12)], [(30, 30)], [(70, 4)]], 8, 1, 4, 1, 2)
_LARGE_GROUP_CASE = ([[(i, 60 - 2 * i)] for i in range(10)] + [[(0, 20), (25, 30)]], 16, 2, 8,
                     3, 3)


@st.composite
def _block_cases(draw):
    n_tracks = draw(st.integers(1, 12))
    spans = [draw(st.lists(st.tuples(st.integers(0, 75), st.integers(1, 40)), max_size=3))
             for _ in range(n_tracks)]
    return (spans, draw(st.sampled_from([2, 4, 8, 16])), draw(st.integers(1, 5)),
            draw(st.sampled_from([2, 4, 8])), draw(st.integers(1, 6)),
            draw(st.integers(0, 2**32 - 1)))


def _check_block(case) -> tuple:
    """Compare one block with its windows built on their own, bit for
    bit; returns (windows skipped, most members present at a frame,
    whether a member has a gap inside a kept window, whether a block
    member is absent from a whole kept window)."""
    spans, t2, stride, t1, step, seed = case
    rng = np.random.default_rng(seed)
    states = {}
    for i, runs in enumerate(spans):
        frames = np.unique(np.concatenate([np.arange(a, a + n) for a, n in runs] + [[]])).astype(
            np.int64)
        states[f"t{i:02d}"] = TrackStates(frames, rng.normal(scale=3.0, size=(len(frames), 2)),
                                          np.zeros((len(frames), 2)),
                                          rng.gamma(2.0, 0.7, size=len(frames)),
                                          np.full(len(frames), np.nan))
    centers = np.arange(t2 // 2 - 1, 110 - t2 // 2, step)
    block = GroupBlock(centers, t2, 10.0, dict(reversed(states.items())))
    cues = group_cues(block)
    window, anchor, target, center = pair_keys(block, PidConfig(t1=t1), stride)
    kept, most, gap, absent = [], 0, False, False
    for k, c in enumerate(centers.tolist()):
        start, end = c - t2 // 2 + 1, c + t2 // 2
        # the members dataset.windows lists: tracks whose span overlaps
        members = {tid: s for tid, s in sorted(states.items())
                   if len(s.frames) and s.frames[0] <= end and s.frames[-1] >= start}
        try:
            alone = GroupWindow(c, t2, 10.0, members)
        except EmptyGroup:
            continue
        at = len(kept)
        kept.append(k)
        assert np.array_equal(cues[at], window_cues(alone)), (c, cues[at], window_cues(alone))
        ids = sorted(members)
        to_block = np.array([block.ids.index(tid) for tid in ids], dtype=np.intp)
        a, t, cs = window_pair_keys(alone, PidConfig(t1=t1), stride)
        mine = window == at
        assert np.array_equal(anchor[mine], to_block[a]) and np.array_equal(
            target[mine], to_block[t]) and np.array_equal(center[mine], cs), c
        most = max(most, int(alone.present.sum(axis=0).max()))
        for row in alone.present:
            have = np.flatnonzero(row)
            gap |= len(have) > 0 and have[-1] - have[0] + 1 > len(have)
        absent |= not block.present[at].any(axis=1).all()
    assert block.kept.tolist() == kept and block.centers.tolist() == centers[kept].tolist()
    assert len(cues) == len(kept) and set(window.tolist()) <= set(range(len(kept)))
    return len(centers) - len(kept), most, gap, absent


@settings(max_examples=60, deadline=None)
@given(_block_cases())
@example(_GAPS_CASE)
@example(_EMPTY_FRAME_CASE)
@example(_LARGE_GROUP_CASE)
def test_group_block_equals_per_window_oracles(case):
    _check_block(case)


def test_block_cases_cover_gaps_empty_frames_and_large_groups():
    _, _, gap, absent = _check_block(_GAPS_CASE)
    assert gap and absent
    skipped, _, _, _ = _check_block(_EMPTY_FRAME_CASE)
    assert skipped > 0
    _, most, _, _ = _check_block(_LARGE_GROUP_CASE)
    assert most >= 8


# ----------------------------------------------------- predictions and CBD

def _walking_group(n_members=3, n_frames=140, spacing=1.0, speed=1.3):
    return [
        straight_traj(f"m{i}", speed, 0.0, n_frames, origin=(0.0, i * spacing))
        for i in range(n_members)
    ]


def test_pair_predictions_and_cache(tiny_stage1, monkeypatch):
    computed = []

    class Counting(pid_module.PairBatch):
        __slots__ = ()

        def __init__(self, pairs, *args):
            computed.extend((aid, tid, c) for _, _, aid, tid, centers in pairs for c in centers)
            super().__init__(pairs, *args)

    monkeypatch.setattr(pid_module, "PairBatch", Counting)
    tracks = _walking_group()
    w = _block(tracks, [69], 32)
    pairs = pair_vectors([w], PidConfig(), 5, 0)
    [hist] = pool_votes(tiny_stage1, *pairs, 1)
    # 7 stride centers x 6 ordered pairs, every placement covered
    assert len(pair_keys(w, PidConfig(), 5)[3]) == 42
    assert len(set(computed)) == len(computed) == 42
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(hist * 42, np.round(hist * 42))  # whole votes of 42 keys
    # voting the kept vectors again describes nothing
    [again] = pool_votes(tiny_stage1, *pairs, 1)
    assert len(computed) == 42
    assert np.array_equal(again, hist)
    with pytest.raises(ValueError):
        pair_vectors([w], PidConfig(), 0, 0)


def test_pair_vectors_describe_each_distinct_key_once():
    # overlapping windows of one recording at stride 1, in two blocks, the
    # second without m2: a key shared by windows has one row, equal to its
    # lone description, and the second block's window is window 2
    rng = np.random.default_rng(8)
    tracks = [make_traj(t.track_id, t.xy + 0.05 * rng.standard_normal(t.xy.shape))
              for t in _walking_group()]
    states = {t.track_id: smoothed_states(t, SMOOTH) for t in tracks}
    blocks = [GroupBlock([60, 64], 32, 10.0, states),
              GroupBlock([62], 32, 10.0, {tid: states[tid] for tid in ("m1", "m0")})]
    vectors, window, row = pair_vectors(blocks, PidConfig(), stride=1, seed=4)
    keys, shift = [], 0
    for b in blocks:
        at, anchor, target, centers = pair_keys(b, PidConfig(), stride=1)
        keys += [(b.ids[a], b.ids[t], c) for a, t, c in zip(anchor, target, centers.tolist())]
        for i in range(len(b)):
            assert (window == shift + i).sum() == (at == i).sum() > 0
        shift += len(b)
    assert window.tolist() == sorted(window.tolist()) and len(row) == len(keys)
    assert len(vectors) == len(set(keys)) < len(keys)
    assert len(np.unique(vectors, axis=0)) == len(vectors)
    for (aid, tid, center), r in zip(keys, row):
        lone = PairBatch([(states[aid], states[tid], aid, tid, [center])], PidConfig(), 10.0, 4)
        assert np.array_equal(vectors[r], lone.vectors[0]), (aid, tid, center)
    empty = pair_vectors([], PidConfig(), 5, 0)
    assert empty[0].shape == (0, PidConfig().descriptor_length) and not len(empty[2])


def test_pair_predictions_map_votes_by_class_name():
    tracks = _walking_group(2)
    w = _block(tracks, [69], 32)
    pairs = pair_vectors([w], PidConfig(), 5, 0)
    # one-tree models over two labels, listed out of enum order
    x = np.zeros((1, PidConfig().descriptor_length))
    model = train(x, [0], ForestConfig(n_trees=1, seed=0), class_names=["Ap", "F"])
    [hist] = pool_votes(model, *pairs, 1)
    assert len(pair_keys(w, PidConfig(), 5)[3]) == 14
    np.testing.assert_array_equal(hist, np.eye(6)[InteractionLabel.Approaching.class_id])
    desc = lone_pid(tracks[0], tracks[1], 69, PidConfig(), SMOOTH)
    assert classify_interaction(desc, model)[0] is InteractionLabel.Approaching
    unknown = train(x, [0], ForestConfig(n_trees=1, seed=0), class_names=["Ap", "Milling"])
    with pytest.raises(ModelShapeMismatch, match="'Milling' is no interaction label"):
        pool_votes(unknown, *pairs, 1)


def test_pairs_skip_uncovered_centers(tiny_stage1):
    # the second track is too short for most pair-descriptor placements
    a = straight_traj("a", 1.3, 0.0, 140)
    b = straight_traj("b", 1.3, 0.0, 70, origin=(0.0, 1.0), first_frame=20)
    w = _block([a, b], [69], 32)
    [hist] = pool_votes(tiny_stage1, *pair_vectors([w], PidConfig(), 5, 0), 1)
    # pid windows [c-31, c+32] must sit inside b's frames 20..89
    good = [c for c in range(54, 86, 5) if c - 31 >= 20 and c + 32 <= 89]
    assert good == [54]
    _, anchor, target, centers = pair_keys(w, PidConfig(), 5)
    assert len(centers) == 2 * len(good)
    assert centers.tolist() == [54, 54] and anchor.tolist() == [0, 1]
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)


def test_single_member_group_has_zero_histogram(tiny_stage1):
    w = group_window(_walking_group(n_members=1), 69, 32, SMOOTH)
    vec = lone_cbd(w, tiny_stage1, PidConfig(), 5, 0)
    np.testing.assert_array_equal(vec[:6], np.zeros(6))
    assert vec[6] == pytest.approx(1.3, abs=0.05)


def test_compute_cbd_vector_layout(tiny_stage1):
    # the histogram, then group_cues: speed, dispersion change, and the
    # shape ratio of the members present at the center frame
    w = group_window(_walking_group(), 69, 32, SMOOTH)
    vec = lone_cbd(w, tiny_stage1, PidConfig(), 5, 0)
    assert len(vec) == 9
    assert vec[:6].sum() == pytest.approx(1.0, abs=1e-9)
    block = GroupBlock([69], 32, 10.0, w.member_states)
    k = 32 // 2 - 1  # the center frame's index in the window
    cues = [mean_speed(block)[0], dispersion_change(block)[0],
            shape_ratio(block.xy[0, block.present[0, :, k], k])]
    assert group_cues(block)[0].tolist() == cues and vec[6:].tolist() == cues


def test_cbd_rigid_motion_invariance(tiny_stage1):
    rng = np.random.default_rng(44)
    # staggered x origins keep the formation non-collinear so the shape
    # cue is finite and must survive the rotation too
    tracks = [straight_traj(f"m{i}", 1.3, 0.0, 140, origin=(0.3 * i * i, float(i)))
              for i in range(3)]
    base = lone_cbd(group_window(tracks, 69, 32, SMOOTH), tiny_stage1, PidConfig(), 5, 2)
    phi = float(rng.uniform(-math.pi, math.pi))
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    shift = rng.uniform(-30, 30, 2)
    moved_tracks = [make_traj(t.track_id, t.xy @ rot.T + shift) for t in tracks]
    moved = lone_cbd(group_window(moved_tracks, 69, 32, SMOOTH), tiny_stage1, PidConfig(), 5, 2)
    np.testing.assert_allclose(moved, base, atol=1e-9)
