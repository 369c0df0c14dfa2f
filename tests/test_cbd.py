"""Group windows and the collective behavior descriptor cues."""

import math

import numpy as np
import pytest

from proxrf import pid as pid_module
from proxrf.cbd import (
    GroupWindow,
    dispersion_change,
    group_cues,
    interaction_histogram,
    mean_speed,
    pair_keys,
    pair_vectors,
    pool_votes,
    shape_ratio,
)
from proxrf.errors import EmptyGroup, ModelShapeMismatch
from proxrf.forest import ForestConfig, train
from proxrf.pid import InteractionLabel, PairBatch, PidConfig
from proxrf.trajectory import SmoothingConfig, TrackStates, finite_difference, smoothed_states

from conftest import make_traj, straight_traj, track_states
from per_sample import classify_interaction, dispersion, group_window, lone_cbd, lone_pid

SMOOTH = SmoothingConfig()


def _injected_window(paths, center=9, t2=16, fps=10.0, speeds=None):
    """GroupWindow over exact per-frame positions, bypassing smoothing.

    ``paths`` maps track id to {frame: (x, y)}; ``speeds`` optionally maps
    track id to a constant reported speed.
    """
    member_states = {
        tid: track_states(frames, 0.0 if speeds is None else speeds.get(tid, 0.0))
        for tid, frames in paths.items()
    }
    return GroupWindow(center, t2, fps, member_states)


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


# ------------------------------------------------------------- group window

def test_group_window_span_and_membership():
    w = _injected_window(_const_paths({"a": (0.0, 0.0), "b": (1.0, 0.0)}))
    assert w.span == (2, 17)
    assert list(w.member_states) == ["a", "b"]
    assert w.present.shape == (2, 16) and w.present.all()


def test_group_window_rejects_empty_frame():
    paths = _const_paths({"a": (0.0, 0.0)}, start=2, end=10)
    with pytest.raises(EmptyGroup):
        _injected_window(paths, center=9, t2=16)  # frames 11..17 empty


def test_group_window_t2_must_be_power_of_two():
    paths = _const_paths({"a": (0.0, 0.0)})
    with pytest.raises(ValueError):
        _injected_window(paths, t2=12)


# ------------------------------------------------------- speed and dispersion

def test_mean_speed_double_average():
    paths = _const_paths({"a": (0.0, 0.0), "b": (2.0, 0.0)})
    w = _injected_window(paths, speeds={"a": 1.0, "b": 3.0})
    assert mean_speed(w) == pytest.approx(2.0, abs=1e-12)


def test_mean_speed_uneven_membership():
    # b exists for the second half only: per-frame member average first
    paths = {"a": {f: (0.0, 0.0) for f in range(0, 20)},
             "b": {f: (1.0, 0.0) for f in range(10, 20)}}
    w = _injected_window(paths, center=9, t2=16, speeds={"a": 1.0, "b": 3.0})
    # frames 2..9 average 1.0, frames 10..17 average 2.0
    assert mean_speed(w) == pytest.approx(1.5, abs=1e-12)


def test_mean_speed_from_trajectories():
    a = straight_traj("a", 1.5, 0.2, 60)
    b = straight_traj("b", 1.5, 0.2, 60, origin=(0.0, 1.0))
    w = group_window([a, b], 30, 32, SMOOTH)
    assert mean_speed(w) == pytest.approx(1.5, abs=0.05)


def test_dispersion_change_linear_expansion():
    # members recede at 0.5 m/s each, so the RMS radius grows at 0.5 m/s
    paths = {"a": {f: (-(1.0 + 0.05 * f), 0.0) for f in range(30)},
             "b": {f: (1.0 + 0.05 * f, 0.0) for f in range(30)}}
    w = _injected_window(paths, center=14, t2=16)
    assert dispersion_change(w) == pytest.approx(0.5, abs=1e-9)
    shrink = {"a": {f: (-(2.0 - 0.05 * f), 0.0) for f in range(30)},
              "b": {f: (2.0 - 0.05 * f, 0.0) for f in range(30)}}
    assert dispersion_change(_injected_window(shrink, center=14, t2=16)) == pytest.approx(
        -0.5, abs=1e-9)


def _reversed_window(window: GroupWindow) -> GroupWindow:
    # f -> start + end - f maps the span onto itself, center unchanged
    start, end = window.span
    flip = start + end
    member_states = {}
    for tid, st in window.member_states.items():
        keep = np.flatnonzero((st.frames >= start) & (st.frames <= end))[::-1]
        member_states[tid] = TrackStates(flip - st.frames[keep], st.xy[keep],
                                         st.velocity[keep], st.speed[keep],
                                         st.orientation[keep])
    return GroupWindow(window.center_frame, window.t2, window.fps, member_states)


def test_dispersion_change_time_reversal_antisymmetry():
    rng = np.random.default_rng(33)
    for trial in range(10):
        paths = {
            str(i): {f: tuple(rng.normal(scale=2.0, size=2) + 0.05 * f * np.ones(2) * i)
                     for f in range(24)}
            for i in range(1, 4)
        }
        w = _injected_window(paths, center=11, t2=16)
        back = _reversed_window(w)
        assert dispersion_change(back) == pytest.approx(-dispersion_change(w), abs=1e-9)


@pytest.mark.parametrize("n_members", [3, 8, 12, 20])
def test_cues_equal_per_frame_reference_at_any_group_size(n_members):
    # numpy's pairwise summation starts at 8 values, so the member sums
    # must come out in the per-frame order at every group size
    rng = np.random.default_rng(n_members)
    t2, fps = 16, 10.0
    for trial in range(25):
        present = rng.random((n_members, 40)) < 0.6
        present[rng.integers(n_members, size=40), np.arange(40)] = True
        xy = rng.normal(scale=3.0, size=(n_members, 40, 2))
        speed = rng.gamma(2.0, 0.7, size=(n_members, 40))
        member_states = {}
        for i in rng.permutation(n_members):  # member order is not id order
            frames = np.flatnonzero(present[i])
            member_states[f"m{i}"] = TrackStates(frames, xy[i, frames], np.zeros((len(frames), 2)),
                                                 speed[i, frames], np.full(len(frames), np.nan))
        w = GroupWindow(int(rng.integers(8, 32)), t2, fps, member_states)
        start, end = w.span
        per_frame_speed, spread = [], []
        for f in range(start, end + 1):
            ids = [int(tid[1:]) for tid in member_states if present[int(tid[1:]), f]]
            per_frame_speed.append(sum(speed[i, f] for i in ids) / len(ids))
            spread.append(dispersion([tuple(xy[i, f]) for i in ids]))
        want_speed = sum(per_frame_speed) / t2
        want_change = float(np.mean(finite_difference(np.array(spread), 1.0 / fps)))
        assert mean_speed(w) == want_speed
        assert dispersion_change(w) == want_change


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
    w = group_window(tracks, 69, 32, SMOOTH)
    pairs = pair_vectors([w], PidConfig(), 5, 0)
    [hist] = pool_votes(tiny_stage1, *pairs, 1)
    # 7 stride centers x 6 ordered pairs, every placement covered
    assert len(pair_keys(w, PidConfig(), 5)[2]) == 42
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
    # overlapping windows of one recording at stride 1, one without m2:
    # a key shared by windows has one row, equal to its lone description
    rng = np.random.default_rng(8)
    tracks = [make_traj(t.track_id, t.xy + 0.05 * rng.standard_normal(t.xy.shape))
              for t in _walking_group()]
    states = {t.track_id: smoothed_states(t, SMOOTH) for t in tracks}
    windows = [GroupWindow(c, 32, 10.0, states) for c in (60, 64)]
    windows.append(GroupWindow(62, 32, 10.0, {tid: states[tid] for tid in ("m0", "m1")}))
    vectors, window, row = pair_vectors(windows, PidConfig(), stride=1, seed=4)
    keys = []
    for i, w in enumerate(windows):
        ids = sorted(w.member_states)
        anchor, target, centers = pair_keys(w, PidConfig(), stride=1)
        keys += [(ids[a], ids[t], c) for a, t, c in zip(anchor, target, centers.tolist())]
        assert (window == i).sum() == len(centers)
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
    w = group_window(tracks, 69, 32, SMOOTH)
    pairs = pair_vectors([w], PidConfig(), 5, 0)
    # one-tree models over two labels, listed out of enum order
    x = np.zeros((1, PidConfig().descriptor_length))
    model = train(x, [0], ForestConfig(n_trees=1, seed=0), class_names=["Ap", "F"])
    [hist] = pool_votes(model, *pairs, 1)
    assert len(pair_keys(w, PidConfig(), 5)[2]) == 14
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
    w = group_window([a, b], 69, 32, SMOOTH)
    [hist] = pool_votes(tiny_stage1, *pair_vectors([w], PidConfig(), 5, 0), 1)
    # pid windows [c-31, c+32] must sit inside b's frames 20..89
    good = [c for c in range(54, 86, 5) if c - 31 >= 20 and c + 32 <= 89]
    assert good == [54]
    anchor, target, centers = pair_keys(w, PidConfig(), 5)
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
    k = w.center_frame - w.span[0]
    cues = (mean_speed(w), dispersion_change(w), shape_ratio(w.xy[w.present[:, k], k]))
    assert group_cues(w) == cues and vec[6:].tolist() == list(cues)


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
