"""Trajectory container, smoothing, kinematics and relative geometry."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.signal import lfilter

from proxrf.errors import InvalidFeature, MissingFrames, ProxrfError
from proxrf.trajectory import (
    SmoothingConfig,
    TimedPosition,
    TrackStates,
    Trajectory,
    smoothed_states,
    wrap_angle,
)

from conftest import make_traj, straight_traj
from per_sample import (
    FrameMismatch,
    KinematicState,
    PolarPoint,
    covers,
    derivative,
    positions,
    reference_kinematics,
    reference_states,
    relative_distance_series,
    relative_polar,
)


# ---------------------------------------------------------------- validation

def test_timed_position_rejects_non_finite():
    with pytest.raises(ValueError):
        TimedPosition(0, math.nan, 0.0)
    with pytest.raises(ValueError):
        TimedPosition(3, 1.0, math.inf)


def test_smoothing_config_bounds():
    SmoothingConfig(alpha=0.5, t_s=0.0)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            SmoothingConfig(alpha=bad)
    with pytest.raises(ValueError):
        SmoothingConfig(t_s=-0.1)


def test_relative_polar_rejects_negative_rho():
    PolarPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        PolarPoint(-1e-9, 0.0)


def test_trajectory_rejects_bad_fps_and_frames():
    pts = [TimedPosition(0, 0.0, 0.0), TimedPosition(1, 1.0, 0.0)]
    with pytest.raises(ValueError):
        Trajectory("a", pts, 0.0)
    with pytest.raises(ValueError):
        Trajectory("a", pts, -30.0)
    with pytest.raises(ValueError):
        Trajectory("a", [pts[1], pts[0]], 10.0)
    with pytest.raises(ValueError):
        Trajectory("a", [pts[0], pts[0]], 10.0)


def test_wrap_angle_range_and_identity():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    # -pi is wrapped to the closed end of (-pi, pi]
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3.0 * math.pi / 2.0) == pytest.approx(-math.pi / 2.0)
    rng = np.random.default_rng(11)
    theta = rng.uniform(-50.0, 50.0, size=500)
    w = wrap_angle(theta)
    assert np.all(w > -math.pi) and np.all(w <= math.pi)
    np.testing.assert_allclose(np.exp(1j * w), np.exp(1j * theta), atol=1e-9)


# ----------------------------------------------------------------- smoothing

def _brown_reference(x, a):
    # scalar recursion oracle, both smoothers seeded with the first sample
    s1 = x[0].copy()
    s2 = x[0].copy()
    out = [x[0].copy()]
    for t in range(1, len(x)):
        s1 = a * x[t] + (1.0 - a) * s1
        s2 = a * s1 + (1.0 - a) * s2
        out.append(2.0 * s1 - s2)
    return np.array(out)


def test_smooth_matches_scalar_recursion():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(2, 80))
        xy = np.cumsum(rng.normal(0.0, 0.1, size=(n, 2)), axis=0)
        alpha = float(rng.uniform(0.05, 0.95))
        traj = make_traj("t", xy)
        got = smoothed_states(traj, SmoothingConfig(alpha=alpha)).xy
        np.testing.assert_allclose(got, _brown_reference(xy, alpha), atol=1e-12)


def _lfilter_reference(x, a):
    # both smoothers as IIR filters, state seeded with the first sample
    den = [1.0, -(1.0 - a)]
    s1, _ = lfilter([a], den, x, axis=0, zi=((1.0 - a) * x[0])[np.newaxis, :])
    s2, _ = lfilter([a], den, s1, axis=0, zi=((1.0 - a) * s1[0])[np.newaxis, :])
    return 2.0 * s1 - s2


def test_smooth_is_bitwise_lfilter():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(2, 301))
        xy = rng.uniform(-50.0, 50.0, size=2) + np.cumsum(rng.normal(0.0, 0.3, size=(n, 2)), axis=0)
        alpha = float(rng.uniform(0.01, 0.99))
        got = smoothed_states(make_traj("t", xy), SmoothingConfig(alpha=alpha)).xy
        np.testing.assert_array_equal(got, _lfilter_reference(xy, alpha))


def test_smooth_constant_signal_is_identity():
    xy = np.tile([3.0, -2.0], (40, 1))
    out = smoothed_states(make_traj("c", xy), SmoothingConfig(alpha=0.3)).xy
    np.testing.assert_allclose(out, xy, atol=1e-12)


def test_smooth_first_sample_passes_through():
    rng = np.random.default_rng(5)
    xy = rng.normal(size=(10, 2))
    out = smoothed_states(make_traj("p", xy), SmoothingConfig(alpha=0.8)).xy
    np.testing.assert_allclose(out[0], xy[0], atol=1e-12)


def test_smooth_tracks_linear_ramp():
    # trend correction removes the steady-state lag; the start-up transient
    # decays like (1 - alpha)^t so alpha = 0.9 is well under 1e-6 by frame 10
    t = np.arange(60, dtype=float)
    xy = np.column_stack([0.3 * t, -0.1 * t + 2.0])
    out = smoothed_states(make_traj("r", xy), SmoothingConfig(alpha=0.9)).xy
    err = np.abs(out - xy).max(axis=1)
    assert np.all(err[10:] < 1e-6)


def test_smooth_overflow_names_the_track():
    # finite coordinates whose level and trend terms overflow a float,
    # at the first sample and further on
    for xs, frame in (([1e308, -1e308, 1e308], 0), ([0.0, 1e308, 1e308, 1e308, 1e308], 4)):
        traj = make_traj("walker-7", np.column_stack([xs, np.zeros(len(xs))]))
        message = f"track walker-7: .*overflows at frame {frame}$"
        with pytest.raises(InvalidFeature, match=message) as info:
            smoothed_states(traj, SmoothingConfig())
        assert isinstance(info.value, ProxrfError)


def test_velocity_overflow_names_the_track():
    # alternating +-3e307 smooths to finite positions, but the finite
    # difference times the frame rate overflows, at the first sample and
    # further on
    xs = [3e307 * (-1) ** i for i in range(8)]
    for pos, frame in ((xs, 0), ([0.0, 0.0, 0.0] + xs[:3], 5)):
        traj = make_traj("walker-8", np.column_stack([pos, np.zeros(len(pos))]))
        message = f"track walker-8: velocity overflows at frame {frame}$"
        with pytest.raises(InvalidFeature, match=message):
            smoothed_states(traj, SmoothingConfig())


# ---------------------------------------------------------------- kinematics
# velocity, speed and heading of unsmoothed positions, from the per-sample
# oracle that test_smoothed_states_equal_per_sample_reference ties to the
# library bit for bit

def test_kinematics_straight_line():
    traj = straight_traj("w", speed=1.5, heading=math.pi / 3.0, n_frames=30, fps=30.0)
    states = reference_kinematics(traj, SmoothingConfig())
    assert len(states) == 30
    np.testing.assert_array_equal(states.frames, np.arange(30))
    for speed, orientation in zip(states.speed, states.orientation):
        assert speed == pytest.approx(1.5, abs=1e-9)
        assert orientation == pytest.approx(math.pi / 3.0, abs=1e-9)


def test_kinematics_plus_y_heading():
    traj = straight_traj("n", speed=1.0, heading=math.pi / 2.0, n_frames=10)
    st = reference_kinematics(traj, SmoothingConfig())
    assert st.orientation[4] == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert st.velocity[4, 0] == pytest.approx(0.0, abs=1e-12)
    assert st.velocity[4, 1] == pytest.approx(1.0, abs=1e-12)


def test_kinematics_stationary_has_no_orientation():
    xy = np.tile([1.0, 1.0], (20, 1))
    st = reference_kinematics(make_traj("s", xy), SmoothingConfig())
    assert len(st) == 20
    for speed, orientation in zip(st.speed, st.orientation):
        assert speed == 0.0
        assert math.isnan(orientation)


def test_orientation_absent_iff_below_threshold():
    # per-frame displacement ramps through the slow-speed threshold
    steps = np.linspace(0.0, 0.1, 60)
    xy = np.column_stack([np.concatenate([[0.0], np.cumsum(steps)]), np.zeros(61)])
    cfg = SmoothingConfig(t_s=0.25)
    st = reference_kinematics(make_traj("ramp", xy, fps=10.0), cfg)
    assert len(st) == 61
    for speed, orientation in zip(st.speed, st.orientation):
        assert math.isnan(orientation) == (speed < cfg.t_s)


# ----------------------------------------------------------- relative_polar

def _state(frame, pos, orient, speed=1.0):
    vel = (0.0, 0.0) if orient is None else (speed * math.cos(orient), speed * math.sin(orient))
    return KinematicState(frame=frame, position=pos, velocity=vel,
                          speed=speed, orientation=orient)


def test_relative_polar_target_ahead():
    rng = np.random.default_rng(0)
    rp = relative_polar(_state(0, (0.0, 0.0), 0.0), _state(0, (2.0, 0.0), 0.0), rng)
    assert rp.rho == pytest.approx(2.0, abs=1e-12)
    assert rp.theta == pytest.approx(0.0, abs=1e-12)


def test_relative_polar_anchor_facing_plus_y():
    rng = np.random.default_rng(0)
    rp = relative_polar(
        _state(0, (0.0, 0.0), math.pi / 2.0), _state(0, (1.0, 0.0), 0.0), rng
    )
    assert rp.theta == pytest.approx(-math.pi / 2.0, abs=1e-12)


def test_relative_polar_slow_anchor_randomizes_angle_only():
    a = _state(0, (0.0, 0.0), None, speed=0.0)
    b = _state(0, (1.0, 1.0), 0.0)
    rp1 = relative_polar(a, b, np.random.default_rng(123))
    rp2 = relative_polar(a, b, np.random.default_rng(123))
    rp3 = relative_polar(a, b, np.random.default_rng(124))
    assert rp1.rho == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert rp1.theta == rp2.theta
    assert rp1.theta != rp3.theta
    assert -math.pi < rp1.theta <= math.pi


def test_relative_polar_frame_mismatch():
    with pytest.raises(FrameMismatch):
        relative_polar(_state(0, (0.0, 0.0), 0.0), _state(1, (1.0, 0.0), 0.0),
                       np.random.default_rng(0))


def test_relative_polar_rigid_motion_invariance():
    # rotating and translating both pedestrians leaves (rho, theta) unchanged
    rng = np.random.default_rng(77)
    for trial in range(200):
        pa = rng.uniform(-5.0, 5.0, 2)
        pb = rng.uniform(-5.0, 5.0, 2)
        oa = float(rng.uniform(-math.pi, math.pi))
        base = relative_polar(_state(0, tuple(pa), oa), _state(0, tuple(pb), 0.0),
                              np.random.default_rng(0))
        phi = float(rng.uniform(-math.pi, math.pi))
        shift = rng.uniform(-20.0, 20.0, 2)
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        moved = relative_polar(
            _state(0, tuple(rot @ pa + shift), wrap_angle(oa + phi)),
            _state(0, tuple(rot @ pb + shift), 0.0),
            np.random.default_rng(0),
        )
        assert moved.rho == pytest.approx(base.rho, abs=1e-9)
        assert abs(wrap_angle(moved.theta - base.theta)) < 1e-9


# ------------------------------------------------- distances and derivative

def test_relative_distance_series_parallel_tracks():
    a = straight_traj("a", 1.0, 0.0, 20)
    b = straight_traj("b", 1.0, 0.0, 20, origin=(0.0, 3.0))
    series = relative_distance_series(a, b, (0, 19))
    assert [f for f, _ in series] == list(range(20))
    assert all(d == pytest.approx(3.0, abs=1e-12) for _, d in series)


def test_relative_distance_series_linear_approach():
    a = make_traj("a", np.tile([0.0, 0.0], (20, 1)))
    xs = np.linspace(10.0, 10.0 - 19 * 0.2, 20)
    b = make_traj("b", np.column_stack([xs, np.zeros(20)]))
    series = relative_distance_series(a, b, (0, 19))
    vals = np.array([d for _, d in series])
    np.testing.assert_allclose(np.diff(vals), -0.2, atol=1e-12)


def test_relative_distance_series_window_outside_track():
    a = straight_traj("a", 1.0, 0.0, 10)
    b = straight_traj("b", 1.0, 0.0, 10)
    with pytest.raises(MissingFrames):
        relative_distance_series(a, b, (0, 15))


def test_derivative_constant_and_linear():
    const = [(f, 4.0) for f in range(12)]
    for _, v in derivative(const, fps=10.0):
        assert v == pytest.approx(0.0, abs=1e-12)
    lin = [(f, 0.5 * f / 10.0) for f in range(12)]
    for _, v in derivative(lin, fps=10.0):
        assert v == pytest.approx(0.5, abs=1e-9)


def test_derivative_quadratic_exact_inside():
    fps = 10.0
    series = [(f, (f / fps) ** 2) for f in range(20)]
    out = derivative(series, fps=fps)
    for f, v in out[1:-1]:
        assert v == pytest.approx(2.0 * f / fps, abs=1e-9)
    # one-sided ends of a quadratic are off by exactly h * f''/2 = h
    assert out[0][1] == pytest.approx(2.0 * 0 / fps + 0.1, abs=1e-9)
    assert out[-1][1] == pytest.approx(2.0 * 19 / fps - 0.1, abs=1e-9)


def test_derivative_rejects_bad_series():
    with pytest.raises(ValueError):
        derivative([(0, 1.0)], fps=10.0)
    with pytest.raises(ValueError):
        derivative([(0, 1.0), (1, 2.0), (3, 3.0)], fps=10.0)


def test_derivative_recovers_integrated_signal():
    # derivative of the running trapezoidal integral returns the signal
    fps = 10.0
    frames = np.arange(400)
    g = np.sin(frames / fps / 100.0) + 0.2
    y = np.concatenate([[0.0], cumulative_trapezoid(g, dx=1.0 / fps)])
    out = derivative(list(zip(frames, y)), fps=fps)
    got = np.array([v for _, v in out[1:-1]])
    np.testing.assert_allclose(got, g[1:-1], atol=1e-6)


# -------------------------------------------------------- gaps and coverage

def test_positions_interpolates_small_gap():
    frames = [0, 1, 2, 3, 4, 10, 11]
    xy = np.column_stack([np.array(frames, float) * 0.5, np.zeros(len(frames))])
    traj = make_traj("g", xy, frames=frames)
    pos = positions(traj, 0, 11, max_gap=5)
    assert pos.shape == (12, 2)
    np.testing.assert_allclose(pos[:, 0], np.arange(12) * 0.5, atol=1e-12)
    assert covers(traj, 0, 11, max_gap=5)


def test_positions_gap_beyond_limit_raises():
    frames = list(range(5)) + list(range(11, 16))  # 6 missing frames
    xy = np.zeros((len(frames), 2))
    traj = make_traj("g", xy, frames=frames)
    with pytest.raises(MissingFrames):
        positions(traj, 0, 15, max_gap=5)
    assert not covers(traj, 0, 15, max_gap=5)
    # windows that avoid the gap still work
    assert covers(traj, 0, 4, max_gap=5)
    assert positions(traj, 11, 15, max_gap=5).shape == (5, 2)


def test_positions_rejects_out_of_range_window():
    traj = straight_traj("o", 1.0, 0.0, 10)
    with pytest.raises(MissingFrames):
        positions(traj, -1, 5)
    with pytest.raises(MissingFrames):
        positions(traj, 5, 10)
    assert not covers(traj, 5, 10)


def test_smoothed_states_splits_on_large_gap():
    xy1 = np.column_stack([np.arange(20) * 0.1, np.zeros(20)])
    xy2 = np.column_stack([np.arange(40, 60) * 0.1, np.ones(20)])
    pts = list(np.vstack([xy1, xy2]))
    frames = list(range(20)) + list(range(40, 60))
    traj = make_traj("sp", pts, frames=frames)
    states = smoothed_states(traj, SmoothingConfig(), max_gap=5)
    assert states.frames.tolist() == frames
    # each span is smoothed from its own start, so the second span's first
    # frame passes through unchanged rather than inheriting span-one state
    np.testing.assert_allclose(states.xy[states.rows([40])[0]], (4.0, 1.0), atol=1e-12)


def test_smoothed_states_drops_single_frame_span():
    frames = list(range(10)) + [50]
    xy = np.zeros((11, 2))
    states = smoothed_states(make_traj("one", xy, frames=frames),
                             SmoothingConfig(), max_gap=5)
    assert states.frames.tolist() == list(range(10))
    assert states.rows([9, 10, 50]).tolist() == [9, -1, -1]
    # only single-frame spans: no state at all
    none = smoothed_states(make_traj("two", xy[:2], frames=[0, 50]), SmoothingConfig(),
                           max_gap=5)
    assert len(none) == 0 and none.xy.shape == (0, 2)
    assert none.rows([0, 50]).tolist() == [-1, -1]


def test_smoothed_states_fills_interior_gap():
    frames = [0, 1, 2, 3, 5, 6, 7, 8]  # frame 4 missing
    xy = np.column_stack([np.array(frames, float) * 0.2, np.zeros(8)])
    states = smoothed_states(make_traj("fill", xy, frames=frames),
                             SmoothingConfig(), max_gap=5)
    assert states.frames.tolist() == list(range(9))


# ------------------------------------------- arrays against the per-sample form

@st.composite
def _gapped_tracks(draw):
    """(trajectory, max_gap): frame steps of 1, within max_gap and beyond
    it (so single-frame spans occur), with ordinary or huge coordinates."""
    max_gap = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    steps = draw(st.lists(st.one_of(st.just(1), st.integers(2, max_gap + 1),
                                    st.integers(max_gap + 2, max_gap + 30)),
                          min_size=n - 1, max_size=n - 1))
    frames = np.cumsum([draw(st.integers(-2**40, 2**40))] + steps)
    if draw(st.booleans()):
        coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    else:  # overflows in smoothing or in the velocity
        coord = st.sampled_from([3e307, -3e307, 1e308, -1e308, 0.0])
    xy = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    return make_traj(draw(st.sampled_from(["a", "walker-7"])), xy, frames=frames.tolist(),
                     fps=draw(st.sampled_from([10.0, 25.0]))), max_gap


@settings(max_examples=300, deadline=None)
@given(_gapped_tracks(), st.floats(0.05, 0.95), st.floats(0.0, 2.0))
@example((make_traj("walker-8", [(3e307 * (-1) ** i, 0.0) for i in range(8)]), 5), 0.5, 0.25)
@example((make_traj("one", [(0.0, 0.0)] * 4, frames=[0, 1, 9, 20]), 5), 0.5, 0.25)
@example((make_traj("a", [(1e308, 0.0), (-1e308, 0.0)], frames=[1, 3]), 5), 0.5, 0.25)
def test_smoothed_states_equal_per_sample_reference(track, alpha, t_s):
    traj, max_gap = track
    assert Trajectory(traj.track_id, traj.samples, traj.fps) == traj
    cfg = SmoothingConfig(alpha=alpha, t_s=t_s)
    try:
        want = reference_states(traj, cfg, max_gap=max_gap)
    # filling a gap between huge coordinates, smoothing or the velocity
    # overflows
    except InvalidFeature as e:
        with pytest.raises(type(e)) as info:
            smoothed_states(traj, cfg, max_gap=max_gap)
        assert type(info.value) is type(e) and str(info.value) == str(e)
        return
    got = smoothed_states(traj, cfg, max_gap=max_gap)
    for f in fields(TrackStates):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype, f.name
        assert np.array_equal(a, b, equal_nan=True), f.name


@settings(max_examples=150, deadline=None)
@given(st.lists(_gapped_tracks(), min_size=1, max_size=6), st.floats(0.05, 0.95))
@example([(make_traj("a", [(0.0, 0.0)] * 3), 5),
          (make_traj("b", [(3e307 * (-1) ** i, 0.0) for i in range(8)]), 5),
          (make_traj("c", [(1e308, 0.0), (-1e308, 0.0)], frames=[1, 3]), 5)], 0.5)
def test_smoothed_states_of_many_tracks_equal_one_by_one(tracks, alpha):
    # spans of every length smoothed together give each track's own
    # states; a failure names the first track that fails alone
    max_gap = tracks[0][1]
    trajs = [t for t, _ in tracks]
    cfg = SmoothingConfig(alpha=alpha)
    want = []
    for t in trajs:
        try:
            want.append(smoothed_states(t, cfg, max_gap=max_gap))
        except InvalidFeature as e:
            want = str(e)
            break
    try:
        got = smoothed_states(trajs, cfg, max_gap=max_gap)
    except InvalidFeature as e:
        got = str(e)
    if isinstance(want, str):
        assert got == want
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in fields(TrackStates):
            assert getattr(a, f.name).dtype == getattr(b, f.name).dtype, f.name
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=True)


def test_array_constructor_validates_like_samples():
    traj = Trajectory.from_arrays(7, [3, 4, 9], [[0.0, 1.0], [2.0, 3.0], [-0.0, 5.0]], 25)
    assert traj.track_id == "7" and traj.fps == 25.0
    assert traj.frames.dtype == np.int64 and traj.xy.shape == (3, 2)
    assert traj.samples == (TimedPosition(3, 0.0, 1.0), TimedPosition(4, 2.0, 3.0),
                            TimedPosition(9, -0.0, 5.0))
    assert Trajectory("7", traj.samples, 25.0) == traj
    with pytest.raises(ValueError, match="fps must be > 0"):
        Trajectory.from_arrays("a", [0, 1], [[0.0, 0.0]] * 2, 0.0)
    with pytest.raises(ValueError, match="track a: frames must strictly increase"):
        Trajectory.from_arrays("a", [0, 0], [[0.0, 0.0]] * 2, 10.0)
    with pytest.raises(ValueError, match="^non-finite position at frame 4$"):
        Trajectory.from_arrays("a", [2, 4, 5], [[0.0, 0.0], [1.0, math.nan], [math.inf, 0.0]],
                               10.0)
    # the track keeps its own read-only copies
    frames, xy = np.arange(3), np.zeros((3, 2))
    traj = Trajectory.from_arrays("c", frames, xy, 10.0)
    frames[0], xy[0, 0] = -5, 1.0
    assert traj.first_frame == 0 and traj.xy[0, 0] == 0.0
    with pytest.raises(ValueError):
        traj._xy[0, 0] = 1.0
