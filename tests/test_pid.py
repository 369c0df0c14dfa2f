"""Polar histogram KDE, speed pyramid and pairwise descriptor assembly."""

import math
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrf import pid as pid_module
from proxrf.errors import MissingFrames, ModelShapeMismatch
from proxrf.forest import ForestConfig, train
from proxrf.keyed import HEADING
from proxrf.pid import (
    InteractionLabel,
    PairBatch,
    PidConfig,
    PolarGrid,
    describe_pairs,
    heading_draws,
)
from proxrf.synth import (
    SynthParams,
    make_collective_corpus,
    make_contrast_corpus,
    make_pair_corpus,
)
from proxrf.trajectory import (
    SmoothingConfig,
    TrackStates,
    smoothed_states,
    wrap_angle,
)

from conftest import make_traj, straight_traj
from per_sample import (
    KinematicState,
    PolarPoint,
    WrongWindowLength,
    accumulate_histogram,
    cell_of,
    classify_interaction,
    derivative,
    kde_kernel,
    lone_pid,
    reference_key_hash,
    relative_polar,
    sample_grid,
    speed_pyramid,
)

CFG = PidConfig()


# ------------------------------------------------------------------- kernel

def test_kernel_zero_and_unit_exponent():
    c = PolarPoint(2.0, 0.5)
    assert kde_kernel(c, c, CFG) == pytest.approx(1.0, abs=1e-15)
    # rho offset sqrt(2 sigma_rho) alone gives exponent 1
    s = PolarPoint(2.0 + math.sqrt(2.0 * CFG.sigma_rho), 0.5)
    assert kde_kernel(s, c, CFG) == pytest.approx(math.exp(-1.0), abs=1e-12)
    t = PolarPoint(2.0, 0.5 + math.sqrt(2.0 * CFG.sigma_theta))
    assert kde_kernel(t, c, CFG) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_kernel_wraps_angle():
    eps = 0.01
    near = kde_kernel(PolarPoint(1.0, math.pi - eps), PolarPoint(1.0, -math.pi + eps), CFG)
    assert near == pytest.approx(math.exp(-((2 * eps) ** 2) / (2.0 * CFG.sigma_theta)), abs=1e-12)


def test_kernel_matches_brute_force_wrap():
    # smallest signed difference equals the minimum over 2*pi shifts
    rng = np.random.default_rng(8)
    dr, dt = 2.0 * CFG.sigma_rho, 2.0 * CFG.sigma_theta
    for trial in range(300):
        rho_s, rho_c = rng.uniform(0.0, 6.0, 2)
        th_s, th_c = rng.uniform(-math.pi, math.pi, 2)
        got = kde_kernel(PolarPoint(rho_s, th_s), PolarPoint(rho_c, th_c), CFG)
        d2 = min((th_s - th_c + 2.0 * math.pi * k) ** 2 for k in range(-2, 3))
        want = math.exp(-((rho_s - rho_c) ** 2) / dr - d2 / dt)
        assert got == pytest.approx(want, rel=1e-12)


def test_kernel_variance_denominator_flag():
    cfg2 = PidConfig(variance_denominator=True)
    c = PolarPoint(2.0, 0.0)
    s = PolarPoint(2.0 + CFG.sigma_rho * math.sqrt(2.0), 0.0)
    assert kde_kernel(s, c, cfg2) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert kde_kernel(s, c, CFG) == pytest.approx(math.exp(-CFG.sigma_rho), abs=1e-12)


# ------------------------------------------------------------- grid binning

def test_polar_grid_edges():
    g = PolarGrid()
    assert g.band_count == 4 and g.cell_count == 16
    assert [int(g.band_of(r)) for r in (0.0, 0.49, 0.5, 1.24, 1.25, 3.49, 3.5, 99.0)] == [
        0, 0, 1, 1, 2, 2, 3, 3]
    # sector boundaries at +-pi/4, +-3pi/4 belong to the counterclockwise side
    assert [int(g.sector_of(t)) for t in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4,
                                          math.pi, -math.pi / 2, -math.pi / 4)] == [
        0, 1, 1, 2, 2, 3, 0]
    assert int(cell_of(g, 2.0, math.pi)) == 2 * 4 + 2


def test_polar_grid_validation():
    with pytest.raises(ValueError):
        PolarGrid(distance_boundaries=(0.5, 0.5, 3.5))
    with pytest.raises(ValueError):
        PolarGrid(distance_boundaries=(-1.0, 2.0))
    with pytest.raises(ValueError):
        PolarGrid(angular_sector_count=0)


def test_pid_config_validation():
    for bad in ({"t1": 63}, {"t1": 0}, {"sigma_rho": 0.0}, {"sigma_theta": -1.0},
                {"k_s": 0.0}, {"l_max": 7}, {"grid_samples_per_axis": 0},
                {"assignment": "soft"}):
        with pytest.raises(ValueError):
            PidConfig(**bad)


def test_descriptor_length_per_pyramid_depth():
    for l_max, want in ((0, 17), (1, 19), (2, 23), (3, 31)):
        assert PidConfig(l_max=l_max).descriptor_length == want


# -------------------------------------------------------------- sample_grid

def test_sample_grid_interior_center():
    pts = sample_grid(PolarPoint(2.0, 0.0), CFG)
    assert len(pts) == 81
    assert sum(w for _, w in pts) == pytest.approx(1.0, abs=1e-9)
    assert all(p.rho >= 0.0 and -math.pi < p.theta <= math.pi for p, _ in pts)


def test_sample_grid_drops_negative_rho():
    # rho offsets step by 0.1875, so rho_o = 0.1 keeps 5 of the 9 rows
    pts = sample_grid(PolarPoint(0.1, 1.0), CFG)
    assert len(pts) == 45
    assert sum(w for _, w in pts) == pytest.approx(1.0, abs=1e-9)


def _dense_cell_masses(center, cfg, n=800):
    """Midpoint quadrature of the kernel over every full cell region."""
    rho_hi = center.rho + 8.0 * math.sqrt(cfg.sigma_rho)
    r_edges = np.linspace(0.0, rho_hi, n + 1)
    t_edges = np.linspace(-math.pi, math.pi, n + 1)
    r = 0.5 * (r_edges[:-1] + r_edges[1:])
    t = 0.5 * (t_edges[:-1] + t_edges[1:])
    dr, dt = 2.0 * cfg.sigma_rho, 2.0 * cfg.sigma_theta
    d_theta = np.remainder(t - center.theta + math.pi, 2.0 * math.pi) - math.pi
    w = np.outer(np.exp(-((r - center.rho) ** 2) / dr), np.exp(-(d_theta**2) / dt))
    w /= w.sum()
    cells = (cfg.grid.band_of(r)[:, None] * cfg.grid.angular_sector_count
             + cfg.grid.sector_of(t)[None, :])
    return np.bincount(cells.ravel(), weights=w.ravel(), minlength=cfg.grid.cell_count)


def test_sample_grid_tracks_dense_integration():
    # interior center: the sampling box stays inside one distance band, so
    # grid-sampled cell masses match the cell integrals of the kernel
    center = PolarPoint(2.375, 0.0)
    dense = _dense_cell_masses(center, CFG)
    approx = np.zeros(16)
    for p, w in sample_grid(center, CFG):
        approx[cell_of(CFG.grid, p.rho, p.theta)] += w
    mask = dense >= 0.01
    assert mask.sum() >= 3
    rel = np.abs(approx[mask] - dense[mask]) / dense[mask]
    assert rel.max() < 0.05


# ---------------------------------------------------------------- histogram

def _random_polars(rng, n):
    return [PolarPoint(float(r), float(t))
            for r, t in zip(rng.uniform(0.0, 6.0, n), rng.uniform(-math.pi, math.pi, n))]


def test_histogram_normalization_property():
    rng = np.random.default_rng(31)
    for assignment in ("kde", "hard"):
        cfg = PidConfig(t1=16, assignment=assignment)
        for trial in range(25):
            hist = accumulate_histogram(_random_polars(rng, 16), cfg.grid, cfg)
            assert hist.min() >= 0.0
            assert hist.sum() == pytest.approx(1.0, abs=1e-12)


def test_histogram_window_length_checked():
    with pytest.raises(WrongWindowLength):
        accumulate_histogram(_random_polars(np.random.default_rng(0), 63), CFG.grid, CFG)


def test_hard_assignment_matches_manual_count():
    rng = np.random.default_rng(9)
    cfg = PidConfig(t1=32, assignment="hard")
    samples = _random_polars(rng, 32)
    hist = accumulate_histogram(samples, cfg.grid, cfg)
    want = np.zeros(16)
    for s in samples:
        want[cell_of(cfg.grid, s.rho, s.theta)] += 1.0 / 32.0
    np.testing.assert_allclose(hist, want, atol=1e-12)


def test_kde_equals_hard_for_tiny_kernel():
    # samples kept > 3 sigma away from every cell boundary: the whole grid
    # falls inside the sample's own cell, so smoothing changes nothing
    rng = np.random.default_rng(13)
    kde = PidConfig(t1=64, sigma_rho=0.01, sigma_theta=0.01)
    hard = PidConfig(t1=64, sigma_rho=0.01, sigma_theta=0.01, assignment="hard")
    margins = [(0.05, 0.45), (0.55, 1.20), (1.30, 3.45), (3.55, 6.0)]
    samples = []
    for _ in range(64):
        lo, hi = margins[int(rng.integers(4))]
        rho = float(rng.uniform(lo, hi))
        sector = int(rng.integers(4))
        theta = sector * math.pi / 2.0 + float(rng.uniform(-math.pi / 4 + 0.05,
                                                           math.pi / 4 - 0.05))
        samples.append(PolarPoint(rho, float(np.remainder(theta + math.pi,
                                                             2 * math.pi) - math.pi)))
    h_kde = accumulate_histogram(samples, kde.grid, kde)
    h_hard = accumulate_histogram(samples, hard.grid, hard)
    np.testing.assert_allclose(h_kde, h_hard, atol=1e-12)


def test_boundary_sample_splits_evenly_with_even_grid():
    # an even sample count per axis has no node sitting on the boundary
    # itself, so a sector-boundary sample splits its mass symmetrically
    cfg = PidConfig(t1=2, grid_samples_per_axis=10)
    samples = [PolarPoint(2.0, math.pi / 4.0)] * 2
    hist = accumulate_histogram(samples, cfg.grid, cfg)
    assert hist[2 * 4 + 0] == pytest.approx(hist[2 * 4 + 1], abs=1e-3)
    assert hist[2 * 4 + 0] > 0.3


def _polar_pair(rho, theta):
    """Anchor states at the origin facing +x, target states at each
    frame's polar point, and the per-frame samples a batch derives from
    them: math.hypot and math.atan2 of the target's offset."""
    n = len(rho)
    frames = np.arange(n, dtype=np.int64)
    xy = np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])
    anchor = TrackStates(frames, np.zeros((n, 2)), np.zeros((n, 2)), np.ones(n), np.zeros(n))
    target = TrackStates(frames, xy, np.zeros((n, 2)), np.ones(n), np.zeros(n))
    samples = [PolarPoint(math.hypot(x, y), wrap_angle(math.atan2(y, x)))
               for x, y in xy.tolist()]
    return anchor, target, samples


def test_histogram_codes_match_whole_window_arithmetic():
    # per-frame kernel codes and a weight table per kept-offset count, as a
    # batch reads them, give the bits of the direct computation of the
    # whole window, including frames near rho = 0 whose inner radial
    # offsets fall below zero
    rng = np.random.default_rng(41)
    configs = [
        PidConfig(t1=16), PidConfig(t1=64), PidConfig(t1=16, assignment="hard"),
        PidConfig(t1=64, grid_samples_per_axis=1),
        PidConfig(t1=16, grid_samples_per_axis=4, sigma_rho=0.6, variance_denominator=True),
        PidConfig(t1=32, grid_samples_per_axis=10, k_s=2.0),
        PidConfig(t1=16, grid=PolarGrid((1.0, 2.0), 6)),
    ]
    for cfg in configs:
        for trial in range(30):
            rho = np.where(rng.random(cfg.t1) < 0.3, rng.uniform(0.0, 0.8, cfg.t1),
                           rng.uniform(0.0, 6.0, cfg.t1))
            rho[rng.random(cfg.t1) < 0.05] = 0.0
            theta = rng.uniform(-math.pi, math.pi, cfg.t1)
            anchor, target, samples = _polar_pair(rho, theta)
            batch = PairBatch([(anchor, target, "a", "b", [cfg.window_halves[0]])], cfg, 10.0, 0)
            got = batch.vectors[0, :cfg.grid.cell_count]
            want = accumulate_histogram(samples, cfg.grid, cfg)
            assert np.array_equal(got, want), (cfg, trial)


# ------------------------------------------------------------ speed pyramid

def test_pyramid_constant_and_split():
    cfg = PidConfig(t1=64, l_max=1)
    out = speed_pyramid(np.full(64, 0.7), cfg)
    np.testing.assert_allclose(out, 0.7, atol=1e-12)
    halves = np.concatenate([np.full(32, -1.0), np.full(32, 1.0)])
    np.testing.assert_allclose(speed_pyramid(halves, cfg), [0.0, -1.0, 1.0], atol=1e-12)


def test_pyramid_parent_is_mean_of_children():
    rng = np.random.default_rng(17)
    for l_max in range(4):
        cfg = PidConfig(t1=64, l_max=l_max)
        for trial in range(30):
            out = speed_pyramid(rng.normal(size=64), cfg)
            assert len(out) == 2 ** (l_max + 1) - 1
            for level in range(l_max):
                parents = out[2**level - 1: 2 ** (level + 1) - 1]
                children = out[2 ** (level + 1) - 1: 2 ** (level + 2) - 1]
                np.testing.assert_allclose(
                    parents, 0.5 * (children[0::2] + children[1::2]), atol=1e-12)


def test_pyramid_length_checked():
    with pytest.raises(WrongWindowLength):
        speed_pyramid(np.zeros(63), PidConfig(t1=64))


# ------------------------------------------------------------ lone windows

SMOOTH = SmoothingConfig()


def test_standing_pair_descriptor():
    # 1 m apart, noiseless: personal band dominates, pyramid exactly zero
    n = 80
    a = make_traj("a", np.tile([0.0, 0.0], (n, 1)))
    b = make_traj("b", np.tile([1.0, 0.0], (n, 1)))
    d = lone_pid(a, b, 39, PidConfig(), SMOOTH, seed=5)
    band_mass = d[:16].reshape(4, 4).sum(axis=1)
    assert band_mass[1] == max(band_mass)
    assert band_mass[1] > 0.5
    np.testing.assert_allclose(d[16:], 0.0, atol=1e-9)
    assert len(d) == 19


def test_head_on_approach_pyramid():
    n = 100
    anchor = make_traj("a", np.tile([0.0, 0.0], (n, 1)))
    xs = 12.0 - np.arange(n) / 10.0  # 1 m/s toward the anchor
    target = make_traj("b", np.column_stack([xs, np.zeros(n)]))
    d = lone_pid(anchor, target, 55, PidConfig(), SMOOTH, seed=0)
    np.testing.assert_allclose(d[16:], -1.0, atol=0.05)


def test_self_pair_lands_in_intimate_band():
    traj = straight_traj("a", 1.2, 0.3, 80)
    cfg = PidConfig(assignment="hard")
    d = lone_pid(traj, traj, 39, cfg, SMOOTH)
    assert d[:4].sum() == pytest.approx(1.0, abs=1e-12)
    # KDE smoothing leaks into the personal band but intimate still leads
    d2 = lone_pid(traj, traj, 39, PidConfig(), SMOOTH)
    band_mass = d2[:16].reshape(4, 4).sum(axis=1)
    assert band_mass[0] == max(band_mass) and band_mass[0] > 0.7


def test_follow_swap_exchanges_front_and_back_mass():
    n = 90
    xs = np.arange(n) * 0.12  # 1.2 m/s at 10 fps
    lead = make_traj("lead", np.column_stack([xs + 1.5, np.zeros(n)]))
    tail = make_traj("tail", np.column_stack([xs, np.zeros(n)]))
    fwd = lone_pid(tail, lead, 44, PidConfig(), SMOOTH)  # target ahead
    bwd = lone_pid(lead, tail, 44, PidConfig(), SMOOTH)  # target behind
    front = fwd[:16].reshape(4, 4)[:, 0]
    back = bwd[:16].reshape(4, 4)[:, 2]
    np.testing.assert_allclose(front, back, atol=1e-6)
    # angular smoothing leaks ~0.21 of the mass into the side sectors
    assert front.sum() > 0.75
    np.testing.assert_allclose(fwd[16:], bwd[16:], atol=1e-9)


def _random_walk(rng, track_id, n, fps=10.0):
    heading = rng.uniform(-math.pi, math.pi)
    steps = 0.12 + 0.02 * rng.standard_normal((n, 2))
    u = np.array([math.cos(heading), math.sin(heading)])
    xy = rng.uniform(-3, 3, 2) + np.cumsum(steps * u, axis=0)
    return make_traj(track_id, xy, fps=fps)


def test_pid_rigid_motion_invariance():
    rng = np.random.default_rng(23)
    cfg = PidConfig(t1=32)
    for trial in range(8):
        a = _random_walk(rng, "a", 40)
        b = _random_walk(rng, "b", 40)
        base = lone_pid(a, b, 19, cfg, SMOOTH, seed=3)
        phi = float(rng.uniform(-math.pi, math.pi))
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        shift = rng.uniform(-40.0, 40.0, 2)
        a2 = make_traj("a", a.xy @ rot.T + shift)
        b2 = make_traj("b", b.xy @ rot.T + shift)
        moved = lone_pid(a2, b2, 19, cfg, SMOOTH, seed=3)
        np.testing.assert_allclose(moved, base, atol=1e-9)


def test_standing_anchor_angle_depends_on_seed_only():
    n = 80
    a = make_traj("a", np.tile([0.0, 0.0], (n, 1)))
    b = make_traj("b", np.tile([0.0, 2.0], (n, 1)))
    d1 = lone_pid(a, b, 39, PidConfig(), SMOOTH, seed=5)
    d2 = lone_pid(a, b, 39, PidConfig(), SMOOTH, seed=5)
    d3 = lone_pid(a, b, 39, PidConfig(), SMOOTH, seed=6)
    # every bit of the seed counts, not only its low 32
    d4 = lone_pid(a, b, 39, PidConfig(), SMOOTH, seed=5 + 2**32)
    np.testing.assert_array_equal(d1, d2)
    assert np.any(d1[:16] != d3[:16])
    assert np.any(d1[:16] != d4[:16])
    # the random draw only affects angles, distances are untouched
    np.testing.assert_array_equal(d1[16:], d3[16:])


def test_compute_pid_error_paths():
    # a window that reaches before the tracks start
    a = straight_traj("a", 1.0, 0.0, 40)
    b = straight_traj("b", 1.0, 0.0, 40)
    with pytest.raises(MissingFrames, match="track a: no state at frame -10"):
        lone_pid(a, b, 5, PidConfig(t1=32), SMOOTH)


def _heading_rng(seed, anchor_id, target_id, frame):
    # the slow-anchor heading key: (seed, crc32 of both ids, frame); one
    # keyed draw per pair-frame, the reference that heading_draws makes
    # in bulk
    h = reference_key_hash(HEADING, seed, _word(anchor_id), _word(target_id), frame)
    return SimpleNamespace(random=lambda: (h >> 11) * 2.0**-53)


def _per_frame(states):
    """frame -> KinematicState of a TrackStates, the reference format."""
    return {
        f: KinematicState(f, tuple(p), tuple(v), s, None if math.isnan(o) else o)
        for f, p, v, s, o in zip(states.frames.tolist(), states.xy.tolist(),
                                 states.velocity.tolist(), states.speed.tolist(),
                                 states.orientation.tolist())
    }


def _reference_vector(sa, sb, anchor_id, target_id, center, cfg, fps, seed):
    """One window described frame by frame with relative_polar."""
    back, fwd = cfg.window_halves
    frames = range(center - back, center + fwd + 1)
    rel = []
    for f in frames:
        a, b = sa.get(f), sb.get(f)
        if a is None or b is None:
            raise MissingFrames(f"track {anchor_id if a is None else target_id}: "
                                f"no state at frame {f}")
        rng = _heading_rng(seed, anchor_id, target_id, f) if a.orientation is None else None
        rel.append(relative_polar(a, b, rng))
    d_prime = derivative([(f, r.rho) for f, r in zip(frames, rel)], fps)
    return np.concatenate([accumulate_histogram(rel, cfg.grid, cfg),
                           speed_pyramid([v for _, v in d_prime], cfg)])


def test_batch_windows_match_per_frame_reference():
    rng = np.random.default_rng(17)
    n = 120
    # the anchor stands (random headings) for frames 0-29 and 90-119
    steps = np.zeros((n, 2))
    steps[30:90, 0] = 0.12
    a_xy = np.cumsum(steps, axis=0) + 0.01 * rng.standard_normal((n, 2))
    b_xy = np.column_stack([np.arange(n) * 0.1, np.full(n, 1.0)])
    b_xy += 0.02 * rng.standard_normal((n, 2))
    keep = np.r_[0:60, 72:n]  # a 12-frame hole, beyond max_gap: two spans
    tracks = {
        "a": make_traj("a", a_xy),
        "b": make_traj("b", b_xy[keep], frames=keep),
        "c": make_traj("c", b_xy[8:100] + [0.0, -2.5], first_frame=8),
    }
    states = {tid: smoothed_states(t, SMOOTH) for tid, t in tracks.items()}
    per_frame = {tid: _per_frame(st) for tid, st in states.items()}
    assert min(st.speed for st in per_frame["b"].values()) >= SMOOTH.t_s
    assert sum(st.orientation is None for st in per_frame["a"].values()) > 40
    configs = [PidConfig(t1=16, l_max=l) for l in range(4)]
    configs += [PidConfig(t1=16, assignment="hard"), PidConfig(t1=32, l_max=2)]
    seed = 11
    described, errors = set(), set()
    centers = range(-20, n + 20)
    pairs = (("a", "b"), ("b", "a"), ("a", "c"), ("c", "b"))
    for cfg in configs:
        # one batch per config, built over every pair and center at once
        batch = PairBatch([(states[aid], states[tid], aid, tid, centers) for aid, tid in pairs],
                          cfg, 10.0, seed)
        back, fwd = cfg.window_halves
        row = iter(range(len(pairs) * len(centers)))  # the batch's rows, in input order
        for aid, tid in pairs:
            sa, sb = states[aid], states[tid]
            for center in centers:
                i = next(row)
                try:
                    want = _reference_vector(per_frame[aid], per_frame[tid], aid, tid, center,
                                             cfg, 10.0, seed)
                except MissingFrames as e:
                    errors.add(str(e))
                    assert not batch.complete[i]
                    with pytest.raises(MissingFrames) as got:
                        describe_pairs([(sa, sb, aid, tid, [center])], cfg, 10.0, seed)
                    assert str(got.value) == str(e)
                    continue
                described.add((aid, tid, center - back, center + fwd))
                lone = describe_pairs([(sa, sb, aid, tid, [center])], cfg, 10.0, seed)[0]
                assert batch.complete[i] and np.array_equal(batch.vectors[i], want), \
                    (aid, tid, center, cfg)
                assert np.array_equal(lone, want), (aid, tid, center, cfg)
    # windows flush with both edges of each of b's spans, and errors that
    # name the anchor, the target and b's hole
    for edge in ((0, 15), (44, 59), (72, 87), (104, 119)):
        assert ("a", "b") + edge in described
    for msg in ("track a: no state at frame -1", "track b: no state at frame 60",
                "track c: no state at frame 100", "track b: no state at frame 120"):
        assert msg in errors


def test_batch_spans_the_union_of_its_windows_and_is_read_only():
    sa = smoothed_states(straight_traj("a", 1.3, 0.0, 140), SMOOTH)
    b_traj = straight_traj("b", 1.3, 0.0, 140, origin=(0.0, 1.0))
    full = smoothed_states(b_traj, SMOOTH)
    # b without the frames between the windows at 40 and 60, split there
    keep = np.r_[0:49, 53:140]
    holed = smoothed_states(make_traj("b", b_traj.xy[keep], frames=keep), SMOOTH, max_gap=1)
    cfg = PidConfig(t1=16)
    back, fwd = cfg.window_halves
    assert (40 + fwd, 60 - back) == (48, 53)
    for sb in (full, holed):
        batch = PairBatch([(sa, sb, "a", "b", [60, 40])], cfg, 10.0, 3)
        # rows in input order; both windows complete, as the frames
        # between them are no rows of the pair's block
        assert batch.complete.tolist() == [True, True]
        for k, center in enumerate((60, 40)):
            got = batch.vectors[k]
            lone = PairBatch([(sa, sb, "a", "b", [center])], cfg, 10.0, 3).vectors[0]
            assert np.array_equal(got, lone)
        with pytest.raises(ValueError):
            batch.vectors[0, 0] = 1.0
        with pytest.raises(ValueError):
            got[0] = 1.0
    assert PairBatch([(sa, full, "a", "b", [50])], cfg, 10.0, 3).complete.tolist() == [True]
    for centers in ([50], [60, 40, 50]):
        assert not PairBatch([(sa, holed, "a", "b", centers)], cfg, 10.0, 3).complete[-1]
        with pytest.raises(MissingFrames, match="^track b: no state at frame 49$"):
            describe_pairs([(sa, holed, "a", "b", centers)], cfg, 10.0, 3)


def _word(track_id):
    return zlib.crc32(track_id.encode("utf-8"))


def test_heading_draws_equal_keyed_reference():
    # one pair's id words broadcast against its frames, for many pairs,
    # with seeds and frames at and beyond the edges of 32 and 64 bits
    rng = np.random.default_rng(23)
    ids = ["a", "b", "track-17", "\u00e9", "\u2603 snow", "", "0"]
    cases = []
    for trial in range(40):
        anchor, target = (ids[k] for k in rng.integers(len(ids), size=2))
        cases.append((int(rng.integers(-2**40, 2**40)), anchor, target,
                      rng.integers(-2**40, 2**40, size=int(rng.integers(1, 40)))))
    edges = np.array([0, 1, -1, -5, 2**32 - 1, 2**32, 2**32 + 5, -2**32, 2**63 - 1, -2**63])
    for seed in (0, 3, -5, 2**32 + 3, 2**64 + 3, -2**70):
        cases.append((seed, "\u00e9", "a", edges))
    for seed, anchor, target, frames in cases:
        want = [_heading_rng(seed, anchor, target, int(f)).random() for f in frames]
        assert np.array_equal(heading_draws(seed, _word(anchor), _word(target), frames), want)
    empty = heading_draws(1, _word("a"), _word("b"), np.array([], dtype=np.int64))
    assert empty.shape == (0,) and empty.dtype == float


def test_heading_draws_over_rows_of_mixed_pairs_equal_keyed_reference():
    # one call over rows of many (anchor, target) pairs, as a batch makes
    # it: per-row id words, frames in no particular order, and seeds and
    # frames at and beyond the edges of 32 and 64 bits
    rng = np.random.default_rng(29)
    ids = ["a", "b", "track-17", "\u00e9", "\u2603 snow", "", "0"]
    n = 300
    anchors = [ids[k] for k in rng.integers(len(ids), size=n)]
    targets = [ids[k] for k in rng.integers(len(ids), size=n)]
    frames = rng.integers(-2**40, 2**40, size=n)
    frames[:10] = [0, 1, -1, -5, 2**32 - 1, 2**32, 2**32 + 5, -2**32, 2**63 - 1, -2**63]
    anchor_words = np.array([_word(a) for a in anchors], dtype=np.uint64)
    target_words = np.array([_word(t) for t in targets], dtype=np.uint64)
    draws = {}
    for seed in (0, 3, -5, 2**32 + 3, 2**64 + 3, -2**70):
        want = [_heading_rng(seed, a, t, int(f)).random()
                for a, t, f in zip(anchors, targets, frames)]
        draws[seed] = heading_draws(seed, anchor_words, target_words, frames)
        assert np.array_equal(draws[seed], want)
        # one pair's words broadcast against its frames
        assert np.array_equal(heading_draws(seed, _word("\u00e9"), _word("a"), frames[:10]),
                              [_heading_rng(seed, "\u00e9", "a", int(f)).random()
                               for f in frames[:10]])
    # seeds count modulo 2**64, not 2**32
    assert np.array_equal(draws[3], draws[2**64 + 3])
    assert not np.any(draws[3] == draws[2**32 + 3])


def _recordings_of_acceptance_corpora():
    # the generators and parameters of the pairwise, collective and
    # alignment-contrast benchmarks, one scene per class
    bench = SynthParams(seed=7, noise_sigma=0.02)
    return (make_pair_corpus(bench, 1) + make_collective_corpus(bench, 1)
            + make_contrast_corpus(bench, 1))


def test_pair_vectors_match_per_window_descriptors():
    rng = np.random.default_rng(5)
    configs = [
        PidConfig(t1=16), PidConfig(t1=64), PidConfig(t1=16, assignment="hard"),
        PidConfig(t1=64, grid_samples_per_axis=1),
        PidConfig(t1=16, grid_samples_per_axis=4, sigma_rho=0.6, variance_denominator=True),
    ]
    seed, checked = 7, 0
    for rec in _recordings_of_acceptance_corpora():
        tracks = {t.track_id: t for t in rec.trajectories}
        states = {tid: smoothed_states(t, SMOOTH) for tid, t in tracks.items()}
        lo, hi = rec.frame_range
        for cfg in configs:
            back, fwd = cfg.window_halves
            keys = [(a, t, c) for a in sorted(tracks) for t in sorted(tracks) if a != t
                    for c in range(lo + back, hi - fwd + 1, 7)
                    if _covers(states[a], c, back, fwd) and _covers(states[t], c, back, fwd)]
            keys = [keys[i] for i in rng.permutation(len(keys))]
            got = _describe_keys(states, keys, cfg, rec.fps, seed)
            for (aid, tid, center), vec in zip(keys, got):
                want = PairBatch([(states[aid], states[tid], aid, tid, [center])], cfg,
                                 rec.fps, seed).vectors[0]
                assert np.array_equal(vec, want), (rec.sequence_id, aid, tid, center, cfg)
            for k in range(0, len(keys), 23):
                aid, tid, center = keys[k]
                want = lone_pid(tracks[aid], tracks[tid], center, cfg, SMOOTH, seed)
                assert np.array_equal(got[k], want)
            checked += len(keys)
    assert checked > 5000


def _describe_keys(states, keys, cfg, fps, seed):
    """describe_pairs over (anchor, target, center) keys, one pair per
    anchor and target in the order they first come, with its centers in
    key order (not sorted); the rows back in key order."""
    pairs = {}
    for k, (aid, tid, _) in enumerate(keys):
        pairs.setdefault((aid, tid), []).append(k)
    vectors = describe_pairs([(states[aid], states[tid], aid, tid, [keys[k][2] for k in ks])
                              for (aid, tid), ks in pairs.items()], cfg, fps, seed)
    rows = np.empty_like(vectors)
    rows[[k for ks in pairs.values() for k in ks]] = vectors
    return rows


def _covers(states, center, back, fwd):
    rows = states.rows(np.arange(center - back, center + fwd + 1))
    return bool((rows >= 0).all())


# every descriptor config of the output contract: kde, hard, kernel grids
# of 1 and 4 samples (the latter with a wider radial kernel and the
# variance denominator), at a short window
_CONTRACT_CONFIGS = (
    PidConfig(t1=16), PidConfig(t1=16, assignment="hard"),
    PidConfig(t1=16, grid_samples_per_axis=1),
    PidConfig(t1=16, grid_samples_per_axis=4, sigma_rho=0.6, variance_denominator=True),
)


@st.composite
def _recordings(draw):
    """(states, keys, cfg): two to four tracks with holes within and
    beyond max_gap and a drawn standing stretch (random headings), and a
    subset of their (anchor, target, center) keys in random order, some
    of whose windows leave a track."""
    cfg = draw(st.sampled_from(_CONTRACT_CONFIGS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = draw(st.lists(st.sampled_from(["a", "walker-7", "\u00e9", "0"]), min_size=2,
                        max_size=4, unique=True))
    states, span = {}, []
    for tid in ids:
        n = draw(st.integers(4 * cfg.t1, 5 * cfg.t1))
        # up to two holes, each filled (within max_gap) or splitting the track
        steps = np.ones(n, dtype=np.int64)
        for at, size in draw(st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from([3, 9])),
                                      max_size=2)):
            steps[at] = size
        frames = draw(st.integers(-4, 4)) + np.cumsum(steps) - 1
        stand = sorted(draw(st.tuples(st.integers(0, n), st.integers(0, n))))
        speed = np.full(n, 0.12)
        speed[stand[0]:stand[1]] = 0.0
        heading = rng.uniform(-math.pi, math.pi)
        walk = speed[:, None] * [math.cos(heading), math.sin(heading)]
        xy = rng.uniform(-3.0, 3.0, 2) + np.cumsum(walk + 0.01 * rng.standard_normal((n, 2)),
                                                   axis=0)
        states[tid] = smoothed_states(make_traj(tid, xy, frames=frames.tolist()), SMOOTH)
        span += [int(frames[0]), int(frames[-1])]
    keys = [(a, t, c) for a in ids for t in ids if a != t for c in range(min(span) - 4, max(span) + 5)]
    keys = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=40, unique=True))
    return states, keys, cfg


@settings(max_examples=150, deadline=None)
@given(_recordings(), st.integers(-2**40, 2**40))
def test_batch_equals_lone_pairs_and_per_frame_reference(recording, seed):
    states, keys, cfg = recording
    per_frame = {tid: _per_frame(st_) for tid, st_ in states.items()}
    pairs = {}
    for aid, tid, center in keys:
        pairs.setdefault((aid, tid), []).append(center)
    batch = PairBatch([(states[a], states[t], a, t, cs) for (a, t), cs in pairs.items()],
                      cfg, 10.0, seed)
    row = {(a, t, c): i for i, (a, t, c) in enumerate((a, t, c) for (a, t), cs in pairs.items()
                                                      for c in cs)}
    complete, errors = [], {}
    for aid, tid, center in keys:
        sa, sb = states[aid], states[tid]
        try:
            want = _reference_vector(per_frame[aid], per_frame[tid], aid, tid, center, cfg,
                                     10.0, seed)
        except MissingFrames as e:
            assert not batch.complete[row[aid, tid, center]]
            with pytest.raises(MissingFrames) as got:
                describe_pairs([(sa, sb, aid, tid, [center])], cfg, 10.0, seed)
            assert str(got.value) == str(e)
            errors[aid, tid, center] = str(e)
            continue
        i = row[aid, tid, center]
        assert batch.complete[i] and np.array_equal(batch.vectors[i], want)
        complete.append(((aid, tid, center), want))
    # every key in one call names the first window, in input order, that
    # leaves a track
    first = next((errors[key] for key in row if key in errors), None)
    if first is not None:
        with pytest.raises(MissingFrames) as got:
            _describe_keys(states, keys, cfg, 10.0, seed)
        assert str(got.value) == first
    # every complete key in one call, and each key in a call of its own
    together = _describe_keys(states, [k for k, _ in complete], cfg, 10.0, seed)
    for (key, want), vec in zip(complete, together):
        aid, tid, center = key
        alone = describe_pairs([(states[aid], states[tid], aid, tid, [center])], cfg, 10.0,
                               seed)[0]
        assert np.array_equal(vec, want) and np.array_equal(alone, want), key


def test_chunked_batches_describe_like_one_batch(monkeypatch):
    # a budget of about two pairs' rows splits one call into batches of
    # whole pairs, and a budget of one row gives each pair a
    # batch of its own
    built = []

    class Counting(PairBatch):
        __slots__ = ()

        def __init__(self, pairs, *args):
            built.append(len(pairs))
            super().__init__(pairs, *args)

    rec = make_collective_corpus(SynthParams(seed=7, noise_sigma=0.02), 1)[0]
    states = {t.track_id: smoothed_states(t, SMOOTH) for t in rec.trajectories}
    cfg = PidConfig(t1=16)
    back, fwd = cfg.window_halves
    lo, hi = rec.frame_range
    keys = [(a, t, c) for a in sorted(states) for t in sorted(states) if a != t
            for c in range(lo + back, hi - fwd + 1, 3)
            if _covers(states[a], c, back, fwd) and _covers(states[t], c, back, fwd)]
    keys = [keys[i] for i in np.random.default_rng(3).permutation(len(keys))]
    want = _describe_keys(states, keys, cfg, rec.fps, 5)
    monkeypatch.setattr(pid_module, "PairBatch", Counting)
    pairs = len({key[:2] for key in keys})
    assert pairs == 12 and hi - lo + 1 == 112
    for budget, sizes in ((250, [2] * 6), (1, [1] * 12)):
        monkeypatch.setattr(pid_module, "BATCH_FRAMES", budget)
        built.clear()
        got = _describe_keys(states, keys, cfg, rec.fps, 5)
        assert built == sizes
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ----------------------------------------------------------- classification

def _descriptor(rng, cfg=CFG):
    a = _random_walk(rng, "a", cfg.t1 + 12)
    b = _random_walk(rng, "b", cfg.t1 + 12)
    return lone_pid(a, b, cfg.t1 // 2 + 4, cfg, SMOOTH)


def test_single_stump_always_votes_its_class():
    rng = np.random.default_rng(3)
    cfg = PidConfig(t1=32)
    wt = InteractionLabel.WalkingTogether
    x = _descriptor(rng, cfg)[None, :]
    model = train(x, [wt.class_id], ForestConfig(n_trees=1, seed=0),
                  class_names=[l.code for l in InteractionLabel])
    for trial in range(5):
        label, probs = classify_interaction(_descriptor(rng, cfg), model)
        assert label is wt
        assert probs[wt.class_id] == pytest.approx(1.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_classify_maps_votes_by_class_name():
    rng = np.random.default_rng(6)
    desc = _descriptor(rng)
    # a model over two labels only, listed out of enum order
    model = train(desc[None, :], [0], ForestConfig(n_trees=1, seed=0),
                  class_names=["Ap", "F"])
    label, probs = classify_interaction(desc, model)
    assert label is InteractionLabel.Approaching
    assert probs[InteractionLabel.Approaching.class_id] == 1.0 and probs.sum() == 1.0


def test_classify_rejects_wrong_dimensionality(tiny_stage1):
    rng = np.random.default_rng(3)
    short = _descriptor(rng, PidConfig(t1=32, l_max=0))  # 17-dim, model wants 19
    with pytest.raises(ModelShapeMismatch):
        classify_interaction(short, tiny_stage1)


def test_classify_rejects_too_many_classes():
    rng = np.random.default_rng(4)
    x = np.array([rng.normal(size=19) for _ in range(40)])
    model = train(x, np.arange(40) % 7, ForestConfig(n_trees=3, seed=0),
                  class_names=[f"c{i}" for i in range(7)])
    with pytest.raises(ModelShapeMismatch):
        classify_interaction(_descriptor(np.random.default_rng(5), PidConfig()), model)
