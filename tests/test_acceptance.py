"""Acceptance gates: invariants, oracles, benchmarks and determinism.

Each test prints one `[criterion N] name: PASS/FAIL` line on the real
stdout (bypassing capture) so the gate status is visible in any run mode,
then enforces the pinned thresholds and time budgets with asserts.
"""

import math
import os
import time
import warnings

import numpy as np
import pytest

from proxrf.cbd import CollectiveLabel, GroupBlock, dispersion_change, shape_ratio
from proxrf.dataset import FoldSplit, adapt_external
from proxrf.evaluate import CUE_NAMES, PipelineConfig, ablation, kfold_evaluate
from proxrf.forest import ForestConfig, deserialize, serialize, train
from proxrf.pid import PidConfig
from proxrf.synth import (
    SynthParams,
    gen_collective,
    make_collective_corpus,
    make_contrast_corpus,
    make_pair_corpus,
)
from proxrf.trajectory import SmoothingConfig

from conftest import make_traj, track_states
from per_sample import (
    PolarPoint,
    accumulate_histogram,
    cell_of,
    group_window,
    lone_cbd,
    lone_pid,
    sample_grid,
)

BENCH = SynthParams(seed=7, noise_sigma=0.02)


def _gate(capsys, num: int, name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{tail}",
              flush=True)
    assert ok, f"criterion {num} {name}{tail}"


# ----------------------------------------------------- shared benchmark runs

@pytest.fixture(scope="module")
def pair_bench():
    t0 = time.monotonic()
    scenes = make_pair_corpus(BENCH, 5)
    folds = FoldSplit.round_robin([r.sequence_id for r in scenes], 3)
    report = kfold_evaluate(scenes, folds, PipelineConfig(seed=7), "interaction")
    return report, time.monotonic() - t0, scenes, folds


@pytest.fixture(scope="module")
def collective_bench():
    t0 = time.monotonic()
    scenes = make_pair_corpus(BENCH, 5) + make_collective_corpus(BENCH, 6)
    folds = FoldSplit.round_robin([r.sequence_id for r in scenes], 3)
    runs = ablation(
        scenes, folds, [CUE_NAMES[:2], CUE_NAMES[:3], CUE_NAMES],
        PipelineConfig(seed=7),
    )
    return runs, time.monotonic() - t0


# -------------------------------------------------------------- criterion 1

def test_descriptor_invariants_on_randomized_scenes(tiny_stage1, capsys):
    rng = np.random.default_rng(2024)
    smoothing = SmoothingConfig()
    t0 = time.monotonic()
    ok = True
    for i in range(700):
        cfg = PidConfig() if i % 7 else PidConfig(l_max=2)
        walks = [
            make_traj(tid, np.cumsum(rng.normal(0.0, 0.08, (cfg.t1, 2)), axis=0)
                      + rng.uniform(-4, 4, 2))
            for tid in ("a", "b")
        ]
        vec = lone_pid(walks[0], walks[1], cfg.t1 // 2 - 1, cfg, smoothing, seed=i)
        ok &= vec.shape == (16 + 2 ** (cfg.l_max + 1) - 1,)
        hist, speeds = vec[:16], vec[16:]
        ok &= abs(hist.sum() - 1.0) <= 1e-6 and hist.min() >= 0.0
        for level in range(cfg.l_max):
            parents = speeds[2 ** level - 1: 2 ** (level + 1) - 1]
            kids = speeds[2 ** (level + 1) - 1: 2 ** (level + 2) - 1]
            ok &= bool(np.all(np.abs(parents - kids.reshape(-1, 2).mean(1)) <= 1e-12))
    pid_cfg = PidConfig()
    for i in range(300):
        members = [
            make_traj(f"m{j}", np.cumsum(rng.normal(0.0, 0.1, (80, 2)), axis=0)
                      + rng.uniform(-3, 3, 2))
            for j in range(2 + i % 4)
        ]
        window = group_window(members, 40, 32, smoothing)
        vec = lone_cbd(window, tiny_stage1, pid_cfg, 16, i)
        ok &= vec.shape == (9,) and bool(np.isfinite(vec).all())
        ok &= abs(vec[:6].sum() - 1.0) <= 1e-6 and vec[:6].min() >= 0.0
        ratio = vec[8]
        ok &= ratio == 0.0 or ratio >= 1.0 - 1e-12
    elapsed = time.monotonic() - t0
    _gate(capsys, 1, "descriptor invariants on 1000 randomized scenes",
          ok and elapsed < 30.0,
          f"700 pairwise + 300 group descriptors in {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2

def _dense_cell_masses(center: PolarPoint, cfg: PidConfig, n: int) -> np.ndarray:
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


def test_grid_sampling_tracks_dense_integration(capsys):
    cfg = PidConfig()
    t0 = time.monotonic()
    worst = 0.0
    # interior placements: the sampling box must stay inside one distance
    # band, which the two outer bands admit at these radii
    for rho in (2.375, 5.0):
        for theta in (0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi):
            center = PolarPoint(rho, theta)
            dense = _dense_cell_masses(center, cfg, n=2000)
            approx = np.zeros(cfg.grid.cell_count)
            for p, w in sample_grid(center, cfg):
                approx[cell_of(cfg.grid, p.rho, p.theta)] += w
            mask = dense >= 0.01
            rel = np.abs(approx[mask] - dense[mask]) / dense[mask]
            worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - t0
    _gate(capsys, 2, "grid-sampled cell masses vs dense integration",
          worst < 0.05 and elapsed < 60.0,
          f"max relative error {worst:.2%} in {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 3

def test_kde_collapses_to_hard_assignment(pair_bench, capsys):
    rng = np.random.default_rng(77)
    kde_cfg = PidConfig(t1=32, sigma_rho=0.01, sigma_theta=0.01)
    hard_cfg = PidConfig(t1=32, sigma_rho=0.01, sigma_theta=0.01, assignment="hard")
    # 3 sigma = 0.3 in both coordinates; the intimate band is too narrow
    # to hold interior samples, the other bands and all sectors are fine
    bands = [(0.81, 1.19), (1.56, 3.19), (3.81, 7.0)]
    sector_centers = (0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi)
    worst = 0.0
    for _ in range(10):
        samples = []
        for _ in range(32):
            lo, hi = bands[rng.integers(0, 3)]
            theta = sector_centers[rng.integers(0, 4)] + rng.uniform(-0.47, 0.47)
            samples.append(PolarPoint(float(rng.uniform(lo, hi)), float(theta)))
        kde = accumulate_histogram(samples, kde_cfg.grid, kde_cfg)
        hard = accumulate_histogram(samples, hard_cfg.grid, hard_cfg)
        worst = max(worst, float(np.abs(kde - hard).max()))
    report, _, scenes, folds = pair_bench
    hard_report = kfold_evaluate(
        scenes, folds,
        PipelineConfig(seed=7, pid=PidConfig(assignment="hard")),
        "interaction",
    )
    ok = worst <= 1e-3 and report.mpca >= hard_report.mpca - 0.01
    _gate(capsys, 3, "tight kernels reproduce hard counting",
          ok, f"max cell diff {worst:.2e}; benchmark kde {report.mpca:.3f} "
              f"vs hard {hard_report.mpca:.3f}")


# -------------------------------------------------------------- criterion 4

def _rigid(xy: np.ndarray, angle: float, shift) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return xy @ np.array([[c, s], [-s, c]]) + np.asarray(shift)


def _const_speed_walk(rng, n):
    heading = rng.uniform(-math.pi, math.pi)
    steps = np.full((n, 2), (0.12 * math.cos(heading), 0.12 * math.sin(heading)))
    steps += rng.normal(0.0, 0.005, (n, 2))
    return np.cumsum(steps, axis=0) + rng.uniform(-5, 5, 2)


def test_geometric_invariances(tiny_stage1, capsys):
    rng = np.random.default_rng(404)
    smoothing = SmoothingConfig()
    cfg = PidConfig()
    checks = []

    worst_pid = 0.0
    for i in range(20):
        a_xy, b_xy = _const_speed_walk(rng, 64), _const_speed_walk(rng, 64)
        angle, shift = rng.uniform(-math.pi, math.pi), rng.uniform(-20, 20, 2)
        base = lone_pid(make_traj("a", a_xy), make_traj("b", b_xy), 31, cfg, smoothing, seed=0)
        moved = lone_pid(make_traj("a", _rigid(a_xy, angle, shift)),
                         make_traj("b", _rigid(b_xy, angle, shift)), 31, cfg, smoothing, seed=0)
        worst_pid = max(worst_pid, float(np.abs(base - moved).max()))
    checks.append(worst_pid <= 1e-9)

    scene = gen_collective(CollectiveLabel.Walking, SynthParams(seed=13))
    angle, shift = 0.83, (12.5, -7.25)
    moved = [make_traj(t.track_id, _rigid(t.xy, angle, shift)) for t in scene.trajectories]
    base_vec = lone_cbd(group_window(scene.trajectories, 56, 64, smoothing), tiny_stage1, cfg,
                        5, 0)
    moved_vec = lone_cbd(group_window(moved, 56, 64, smoothing), tiny_stage1, cfg, 5, 0)
    worst_cbd = float(np.abs(base_vec - moved_vec).max())
    checks.append(worst_cbd <= 1e-9)

    pts = rng.normal(0.0, 2.0, (7, 2))
    ratio = shape_ratio(pts)
    worst_scale = max(abs(shape_ratio(s * pts) - ratio) / ratio for s in (0.1, 10.0))
    checks.append(worst_scale <= 1e-9)

    worst_rev = 0.0
    for _ in range(10):
        paths = {
            f"m{j}": {f: tuple(p) for f, p in enumerate(
                np.cumsum(rng.normal(0.0, 0.2, (16, 2)), axis=0))}
            for j in range(3)
        }
        fwd = _injected(paths)
        rev = _injected({tid: {15 - f: p for f, p in fr.items()}
                         for tid, fr in paths.items()})
        worst_rev = max(worst_rev, abs(dispersion_change(fwd)[0] + dispersion_change(rev)[0]))
    checks.append(worst_rev <= 1e-9)

    _gate(capsys, 4, "rigid-motion, scale and time-reversal behavior",
          all(checks),
          f"pid {worst_pid:.1e}, cbd {worst_cbd:.1e}, "
          f"scale {worst_scale:.1e}, reversal {worst_rev:.1e}")


def _injected(paths):
    member_states = {tid: track_states(frames) for tid, frames in paths.items()}
    return GroupBlock([7], 16, 10.0, member_states)


# -------------------------------------------------------------- criterion 5

def test_pairwise_benchmark(pair_bench, capsys):
    report, elapsed, _, _ = pair_bench
    ok = (report.confusion.total == 600
          and report.mpca >= 0.90
          and float(report.per_class_accuracy.min()) >= 0.80
          and elapsed < 120.0)
    _gate(capsys, 5, "six-class pairwise benchmark",
          ok, f"mpca {report.mpca:.4f}, min class "
              f"{float(report.per_class_accuracy.min()):.4f}, {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 6

def test_collective_benchmark_and_cue_ordering(collective_bench, capsys):
    runs, elapsed = collective_bench
    m = [r.mpca for _, r in runs]
    full = runs[-1][1]
    ok = (full.confusion.total == 360
          and full.mpca >= 0.85
          and m[1] >= m[0] - 0.01
          and m[2] >= m[1] - 0.01
          and m[2] == max(m)
          and elapsed < 300.0)
    _gate(capsys, 6, "six-class collective benchmark with cue ablation",
          ok, " -> ".join(f"{v:.4f}" for v in m) + f", {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 7

def test_alignment_contrast_needs_shape_cue(capsys):
    scenes = make_contrast_corpus(BENCH, 6)
    folds = FoldSplit.round_robin([r.sequence_id for r in scenes], 3)
    with warnings.catch_warnings():
        # only two collective classes exist here by construction
        warnings.filterwarnings("ignore", message="no test windows")
        runs = ablation(scenes, folds, [CUE_NAMES[:3], CUE_NAMES],
                        PipelineConfig(seed=7))
    accs = []
    for _, rep in runs:
        qi = rep.class_names.index("Queuing")
        accs.append(float(rep.per_class_accuracy[qi]))
    gain = accs[1] - accs[0]
    _gate(capsys, 7, "shape cue separates queues from conversations",
          gain >= 0.20, f"Queuing accuracy {accs[0]:.3f} -> {accs[1]:.3f}")


# -------------------------------------------------------------- criterion 8

def test_forest_determinism_and_round_trip(capsys):
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 1.0, (200, 8))
    y = rng.integers(0, 3, 200)
    cfg = ForestConfig(n_trees=30, seed=11)
    blob = serialize(train(x, y, cfg))
    same = blob == serialize(train(x, y, cfg))
    threaded = blob == serialize(train(x, y, cfg, threads=3))
    restored = deserialize(blob)
    probes = rng.normal(0.0, 1.5, (1000, 8))
    original = train(x, y, cfg)
    round_trip = (
        np.array_equal(original.predict_batch(probes), restored.predict_batch(probes))
        and np.array_equal(original.vote_fractions(probes),
                           restored.vote_fractions(probes))
        and serialize(restored) == blob
    )
    _gate(capsys, 8, "seeded forests are byte-stable and round-trip exactly",
          same and threaded and round_trip,
          "identical bytes across reruns and thread counts; "
          "1000 probes predict identically after reload")


# -------------------------------------------------------------- criterion 9

@pytest.mark.requires_data
def test_external_corpus_reproduction(capsys):
    root = os.environ.get(
        "PROXRF_NCAD_ROOT",
        os.path.join(os.path.dirname(__file__), os.pardir, "data", "ncad"),
    )
    if not os.path.isdir(root):
        with capsys.disabled():
            print("[criterion 9] external-corpus reproduction: SKIP "
                  "(corpus not on disk)", flush=True)
        pytest.skip("external corpus not present")
    recs = adapt_external(root, "ncad-like")
    folds = FoldSplit.round_robin([r.sequence_id for r in recs], 3)
    cfg = PipelineConfig(seed=0)
    rep_i = kfold_evaluate(recs, folds, cfg, "interaction")
    rep_c = kfold_evaluate(recs, folds, cfg, "collective")
    ok = abs(rep_i.mpca - 0.843) <= 0.05 and abs(rep_c.mpca - 0.872) <= 0.05
    _gate(capsys, 9, "external-corpus reproduction",
          ok, f"interaction {rep_i.mpca:.3f}, collective {rep_c.mpca:.3f}")
