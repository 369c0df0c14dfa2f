"""Per-sample reference code for the array-based trajectory and pair
descriptor layers.

The library works on whole arrays; these frame-by-frame forms are kept
as test oracles.  ``KinematicState``, ``relative_polar``,
``relative_distance_series`` and ``derivative`` describe one pair-frame
or one series at a time; ``positions`` interpolates a track over a
frame range.  ``reference_states`` is ``smoothed_states`` built from one
TimedPosition per sample: span split, gap filling, Brown's smoothing and
the velocity, speed and heading, each sample by sample.  For the pair
descriptor, ``cell_of`` numbers the polar grid's cells, ``kde_kernel``
and ``sample_grid`` spell out the kernel and its sampling grid around
one polar point, ``kernel_units`` quantises one kernel factor in exact
rationals, ``accumulate_histogram`` and ``speed_pyramid`` describe one
window from its per-frame ``PolarPoint`` samples (raising
``WrongWindowLength`` on a window of another length), and
``classify_interaction`` votes on one descriptor vector.  For the group
cues, ``dispersion`` is the RMS distance of one frame's points from
their centroid, and ``GroupWindow`` is one group window of a GroupBlock
built on its own (raising ``EmptyGroup`` on a frame without members),
with its cues (``window_mean_speed``,
``window_spread``, ``window_dispersion_change``, ``point_shape_ratio``
for one point set, and all three as ``window_cues``) and its pair keys
(``window_pair_keys``).  For lone windows, ``lone_pid`` describes one
pair window and ``lone_cbd`` one group window (built by
``group_window``) through the library's batch functions, each called on
that window alone.  For the keyed draws, ``reference_key_hash`` hashes
one key with Python integers and ``tree_bootstrap`` draws one tree's
bootstrap in its own keyed call.  For the forest, ``reference_best_split`` scores one
node with float class counts, ``reference_rank_split`` scores one node
over value ranks with exact integer sums, and ``reference_grow_tree``
grows one tree node by node with either of them, drawing one bootstrap
index and one node's features at a time; ``reference_forest`` assembles
its trees into the forest ``train`` grows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from proxrf import keyed
from proxrf.cbd import GroupBlock, group_cues, pair_vectors, pool_votes
from proxrf.errors import (
    InvalidFeature,
    MissingFrames,
    ModelShapeMismatch,
    ShapeMismatch,
)
from proxrf.forest import RandomForest, rank_table
from proxrf.keyed import BOOTSTRAP, FEATURES
from proxrf.pid import (
    InteractionLabel,
    PidConfig,
    PolarGrid,
    describe_pairs,
    interaction_labels,
)
from proxrf.trajectory import (
    DEFAULT_MAX_GAP,
    TWO_PI,
    SmoothingConfig,
    TimedPosition,
    TrackStates,
    Trajectory,
    finite_difference,
    smoothed_states,
    wrap_angle,
)


class WrongWindowLength(ValueError):
    """An oracle's input length differs from the configured window length."""


class FrameMismatch(ValueError):
    """Two per-frame records refer to different frames."""


class EmptyGroup(ValueError):
    """A group oracle applied to an empty member set."""


@dataclass(frozen=True)
class PolarPoint:
    """Polar coordinates of a target in the anchor's body frame.

    theta is measured from the anchor's facing direction, positive
    counterclockwise, in (-pi, pi].
    """

    rho: float
    theta: float

    def __post_init__(self):
        if self.rho < 0.0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")


@dataclass(frozen=True)
class KinematicState:
    """Smoothed position, velocity, speed and heading at one frame.

    ``orientation`` is None exactly when ``speed`` is below the smoothing
    config's slow threshold.
    """

    frame: int
    position: tuple
    velocity: tuple
    speed: float
    orientation: Optional[float]


def relative_polar(
    anchor: KinematicState, target: KinematicState, rng
) -> PolarPoint:
    """Target position in the anchor's body frame.

    When the anchor's orientation is unavailable (slow anchor) the angle
    is pi - 2 pi u for the double u in [0, 1) that ``rng.random()``
    gives, uniform over (-pi, pi], so the distance is the only
    informative coordinate; rho is always the true distance.
    """
    if anchor.frame != target.frame:
        raise FrameMismatch(f"anchor frame {anchor.frame} != target frame {target.frame}")
    dx = target.position[0] - anchor.position[0]
    dy = target.position[1] - anchor.position[1]
    rho = float(np.hypot(dx, dy))
    if anchor.orientation is None:
        theta = math.pi - TWO_PI * float(rng.random())
    else:
        theta = wrap_angle(float(np.arctan2(dy, dx)) - anchor.orientation)
    return PolarPoint(rho=rho, theta=theta)


def relative_distance_series(
    anchor: Trajectory, target: Trajectory, window: tuple, max_gap: int = DEFAULT_MAX_GAP
) -> list:
    """Per-frame Euclidean distance between two tracks over [start, end]."""
    start, end = window
    pa = positions(anchor, start, end, max_gap)
    pb = positions(target, start, end, max_gap)
    d = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    return [(int(f), float(v)) for f, v in zip(range(start, end + 1), d)]


def derivative(series: Sequence, fps: float) -> list:
    """Finite-difference derivative of a uniformly sampled (frame, value)
    series, in value units per second.  Central differences inside,
    one-sided at both ends."""
    if len(series) < 2:
        raise ValueError("derivative needs >= 2 points")
    frames = np.array([p[0] for p in series], dtype=np.int64)
    values = np.array([p[1] for p in series], dtype=float)
    steps = np.diff(frames)
    if np.any(steps != steps[0]):
        raise ValueError("derivative requires uniform frame spacing")
    dv = finite_difference(values, steps[0] / fps)
    return [(int(f), float(v)) for f, v in zip(frames, dv)]


def positions(traj: Trajectory, start: int, end: int,
              max_gap: int = DEFAULT_MAX_GAP) -> np.ndarray:
    """Per-frame positions of a track over [start, end] inclusive, shape
    (n, 2).  Interior gaps up to ``max_gap`` missing frames are filled
    by linear interpolation; anything worse raises MissingFrames."""
    if len(traj) == 0 or start < traj.first_frame or end > traj.last_frame:
        raise MissingFrames(
            f"track {traj.track_id}: frames {start}..{end} outside "
            f"{traj.first_frame}..{traj.last_frame}"
        )
    pieces = traj.pieces(max_gap)
    for (_, g0), (g1, _) in zip(pieces, pieces[1:]):
        if g0 < end and g1 > start:
            raise MissingFrames(f"track {traj.track_id}: gap {g0}..{g1} exceeds {max_gap} frames")
    want = np.arange(start, end + 1)
    frames, xy = traj.frames, traj.xy
    return np.column_stack([np.interp(want, frames, xy[:, 0]), np.interp(want, frames, xy[:, 1])])


def reference_filled(traj: Trajectory, max_gap: int = DEFAULT_MAX_GAP) -> Trajectory:
    """A span with its interior gaps interpolated, one TimedPosition per
    frame; an overflow is caught as TimedPosition refuses the non-finite
    result."""
    pos = positions(traj, traj.first_frame, traj.last_frame, max_gap)
    out = []
    for f, p in zip(range(traj.first_frame, traj.last_frame + 1), pos):
        try:
            out.append(TimedPosition(f, float(p[0]), float(p[1])))
        except ValueError:  # finite input, overflowing arithmetic
            raise InvalidFeature(
                f"track {traj.track_id}: interpolated position overflows at frame {f}"
            ) from None
    return Trajectory(traj.track_id, out, traj.fps)


def reference_smooth(traj: Trajectory, cfg: SmoothingConfig) -> Trajectory:
    """smoothed_states' smoothing of one span, sample by sample; an
    overflow is caught as TimedPosition refuses the non-finite result."""
    samples = traj.samples
    a = cfg.alpha
    b = 1.0 - a
    s1x, s1y = samples[0].x, samples[0].y
    s2x, s2y = a * s1x + b * s1x, a * s1y + b * s1y  # s1[0]
    out = []
    for s in samples:
        s1x = a * s.x + b * s1x
        s1y = a * s.y + b * s1y
        s2x = a * s1x + b * s2x
        s2y = a * s1y + b * s2y
        try:
            out.append(TimedPosition(s.frame, 2.0 * s1x - s2x, 2.0 * s1y - s2y))
        except ValueError:  # finite input, overflowing arithmetic
            raise InvalidFeature(
                f"track {traj.track_id}: smoothed position overflows at frame {s.frame}"
            ) from None
    return Trajectory(traj.track_id, out, traj.fps)


def reference_kinematics(traj: Trajectory, cfg: SmoothingConfig) -> TrackStates:
    """smoothed_states' velocity, speed and heading of one smoothed span,
    sample by sample: each velocity from the samples on either side
    (one-sided at the ends), in the library's operation order, the speed
    by np.hypot and the heading by np.arctan2, nan below t_s."""
    samples = traj.samples
    last = len(samples) - 1
    velocity, speed, orientation = [], [], []
    for i, s in enumerate(samples):
        a, b = samples[max(i - 1, 0)], samples[min(i + 1, last)]
        dt = float(b.frame) - float(a.frame)
        vx = (b.x - a.x) / dt * traj.fps
        vy = (b.y - a.y) / dt * traj.fps
        with np.errstate(over="ignore"):
            sp = float(np.hypot(vx, vy))
        if not math.isfinite(sp):
            raise InvalidFeature(f"track {traj.track_id}: velocity overflows at frame {s.frame}")
        velocity.append((vx, vy))
        speed.append(sp)
        orientation.append(math.nan if sp < cfg.t_s else float(np.arctan2(vy, vx)))
    return TrackStates(np.array([s.frame for s in samples], dtype=np.int64),
                       np.array([(s.x, s.y) for s in samples], dtype=float),
                       np.array(velocity, dtype=float), np.array(speed, dtype=float),
                       np.array(orientation, dtype=float))


def reference_states(
    traj: Trajectory, cfg: SmoothingConfig, max_gap: int = DEFAULT_MAX_GAP
) -> TrackStates:
    """smoothed_states over per-sample spans, fills, smoothing and
    kinematics."""
    samples = traj.samples
    frames = [s.frame for s in samples]
    cuts = [i for i in range(1, len(frames)) if frames[i] - frames[i - 1] > max_gap + 1]
    parts = [TrackStates(np.empty(0, np.int64), np.empty((0, 2)), np.empty((0, 2)),
                         np.empty(0), np.empty(0))]
    for lo, hi in zip([0] + cuts, cuts + [len(samples)]):
        if hi - lo >= 2:
            seg = reference_filled(Trajectory(traj.track_id, samples[lo:hi], traj.fps), max_gap)
            parts.append(reference_kinematics(reference_smooth(seg, cfg), cfg))
    return TrackStates(*(np.concatenate([getattr(p, f.name) for p in parts])
                         for f in fields(TrackStates)))


def _denominators(cfg: PidConfig) -> tuple:
    if cfg.variance_denominator:
        return 2.0 * cfg.sigma_rho**2, 2.0 * cfg.sigma_theta**2
    return 2.0 * cfg.sigma_rho, 2.0 * cfg.sigma_theta


def _grid_offsets(cfg: PidConfig) -> tuple:
    n = cfg.grid_samples_per_axis
    unit = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
    return unit * (cfg.k_s * cfg.sigma_rho), unit * (cfg.k_s * cfg.sigma_theta)


def cell_of(grid: PolarGrid, rho, theta):
    """Flat cell index of polar points, band-major: band * sectors + sector."""
    return grid.band_of(rho) * grid.angular_sector_count + grid.sector_of(theta)


def kde_kernel(sample: PolarPoint, center: PolarPoint, cfg: PidConfig) -> float:
    """Unnormalized Gaussian-style kernel between two polar points.

    The angular term uses the smallest signed angular difference, so the
    kernel respects the wraparound at +-pi.
    """
    dr, dt = _denominators(cfg)
    d_theta = wrap_angle(sample.theta - center.theta)
    return float(math.exp(-((sample.rho - center.rho) ** 2) / dr - d_theta**2 / dt))


def sample_grid(center: PolarPoint, cfg: PidConfig) -> list:
    """Weighted kernel samples on an n x n grid around one polar center.

    Points at negative distance are dropped; angles are wrapped into
    (-pi, pi]; the retained weights are normalized to unit mass.
    """
    r_off, t_off = _grid_offsets(cfg)
    dr, dt = _denominators(cfg)
    w_r = np.exp(-(r_off**2) / dr)
    w_t = np.exp(-(wrap_angle(t_off) ** 2) / dt)
    rho = center.rho + r_off
    theta = wrap_angle(center.theta + t_off)
    keep = rho >= 0.0
    weights = np.outer(w_r[keep], w_t)
    weights /= weights.sum()
    out = []
    for i, r in enumerate(rho[keep]):
        for j, th in enumerate(theta):
            out.append((PolarPoint(float(r), float(th)), float(weights[i, j])))
    return out


@functools.lru_cache(maxsize=64)
def kernel_units(weights: tuple) -> tuple:
    """Largest-remainder split of 2**24 units among the doubles
    ``weights``, in exact rationals: each share of 2**24 in proportion to
    its weight gets its floor, and the units left over go one each to
    the largest fractional parts, the earlier share first on a tie."""
    total = sum(map(Fraction, weights))
    if not total:
        return (0,) * len(weights)
    shares = [Fraction(w) * 2**24 / total for w in weights]
    units = [math.floor(share) for share in shares]
    ranked = sorted(range(len(shares)), key=lambda i: (units[i] - shares[i], i))
    for i in ranked[:2**24 - sum(units)]:
        units[i] += 1
    return tuple(units)


def accumulate_histogram(
    pair_samples: Sequence[PolarPoint], grid: PolarGrid, cfg: PidConfig
) -> np.ndarray:
    """Window histogram from per-frame relative polar samples, in Python
    integers.  Each frame adds, for every kept radial grid offset i
    (rho + offset >= 0) and every angular offset j, the product of their
    kernel_units (of the kept radial weights, and of the angular
    weights) to the cell of grid sample (i, j); the window's integer cell
    sums are divided by T * 2**48.  Hard mode adds 2**48 to each
    sample's own cell."""
    if len(pair_samples) != cfg.t1:
        raise WrongWindowLength(
            f"expected {cfg.t1} frames of samples, got {len(pair_samples)}"
        )
    sums = [0] * grid.cell_count
    if cfg.assignment == "hard":
        for s in pair_samples:
            sums[int(cell_of(grid, s.rho, s.theta))] += 2**48
    else:
        r_off, t_off = _grid_offsets(cfg)
        dr, dt = _denominators(cfg)
        w_r = np.exp(-(r_off**2) / dr)
        angular = kernel_units(tuple(np.exp(-(wrap_angle(t_off) ** 2) / dt).tolist()))
        for s in pair_samples:
            rho = s.rho + r_off
            keep = rho >= 0.0
            radial = kernel_units(tuple(w_r[keep].tolist()))
            sectors = grid.sector_of(wrap_angle(s.theta + t_off)).tolist()
            for r, band in zip(radial, grid.band_of(rho[keep]).tolist()):
                for a, sector in zip(angular, sectors):
                    sums[band * grid.angular_sector_count + sector] += r * a
    return np.array([v / (cfg.t1 * 2**48) for v in sums])


def speed_pyramid(d_prime: Sequence[float], cfg: PidConfig) -> np.ndarray:
    """Pyramid of means of the distance derivative over 1, 2, 4... splits."""
    x = np.asarray(d_prime, dtype=float)
    if len(x) != cfg.t1:
        raise WrongWindowLength(f"expected {cfg.t1} values, got {len(x)}")
    parts = [x.reshape(2**level, -1).mean(axis=1) for level in range(cfg.l_max + 1)]
    return np.concatenate(parts)


def classify_interaction(vector: np.ndarray, model) -> tuple:
    """Forest vote over one descriptor vector: (label, per-class vote
    fractions), with the votes mapped to labels by interaction_labels."""
    try:
        votes = model.vote_fractions(vector[None, :])[0]
    except ShapeMismatch as e:
        raise ModelShapeMismatch(str(e)) from None
    probs = np.zeros(len(InteractionLabel))
    for label, share in zip(interaction_labels(model), votes):
        probs[label.class_id] = share
    return tuple(InteractionLabel)[int(np.argmax(probs))], probs


def dispersion(points: Sequence) -> float:
    """RMS distance of the points from their centroid, every sum over
    the points taken in their order."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise EmptyGroup("dispersion of an empty point set")
    centered = pts - pts.mean(axis=0)
    return math.sqrt(sum((centered**2).sum(axis=1).tolist()) / len(pts))


def lone_pid(anchor: Trajectory, target: Trajectory, center: int, cfg: PidConfig,
             smoothing: SmoothingConfig, seed: int = 0) -> np.ndarray:
    """PID vector of the window centered at ``center``: both tracks
    smoothed over their whole spans, then describe_pairs over one pair
    with one center."""
    pair = (smoothed_states(anchor, smoothing), smoothed_states(target, smoothing),
            anchor.track_id, target.track_id, [center])
    return describe_pairs([pair], cfg, anchor.fps, seed)[0]


class GroupWindow:
    """Per-frame membership and smoothed kinematics of a group in one
    window: GroupBlock's window, built on its own.

    ``member_states`` maps track id to its TrackStates.  ``present``
    (members x t2) marks the frames where each member has a state, in
    member_states order, and ``xy`` (members x t2 x 2) and ``speed``
    (members x t2) hold its state there (zero where absent).  A frame
    without any member raises EmptyGroup.
    """

    def __init__(self, center_frame, t2, fps, member_states):
        if t2 < 2 or t2 & (t2 - 1):
            raise ValueError(f"t2 must be a power of two >= 2, got {t2}")
        self.center_frame = int(center_frame)
        self.t2 = int(t2)
        self.fps = float(fps)
        self.member_states = member_states
        start, end = self.span
        frames = np.arange(start, end + 1)
        rows = np.array([st.rows(frames) for st in member_states.values()]).reshape(-1, t2)
        self.present = rows >= 0
        empty = np.flatnonzero(~self.present.any(axis=0))
        if len(empty):
            raise EmptyGroup(f"no group member at frame {frames[empty[0]]}")
        self.xy = np.zeros(rows.shape + (2,))
        self.speed = np.zeros(rows.shape)
        for i, st in enumerate(member_states.values()):
            have = self.present[i]
            self.xy[i, have] = st.xy[rows[i, have]]
            self.speed[i, have] = st.speed[rows[i, have]]

    @property
    def span(self) -> tuple:
        """First and last frame (inclusive): [t - t2/2 + 1, t + t2/2]."""
        return self.center_frame - self.t2 // 2 + 1, self.center_frame + self.t2 // 2


def window_mean_speed(window: GroupWindow) -> float:
    """Double average of member speeds: over members, then over frames.

    The axis-0 sum adds member rows in order, as a per-frame sum would."""
    per_frame = window.speed.sum(axis=0) / window.present.sum(axis=0)
    return float(per_frame.mean())


def window_spread(window: GroupWindow) -> np.ndarray:
    """Per-frame RMS distance of the present members from their centroid.

    Each frame's sums run over its members in member order, absent
    members adding exact zeros.
    """
    present = window.present
    counts = present.sum(axis=0)
    mean = window.xy.sum(axis=0) / counts[:, None]
    sq = ((window.xy - mean) ** 2).sum(axis=2) * present
    return np.sqrt(sq.sum(axis=0) / counts)


def window_dispersion_change(window: GroupWindow) -> float:
    """Mean derivative of the per-frame group dispersion, in m/s."""
    return float(np.mean(finite_difference(window_spread(window), 1.0 / window.fps)))


def point_shape_ratio(positions: Sequence) -> float:
    """Covariance eigenvalue ratio lambda_max / lambda_min of one point
    set; 0 for fewer than two points or a smallest eigenvalue below
    1e-9 m^2."""
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    if len(pts) < 2:
        return 0.0
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(pts)
    lam_min, lam_max = np.linalg.eigvalsh(cov)
    if lam_min <= 1e-9:
        return 0.0
    return float(lam_max / lam_min)


def window_cues(window: GroupWindow) -> tuple:
    """(mean speed, dispersion change, shape ratio) of one window, the
    shape ratio over the members present at the center frame."""
    k = window.center_frame - window.span[0]
    return (window_mean_speed(window), window_dispersion_change(window),
            point_shape_ratio(window.xy[window.present[:, k], k]))


def window_pair_keys(window: GroupWindow, pid_cfg: PidConfig, stride: int) -> tuple:
    """(anchor, target, center) arrays of every ordered member pair at
    every stride center of one window, in pooling order (by center, then
    anchor, then target); anchor and target index the members in sorted
    id order.  A pair has a key at a center only when both tracks cover
    the full descriptor window there."""
    back, fwd = pid_cfg.window_halves
    start, end = window.span
    centers = np.arange(start, end + 1, stride)
    covered = []
    for tid in sorted(window.member_states):
        frames = window.member_states[tid].frames
        inside = (frames.searchsorted(centers + fwd, "right")
                  - frames.searchsorted(centers - back))
        covered.append(inside == back + fwd + 1)
    covered = np.array(covered).reshape(-1, len(centers)).T
    both = covered[:, :, None] & covered[:, None, :] & ~np.eye(covered.shape[1], dtype=bool)
    at, anchor, target = np.nonzero(both)
    return anchor, target, centers[at]


def tree_bootstrap(seed: int, tree: int, n: int) -> np.ndarray:
    """One tree's bootstrap sample of ``n`` row indices, from one
    keyed.uniform call over that tree's keys (seed, tree, i)."""
    return (keyed.uniform(BOOTSTRAP, seed, tree, np.arange(n)) * n).astype(np.intp)


def group_window(trajectories: Sequence[Trajectory], center: int, t2: int,
                 smoothing: SmoothingConfig) -> GroupWindow:
    """GroupWindow over the tracks, each smoothed over its whole spans."""
    states = {t.track_id: smoothed_states(t, smoothing) for t in trajectories}
    return GroupWindow(center, t2, trajectories[0].fps, states)


def lone_cbd(window: GroupWindow, stage1, pid_cfg: PidConfig, stride: int,
             seed: int) -> np.ndarray:
    """Full CBD vector of one window through the library's batch
    functions, called on a GroupBlock of that window alone: the
    histogram of its pooled stage-one votes (pair_vectors, then
    pool_votes), then group_cues."""
    block = GroupBlock([window.center_frame], window.t2, window.fps, window.member_states)
    hist = pool_votes(stage1, *pair_vectors([block], pid_cfg, stride, seed), 1)[0]
    return np.hstack([hist, group_cues(block)[0]])


_MASK64 = 2**64 - 1


def reference_splitmix64(state: int) -> int:
    """splitmix64's output once its state has stepped from ``state``."""
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def reference_key_hash(domain: int, *words: int) -> int:
    """keyed.key_hash of one key of Python ints, each taken modulo 2**64."""
    h = reference_splitmix64(domain)
    for word in words:
        h = reference_splitmix64(h ^ (word & _MASK64))
    return h


def reference_best_split(x_mat, y, idx, feats, class_count, parent_counts):
    """Best (decrease, feature, threshold) over candidate features.

    Thresholds are midpoints of consecutive distinct sorted values.  All
    candidate features are scored in one pass over the node's block; the
    first feature (in ``feats`` order) reaching the largest decrease
    wins, and within it the first best threshold, so ties resolve to the
    lowest feature index then the lowest threshold.
    """
    n = len(idx)
    if n < 2:
        return None
    block = x_mat[np.ix_(idx, feats)]
    order = np.argsort(block, axis=0, kind="stable")
    vs = np.take_along_axis(block, order, axis=0)
    onehot = y[idx][order][:, :, None] == np.arange(class_count)
    cl = np.cumsum(onehot, axis=0, dtype=float)[:-1]  # (n - 1, features, classes)
    cr = parent_counts - cl
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    gl = 1.0 - (cl**2).sum(axis=2) / nl**2
    gr = 1.0 - (cr**2).sum(axis=2) / nr**2
    gini_parent = 1.0 - ((parent_counts / n) ** 2).sum()
    dec = gini_parent - (nl * gl + nr * gr) / n
    dec[vs[1:] == vs[:-1]] = -np.inf
    col_best = dec.max(axis=0)
    k = int(np.argmax(col_best))
    if not col_best[k] > 1e-12:
        return None
    j = int(np.argmax(dec[:, k]))
    thr = 0.5 * (vs[j, k] + vs[j + 1, k])
    return float(dec[j, k]), int(feats[k]), float(thr)


def reference_rank_split(x_mat, ranks, y, idx, feats, parent_counts):
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
    if not row_best[k] > 1e-12:
        return None
    j = int(dec[k].argmax())
    f = int(feats[k])
    lo, hi = x_mat[idx[order[k, j:j + 2]], f]
    return float(dec[k, j]), f, float(0.5 * (lo + hi))


def reference_grow_tree(x_mat, ranks, y, cfg, m_feats, class_count, tree_idx,
                        best_split=reference_rank_split):
    """One tree grown node by node: ``best_split`` scores each popped node
    alone (with the signature of ``reference_rank_split``).  Bootstrap
    draw i is floor(n u) for the uniform u of (seed, tree, i), and a
    node's features are the ``m_feats`` of smallest hash of (seed, tree,
    node id, feature).  Returns the (feature, threshold, left, counts)
    node columns, ids from 0; a right child's id is its left sibling's
    plus one."""
    n, d = x_mat.shape
    boot = np.array([int((reference_key_hash(BOOTSTRAP, cfg.seed, tree_idx, i) >> 11)
                         * 2.0**-53 * n) for i in range(n)])

    feature, threshold, left, counts = [], [], [], []

    def new_node(node_counts):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
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
        ranked = sorted(range(d), key=lambda f: reference_key_hash(FEATURES, cfg.seed, tree_idx,
                                                                   node, f))
        feats = np.array(sorted(ranked[:m_feats]))
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
        stack.append((r_node, r_idx, depth + 1))
        stack.append((l_node, l_idx, depth + 1))
    return feature, threshold, left, counts


def reference_forest(x, y, cfg, best_split=reference_rank_split):
    """The forest ``train(x, y, cfg)`` grows, assembled from one
    ``reference_grow_tree`` per tree."""
    x_mat = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    d = x_mat.shape[1]
    class_count = int(y.max()) + 1
    m_feats = cfg.features_per_split or math.isqrt(d - 1) + 1
    labels = y.astype(np.min_scalar_type(-class_count))
    ranks = rank_table(x_mat)
    trees = [reference_grow_tree(x_mat, ranks, labels, cfg, m_feats, class_count, t, best_split)
             for t in range(cfg.n_trees)]
    sizes = [len(t[0]) for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, left, counts = (np.concatenate(col) for col in zip(*trees))
    left = np.where(left >= 0, left + np.repeat(roots, sizes), -1)
    return RandomForest(roots, feature, threshold, left, counts[feature < 0], cfg, d,
                        [str(i) for i in range(class_count)])
