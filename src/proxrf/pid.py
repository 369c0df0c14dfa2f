"""Personal interaction descriptor for an ordered (anchor, target) pair.

The descriptor over a T1-frame window concatenates a 16-cell polar
histogram of the target's position in the anchor's body frame (4 proxemic
distance bands x 4 angular sectors, KDE-smoothed) with a pyramid of
relative-speed averages.  A trained random forest over these vectors
assigns one of six directional interaction labels.
"""

from __future__ import annotations

import enum
import functools
import math
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    FrameMismatch,
    MissingFrames,
    ModelShapeMismatch,
    ShapeMismatch,
    WindowLengthMismatch,
)
from .trajectory import (
    TWO_PI,
    RelativePolar,
    SmoothingConfig,
    TrackStates,
    Trajectory,
    finite_difference,
    smoothed_states,
    wrap_angle,
)

class InteractionLabel(enum.Enum):
    """The six directional pairwise interactions."""

    BeingFollowed = "BF"
    Following = "F"
    WalkingTogether = "WT"
    StandingPair = "SP"
    Splitting = "S"
    Approaching = "Ap"

    @property
    def code(self) -> str:
        return self.value

    @property
    def class_id(self) -> int:
        return _INTERACTION_IDS[self]


_INTERACTION_ORDER = tuple(InteractionLabel)
_INTERACTION_IDS = {lab: i for i, lab in enumerate(_INTERACTION_ORDER)}


@dataclass(frozen=True)
class PolarGrid:
    """Partition of the anchor-centered plane into distance bands x sectors.

    The default distance boundaries are Hall's proxemic zones (intimate,
    personal, social, public); the outermost band is unbounded.  Sectors
    are centered on the anchor's front/left/back/right, so sector 0 spans
    [-pi/4, pi/4) around the facing direction.
    """

    distance_boundaries: tuple = (0.5, 1.25, 3.5)
    angular_sector_count: int = 4

    def __post_init__(self):
        b = self.distance_boundaries
        if len(b) < 1 or any(b[i] >= b[i + 1] for i in range(len(b) - 1)) or b[0] <= 0:
            raise ValueError(f"distance boundaries must be positive and increasing, got {b}")
        if self.angular_sector_count < 1:
            raise ValueError("need at least one angular sector")

    @property
    def band_count(self) -> int:
        return len(self.distance_boundaries) + 1

    @property
    def cell_count(self) -> int:
        return self.band_count * self.angular_sector_count

    def band_of(self, rho):
        """Distance band index; boundaries belong to the outer band."""
        return np.searchsorted(np.asarray(self.distance_boundaries), rho, side="right")

    def sector_of(self, theta):
        """Angular sector index; sector k is centered at k * 2pi/m."""
        m = self.angular_sector_count
        width = 2.0 * math.pi / m
        return np.floor((np.asarray(theta) + 0.5 * width) / width).astype(np.int64) % m

    def cell_of(self, rho, theta):
        """Flat cell index, band-major: cell = band * m + sector."""
        return self.band_of(rho) * self.angular_sector_count + self.sector_of(theta)


@dataclass(frozen=True)
class PidConfig:
    """Window length, kernel widths, sampling extent and pyramid depth.

    ``assignment`` selects KDE smoothing ("kde") or hard counting of the
    raw relative positions ("hard").  ``variance_denominator`` switches
    the kernel denominators from 2*sigma (the form used here by default)
    to the conventional 2*sigma^2.
    """

    t1: int = 64
    sigma_rho: float = 0.25
    sigma_theta: float = math.pi / 8.0
    k_s: float = 3.0
    l_max: int = 1
    grid_samples_per_axis: int = 9
    variance_denominator: bool = False
    assignment: str = "kde"
    grid: PolarGrid = field(default_factory=PolarGrid)

    def __post_init__(self):
        if self.t1 < 2 or self.t1 & (self.t1 - 1):
            raise ValueError(f"t1 must be a power of two >= 2, got {self.t1}")
        if not (0 < self.sigma_rho < math.inf and 0 < self.sigma_theta < math.inf):
            raise ValueError("kernel widths must be finite and > 0")
        if not 0 < self.k_s < math.inf:
            raise ValueError(f"k_s must be finite and > 0, got {self.k_s}")
        if not 0 <= self.l_max <= self.t1.bit_length() - 1:
            raise ValueError(f"l_max must satisfy 0 <= l_max and 2^l_max <= t1")
        if self.grid_samples_per_axis < 1:
            raise ValueError("grid_samples_per_axis must be >= 1")
        if self.assignment not in ("kde", "hard"):
            raise ValueError(f"assignment must be 'kde' or 'hard', got {self.assignment!r}")

    @property
    def pyramid_length(self) -> int:
        return 2 ** (self.l_max + 1) - 1

    @property
    def descriptor_length(self) -> int:
        return self.grid.cell_count + self.pyramid_length

    @property
    def window_halves(self) -> tuple:
        """Frames before and from the center: [t - t1/2 + 1, t + t1/2]."""
        return self.t1 // 2 - 1, self.t1 // 2


@dataclass(frozen=True, eq=False)
class PidDescriptor:
    """Polar histogram + speed pyramid for one ordered pair window."""

    histogram: np.ndarray
    speed_pyramid: np.ndarray
    center_frame: int

    def vector(self) -> np.ndarray:
        return np.concatenate([self.histogram, self.speed_pyramid])

    def __len__(self):
        return len(self.histogram) + len(self.speed_pyramid)


def _denominators(cfg: PidConfig) -> tuple:
    if cfg.variance_denominator:
        return 2.0 * cfg.sigma_rho**2, 2.0 * cfg.sigma_theta**2
    return 2.0 * cfg.sigma_rho, 2.0 * cfg.sigma_theta


def kde_kernel(sample: RelativePolar, center: RelativePolar, cfg: PidConfig) -> float:
    """Unnormalized Gaussian-style kernel between two polar points.

    The angular term uses the smallest signed angular difference, so the
    kernel respects the wraparound at +-pi.
    """
    dr, dt = _denominators(cfg)
    d_theta = wrap_angle(sample.theta - center.theta)
    return float(math.exp(-((sample.rho - center.rho) ** 2) / dr - d_theta**2 / dt))


def _grid_offsets(cfg: PidConfig) -> tuple:
    n = cfg.grid_samples_per_axis
    unit = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
    return unit * (cfg.k_s * cfg.sigma_rho), unit * (cfg.k_s * cfg.sigma_theta)


def sample_grid(center: RelativePolar, cfg: PidConfig) -> list:
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
            out.append((RelativePolar(float(r), float(th)), float(weights[i, j])))
    return out


def _kernel_codes(rho: np.ndarray, theta: np.ndarray, grid: PolarGrid, cfg: PidConfig) -> tuple:
    """Per-frame kernel codes of polar samples: (band, sector, kept).

    ``band`` and ``sector`` (frames x samples) place each radial and each
    angular grid offset around the frame's sample; ``kept`` counts the
    frame's radial offsets at rho >= 0, which are always the outermost
    ones.  Hard mode is a one-sample grid at the sample itself.
    """
    if cfg.assignment == "hard":
        r_pts, t_pts = rho[:, None], theta[:, None]
    else:
        r_off, t_off = _grid_offsets(cfg)
        r_pts = rho[:, None] + r_off[None, :]
        t_pts = wrap_angle(theta[:, None] + t_off[None, :])
    return grid.band_of(r_pts), grid.sector_of(t_pts), (r_pts >= 0.0).sum(axis=1)


@functools.lru_cache(maxsize=16)
def _kernel_weights(cfg: PidConfig) -> np.ndarray:
    """Row k: the unit-mass (samples x samples) weights, flattened band
    offset-major, of a frame that keeps its k outermost radial offsets.
    Row 0 is unused.  The table is shared, so it is read-only."""
    if cfg.assignment == "hard":
        table = np.array([[0.0], [1.0]])
    else:
        r_off, t_off = _grid_offsets(cfg)
        dr, dt = _denominators(cfg)
        w_r = np.exp(-(r_off**2) / dr)
        w_t = np.exp(-(wrap_angle(t_off) ** 2) / dt)
        n = len(r_off)
        keep = np.arange(n)[None, :] >= n - np.arange(n + 1)[:, None]
        w = (w_r[None, :] * keep)[:, :, None] * w_t[None, None, :]
        with np.errstate(invalid="ignore"):
            w /= w.sum(axis=(1, 2), keepdims=True)
        table = w.reshape(n + 1, n * n)
    table.flags.writeable = False
    return table


def _histogram(band, sector, kept, grid: PolarGrid, cfg: PidConfig) -> np.ndarray:
    """Window histogram from its frames' kernel codes, shape (cells,).

    Each frame contributes mass 1/T: hard mode counts the sample's own
    cell, KDE mode spreads the frame's unit mass over its grid samples.
    """
    cells = band.astype(np.intp)[:, :, None] * grid.angular_sector_count + sector[:, None, :]
    weights = _kernel_weights(cfg)[kept]
    hist = np.bincount(cells.ravel(), weights=weights.ravel(), minlength=grid.cell_count)
    return hist / len(kept)


def accumulate_histogram(
    pair_samples: Sequence[RelativePolar], grid: PolarGrid, cfg: PidConfig
) -> np.ndarray:
    """Window histogram from per-frame relative polar samples."""
    if len(pair_samples) != cfg.t1:
        raise WindowLengthMismatch(
            f"expected {cfg.t1} frames of samples, got {len(pair_samples)}"
        )
    rho = np.array([s.rho for s in pair_samples], dtype=float)
    theta = np.array([s.theta for s in pair_samples], dtype=float)
    return _histogram(*_kernel_codes(rho, theta, grid, cfg), grid, cfg)


def speed_pyramid(d_prime: Sequence[float], cfg: PidConfig) -> np.ndarray:
    """Pyramid of means of the distance derivative over 1, 2, 4... splits."""
    x = np.asarray(d_prime, dtype=float)
    if len(x) != cfg.t1:
        raise WindowLengthMismatch(f"expected {cfg.t1} values, got {len(x)}")
    parts = [x.reshape(2**level, -1).mean(axis=1) for level in range(cfg.l_max + 1)]
    return np.concatenate(parts)


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 constants
_M32 = 0xFFFFFFFF
_HASH_A = (0x43B0D7E5, 0x931E8875)  # hashmix while the pool mixes: init, multiplier
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # hashmix while generate_state reads the pool
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_steps(init: int, mult: int, n: int) -> tuple:
    """(constant before, constant after) the multiply of n hashmix calls."""
    steps = []
    for _ in range(n):
        steps.append((init, init * mult & _M32))
        init = steps[-1][1]
    return tuple(steps)


_POOL_HASHES = _hash_steps(*_HASH_A, 16)
_STATE_HASHES = np.array(_hash_steps(*_HASH_B, 8), dtype=np.uint64).T[:, :, None]


def _hashmix(value, step: tuple):
    before, after = step
    value = (value ^ before) * after & _M32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ (value >> 16)


def _mul_128(hi, lo, const: int) -> tuple:
    """(hi, lo) * const modulo 2**128, in 64-bit halves."""
    c_hi, c_lo = const >> 64, const & 0xFFFFFFFFFFFFFFFF
    c_lo_hi, c_lo_lo = c_lo >> 32, c_lo & _M32
    lo_hi, lo_lo = lo >> 32, lo & _M32
    ll, lh, hl = lo_lo * c_lo_lo, lo_lo * c_lo_hi, lo_hi * c_lo_lo
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    carry = lo_hi * c_lo_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)
    return carry + lo * c_hi + hi * c_lo, lo * c_lo


def _add_128(hi, lo, b_hi, b_lo) -> tuple:
    out = lo + b_lo
    return hi + b_hi + (out < lo), out


def heading_draws(seed: int, anchor_id: str, target_id: str, frames) -> np.ndarray:
    """Per frame, the double in [0, 1) that
    ``np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF,
    crc32(anchor), crc32(target), frame & 0xFFFFFFFF])).random()`` draws.

    The stream is keyed by (seed, pair, frame), so overlapping windows
    and parallel evaluation draw identical angles.  The seeding and the
    first PCG64 (XSL-RR) output are computed for all frames at once in
    uint64 arithmetic, which is exact, so every draw equals numpy's.
    """
    frames = np.asarray(frames, dtype=np.int64)
    if not len(frames):
        return np.empty(0)
    entropy = [
        int(seed) & _M32,
        zlib.crc32(str(anchor_id).encode("utf-8")),
        zlib.crc32(str(target_id).encode("utf-8")),
        (frames & _M32).astype(np.uint64),
    ]
    steps = iter(_POOL_HASHES)
    pool = [_hashmix(word, next(steps)) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(steps)))
    # generate_state(4, uint64): eight hashed 32-bit words, paired little-endian
    words = (np.array(pool + pool) ^ _STATE_HASHES[0]) * _STATE_HASHES[1] & _M32
    words ^= words >> 16
    seed_hi, seed_lo, seq_hi, seq_lo = words[0::2] | (words[1::2] << 32)
    # PCG64 seeding: inc = 2 seq + 1, state = (inc + seed) stepped once;
    # random() steps once more and keeps the top 53 output bits
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    hi, lo = _add_128(inc_hi, inc_lo, seed_hi, seed_lo)
    for _ in range(2):
        hi, lo = _add_128(*_mul_128(hi, lo, _PCG_MULT), inc_hi, inc_lo)
    xored, rot = hi ^ lo, hi >> 58
    out = (xored >> rot) | (xored << ((64 - rot) & 63))
    return (out >> 11) * (1.0 / 9007199254740992.0)


class PairSeries:
    """Relative polar series of one ordered pair over the windows it serves.

    Built once, over the union of the descriptor windows at ``centers``:
    each of those frames where both tracks have a state gets its rho and
    its kernel codes for ``cfg`` (see _kernel_codes), from a theta that
    is the slow anchor's random heading where its orientation is unknown
    and is dropped once coded.  ``kept`` is 0 on the frames a track
    lacks.  A window's histogram is then one bincount over its frames'
    codes.  The arrays are read-only, and the series depends only on the
    states, the descriptor config and the seed.
    """

    __slots__ = ("cfg", "first", "rho", "band", "sector", "kept")

    def __init__(
        self,
        anchor_states: TrackStates,
        target_states: TrackStates,
        anchor_id: str,
        target_id: str,
        centers: Sequence[int],
        cfg: PidConfig,
        seed: int,
    ):
        back, fwd = cfg.window_halves
        starts = np.asarray(centers, dtype=np.int64) - back
        self.cfg = cfg
        self.first = int(starts.min())
        need = np.zeros(int(starts.max()) + back + fwd + 1 - self.first, dtype=bool)
        for lo in (starts - self.first).tolist():
            need[lo:lo + back + fwd + 1] = True
        frames = np.flatnonzero(need) + self.first
        ra, rb = anchor_states.rows(frames), target_states.rows(frames)
        have = (ra >= 0) & (rb >= 0)
        at, frames, ra, rb = frames[have] - self.first, frames[have], ra[have], rb[have]
        d = target_states.xy[rb] - anchor_states.xy[ra]
        dx, dy = d[:, 0].tolist(), d[:, 1].tolist()
        rho = np.fromiter(map(math.hypot, dx, dy), float, len(at))
        heading = anchor_states.orientation[ra]
        slow = np.isnan(heading)
        theta = wrap_angle(np.fromiter(map(math.atan2, dy, dx), float, len(at))
                           - np.where(slow, 0.0, heading))
        theta[slow] = math.pi - TWO_PI * heading_draws(seed, anchor_id, target_id, frames[slow])
        samples = 1 if cfg.assignment == "hard" else cfg.grid_samples_per_axis
        grid = cfg.grid
        code = np.min_scalar_type(max(grid.band_count, grid.angular_sector_count, samples))
        self.rho = np.zeros(len(need))
        self.band = np.zeros((len(need), samples), dtype=code)
        self.sector = np.zeros((len(need), samples), dtype=code)
        self.kept = np.zeros(len(need), dtype=code)
        self.rho[at] = rho
        self.band[at], self.sector[at], self.kept[at] = _kernel_codes(rho, theta, grid, cfg)
        for array in (self.rho, self.band, self.sector, self.kept):
            array.flags.writeable = False

    def window(self, start: int, end: int) -> Optional[tuple]:
        """(rho, histogram) over the frames [start, end] inclusive, or None
        when the window leaves the series or a track lacks one of them."""
        lo, hi = start - self.first, end + 1 - self.first
        if lo < 0 or hi > len(self.kept) or not self.kept[lo:hi].all():
            return None
        cfg = self.cfg
        return self.rho[lo:hi], _histogram(self.band[lo:hi], self.sector[lo:hi],
                                           self.kept[lo:hi], cfg.grid, cfg)


def _raise_missing(anchor_states, target_states, anchor_id, target_id, start, end):
    """MissingFrames for the first frame of [start, end] a track lacks."""
    frames = np.arange(start, end + 1)
    ra, rb = anchor_states.rows(frames), target_states.rows(frames)
    lacking = np.flatnonzero((ra < 0) | (rb < 0))
    if not len(lacking):
        raise ValueError(f"frames {start}..{end} lie outside the pair series")
    k = lacking[0]
    who = anchor_id if ra[k] < 0 else target_id
    raise MissingFrames(f"track {who}: no state at frame {frames[k]}")


def _pid_from_states(
    anchor_states: TrackStates,
    target_states: TrackStates,
    anchor_id: str,
    target_id: str,
    center_frame: int,
    cfg: PidConfig,
    fps: float,
    seed: int,
    series: Optional[PairSeries] = None,
) -> PidDescriptor:
    """Descriptor of one window, sliced out of the pair's ``series``, which
    was built under the same ``cfg`` and ``seed``; when None, a series is
    built over this window only."""
    back, fwd = cfg.window_halves
    start, end = center_frame - back, center_frame + fwd
    if series is None:
        series = PairSeries(anchor_states, target_states, anchor_id, target_id,
                            [center_frame], cfg, seed)
    described = series.window(start, end)
    if described is None:
        _raise_missing(anchor_states, target_states, anchor_id, target_id, start, end)
    rho, histogram = described
    return PidDescriptor(
        histogram=histogram,
        speed_pyramid=speed_pyramid(finite_difference(rho, 1.0 / fps), cfg),
        center_frame=center_frame,
    )


def compute_pid(
    anchor: Trajectory,
    target: Trajectory,
    center_frame: int,
    cfg: PidConfig,
    smoothing: SmoothingConfig,
    seed: int = 0,
) -> PidDescriptor:
    """Full descriptor for the window centered (right of middle) at a frame.

    Both trajectories are smoothed over their whole contiguous spans, then
    the window [t - T1/2 + 1, t + T1/2] is described.
    """
    if anchor.fps != target.fps:
        raise FrameMismatch(f"fps mismatch: {anchor.fps} vs {target.fps}")
    states_a = smoothed_states(anchor, smoothing)
    states_b = smoothed_states(target, smoothing)
    return _pid_from_states(
        states_a, states_b, anchor.track_id, target.track_id,
        center_frame, cfg, anchor.fps, seed,
    )


def interaction_labels(model) -> tuple:
    """The InteractionLabel of each of the model's class ids, read from its
    class names (label codes), so a model trained on a subset of the
    labels, or listing them in another order, maps its votes correctly."""
    labels = []
    for name in model.class_names:
        try:
            labels.append(InteractionLabel(name))
        except ValueError:
            raise ModelShapeMismatch(f"model class {name!r} is no interaction label") from None
    return tuple(labels)


def classify_interaction(descriptor: PidDescriptor, model) -> tuple:
    """Forest vote over one descriptor: (label, per-class vote fractions),
    with the votes mapped to labels by interaction_labels."""
    try:
        votes = model.vote_fractions(descriptor.vector()[None, :])[0]
    except ShapeMismatch as e:
        raise ModelShapeMismatch(str(e)) from None
    probs = np.zeros(len(_INTERACTION_ORDER))
    for label, share in zip(interaction_labels(model), votes):
        probs[label.class_id] = share
    return _INTERACTION_ORDER[int(np.argmax(probs))], probs
