"""Personal interaction descriptor for an ordered (anchor, target) pair.

The descriptor over a T1-frame window concatenates a 16-cell polar
histogram of the target's position in the anchor's body frame (4 proxemic
distance bands x 4 angular sectors, KDE-smoothed) with a pyramid of
relative-speed averages.  A trained random forest over these vectors
assigns one of six directional interaction labels.

``describe_pairs`` is the one way to compute descriptors: it takes the
smoothed states (trajectory.smoothed_states) of many pairs, each with
its window centers, and returns one vector per window.  A lone window
is a call with one pair and one center.

The histogram is exact (descriptor version 2).  The 2-D kernel is
separable, so its radial and angular factors are quantised to integers
that each sum to 2**24 (see _kernel_tables); a pair-frame's 16 cell
masses are integer products of its band and sector masses and sum to
2**48, and a window's histogram is the integer sum of its frames' cell
masses, divided by t1 * 2**48.  Sums of integers do not depend on their
order, so overlapping windows read theirs from one prefix sum over time
(Porikli's integral histogram, CVPR 2005).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import keyed
from .errors import MissingFrames, ModelShapeMismatch
from .trajectory import TWO_PI, finite_difference, wrap_angle

# Version of the vectors describe_pairs computes.  A change that alters
# any descriptor value bumps it; the CLI records it in every model file
# and refuses a model trained on another version.
DESCRIPTOR_VERSION = 2

# Each kernel factor's integer weights sum to 2**KERNEL_BITS, so a
# pair-frame's cell masses sum to 2**(2 * KERNEL_BITS).
KERNEL_BITS = 24

# Longest window: a window's cell sum, at most t1 * 2**48, stays below 2**63.
MAX_T1 = 2**14


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


_INTERACTION_IDS = {lab: i for i, lab in enumerate(InteractionLabel)}


@dataclass(frozen=True)
class PolarGrid:
    """Partition of the anchor-centered plane into distance bands x sectors.

    The default distance boundaries are Hall's proxemic zones (intimate,
    personal, social, public); the outermost band is unbounded.  Sectors
    are centered on the anchor's front/left/back/right, so sector 0 spans
    [-pi/4, pi/4) around the facing direction.  Cells are numbered
    band-major: cell = band * angular_sector_count + sector.
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
        if self.t1 > MAX_T1:
            raise ValueError(f"t1 must be at most {MAX_T1}, got {self.t1}")
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


def _denominators(cfg: PidConfig) -> tuple:
    if cfg.variance_denominator:
        return 2.0 * cfg.sigma_rho**2, 2.0 * cfg.sigma_theta**2
    return 2.0 * cfg.sigma_rho, 2.0 * cfg.sigma_theta


def _grid_offsets(cfg: PidConfig) -> tuple:
    n = cfg.grid_samples_per_axis
    unit = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
    return unit * (cfg.k_s * cfg.sigma_rho), unit * (cfg.k_s * cfg.sigma_theta)


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


def _quantised(weights: list) -> list:
    """Integers in proportion to the doubles ``weights`` that sum to
    2**KERNEL_BITS: each exact share's floor, plus one for each of the
    shares with the largest remainders, the earlier share first on a tie.
    All zeros when every weight is zero."""
    ratios = [w.as_integer_ratio() for w in weights]
    den = max(d for _, d in ratios)  # every denominator is a power of two
    scaled = [(n * (den // d)) << KERNEL_BITS for n, d in ratios]
    total = sum(scaled) >> KERNEL_BITS
    if not total:
        return [0] * len(weights)
    units = [v // total for v in scaled]
    by_remainder = sorted(range(len(units)), key=lambda i: -(scaled[i] % total))
    for i in by_remainder[:(1 << KERNEL_BITS) - sum(units)]:
        units[i] += 1
    return units


@functools.lru_cache(maxsize=16)
def _kernel_tables(cfg: PidConfig) -> tuple:
    """(radial, angular) int64 kernel factors: row k of ``radial`` holds
    the quantised radial weights of a frame that keeps its k outermost
    radial offsets (row 0 is unused), and ``angular`` the quantised
    angular weights.  Hard mode is one offset of weight 2**KERNEL_BITS.
    The tables are shared, so they are read-only."""
    if cfg.assignment == "hard":
        radial, angular = [[0], [1 << KERNEL_BITS]], [1 << KERNEL_BITS]
    else:
        r_off, t_off = _grid_offsets(cfg)
        dr, dt = _denominators(cfg)
        w_r = np.exp(-(r_off**2) / dr).tolist()
        n = len(w_r)
        radial = [[0] * n] + [[0] * (n - k) + _quantised(w_r[n - k:]) for k in range(1, n + 1)]
        angular = _quantised(np.exp(-(wrap_angle(t_off) ** 2) / dt).tolist())
    tables = np.array(radial, dtype=np.int64), np.array(angular, dtype=np.int64)
    for table in tables:
        table.flags.writeable = False
    return tables


def _id_word(track_id) -> int:
    """The heading key's word for a track id: crc32 of its UTF-8 text."""
    return zlib.crc32(str(track_id).encode("utf-8"))


def heading_draws(seed: int, anchor_words, target_words, frames) -> np.ndarray:
    """Per frame, the double in [0, 1) keyed by (seed, anchor word, target
    word, frame) (see keyed.uniform), where a word is ``crc32`` of a track
    id's UTF-8 text.

    A draw depends on its key alone, so overlapping windows and parallel
    evaluation draw identical angles.  The words broadcast against
    ``frames``, so one call serves the rows of many pairs.
    """
    frames = np.asarray(frames, dtype=np.int64)
    return keyed.uniform(keyed.HEADING, seed, anchor_words, target_words, frames)


# Rows (pair-frames) that describe_pairs puts into one PairBatch.  At the
# default 9 x 9 grid a row holds 288 B of kernel codes and 128 B of cell
# masses while a batch is built.
BATCH_FRAMES = 1024


class PairBatch:
    """Descriptors of the windows of many ordered pairs, from one pass.

    ``pairs`` holds one (anchor_states, target_states, anchor_id,
    target_id, centers) per pair.  A pair's windows become one block of
    rows, one per frame of their union in frame order, so each window is
    a run of t1 rows.  One pass over the rows of every pair gathers both
    tracks' states, takes rho and theta (the slow anchor's random
    heading where its orientation is unknown, see heading_draws) and
    codes them (see _kernel_codes); a row whose frame a track lacks
    makes its windows incomplete.  Each row's band and sector masses
    (see _kernel_tables) multiply into its integer cell masses, and a
    complete window's histogram is the difference of two rows of their
    int64 prefix sum, divided by t1 * 2**48: the prefix may wrap past
    2**63, but the difference, below 2**63, is exact.  The speed
    pyramids of all windows come from one (windows x t1) block of rho.

    ``complete`` and the read-only ``vectors`` hold one row per window
    in input order (pair by pair, each pair's centers as given); a row
    of ``vectors`` is that window's descriptor where ``complete`` is
    true.
    """

    __slots__ = ("complete", "vectors")

    def __init__(self, pairs: Sequence[tuple], cfg: PidConfig, fps: float, seed: int):
        t1, back = cfg.t1, cfg.window_halves[0]
        centers = [list(pair[4]) for pair in pairs]
        owner = np.repeat(np.arange(len(pairs)), [len(c) for c in centers])
        start = np.fromiter(itertools.chain.from_iterable(centers), np.int64, len(owner)) - back
        order = np.lexsort((start, owner))
        start, owner = start[order], owner[order]
        # a window adds the rows of its frames past its pair's previous window
        fresh = np.full(len(start), t1)
        later = np.flatnonzero(owner[1:] == owner[:-1]) + 1
        fresh[later] = np.minimum(start[later] - start[later - 1], t1)
        end = np.cumsum(fresh)
        first = end - t1
        frames = np.repeat(start + t1 - end, fresh) + np.arange(end[-1])
        pair_of = np.repeat(owner, fresh)

        # one lookup per track over the rows it serves; row 0 of the
        # stacked states stands for a frame the track lacks
        tracks = list({id(st): st for pair in pairs for st in pair[:2]}.values())
        slot = {id(st): k for k, st in enumerate(tracks)}
        who = np.array([[slot[id(pair[0])], slot[id(pair[1])]] for pair in pairs])
        who = who[pair_of].ravel()
        by_track = np.argsort(who, kind="stable")
        cuts = np.searchsorted(who[by_track], np.arange(len(tracks) + 1))
        at = np.zeros(len(who), dtype=np.intp)
        base = 1
        for k, st in enumerate(tracks):
            sel = by_track[cuts[k]:cuts[k + 1]]
            rows = st.rows(frames[sel >> 1])
            at[sel] = np.where(rows >= 0, rows + base, 0)
            base += len(st)
        ra, rb = at[0::2], at[1::2]
        have = (ra > 0) & (rb > 0)
        xy = np.concatenate([np.zeros((1, 2))] + [st.xy for st in tracks])
        heading = np.concatenate([[0.0]] + [st.orientation for st in tracks])[ra]

        d = xy[rb] - xy[ra]
        rho = np.hypot(d[:, 0], d[:, 1])
        slow = np.isnan(heading)
        theta = wrap_angle(np.arctan2(d[:, 1], d[:, 0]) - np.where(slow, 0.0, heading))
        words = np.array([[_id_word(pair[2]), _id_word(pair[3])] for pair in pairs],
                         dtype=np.uint64)[pair_of[slow]]
        theta[slow] = math.pi - TWO_PI * heading_draws(seed, words[:, 0], words[:, 1],
                                                       frames[slow])
        band, sector, kept = _kernel_codes(rho, theta, cfg.grid, cfg)
        radial, angular = _kernel_tables(cfg)
        grid = cfg.grid
        each = np.arange(len(frames))[:, None]
        band_mass = np.bincount((each * grid.band_count + band).ravel(), radial[kept].ravel(),
                                len(frames) * grid.band_count)
        sector_mass = np.bincount((each * grid.angular_sector_count + sector).ravel(),
                                  np.broadcast_to(angular, sector.shape).ravel(),
                                  len(frames) * grid.angular_sector_count)
        # float sums of integers below 2**53, so exact
        mass = (band_mass.astype(np.int64).reshape(len(frames), -1, 1)
                * sector_mass.astype(np.int64).reshape(len(frames), 1, -1))
        prefix = np.zeros((len(frames) + 1, grid.cell_count), dtype=np.int64)
        np.cumsum(mass.reshape(len(frames), -1), axis=0, out=prefix[1:])

        lacking = np.concatenate([[0], np.cumsum(~have)])
        complete = lacking[first + t1] == lacking[first]
        ok = np.flatnonzero(complete)
        vectors = np.zeros((len(start), cfg.descriptor_length))
        lo = first[ok]
        scale = float(t1 << (2 * KERNEL_BITS))
        vectors[ok, :grid.cell_count] = (prefix[lo + t1] - prefix[lo]) / scale
        speed = finite_difference(rho[lo[:, None] + np.arange(t1)], 1.0 / fps)
        vectors[ok, grid.cell_count:] = np.concatenate(
            [speed.reshape(len(ok), 2**level, t1 >> level).mean(axis=2)
             for level in range(cfg.l_max + 1)], axis=1)
        # back from (pair, start) order to input order
        row = np.argsort(order)
        self.complete = complete[row]
        self.vectors = vectors[row]
        self.vectors.flags.writeable = False


def describe_pairs(pairs: Sequence[tuple], cfg: PidConfig, fps: float, seed: int) -> np.ndarray:
    """Descriptor of every window of ``pairs``, given as PairBatch takes
    them, one row per window in input order.

    Consecutive runs of whole pairs of up to BATCH_FRAMES rows share one
    PairBatch; a pair that alone needs more rows gets a batch of its
    own.  A window that leaves a track raises MissingFrames naming the
    first frame that a track lacks in the first such window.
    """
    chunks, chunk, rows = [], [], 0
    for pair in pairs:
        starts = sorted(pair[4])
        need = cfg.t1 + sum(min(b - a, cfg.t1) for a, b in zip(starts, starts[1:]))
        if chunk and rows + need > BATCH_FRAMES:
            chunks.append(chunk)
            chunk, rows = [], 0
        chunk.append(pair)
        rows += need
    if chunk:
        chunks.append(chunk)
    parts = []
    for chunk in chunks:
        batch = PairBatch(chunk, cfg, fps, seed)
        if not batch.complete.all():
            windows = [pair[:4] + (c,) for pair in chunk for c in pair[4]]
            sa, sb, aid, tid, center = windows[batch.complete.argmin()]
            frames = np.arange(center - cfg.window_halves[0], center + cfg.window_halves[1] + 1)
            ra, rb = sa.rows(frames), sb.rows(frames)
            k = np.flatnonzero((ra < 0) | (rb < 0))[0]
            raise MissingFrames(f"track {aid if ra[k] < 0 else tid}: no state at frame {frames[k]}")
        parts.append(batch.vectors)
    return np.concatenate(parts) if parts else np.empty((0, cfg.descriptor_length))


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
