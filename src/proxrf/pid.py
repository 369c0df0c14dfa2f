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
DESCRIPTOR_VERSION = 1


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
# default 9 x 9 grid a row holds 1,296 B of cells and weights, so a batch
# holds 1.3 MB of them; batches of 4,096 rows describe a corpus more
# slowly and raise a command's peak memory by about 4 MB.
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
    makes its windows incomplete.  A complete window's histogram is one
    bincount over its rows' cells and weights, in frame, radial offset,
    angular offset order, and the speed pyramids of all windows come
    from one (windows x t1) block of rho.

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
        dx, dy = d[:, 0].tolist(), d[:, 1].tolist()
        rho = np.fromiter(map(math.hypot, dx, dy), float, len(frames))
        slow = np.isnan(heading)
        theta = wrap_angle(np.fromiter(map(math.atan2, dy, dx), float, len(frames))
                           - np.where(slow, 0.0, heading))
        words = np.array([[_id_word(pair[2]), _id_word(pair[3])] for pair in pairs],
                         dtype=np.uint64)[pair_of[slow]]
        theta[slow] = math.pi - TWO_PI * heading_draws(seed, words[:, 0], words[:, 1],
                                                       frames[slow])
        band, sector, kept = _kernel_codes(rho, theta, cfg.grid, cfg)
        cell_count = cfg.grid.cell_count
        cells = band.astype(np.intp)[:, :, None] * cfg.grid.angular_sector_count
        cells = (cells + sector[:, None, :]).reshape(len(frames), -1)
        weights = _kernel_weights(cfg)[kept]

        lacking = np.concatenate([[0], np.cumsum(~have)])
        complete = lacking[first + t1] == lacking[first]
        ok = np.flatnonzero(complete)
        vectors = np.zeros((len(start), cfg.descriptor_length))
        hist = vectors[:, :cell_count]
        for i, lo in zip(ok.tolist(), first[ok].tolist()):
            hist[i] = np.bincount(cells[lo:lo + t1].ravel(), weights=weights[lo:lo + t1].ravel(),
                                  minlength=cell_count)
        hist /= t1
        speed = finite_difference(rho[first[ok, None] + np.arange(t1)], 1.0 / fps)
        vectors[ok, cell_count:] = np.concatenate(
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
