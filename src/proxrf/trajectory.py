"""Ground-plane trajectories and smoothed kinematics.

Positions are metric ground-plane coordinates indexed by integer video
frames.  Smoothing uses double exponential smoothing (a level and a trend
smoother sharing one factor); velocities come from central finite
differences on the smoothed positions.  Heading orientation is only
trusted above a configurable speed threshold: below it, downstream code
substitutes a seeded random direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidFeature

DEFAULT_MAX_GAP = 5

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Wrap an angle (scalar or array) into (-pi, pi]."""
    wrapped = np.remainder(theta, TWO_PI)
    if np.ndim(wrapped) == 0:
        return float(wrapped - TWO_PI) if wrapped > math.pi else float(wrapped)
    wrapped = np.asarray(wrapped)
    wrapped[wrapped > math.pi] -= TWO_PI
    return wrapped


@dataclass(frozen=True)
class TimedPosition:
    """One ground-plane sample of a track at an integer frame."""

    frame: int
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite position at frame {self.frame}")


@dataclass(frozen=True)
class SmoothingConfig:
    """Double-exponential smoothing factor and the slow-speed threshold.

    ``alpha`` weights the current observation in both the level and trend
    smoothers.  ``t_s`` is the speed (m/s) below which motion-derived
    orientation is considered unreliable.
    """

    alpha: float = 0.5
    t_s: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if not 0.0 <= self.t_s < math.inf:
            raise ValueError(f"t_s must be finite and >= 0, got {self.t_s}")


@dataclass(frozen=True, eq=False)
class TrackStates:
    """Smoothed kinematics of one track, one row per frame with a state.

    ``frames`` (int64) increases, with jumps where the track splits into
    separately smoothed spans; ``xy`` and ``velocity`` are (n, 2),
    ``speed`` and ``orientation`` (n,).  ``orientation`` is nan exactly
    where ``speed`` is below the smoothing config's slow threshold.  The
    arrays are shared by every reader, which must not write to them.
    """

    frames: np.ndarray
    xy: np.ndarray
    velocity: np.ndarray
    speed: np.ndarray
    orientation: np.ndarray

    def __len__(self):
        return len(self.frames)

    def rows(self, frames) -> np.ndarray:
        """Row of each of ``frames``, or -1 where the track has no state."""
        frames = np.asarray(frames, dtype=np.int64)
        if not len(self.frames):
            return np.full(frames.shape, -1)
        at = np.minimum(np.searchsorted(self.frames, frames), len(self.frames) - 1)
        return np.where(self.frames[at] == frames, at, -1)


class Trajectory:
    """Ground-plane positions of one track id at a fixed frame rate.

    A track is two read-only arrays: int64 ``frames``, strictly increasing,
    and float ``xy`` of shape (n, 2), finite.  ``Trajectory(track_id,
    samples, fps)`` builds one from TimedPosition samples and
    ``Trajectory.from_arrays`` from the arrays themselves; ``samples``
    gives the TimedPosition view back.
    """

    __slots__ = ("track_id", "fps", "_frames", "_xy")

    def __init__(self, track_id, samples: Iterable[TimedPosition], fps: float):
        samples = tuple(samples)
        self._set(track_id, [s.frame for s in samples], [(s.x, s.y) for s in samples], fps)

    @classmethod
    def from_arrays(cls, track_id, frames, xy, fps: float) -> "Trajectory":
        """Track from its frames (n,) and positions (n, 2), both copied."""
        traj = cls.__new__(cls)
        traj._set(track_id, frames, xy, fps)
        return traj

    def _set(self, track_id, frames, xy, fps):
        if fps <= 0.0:
            raise ValueError(f"fps must be > 0, got {fps}")
        frames = np.array(frames, dtype=np.int64)
        xy = np.array(xy, dtype=float).reshape(len(frames), 2)
        if (frames[1:] <= frames[:-1]).any():
            raise ValueError(f"track {track_id}: frames must strictly increase")
        finite = np.isfinite(xy)
        if not finite.all():
            bad = np.flatnonzero(~finite.all(axis=1))[0]
            raise ValueError(f"non-finite position at frame {frames[bad]}")
        frames.flags.writeable = False
        xy.flags.writeable = False
        self.track_id = str(track_id)
        self.fps = float(fps)
        self._frames = frames
        self._xy = xy

    def __len__(self):
        return len(self._frames)

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.track_id == other.track_id
            and self.fps == other.fps
            and np.array_equal(self._frames, other._frames)
            and np.array_equal(self._xy, other._xy)
        )

    def __repr__(self):
        span = f"{self.first_frame}..{self.last_frame}" if len(self) else "empty"
        return f"Trajectory({self.track_id!r}, {len(self)} samples, frames {span})"

    @property
    def first_frame(self):
        return int(self._frames[0])

    @property
    def last_frame(self):
        return int(self._frames[-1])

    @property
    def frames(self):
        return self._frames.copy()

    @property
    def xy(self):
        return self._xy.copy()

    @property
    def samples(self) -> tuple:
        """The track as TimedPosition samples, built on each call."""
        return tuple(map(TimedPosition, self._frames.tolist(), *self._xy.T.tolist()))

    def pieces(self, max_gap: int = DEFAULT_MAX_GAP) -> list:
        """(first, last) frame of each stretch of the track whose interior
        gaps are at most ``max_gap`` frames, in frame order."""
        f = self._frames
        cut = np.diff(f) > max_gap + 1
        return list(zip(f[:1].tolist() + f[1:][cut].tolist(),
                        f[:-1][cut].tolist() + f[-1:].tolist()))


def _brown(values: list, a: float) -> list:
    """Brown's double exponential smoothing of one coordinate, in floats."""
    b = 1.0 - a
    s1 = values[0]
    s2 = a * s1 + b * s1  # s1[0]
    out = []
    for v in values:
        s1 = a * v + b * s1
        s2 = a * s1 + b * s2
        out.append(2.0 * s1 - s2)
    return out


def smoothed_states(tracks, cfg: SmoothingConfig, max_gap: int = DEFAULT_MAX_GAP):
    """Smoothed positions and their kinematics over each contiguous span
    of a track, concatenated.

    ``tracks`` is one Trajectory, giving its TrackStates, or a sequence
    of them, giving a list of TrackStates in the same order; one track
    is the same computation over a single track.  Gaps of at most
    ``max_gap`` frames are interpolated first; larger gaps split a track
    into independent spans.  Spans of a single frame yield no state.
    Each span is smoothed from its own start in Brown's form: a level
    smoother s1[t] = a*x[t] + (1-a)*s1[t-1] feeds a second smoother s2 of
    the same form, and the output 2*s1 - s2 removes the steady-state
    lag.  s1 is seeded with x[0] and s2 with s1[0], so the first sample
    passes through unchanged.  Velocity is the central finite difference
    of the smoothed positions (one-sided at the span's ends) in meters
    per second, and orientation is atan2 of the velocity where the speed
    is at least ``t_s``, else nan.  The spans of all tracks are laid end
    to end (_filled_spans), smoothed one by one in Python floats (_brown)
    and differenced together.  Finite positions so large that the gap
    interpolation, the smoothing or the velocity overflows raise
    InvalidFeature naming the first such track and its first such frame.
    """
    if isinstance(tracks, Trajectory):
        return smoothed_states([tracks], cfg, max_gap)[0]
    tracks = list(tracks)
    owner, off, frames, pos, interp_bad = _filled_spans(tracks, max_gap)
    xy = np.empty_like(pos)
    for lo, hi in zip(off[:-1].tolist(), off[1:].tolist()):
        xy[lo:hi, 0] = _brown(pos[lo:hi, 0].tolist(), cfg.alpha)
        xy[lo:hi, 1] = _brown(pos[lo:hi, 1].tolist(), cfg.alpha)
    del pos  # a corpus's positions: free them before the velocity
    # each step is one frame: central differences inside a span, one-sided
    # at its two ends, as finite_difference(span, 1.0) gives
    first, last = off[:-1], off[1:] - 1
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        velocity = np.empty_like(xy)
        np.subtract(xy[2:], xy[:-2], out=velocity[1:-1])
        velocity[1:-1] /= 2.0
        velocity[first] = xy[first + 1] - xy[first]
        velocity[last] = xy[last] - xy[last - 1]
        velocity *= np.repeat(np.array([t.fps for t in tracks])[owner], np.diff(off))[:, None]
        speed = np.hypot(velocity[:, 0], velocity[:, 1])
    faults = (("interpolated position", interp_bad),
              ("smoothed position", ~np.isfinite(xy).all(axis=1)),
              ("velocity", ~np.isfinite(speed)))
    firsts = [np.argmax(bad) for _, bad in faults if bad.any()]
    if firsts:  # finite input, overflowing arithmetic: the first span at fault
        span = np.searchsorted(off, min(firsts), side="right") - 1
        for what, bad in faults:
            hit = np.flatnonzero(bad[off[span]:off[span + 1]])
            if len(hit):
                raise InvalidFeature(f"track {tracks[owner[span]].track_id}: {what} "
                                     f"overflows at frame {frames[off[span] + hit[0]]}")
    orientation = np.arctan2(velocity[:, 1], velocity[:, 0])
    orientation[speed < cfg.t_s] = np.nan
    bounds = off[np.searchsorted(owner, np.arange(len(tracks) + 1))].tolist()
    return [TrackStates(frames[a:b], xy[a:b], velocity[a:b], speed[a:b], orientation[a:b])
            for a, b in zip(bounds, bounds[1:])]


def _filled_spans(tracks: list, max_gap: int) -> tuple:
    """The spans of ``tracks`` with their gaps filled, laid end to end.

    A span is a run of at least two samples of one track without a gap
    beyond ``max_gap``.  Returns each span's track index, the offsets of
    the spans (span k holds rows off[k]:off[k + 1]), and per row its
    frame, its position (interpolated in a gap) and whether that
    interpolation overflowed.
    """
    frames = np.concatenate([np.empty(0, np.int64)] + [t._frames for t in tracks])
    xy = np.concatenate([np.empty((0, 2))] + [t._xy for t in tracks])
    starts = np.cumsum([0] + [len(t) for t in tracks])
    new = np.zeros(len(frames) + 1, dtype=bool)  # a span starts at the row
    new[1:-1] = np.diff(frames) > max_gap + 1
    new[starts] = True  # each track's first row, and the end
    lo = np.flatnonzero(new[:-1])
    samples = np.diff(np.append(lo, len(frames)))
    kept = np.repeat(samples >= 2, samples)
    lo, samples = lo[samples >= 2], samples[samples >= 2]
    owner = np.searchsorted(starts, lo, side="right") - 1
    first = frames[lo]
    length = frames[lo + samples - 1] - first + 1
    off = np.concatenate([[0], np.cumsum(length)])
    filled = np.arange(off[-1]) + np.repeat(first - off[:-1], length)
    if (length == samples).all():
        return owner, off, filled, xy[kept], np.zeros(len(filled), dtype=bool)
    # one interpolation over the spans laid end to end: a known frame is
    # a knot and keeps its value, and a missing one is interpolated
    # between its own span's neighbours, as np.interp over the span would
    at = frames[kept] + np.repeat(off[:-1] - first, samples)
    pos = np.column_stack([np.interp(np.arange(off[-1]), at, xy[kept, 0]),
                           np.interp(np.arange(off[-1]), at, xy[kept, 1])])
    return owner, off, filled, pos, ~np.isfinite(pos).all(axis=1)


def finite_difference(values: np.ndarray, h: float) -> np.ndarray:
    """Derivative along the last axis of values sampled every ``h``
    seconds: central differences inside, one-sided at both ends (>= 2
    values)."""
    dv = np.empty_like(values)
    dv[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * h)
    dv[..., 0] = (values[..., 1] - values[..., 0]) / h
    dv[..., -1] = (values[..., -1] - values[..., -2]) / h
    return dv
